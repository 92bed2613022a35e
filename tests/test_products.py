import mpmath
import pytest
from mpmath import mpc, mpf

from lattice_rotor.corelattice import ComplexVector
from lattice_rotor.precision import working_precision
from lattice_rotor.products import embed_points, project_planes, solve_even_dim
from lattice_rotor.precision import parse_complex_pair, parse_decimal
from lattice_rotor.reporting import to_json_data
from lattice_rotor.solver import derive_seed, solve_general, solve_plan

BITS = 128


_TWO_PLANE_POINTS = (
    ("0.3", "1.7", "-0.4", "0.9"),
    ("1.1", "-0.2", "0.5", "0.6"),
)


def _two_plane_fixture():
    return project_planes(_TWO_PLANE_POINTS, BITS)


def _two_plane_coords():
    """The fixture's coordinates as project_planes reads them."""
    return tuple(tuple(parse_decimal(c, BITS) for c in p) for p in _TWO_PLANE_POINTS)


def _block_dilation(planes, eps):
    # past the largest per-plane threshold both planes are in regime
    with working_precision(BITS + 64):
        share = mpf(eps) / mpmath.sqrt(mpf(len(planes)))
        worst = max(solve_plan(pl, share).T_threshold for pl in planes)
        return 2 * worst


class TestPointSetContainer:
    """project_planes is the one check of a point set: nonempty, one even
    dimension, finite coordinates."""

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError, match="even"):
            project_planes(((1, 2, 3),), BITS)

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError, match="mixed"):
            project_planes(((1, 2), (1, 2, 3, 4)), BITS)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one point"):
            project_planes((), BITS)

    def test_rejects_empty_point(self):
        with pytest.raises(ValueError, match="even"):
            project_planes(((),), BITS)

    @pytest.mark.parametrize("bad", ["inf", "nan", mpf("-inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            project_planes((("1", "2"), (bad, "0")), BITS)

    def test_dim_and_planes(self):
        planes = _two_plane_fixture()
        assert len(planes) == 2
        assert all(len(pl) == 2 and pl.bits == BITS for pl in planes)


class TestPlaneProjection:
    def test_single_point_split(self):
        planes = project_planes(((1, 2, 3, 4),), BITS)
        assert len(planes) == 2
        assert planes[0].entries == (mpc(1, 2),)
        assert planes[1].entries == (mpc(3, 4),)

    def test_round_trip_is_exact(self):
        planes = _two_plane_fixture()
        back = tuple(
            tuple(c for pl in planes for c in (pl.entries[j].real, pl.entries[j].imag))
            for j in range(len(_TWO_PLANE_POINTS))
        )
        assert back == _two_plane_coords()

    def test_two_dim_is_one_plane(self):
        planes = project_planes((("0.5", "0.25"), ("1.5", "-0.75")), BITS)
        assert len(planes) == 1
        assert planes[0].entries == (mpc(mpf("0.5"), mpf("0.25")), mpc(mpf("1.5"), mpf("-0.75")))


class TestSinglePlaneReduction:
    def test_matches_planar_solver_exactly(self):
        planes = project_planes((("1", "0"),), BITS)
        block = solve_even_dim(planes, "1e4", "0.1", seed=5)
        direct = solve_general(
            ComplexVector((mpc(1),), BITS),
            "1e4",
            "0.1",
            seed=derive_seed(5, 0, "plane"),
        )
        assert len(block.per_plane) == 1
        assert to_json_data(block.per_plane[0]) == to_json_data(direct)
        assert block.achieved == direct.achieved
        # one plane: combined distance equals the planar distance per point
        for combined, plane_val in zip(
            block.combined_per_point, block.per_plane[0].per_point_frac
        ):
            assert abs(combined - plane_val) <= mpf(2) ** -100


class TestTwoPlaneSolve:
    def test_combined_bound_from_plane_shares(self):
        ps = _two_plane_fixture()
        eps = "0.1"
        t = _block_dilation(ps, eps)
        report = solve_even_dim(ps, t, eps, seed=0)
        share = mpf(eps) / mpmath.sqrt(mpf(2))
        planes_ok = all(r.achieved and r.max_frac < share for r in report.per_plane)
        assert planes_ok
        assert report.achieved
        assert report.combined_max_frac < mpf(eps)

    def test_pythagorean_combination(self):
        ps = _two_plane_fixture()
        t = _block_dilation(ps, "0.1")
        report = solve_even_dim(ps, t, "0.1", seed=0)
        slack = mpf(2) ** (-report.eval_bits + 16)
        for j in range(len(_TWO_PLANE_POINTS)):
            total = sum(r.per_point_frac[j] ** 2 for r in report.per_plane)
            assert report.combined_per_point[j] ** 2 <= total + slack

    def test_embedding_preserves_scaled_distances(self):
        ps = _two_plane_fixture()
        t = _block_dilation(ps, "0.1")
        report = solve_even_dim(ps, t, "0.1", seed=0)
        images = embed_points(ps, report)
        with working_precision(2 * report.eval_bits):
            t_v = mpf(report.t)
            x, y = _two_plane_coords()
            px, py = images
            original = mpmath.sqrt(sum((mpf(a) - mpf(b)) ** 2 for a, b in zip(x, y)))
            mapped = mpmath.sqrt(sum((a - b) ** 2 for a, b in zip(px, py)))
            rel = abs(mapped - t_v * original) / (t_v * original)
        assert rel <= mpf(2) ** (-report.eval_bits + 8)

    def test_deterministic(self):
        ps = _two_plane_fixture()
        t = _block_dilation(ps, "0.1")
        a = solve_even_dim(ps, t, "0.1", seed=2)
        b = solve_even_dim(ps, t, "0.1", seed=2)
        assert to_json_data(a) == to_json_data(b)

    def test_json_round_trip(self):
        ps = _two_plane_fixture()
        t = _block_dilation(ps, "0.1")
        report = solve_even_dim(ps, t, "0.1", seed=0)
        # the CLI's recheck reads t and the plane rotations back from this
        data = to_json_data(report)
        bits = data["eval_bits"]
        assert parse_decimal(data["t"], bits) == report.t
        assert parse_decimal(data["combined_max_frac"], bits) == report.combined_max_frac
        assert tuple(parse_decimal(x, bits) for x in data["combined_per_point"]) == report.combined_per_point
        assert tuple(parse_decimal(x, bits) for x in data["plane_eps"]) == report.plane_eps
        assert data["achieved"] == report.achieved
        assert len(data["per_plane"]) == len(report.per_plane)
        plane = data["per_plane"][0]
        assert parse_complex_pair(plane["theta"], plane["eval_bits"]) == report.per_plane[0].theta.value


class TestToleranceSplits:
    def test_eps_must_fit_dimension(self):
        ps = _two_plane_fixture()
        with pytest.raises(ValueError):
            solve_even_dim(ps, "1e4", "1.1", seed=0)  # sqrt(4)/2 = 1 is the cap

    def test_planes_of_different_lengths_refused(self):
        # point j is entry j of every plane, so ragged planes are no point set
        planes = (project_planes((("1", "0"),), BITS)[0],) + _two_plane_fixture()[1:]
        with pytest.raises(ValueError, match="zip"):
            solve_even_dim(planes, "1e4", "0.1", seed=0)

    def test_planar_cap_still_applies_through_solver(self):
        ps = project_planes((("1", "0"),), BITS)
        with pytest.raises(ValueError):
            solve_even_dim(ps, "1e4", "0.8", seed=0)  # over sqrt(2)/2
