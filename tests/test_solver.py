from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mpc, mpf

from lattice_rotor.corelattice import ComplexVector, Rotation, real_dist_to_lattice
from lattice_rotor.precision import (
    residual_tol,
    unit_modulus_tol,
    working_precision,
)
from lattice_rotor.products import EvenDimPointSet, embed_points, project_planes
from lattice_rotor.solver import (
    SolveReport,
    SolverConfig,
    certify,
    derive_seed,
    dilation_threshold,
    initial_search_length,
    lattice_residuals,
    randomize_phase,
    solve_general,
    solve_plan,
    solve_typical,
)

BITS = 128


def _unit_angle_one():
    with working_precision(BITS):
        return ComplexVector((mpmath.expj(mpf(1)),), BITS)


def _triangle():
    with working_precision(BITS):
        w = mpmath.expjpi(mpf(2) / 3)
        return ComplexVector((mpc(1), w, w * w), BITS)


def _image_coord(a: int, kind: str, k: int, frac: float):
    """An image coordinate: a half-integer, a hair either side of one,
    or a generic offset from an integer."""
    with working_precision(1400):
        if kind == "generic":
            return mpf(a) + mpf(frac)
        nudge = {"below": -1, "at": 0, "above": 1}[kind] * mpf(2) ** -k
        return mpf(a) + mpf(1) / 2 + nudge


IMAGE_COORDS = st.builds(
    _image_coord,
    st.integers(-(2**30), 2**30),
    st.sampled_from(["below", "at", "above", "generic"]),
    st.integers(2, 1100),
    st.floats(0, 1, exclude_max=True),
)


@st.composite
def certify_cases(draw, num_planes: int):
    """(thetas, t, point set, bits) whose images theta_i*t*z are drawn
    first, so near-half-integer coordinates survive the map back to the
    points."""
    bits = draw(st.sampled_from([64, 106, 128, 256, 512]))
    thetas = [Rotation.from_angle(draw(st.floats(0, 6.283)), bits) for _ in range(num_planes)]
    t = mpf(draw(st.integers(1, 10**15)))
    points = []
    with working_precision(4 * bits + 1400):
        for _ in range(draw(st.integers(1, 4))):
            coords = []
            for theta in thetas:
                z = mpc(draw(IMAGE_COORDS), draw(IMAGE_COORDS)) / (theta.value * t)
                coords += [z.real, z.imag]
            points.append(tuple(coords))
    return thetas, t, EvenDimPointSet(tuple(points), bits), bits


class TestCertify:
    @given(case=certify_cases(1))
    def test_one_plane_is_lattice_residuals_rounded(self, case):
        (theta,), t, ps, bits = case
        vec = project_planes(ps)[0]
        per_point, worst = certify([theta], t, [vec], bits)
        hi = lattice_residuals(theta, t, vec, 2 * bits)
        with working_precision(bits):
            expected = tuple(mpf(v) for v in hi)
        assert per_point == expected
        assert worst == max(expected)

    @given(case=certify_cases(2))
    def test_two_planes_match_interleaved_distance(self, case):
        # the arithmetic certify replaced: real_dist_to_lattice over the
        # interleaved image coordinates at doubled precision
        thetas, t, ps, bits = case
        per_point, worst = certify(thetas, t, project_planes(ps), bits)
        hi = 2 * bits
        report = SimpleNamespace(
            eval_bits=hi, t=t, per_plane=[SimpleNamespace(theta=th) for th in thetas]
        )
        with working_precision(hi):
            tol = mpf(2) ** -(bits - 8)
            for got, coords in zip(per_point, embed_points(ps, report)):
                assert abs(got - real_dist_to_lattice(coords, hi)) <= tol
        assert worst == max(per_point)

    def test_lattice_points_certify_to_zero(self):
        vec = ComplexVector((mpc(3, -2), mpc(0, 5)), BITS)
        with working_precision(BITS):
            identity = Rotation(mpc(1), BITS)
        assert certify([identity], 7, [vec], BITS) == ((0, 0), 0)


class TestDilationThreshold:
    def test_reference_value(self):
        assert dilation_threshold(1, 1, "0.1", BITS) == 20

    def test_quadruples_when_horizon_doubles(self):
        a = dilation_threshold(3, "1.7", "0.05", BITS)
        b = dilation_threshold(6, "1.7", "0.05", BITS)
        assert b == 4 * a

    def test_validation(self):
        with pytest.raises(ValueError):
            dilation_threshold(1, 1, 0, BITS)
        with pytest.raises(ValueError):
            dilation_threshold(-1, 1, "0.1", BITS)

    def test_exponential_remainder_under_quarter_eps(self):
        # at t = 2T the gap between e^(is/t)*t*z and (t+is)*z stays below
        # eps/4 across the whole horizon, checked by direct sweep
        L, eps = mpf(1), mpf("0.1")
        t = 2 * dilation_threshold(L, 1, eps, BITS)
        with working_precision(BITS):
            worst = mpf(0)
            for k in range(101):
                s = L * k / 100
                gap = abs(mpmath.expj(s / t) * t - (t + mpc(0, 1) * s))
                worst = max(worst, gap)
        assert worst < eps / 4


class TestSearchLength:
    def test_values(self):
        assert initial_search_length("0.5", 1, BITS) == 32
        assert initial_search_length("0.5", 2, BITS) == 128

    def test_validation(self):
        with pytest.raises(ValueError):
            initial_search_length("0.5", 0, BITS)
        with pytest.raises(ValueError):
            initial_search_length(1, 1, BITS)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, 3, "phase") == derive_seed(7, 3, "phase")

    def test_distinct_across_inputs(self):
        seen = {
            derive_seed(7, 0, "phase"),
            derive_seed(7, 1, "phase"),
            derive_seed(8, 0, "phase"),
            derive_seed(7, 0, "plane"),
        }
        assert len(seen) == 4

    def test_fits_in_signed_64(self):
        for i in range(16):
            s = derive_seed(123456789, i)
            assert 0 <= s < 1 << 63


class TestRandomizePhase:
    def test_same_seed_same_phase(self):
        v = _unit_angle_one()
        a = randomize_phase(v, 42)
        b = randomize_phase(v, 42)
        assert a.phi == b.phi
        assert a.rotated.entries == b.rotated.entries

    def test_different_seeds_differ(self):
        v = _unit_angle_one()
        assert randomize_phase(v, 0).phi != randomize_phase(v, 1).phi

    def test_phase_range(self):
        with working_precision(BITS):
            two_pi = 2 * mpmath.pi
        for seed in range(8):
            phi = randomize_phase(_unit_angle_one(), seed).phi
            assert 0 <= phi < two_pi

    def test_moduli_preserved(self):
        with working_precision(BITS):
            v = ComplexVector((mpc(3, 4), mpc("0.01"), mpc(0, 2)), BITS)
        sample = randomize_phase(v, 9)
        slack = mpf(2) ** -120
        for before, after in zip(v.entries, sample.rotated.entries):
            assert abs(abs(after) - abs(before)) <= slack * (1 + abs(before))


class TestSolveTypical:
    def test_integral_dilation_is_exact(self):
        with working_precision(BITS):
            v = ComplexVector((mpc(1, 1),), BITS)
        report = solve_typical(v, 7, "0.1", 4)
        assert report.achieved
        assert report.s_found == 0
        assert report.max_frac == 0
        assert report.theta.value == 1

    def test_single_unit_entry_large_dilation(self):
        v = _unit_angle_one()
        L = initial_search_length("0.05", 1, BITS)
        report = solve_typical(v, 1000, "0.1", L)
        assert report.achieved
        # independent re-evaluation at doubled precision
        residuals = lattice_residuals(report.theta, mpf(1000), v, 2 * report.eval_bits)
        assert max(residuals) < mpf("0.1") + residual_tol(report.eval_bits)

    def test_all_zero_vector_trivial(self):
        with working_precision(BITS):
            v = ComplexVector((mpc(0), mpc(0)), BITS)
        report = solve_typical(v, 100, "0.1", 10)
        assert report.achieved
        assert report.max_frac == 0
        assert report.theta.value == 1

    def test_empty_horizon_reports_honestly(self):
        v = _unit_angle_one()
        report = solve_typical(v, "1e6", "1e-6", 0)
        assert not report.achieved
        assert report.s_found is None
        assert any("density horizon exceeded" in d for d in report.diagnostics)

    def test_validation(self):
        v = _unit_angle_one()
        with pytest.raises(ValueError):
            solve_typical(v, 0, "0.1", 1)
        with pytest.raises(ValueError):
            solve_typical(v, 10, "0.9", 1)
        with pytest.raises(ValueError):
            solve_typical(v, 10, "0.1", -1)


class TestSolvePlan:
    def test_single_free_entry(self):
        plan = solve_plan(ComplexVector((mpc(1),), BITS), "0.1")
        assert plan.decomposition.num_basis == 1
        assert plan.decomposition.M == 1
        with working_precision(BITS + 64):
            assert plan.eps_inner == mpf("0.1") / 2
            assert plan.initial_L == 8 / plan.eps_inner**2
            assert plan.T_threshold == 2 * plan.initial_L**2 / plan.eps_inner

    def test_triangle_reduction(self):
        plan = solve_plan(_triangle(), "0.1")
        assert plan.decomposition.num_basis == 2
        assert plan.decomposition.M == 3
        with working_precision(BITS + 64):
            assert plan.eps_inner == mpf("0.1") / 36


class TestSolveGeneral:
    def test_single_unit_entry(self):
        v = ComplexVector((mpc(1),), BITS)
        # independent existence sweep: some rotation of t*V lands within
        # 0.1 of the lattice (coarse float screen, exact claim confirmed
        # by the solver's own doubled-precision verification)
        phis = np.linspace(0.0, 2 * np.pi, 20000, endpoint=False)
        w = 1e4 * np.exp(1j * phis)
        d = np.hypot(w.real - np.rint(w.real), w.imag - np.rint(w.imag))
        assert (d < 0.1).any()

        report = solve_general(v, "1e4", "0.1", seed=0)
        assert report.achieved
        residuals = lattice_residuals(report.theta, mpf(10) ** 4, v, 2 * report.eval_bits)
        assert max(residuals) < mpf("0.1") + residual_tol(report.eval_bits)

    def test_rotation_stays_on_unit_circle(self):
        report = solve_general(ComplexVector((mpc(1),), BITS), "1e4", "0.1", seed=0)
        assert abs(abs(report.theta.value) - 1) <= unit_modulus_tol(report.eval_bits)

    def test_zero_entry_rides_along(self):
        v = ComplexVector((mpc(1), mpc(0)), BITS)
        report = solve_general(v, "1e4", "0.1", seed=0)
        assert report.achieved
        assert report.per_point_frac[1] == 0
        dec = report.decomposition
        assert dec.basis_indices == (0,)
        assert dec.dependent_indices == (1,)

    def test_all_zero_vector(self):
        v = ComplexVector((mpc(0), mpc(0)), BITS)
        report = solve_general(v, 100, "0.1", seed=0)
        assert report.achieved
        assert report.max_frac == 0

    def test_triangle_full_pipeline(self):
        eps = "0.1"
        v = _triangle()
        plan = solve_plan(v, eps)
        with working_precision(BITS + 64):
            t = 3 * plan.T_threshold
        report = solve_general(v, t, eps, seed=0)
        assert report.achieved
        dec = report.decomposition
        assert dec.num_basis == 2 and dec.M == 3
        # a-posteriori master check at doubled precision
        residuals = lattice_residuals(report.theta, report.t, v, 2 * report.eval_bits)
        assert max(residuals) < mpf("0.1") + residual_tol(report.eval_bits)
        assert any("chain-predicted" in d for d in report.diagnostics)

    def test_seed_changes_phase(self):
        v = ComplexVector((mpc(1),), BITS)
        a = solve_general(v, "1e4", "0.1", seed=0)
        b = solve_general(v, "1e4", "0.1", seed=1)
        assert a.phi != b.phi

    def test_deterministic_reports(self):
        v = _triangle()
        a = solve_general(v, "1e26", "0.25", seed=3)
        b = solve_general(v, "1e26", "0.25", seed=3)
        assert a.to_json_dict() == b.to_json_dict()

    def test_report_json_round_trip(self):
        report = solve_general(ComplexVector((mpc(1),), BITS), "1e4", "0.1", seed=0)
        back = SolveReport.from_json_dict(report.to_json_dict())
        assert back.t == report.t
        assert back.theta.value == report.theta.value
        assert back.phi == report.phi
        assert back.s_found == report.s_found
        assert back.max_frac == report.max_frac
        assert back.per_point_frac == report.per_point_frac
        assert back.achieved == report.achieved
        assert back.decomposition == report.decomposition

    def test_starved_horizon_retries_then_reports(self):
        config = SolverConfig(l_cap="0.01", max_phase_retries=2)
        report = solve_general(_unit_angle_one(), "1e6", "1e-6", seed=0, config=config)
        assert not report.achieved
        assert report.s_found is None
        assert any("density horizon exceeded" in d for d in report.diagnostics)
        assert any("retry 1" in d for d in report.diagnostics)
        assert any("retry 2" in d for d in report.diagnostics)

    def test_escalation_ladder_is_logged(self):
        config = SolverConfig(l_start="0.5")
        report = solve_general(_unit_angle_one(), "1e4", "0.1", seed=0, config=config)
        assert report.achieved

    def test_invalid_inputs(self):
        v = ComplexVector((mpc(1),), BITS)
        with pytest.raises(ValueError):
            solve_general(v, 0, "0.1")
        with pytest.raises(ValueError):
            solve_general(v, 10, "0.8")
