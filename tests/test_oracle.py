import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mpc, mpf

import lattice_rotor.cli as cli
import lattice_rotor.oracle as oracle
from lattice_rotor.corelattice import ComplexVector, Rotation
from lattice_rotor.oracle import (
    CoveringOutcome,
    PlanarIsometry,
    apply_isometry,
    check_prop_sep,
    covering_time,
    isometry_max_frac,
    separated_probe,
    separation,
    tau_estimate,
)
from lattice_rotor.precision import (
    magnitude_bits,
    parse_complex_pair,
    parse_decimal,
    working_precision,
)
from lattice_rotor.reporting import to_json_data

B = 128


def _pair():
    with working_precision(B):
        return ComplexVector((mpc(0), mpc(mpf("0.5"), 0)), B)


def _entries(pairs):
    # (real, imaginary) pairs of decimals or "p/q" rationals at B bits
    def q(text):
        p, _, d = text.partition("/")
        return mpf(p) / mpf(d or 1)

    with working_precision(B):
        return ComplexVector(tuple(mpc(q(x), q(y)) for x, y in pairs), B)


# half-integer and small-rational configurations, full of exact ties
FIVE_HALF = [("0", "0"), ("1/2", "0"), ("0", "1/2"), ("1", "1/2"), ("-1/2", "-1")]
FIVE_RATIONAL = [("1/3", "0"), ("0", "2/3"), ("1/4", "1/6"), ("-3/5", "1/2"), ("5/7", "-2/3")]

# coordinates up to modulus ~7e4: floats, half-integers, half-integers
# nudged by less than a float64 screen can see at that size, and small
# quarter-integers, whose images tie and line up
HALVES = st.integers(-98_000, 98_000).map(lambda k: k / 2)
QUARTERS = st.integers(-12, 12).map(lambda k: k / 4)
COORD = st.one_of(
    st.floats(-49_000, 49_000),
    HALVES,
    st.tuples(HALVES, st.floats(-1e-6, 1e-6)).map(lambda p: p[0] + p[1]),
    QUARTERS,
)

# coordinates past _EXACT_ROTATION_MODULUS: half-integers, nudged ones and
# plain floats up to 1e9
FAR_HALVES = st.integers(-2 * 10**9, 2 * 10**9).map(lambda k: k / 2)
FAR = st.one_of(
    st.floats(-1e9, 1e9),
    FAR_HALVES,
    st.tuples(FAR_HALVES, st.floats(-1e-6, 1e-6)).map(lambda p: p[0] + p[1]),
)


@st.composite
def _point_sets(draw, coord, max_size):
    # 1 to max_size points: drawn ones, then repeats of them and points on
    # the segment between two of them, so triples can be degenerate
    points = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=max_size))
    for _ in range(draw(st.integers(0, max_size - len(points)))):
        (x0, y0), (x1, y1) = draw(st.sampled_from(points)), draw(st.sampled_from(points))
        s = draw(st.sampled_from([0, 1, 0.5, 0.25]))
        points.append((x0 + s * (x1 - x0), y0 + s * (y1 - y0)))
    return points


def _triangle(scale=1):
    with working_precision(B):
        w = mpmath.expjpi(mpf(2) / 3)
        return ComplexVector(tuple(mpf(scale) * z for z in (mpc(1), w, w * w)), B)


def _conj(vec):
    with working_precision(B):
        return ComplexVector(tuple(mpmath.conj(z) for z in vec.entries), B)


def _kept_rows(n_t):
    # one rotation row per orbit of the quarter and half turns on the grid
    return n_t // math.gcd(4, n_t)


def _assert_rotation_bound_sound(vec, n_t, n_u, reflect):
    # no cell of a rotation lies below its bounds by more than float error;
    # a reflected sweep's rows are the rotations of the conjugate set
    rw, iw = oracle._rotated_images(_conj(vec) if reflect else vec, n_t, n_t, B)
    lb = np.maximum(oracle._rotation_bound(rw, iw), oracle._triple_bound(rw, iw))
    u = np.arange(n_u, dtype=np.float64) / n_u
    for j in range(len(rw)):
        cells = oracle._cell_max(*oracle._frac_sq_tables(rw[j], iw[j], u))
        assert lb[j] <= cells.min() + oracle._SCREEN_MARGIN / 10


def _sweep_work(vec, n, monkeypatch):
    # translation tables built, cells computed and exact evaluations made
    # by a reflected n x n x n sweep, both passes together
    tables, cells, evals = [], [], []
    real_tables, real_cells = oracle._frac_sq_tables, oracle._cell_max
    real_eval = oracle.isometry_max_frac

    def count_cells(fa2, fb2):
        cells.append(fa2.shape[1] * fb2.shape[1])
        return real_cells(fa2, fb2)

    monkeypatch.setattr(oracle, "_frac_sq_tables", lambda *a: tables.append(1) or real_tables(*a))
    monkeypatch.setattr(oracle, "_cell_max", count_cells)
    monkeypatch.setattr(
        oracle, "isometry_max_frac", lambda *a, **k: evals.append(1) or real_eval(*a, **k)
    )
    tau_estimate(vec, n, n, with_reflection=True, bits=B)
    return len(tables), sum(cells), len(evals)


class TestPlanarIsometry:
    def test_translation_reduced_mod_one(self):
        with working_precision(B):
            g = PlanarIsometry(
                Rotation.from_angle(mpf("0.7"), B), False, (mpf("1.25"), mpf("-0.5"))
            )
        assert g.translation == (mpf("0.25"), mpf("0.5"))

    def test_preserves_pairwise_distances(self):
        with working_precision(B):
            vec = ComplexVector((mpc(1, 2), mpc(-3, "0.5"), mpc(0)), B)
            d0 = abs(vec.entries[0] - vec.entries[1])
        for reflect in (False, True):
            with working_precision(B):
                g = PlanarIsometry(
                    Rotation.from_angle(mpf("2.1"), B), reflect, (mpf("0.1"), mpf("0.9"))
                )
            img = apply_isometry(g, vec)
            with working_precision(B):
                d1 = abs(img.entries[0] - img.entries[1])
            assert abs(d0 - d1) <= mpf(2) ** (-B + 8) * d0

    def test_json_round_trip(self):
        with working_precision(B):
            g = PlanarIsometry(
                Rotation.from_angle(mpf("1.3"), B), True, (mpf("0.6"), mpf("0.2"))
            )
        data = to_json_data(g)
        assert parse_complex_pair(data["theta"], data["bits"]) == g.theta.value
        assert data["reflect"] is True
        assert tuple(parse_decimal(u, data["bits"]) for u in data["translation"]) == g.translation


class TestTauEstimate:
    def test_singleton_at_origin_is_zero(self):
        est = tau_estimate(ComplexVector((mpc(0),), B), 32, 32, bits=B)
        assert est.upper == 0
        assert est.argmin.translation == (mpf(0), mpf(0))
        assert not est.argmin.reflect
        assert est.certified_lower <= est.upper

    def test_two_point_quarter_value(self):
        # independent mini sweep: images are {u, theta/2 + u}; scan the
        # same 40x40x40 grid with plain floats
        n = 40
        best = float("inf")
        for j in range(n):
            ang = 2 * math.pi * j / n
            hx = 0.5 * math.cos(ang)
            hy = 0.5 * math.sin(ang)
            for a in range(n):
                for b in range(n):
                    ux, uy = a / n, b / n
                    f0 = math.hypot(ux - round(ux), uy - round(uy))
                    x, y = hx + ux, hy + uy
                    f1 = math.hypot(x - round(x), y - round(y))
                    best = min(best, max(f0, f1))
        assert best == 0.25

        est = tau_estimate(_pair(), n, n, with_reflection=True, bits=B)
        assert est.upper == mpf("0.25")

    def test_refinement_never_worsens(self):
        pair = _pair()
        coarse = tau_estimate(pair, 50, 50, with_reflection=True, bits=B)
        fine = tau_estimate(pair, 100, 100, with_reflection=True, bits=B)
        assert fine.upper <= coarse.upper + mpf(2) ** (-B // 2)

    def test_argmin_reproduces_upper(self):
        est = tau_estimate(_pair(), 100, 100, with_reflection=True, bits=B)
        replay = isometry_max_frac(est.argmin, _pair(), B)
        assert abs(replay - est.upper) <= mpf(2) ** (-B // 2)

    def test_upper_always_below_half_diagonal(self):
        est = tau_estimate(_triangle(2), 60, 60, with_reflection=True, bits=B)
        assert est.upper < mpmath.sqrt(mpf(2)) / 2

    def test_grid_spec_names_the_sweep(self):
        est = tau_estimate(_pair(), 40, 50, bits=B)
        assert "40" in est.grid_spec and "50" in est.grid_spec

    def test_reflection_flag_widens_search(self):
        base = tau_estimate(_triangle(3), 80, 80, with_reflection=False, bits=B)
        refl = tau_estimate(_triangle(3), 80, 80, with_reflection=True, bits=B)
        assert refl.upper <= base.upper + mpf(2) ** (-B // 2)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            tau_estimate(_pair(), 0, 10, bits=B)
        with pytest.raises(ValueError):
            tau_estimate(_pair(), 10, 0, bits=B)

    @pytest.mark.parametrize(
        "points, n_t, n_u, refused",
        [
            (2, 8, 4096, False),
            (2, 8, 4097, True),
            (1, 4 << 24, 8, False),
            (1, (4 << 24) + 4, 8, True),
            (2, 4 << 23, 8, False),
            (2, (4 << 23) + 4, 8, True),
            (4096, 8, 4096, False),
            (4097, 8, 4096, True),
        ],
    )
    def test_grids_past_the_table_limit_refused(self, monkeypatch, points, n_t, n_u, refused):
        # 2^24 float64 entries in one table: a grid_trans^2 cell table, a
        # per-axis table of points x grid_trans, or points x the swept
        # rotations (n_t / 4 of them for n_t divisible by 4).  A refusal
        # comes before any array is made; a grid at the limit gets as far
        # as its first array, which this test stops
        class Formed(Exception):
            pass

        def stop(*args, **kwargs):
            raise Formed

        vec = ComplexVector(tuple(mpc(k, 1) for k in range(points)), B)
        monkeypatch.setattr(oracle, "_rotated_images", stop)
        monkeypatch.setattr(oracle.np, "arange", stop)
        expected = pytest.raises(ValueError, match="desk-scale") if refused else pytest.raises(Formed)
        with expected:
            tau_estimate(vec, n_t, n_u, bits=B)

    def test_coordinates_beyond_float64_refused(self):
        with working_precision(B):
            vec = ComplexVector((mpc(1), mpc(0, mpf("1e400"))), B)
        with pytest.raises(ValueError, match="float64"):
            tau_estimate(vec, 8, 8, bits=B)

    def test_no_fractional_part_refused(self):
        # from modulus 2^52 on, a double holds no fractional part: every
        # cell would tie with the float minimum and be re-evaluated exactly
        with pytest.raises(ValueError, match="fractional"):
            tau_estimate(_triangle("1e17"), 20, 20, bits=B)
        with pytest.raises(ValueError, match="fractional"):
            tau_estimate(_triangle(mpf(2) ** 52), 20, 20, bits=B)
        est = tau_estimate(_triangle(mpf(2) ** 51), 20, 20, bits=B)
        assert 0 <= est.upper <= mpmath.sqrt(2) / 2

    @pytest.mark.parametrize("t", ["1e15", "4e15"])
    def test_large_modulus_upper_is_grid_minimum(self, t):
        # float64 rotated coordinates of modulus 1e15 err by about 0.4, so
        # only a screen of working-precision fractional parts finds the
        # cell that exact evaluation of every cell of the kept rotations
        # (4 of 16, one per quarter-turn orbit) finds
        n = 16
        vec = _triangle(t)
        est = tau_estimate(vec, n, n, bits=B)
        with working_precision(B):
            exact = min(
                isometry_max_frac(
                    PlanarIsometry(
                        Rotation.from_angle(2 * mpmath.pi * j / n, B), False, (mpf(a) / n, mpf(b) / n)
                    ),
                    vec,
                    B,
                )
                for j in range(_kept_rows(n))
                for a in range(n)
                for b in range(n)
            )
        assert est.upper == exact

    @pytest.mark.parametrize(
        "vec, reflect, n_t, n_u",
        [
            pytest.param(_triangle(), True, 12, 16, id="1"),
            pytest.param(_triangle("1e5"), True, 12, 16, id="1e5"),
            pytest.param(
                _entries([("100000", "1/2"), ("-1/2", "30000"), ("1/3", "0")]), True, 12, 16,
                id="three-exact",
            ),
            pytest.param(_entries([("1/3", "2/5")]), True, 12, 15, id="one-rational"),
            pytest.param(_entries([("0", "0"), ("1/2", "0")]), False, 12, 16, id="two-half"),
            pytest.param(
                _entries([("1/2", "1/2"), ("-1/2", "1/2")]), True, 8, 8, id="two-half-reflect"
            ),
            pytest.param(_entries(FIVE_HALF), True, 12, 16, id="five-half"),
            pytest.param(_entries(FIVE_RATIONAL), False, 12, 12, id="five-rational"),
            pytest.param(_entries(FIVE_RATIONAL), True, 12, 12, id="five-rational-reflect"),
            pytest.param(_triangle(), True, 48, 48, id="1-finer"),
            pytest.param(_triangle(2), True, 48, 48, id="2-finer"),
            pytest.param(
                _entries([("0", "0"), ("1/3", "1/5"), ("2/3", "2/5")]), True, 24, 24,
                id="collinear",
            ),
            pytest.param(
                _entries([("1/3", "1/4"), ("-1/2", "2/7"), ("1/3", "1/4")]), True, 24, 24,
                id="repeated",
            ),
            pytest.param(_entries(FIVE_RATIONAL + [("2/9", "-4/5")]), True, 24, 24, id="six"),
        ],
    )
    def test_pruned_candidates_match_full_grid(self, vec, reflect, n_t, n_u, monkeypatch):
        # the unpruned candidate pass: every cell of the kept rotations
        # (unreflected, j < n_t / gcd(4, n_t)), every cell within the
        # margin of their float minimum, in (rotation, a, b) order, with no
        # bound over rotations; with_reflection changes nothing, because
        # conjugation maps every reflected cell to a kept one.  "1e5" lies
        # past _EXACT_ROTATION_MODULUS, where rotations are formed exactly
        exact = float(vec.max_abs()) > oracle._EXACT_ROTATION_MODULUS
        assert exact == (float(vec.max_abs()) > 1e4)
        u = np.arange(n_u, dtype=np.float64) / n_u
        angles = 2 * np.pi * np.arange(n_t, dtype=np.float64) / n_t
        re = np.array([float(z.real) for z in vec.entries])
        im = np.array([float(z.imag) for z in vec.entries])
        grids = []
        with working_precision(B):
            for j in range(_kept_rows(n_t)):
                rot = Rotation.from_angle(2 * mpmath.pi * j / n_t, B)
                if not exact:
                    c, s = np.cos(angles[j]), np.sin(angles[j])
                    rw, iw = c * re - s * im, s * re + c * im
                else:
                    ws = [rot.value * z for z in vec.entries]
                    rw = np.array([float(w.real - mpmath.nint(w.real)) for w in ws])
                    iw = np.array([float(w.imag - mpmath.nint(w.imag)) for w in ws])
                grids.append((rot, oracle._cell_max(*oracle._frac_sq_tables(rw, iw, u))))
            cut = min(float(g.min()) for _, g in grids) + oracle._SCREEN_MARGIN
            best, best_g, evals = None, None, 0
            for rot, grid in grids:
                for a, b in np.argwhere(grid <= cut):
                    g = PlanarIsometry(rot, False, (mpf(int(a)) / n_u, mpf(int(b)) / n_u))
                    val = isometry_max_frac(g, vec, B)
                    evals += 1
                    if best is None or val < best:
                        best, best_g = val, g

        calls = []
        real = oracle.isometry_max_frac
        monkeypatch.setattr(
            oracle, "isometry_max_frac", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        est = tau_estimate(vec, n_t, n_u, with_reflection=reflect, bits=B)
        assert len(calls) == evals
        assert est.upper == best
        assert to_json_data(est.argmin) == to_json_data(best_g)

    @pytest.mark.parametrize(
        "entries, shift",
        [
            pytest.param([("0", "0")], ("0", "0"), id="origin"),
            pytest.param([("0", "0"), ("1", "0")], ("0", "0"), id="pair"),
            pytest.param(
                [("0", "0"), ("1", "0"), ("0", "1"), ("1", "1")], ("0", "0"), id="unit-square"
            ),
            pytest.param([("1/2", "1/2"), ("-1/2", "1/2")], ("0.5", "0.5"), id="half-pair"),
        ],
    )
    def test_ties_resolve_to_lowest_grid_index(self, entries, shift):
        # every rotation by a quarter turn, and its reflection, also reaches
        # 0; the first rotation, unreflected, at the first translation wins
        est = tau_estimate(_entries(entries), 8, 8, with_reflection=True, bits=B)
        assert est.upper == 0
        assert est.argmin.theta.value == Rotation.from_angle(0, B).value
        assert not est.argmin.reflect
        assert est.argmin.translation == (mpf(shift[0]), mpf(shift[1]))

    @pytest.mark.parametrize("n_t", [1, 7, 12, 1000, 1600])
    def test_rotated_rows_match_scalar_formula(self, n_t):
        # the sweep rotates all kept angles at once; each row must equal
        # the per-rotation scalar formula bit for bit, or a numpy whose
        # vector cos or sin differs from its scalar path would move the
        # goldens
        vec = _entries(FIVE_RATIONAL[:3] + [("3", "-7"), ("123.25", "-0.5")])
        n_rows = _kept_rows(n_t)
        rw, iw = oracle._rotated_images(vec, n_t, n_rows, B)
        re = np.array([float(z.real) for z in vec.entries])
        im = np.array([float(z.imag) for z in vec.entries])
        angles = 2 * np.pi * np.arange(n_t, dtype=np.float64) / n_t
        want_rw, want_iw = [], []
        for j in range(n_rows):
            c, s = np.cos(angles[j]), np.sin(angles[j])
            want_rw.append(c * re - s * im)
            want_iw.append(s * re + c * im)
        assert rw.tobytes() == np.vstack(want_rw).tobytes()
        assert iw.tobytes() == np.vstack(want_iw).tobytes()

    @pytest.mark.parametrize(
        "vec, n_t, n_u",
        [
            pytest.param(_triangle(), 1, 7, id="1x7"),
            pytest.param(_entries(FIVE_RATIONAL), 2, 6, id="2x6"),
            pytest.param(_triangle(2), 3, 5, id="3x5"),
            pytest.param(_entries(FIVE_HALF), 6, 5, id="6x5"),
            pytest.param(_entries(FIVE_RATIONAL + [("2/9", "-4/5")]), 12, 4, id="12x4"),
            pytest.param(_triangle(3), 40, 3, id="40x3"),
            pytest.param(
                _entries([("100000", "1/2"), ("-1/2", "30000"), ("1/3", "0")]), 12, 5,
                id="exact-12x5",
            ),
        ],
    )
    def test_every_cell_matches_its_orbit_representative(self, vec, n_t, n_u):
        # every cell of the full grid, both branches and all n_t rotations,
        # has the value of the kept cell its lattice symmetry maps it to:
        # conjugation sends (reflected, j, a, b) to (unreflected, -j, a, -b),
        # and a quarter or half turn undone sends (j, a, b) to
        # (j - n_t/4, b, -a) or (j - n_t/2, -a, -b)
        n_rows, turns = _kept_rows(n_t), math.gcd(4, n_t)
        value = {}
        with working_precision(B):
            rots = [Rotation.from_angle(2 * mpmath.pi * j / n_t, B) for j in range(n_t)]
            for refl in (False, True):
                for j in range(n_t):
                    for a in range(n_u):
                        for b in range(n_u):
                            g = PlanarIsometry(rots[j], refl, (mpf(a) / n_u, mpf(b) / n_u))
                            value[refl, j, a, b] = isometry_max_frac(g, vec, B)
            tol = mpf(2) ** (magnitude_bits(vec.max_abs()) - B + 8)
            for (refl, j, a, b), val in value.items():
                if refl:
                    j, b = -j % n_t, -b % n_u
                k, j = divmod(j, n_rows)
                for _ in range(k):
                    a, b = (b, -a % n_u) if turns == 4 else (-a % n_u, -b % n_u)
                assert abs(val - value[False, j, a, b]) <= tol

    @given(
        _point_sets(st.one_of(QUARTERS, st.floats(-20, 20)), 4),
        st.integers(1, 24),
        st.integers(1, 12),
    )
    def test_reflection_is_covered_by_conjugation(self, points, n_t, n_u):
        # the reflected branch holds only conjugates of unreflected cells,
        # so including it changes no result, only grid_spec's label
        with working_precision(B):
            vec = ComplexVector(tuple(mpc(x, y) for x, y in points), B)
        base = tau_estimate(vec, n_t, n_u, with_reflection=False, bits=B)
        refl = tau_estimate(vec, n_t, n_u, with_reflection=True, bits=B)
        assert refl.upper == base.upper
        assert refl.certified_lower == base.certified_lower
        assert to_json_data(refl.argmin) == to_json_data(base.argmin)
        assert "reflection included" in refl.grid_spec

    @given(
        _point_sets(COORD, 6),
        st.integers(1, 24),
        st.integers(1, 16),
        st.booleans(),
    )
    def test_rotation_bound_is_sound(self, points, n_t, n_u, reflect):
        # no cell of a rotation lies below its bound by more than float
        # error, which stays far below the screen margin up to the modulus
        # where rotations are formed exactly
        with working_precision(B):
            vec = ComplexVector(tuple(mpc(x, y) for x, y in points), B)
        assert float(vec.max_abs()) < oracle._EXACT_ROTATION_MODULUS
        _assert_rotation_bound_sound(vec, n_t, n_u, reflect)

    @given(
        _point_sets(FAR, 5),
        st.integers(1, 12),
        st.integers(1, 16),
        st.booleans(),
    )
    def test_rotation_bound_is_sound_on_exact_rows(self, points, n_t, n_u, reflect):
        # rows formed at working precision and reduced mod 1, past the
        # modulus where float64 rotation would err by more than the margin
        with working_precision(B):
            far = mpc(oracle._EXACT_ROTATION_MODULUS * 2, 0)
            vec = ComplexVector((far,) + tuple(mpc(x, y) for x, y in points), B)
        _assert_rotation_bound_sound(vec, n_t, n_u, reflect)

    @pytest.mark.parametrize(
        "row, want",
        [
            pytest.param([0.0, 0.2, 0.45, 0.7], 0.35**2, id="gap-0.3"),
            pytest.param([0.9, 0.2, 0.55], 0.325**2, id="gap-across-zero"),
            pytest.param([-0.4, 0.4, 0.0, -0.2], 0.3**2, id="negative"),
            pytest.param([0.1, 0.3, 0.5], 0.2**2, id="half-arc"),
            pytest.param([0.7], 0.0, id="single"),
        ],
    )
    def test_rotation_bound_gap_term(self, row, want):
        # entries spread over one axis only: past half the circle the
        # pairwise term d^2 / 4 stays below 1/16, and the bound is the gap
        # term ((1 - widest cyclic gap) / 2)^2
        rw = np.array([row], dtype=np.float64)
        lb = oracle._rotation_bound(rw, np.zeros_like(rw))
        assert lb[0] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize(
        "points, want",
        [
            pytest.param([(0, 0), (0.3, 0), (0.1, 0.2)], 0.025, id="acute"),
            pytest.param([(0, 0), (0.3, 0), (0, 0.2)], 0.0325, id="right"),
            pytest.param([(0, 0), (0.3, 0.3), (0.2, 0)], 0.045, id="obtuse"),
            pytest.param([(0.1, 0.1), (0, 0), (0.3, 0.3)], 0.045, id="collinear"),
            pytest.param([(0.1, 0.2), (0.1, 0.2), (0.3, 0.1)], 0.0125, id="repeated"),
            pytest.param([(0.4, 0.7), (0.4, 0.7), (0.4, 0.7)], 0.0, id="coincident"),
            pytest.param([(0, 0), (0.9, 0), (0, 0.9)], 0.005, id="wrapped-right"),
            pytest.param([(0, 0), (0.7, 0), (0.9, 0.8)], 0.025, id="wrapped-acute"),
            pytest.param(
                [(0, 0), (0.1499255007010091, 0.23816278798783758),
                 (0.14992550058893805, 0.23816278805838725)],
                0.01979979233564699,
                id="thin-acute",
            ),
        ],
    )
    def test_rotation_bound_triple_term(self, points, want):
        # the least over translations of a triple's worst squared distance:
        # an acute triangle's squared circumradius, else a quarter of its
        # longest squared side (an obtuse circumradius would give 0.05), on
        # the translates of the images nearest each other.  "thin-acute" is
        # acute with two images 1.3e-10 apart (its value is exact in
        # rationals); the cross product at its 5e-10 radian angle keeps
        # about six digits, and uncapped there it would overshoot by 5.6e-10
        rw = np.array([[x for x, _ in points]], dtype=np.float64)
        iw = np.array([[y for _, y in points]], dtype=np.float64)
        assert oracle._triple_bound(rw, iw)[0] == pytest.approx(want, abs=1e-12)

    def test_sweep_work_on_the_unit_triangle(self, monkeypatch):
        # the benchmark triangle at this grid, both passes together.  Over
        # both branches and all 1600 rotations the pairwise bound alone
        # built 1872 translation tables, with the per-axis gap bound 544
        # and 13.4M cells; the triple bound left 97 tables and 4.5M cells,
        # and pruning columns against each other 132,460 cells and 16
        # exact evaluations, the eight symmetric copies of two cells.  The
        # kept rotations, 400 unreflected, leave one copy of each.
        tables, cells, evals = _sweep_work(_triangle(), 1600, monkeypatch)
        assert tables <= 13
        assert cells <= 62_340
        assert evals == 2

    def test_sweep_work_on_six_points(self, monkeypatch):
        # on six points the consecutive triples leave most rotations live:
        # over both branches and all 1600 rows the sweep built 2,664 tables
        # and computed 21.2M cells
        six = _entries(FIVE_RATIONAL + [("2/9", "-4/5")])
        tables, cells, evals = _sweep_work(six, 1600, monkeypatch)
        assert tables <= 333
        assert cells <= 2_897_496
        assert evals == 1

    def test_deterministic(self):
        a = tau_estimate(_triangle(2), 60, 60, with_reflection=True, bits=B)
        b = tau_estimate(_triangle(2), 60, 60, with_reflection=True, bits=B)
        assert to_json_data(a) == to_json_data(b)


class TestSeparatedProbe:
    def test_probe_separation_is_exactly_t(self):
        for t in (1, 2, 5):
            assert separation(separated_probe(t, B), B) == mpf(t)

    def test_identity_embedding_value(self):
        with working_precision(B):
            ident = PlanarIsometry(Rotation(mpc(1), B), False, (mpf(0), mpf(0)))
        assert isometry_max_frac(ident, separated_probe(7, B), B) == mpf("0.5")

    def test_positive_t_required(self):
        with pytest.raises(ValueError):
            separated_probe(0, B)


def _pcg64(seed):
    """numpy's PCG64 seeded as PCG's srandom(initstate=seed, initseq=PCG's
    default 128-bit increment), set up here apart from the check's own
    seeding."""
    mod = 1 << 128
    inc = (0x5851F42D4C957F2D14057B7EF767814F * 2 + 1) % mod
    state = (inc + seed) * 0x2360ED051FC65DA44385DF649FCCF645 + inc
    bitgen = np.random.PCG64(0)
    bitgen.state = {
        "bit_generator": "PCG64",
        "state": {"state": state % mod, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bitgen


def _pcg64_rows(seed, samples):
    """The first `samples` rows of check_prop_sep's stream, drawn in one
    call from numpy's PCG64, apart from the check's chunked stream:
    rotation turn, reflection coin, two translation coordinates."""
    return np.random.Generator(_pcg64(seed)).random(4 * samples).reshape(samples, 4)


def _sampled_isometries(seed, samples):
    """The isometries check_prop_sep draws, replayed from its seed stream."""
    with working_precision(B):
        return [
            PlanarIsometry(
                Rotation.from_angle(2 * mpmath.pi * mpf(turn), B), coin < 0.5, (mpf(t1), mpf(t2))
            )
            for turn, coin, t1, t2 in _pcg64_rows(seed, samples).tolist()
        ]


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3, 2**64, 2**128 - 1])
def test_random_stream_equals_pcg64(seed):
    # check_prop_sep's stream must stay PCG64 seeded by PCG's srandom with
    # the seed as its initial state: two calls cover the continuation of
    # the generator between chunks, and the first two rows and the last
    # must each be the four words the CLI's pure-Python recheck replays
    draw = oracle._random_stream(seed)
    vals = np.concatenate([draw(1), draw(4999)])
    assert vals.tolist() == np.random.Generator(_pcg64(seed)).random(5000).tolist()
    for index in (0, 1, 1249):
        turn, coin, t1, t2 = vals[4 * index : 4 * index + 4].tolist()
        assert cli._replay_draw(seed, index) == (turn, coin < 0.5, t1, t2)


def _unbounded_kept(t, samples, seed):
    """The prop-sep float screen with no bound before the rotation: every
    sample's image is formed, chunk by chunk, and the kept (index, row)
    pairs are returned as check_prop_sep re-evaluates them.  Draws come
    from numpy's PCG64 in one call, not from the check's chunked stream."""
    probe = separated_probe(t, B)
    re = np.array([float(z.real) for z in probe.entries])
    im = np.array([float(z.imag) for z in probe.entries])
    exact_all = float(probe.max_abs()) > oracle._EXACT_ROTATION_MODULUS
    with working_precision(B):
        screen_sq = float((mpf(1) / 8 + mpf("1e-6")) ** 2)
    stream = _pcg64_rows(seed, samples)
    index, rows, screened = [], [], []
    float_min_sq = np.inf
    for start in range(0, samples, oracle._CHUNK):
        vals = stream[start : start + oracle._CHUNK]
        n = len(vals)
        turn, coin, t1, t2 = vals.T
        c = np.cos(2 * np.pi * turn)
        s = np.sin(2 * np.pi * turn)
        sign = np.where(coin < 0.5, -1.0, 1.0)
        worst = np.zeros(n)
        for k in range(len(probe)):
            ik = sign * im[k]
            x = c * re[k] - s * ik + t1
            y = s * re[k] + c * ik + t2
            fx = x - np.rint(x)
            fy = y - np.rint(y)
            np.maximum(worst, fx * fx + fy * fy, out=worst)
        float_min_sq = min(float_min_sq, float(worst.min()))
        cut = np.inf if exact_all else max(screen_sq, float_min_sq + oracle._SCREEN_MARGIN)
        keep = np.nonzero(worst <= cut)[0]
        index.append(start + keep)
        rows.append(vals[keep])
        screened.append(worst[keep])
    final = np.concatenate(screened) <= cut
    return np.concatenate(index)[final].tolist(), np.concatenate(rows)[final].tolist()


class TestPropSepCheck:
    @pytest.mark.parametrize("margin", [None, 0.03], ids=["margin", "wide"])
    @pytest.mark.parametrize("seed", [0, 1, 5, 2**40 + 3])
    @pytest.mark.parametrize("t, samples", [("0.6", 3000), ("2", 3000), ("1e5", 20)])
    def test_translation_bound_matches_unbounded_screen(self, t, samples, seed, margin, monkeypatch):
        # chunks of 64 put the translation bound to work from the second
        # chunk on; a wide margin keeps dozens of samples, and at 1e5,
        # past the rotation modulus, every sample is kept
        monkeypatch.setattr(oracle, "_CHUNK", 64)
        if margin is not None:
            monkeypatch.setattr(oracle, "_SCREEN_MARGIN", margin)
        index, rows = _unbounded_kept(t, samples, seed)
        probe = separated_probe(t, B)
        with working_precision(B):
            kept = [
                PlanarIsometry(
                    Rotation.from_angle(2 * mpmath.pi * mpf(turn), B), coin < 0.5, (mpf(t1), mpf(t2))
                )
                for turn, coin, t1, t2 in rows
            ]
        values = [isometry_max_frac(g, probe, B) for g in kept]
        seen = []
        real = oracle.isometry_max_frac
        monkeypatch.setattr(
            oracle, "isometry_max_frac", lambda g, *a, **k: seen.append(g) or real(g, *a, **k)
        )
        chk = check_prop_sep(t, samples, seed=seed, bits=B)
        assert [to_json_data(g) for g in seen] == [to_json_data(g) for g in kept]
        assert len(kept) == samples if t == "1e5" else len(kept) >= 1
        best = min(values)
        want = oracle.PropSepCheck(
            t=parse_decimal(t, B),
            samples=samples,
            seed=seed,
            minimum=best,
            argmin_index=index[values.index(best)],
            violations=tuple((i, v) for i, v in zip(index, values) if v < chk.threshold),
            threshold=chk.threshold,
            bits=B,
        )
        assert to_json_data(chk) == to_json_data(want)

    def test_translation_bound_skips_most_rotations(self, monkeypatch):
        # at t = 2 about 8% of translations lie within the cut, the float
        # minimum of about 0.15, on their own; from the second chunk on
        # only those are rotated
        sizes = []
        real = np.cos
        monkeypatch.setattr(np, "cos", lambda x, *a, **k: sizes.append(np.size(x)) or real(x, *a, **k))
        chunk = oracle._CHUNK
        check_prop_sep("2", 8 * chunk, seed=1, bits=B)
        assert sizes[0] == chunk
        assert sum(sizes[1:]) <= 0.1 * 7 * chunk

    def test_screen_memory_does_not_grow_with_samples(self, traced_peak_mb):
        # the screen holds one chunk's temporaries and the few kept
        # samples, whatever the sample count; the first call loads what
        # later ones share (numpy.random, mpmath's constants)
        chunk = oracle._CHUNK
        check_prop_sep("2", 1, seed=1, bits=B)
        peaks = [
            traced_peak_mb(lambda: check_prop_sep("2", n, seed=1, bits=B))
            for n in (8 * chunk, 64 * chunk)
        ]
        assert max(peaks) < 4.0
        assert abs(peaks[1] - peaks[0]) < 0.5

    def test_no_violations_in_short_run(self):
        chk = check_prop_sep(2, 2000, seed=11, bits=B)
        assert chk.samples == 2000
        assert chk.minimum >= mpf(1) / 8 - mpf(2) ** (-B // 2)
        assert chk.violations == ()

    def test_argmin_replay_from_seed_stream(self):
        chk = check_prop_sep(3, 500, seed=4, bits=B)
        g = _sampled_isometries(4, 500)[chk.argmin_index]
        replay = isometry_max_frac(g, separated_probe(3, B), B)
        assert abs(replay - chk.minimum) <= mpf(2) ** (-B // 2)

    def test_minimum_is_exact_past_the_rotation_modulus(self):
        # at t = 1e15 float64 rotated coordinates err by about 0.4, so a
        # float64 screen would pick the wrong samples; the reported minimum
        # must be the exact one over every sample drawn
        probe = separated_probe("1e15", B)
        values = [isometry_max_frac(g, probe, B) for g in _sampled_isometries(1, 300)]
        exact = min(values)
        chk = check_prop_sep("1e15", 300, seed=1, bits=B)
        assert chk.minimum == exact
        assert chk.argmin_index == values.index(exact)

    @pytest.mark.parametrize("t", ["2", "1e5"])
    @pytest.mark.parametrize("samples", [1, 8, 9, 19])
    def test_chunk_boundaries(self, t, samples, monkeypatch):
        # a chunk of 8 puts sample counts of 1, chunk, chunk + 1 and
        # 2 * chunk + 3 on each side of the chunk boundaries; seed 4 puts
        # the minimum past the first chunk at 9 and 19 samples (asserted
        # below, so that a change of stream cannot void the case), and at
        # 1e5 every sample is kept for the exact pass
        probe = separated_probe(t, B)
        values = [isometry_max_frac(g, probe, B) for g in _sampled_isometries(4, samples)]
        calls = []
        real = oracle.isometry_max_frac
        monkeypatch.setattr(
            oracle, "isometry_max_frac", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        check_prop_sep(t, samples, seed=4, bits=B)
        whole = len(calls)
        monkeypatch.setattr(oracle, "_CHUNK", 8)
        chk = check_prop_sep(t, samples, seed=4, bits=B)
        # chunks re-evaluate exactly the samples one screen would
        assert len(calls) == 2 * whole
        assert chk.minimum == min(values)
        assert chk.argmin_index == values.index(min(values))
        assert samples <= 8 or chk.argmin_index >= 8
        assert chk.violations == tuple((i, v) for i, v in enumerate(values) if v < chk.threshold)

    def test_deterministic(self):
        a = check_prop_sep(2, 500, seed=9, bits=B)
        b = check_prop_sep(2, 500, seed=9, bits=B)
        assert to_json_data(a) == to_json_data(b)

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            check_prop_sep(2, 0, seed=1, bits=B)

    @pytest.mark.parametrize("seed", [-5, 2**128])
    def test_seed_outside_the_philox_key_range_refused(self, seed):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\^128\)"):
            check_prop_sep(2, 10, seed=seed, bits=B)

    def test_t_beyond_float64_refused(self):
        with pytest.raises(ValueError, match="float64"):
            check_prop_sep("1e400", 10, seed=1, bits=B)

    def test_t_without_fractional_part_refused(self):
        # the probe's t + 1/2 coordinate would round to a whole number
        with pytest.raises(ValueError, match="fractional"):
            check_prop_sep("1e17", 10, seed=1, bits=B)


class TestSeparation:
    def test_three_four_five(self):
        with working_precision(B):
            assert separation(ComplexVector((mpc(0), mpc(3, 4)), B)) == 5

    def test_coincident_points_rejected(self):
        with working_precision(B):
            vec = ComplexVector((mpc(1, 1), mpc(1, 1)), B)
        with pytest.raises(ValueError, match="coincide"):
            separation(vec)


class TestCoveringTime:
    def test_unit_speed_line_covers_in_one_period(self):
        out = covering_time((1.0,), 0.1, 10.0)
        assert out.covered
        assert 0.9 <= out.L <= 1.0 + 1e-9

    def test_finer_eps_takes_longer(self):
        golden = (1.0, 1.6180339887498949)
        ls = [covering_time(golden, e, 100000.0).L for e in (0.2, 0.1, 0.05)]
        assert all(l is not None for l in ls)
        assert ls[0] <= ls[1] <= ls[2]

    def test_diagonal_never_covers(self):
        out = covering_time((1.0, 1.0), 0.1, 10000.0)
        assert not out.covered
        assert out.L is None
        assert out.cells_visited < out.cells_total

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="[Dd]imension"):
            covering_time((1.0,) * 7, 0.4, 10.0)

    def test_oversized_grid_refused(self):
        with pytest.raises(ValueError):
            covering_time((1.0,) * 6, 0.05, 10.0)

    @pytest.mark.parametrize("eps, cell", [(1e-320, None), (0.1, 1e-320)])
    def test_subnormal_cell_refused(self, eps, cell):
        # 1 / cell overflows float64, so the grid has no integer size
        with pytest.raises(ValueError, match="desk-scale"):
            covering_time((1.0,), eps, 10.0, cell)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            covering_time((1.0,), 0.6, 10.0)  # eps must stay below 1/2
        with pytest.raises(ValueError):
            covering_time((1.0,), 0.1, 0.0)
        with pytest.raises(ValueError):
            covering_time((0.0, 0.0), 0.1, 10.0)

    @pytest.mark.parametrize(
        "direction, cap",
        [
            ((math.inf,), 10.0),
            ((1.0, math.nan), 10.0),
            ((1.0,), math.inf),
            ((1e200, 1e200), 10.0),  # the norm overflows
            ((1e150, 1e150), 1e300),  # the step count overflows
        ],
        ids=["inf-direction", "nan-direction", "inf-cap", "norm-overflow", "step-overflow"],
    )
    def test_non_finite_steps_refused(self, direction, cap):
        with pytest.raises(ValueError, match="finite"):
            covering_time(direction, 0.1, cap)

    def test_step_limit_refused(self):
        # the diagonal never covers, so a finite cap of 1e300 would be
        # walked to its end, about 6e301 steps
        with pytest.raises(ValueError, match="steps"):
            covering_time((1.0, 1.0), 0.1, 1e300)

    def test_outcome_serializes(self):
        out = covering_time((1.0,), 0.2, 10.0)
        d = to_json_data(out)
        assert isinstance(d["L"], str)
        assert isinstance(out, CoveringOutcome)

    @pytest.mark.parametrize("chunk", [7, 64])
    @given(
        direction=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3).filter(
            lambda v: math.hypot(*v) >= 0.1
        ),
        eps=st.sampled_from([0.2, 0.1, 0.05]),
    )
    def test_walk_matches_sorting_every_step(self, chunk, direction, eps):
        # a cap of 50 covers every 1-D grid drawn and leaves most 3-D ones
        # uncovered; a grid that covers is walked again to its covering
        # time and to just short of it, with the covering step at every
        # offset within chunks of 7 and 64
        caps = [50.0]
        full = _covering_sorting_every_step(direction, eps, 50.0)
        if full.covered:
            caps += [full.L, 0.99 * full.L]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_CHUNK", chunk)
            for cap in caps:
                want = _covering_sorting_every_step(direction, eps, cap)
                assert covering_time(direction, eps, cap) == want

    @pytest.mark.parametrize("shift", [-1, 0, 1])
    @pytest.mark.parametrize(
        "direction",
        [(1.0, 1.6180339887498949), (1.0, 2 ** (1 / 3), 4 ** (1 / 3))],
        ids=["golden", "cube-roots"],
    )
    def test_covering_step_on_a_chunk_boundary(self, direction, shift, monkeypatch):
        # chunks of steps - 1, steps and steps + 1 put the covering step
        # first in the second chunk, last in the first, and inside it
        want = _covering_sorting_every_step(direction, 0.1, 1e5)
        assert want.covered
        monkeypatch.setattr(oracle, "_CHUNK", want.steps + shift)
        assert covering_time(direction, 0.1, 1e5) == want

    @pytest.mark.parametrize(
        "direction, eps, cap, covers",
        [
            ((0.7,), 0.1, 50.0, True),
            ((-1.3,), 0.05, 50.0, True),
            ((1.0, -1.6180339887498949), 0.1, 1e4, True),
            ((-0.37, 0.91), 0.2, 1e4, True),
            ((1.0, -(2 ** (1 / 3)), 4 ** (1 / 3)), 0.2, 1e4, True),
            ((1.0, 1.0), 0.1, 100.0, False),
            ((1.0, 1.6180339887498949), 0.02, 5.0, False),
            ((0.5, -0.25, 1.0), 0.2, 50.0, False),
            ((1.0, -1e-300), 0.1, 50.0, False),
        ],
        ids=["1d", "1d-negative", "golden-negative", "2d-negative", "cube-roots", "diagonal",
             "cap-limited", "3d-rational", "clamped"],
    )
    def test_walk_matches_the_matmul_walk(self, direction, eps, cap, covers, monkeypatch):
        # per-axis cell indices against the whole-position walk: every
        # chunk's indices and then the outcome field for field, in chunks
        # of 7 and 64 and, for a
        # walk that covers, in chunks that put its covering step last in
        # the first chunk and first in the second, with the cap at the cap
        # given and at the covering time itself.  The last direction's
        # second coordinate is -1e-300 mod 1, which rounds to 1.0, the
        # cell past the grid that the clamp takes back.
        made = []
        real = oracle._walk_cells

        def recording(v, G, h, start, n):
            flat = real(v, G, h, start, n)
            made.append((start, flat))
            return flat

        monkeypatch.setattr(oracle, "_walk_cells", recording)
        whole = _covering_matmul_walk(direction, eps, cap)
        assert whole.covered == covers
        chunks = [7, 64] + ([whole.steps, whole.steps - 1] if covers else [])
        caps = [cap] + ([whole.L] if covers else [])
        for chunk in chunks:
            monkeypatch.setattr(oracle, "_CHUNK", chunk)
            for c in caps:
                made.clear()
                got = covering_time(direction, eps, c)
                assert made
                for start, flat in made:
                    assert flat.tolist() == _matmul_cells(direction, eps, start, flat.size).tolist()
                want = _covering_matmul_walk(direction, eps, c)
                assert dataclasses.astuple(got) == dataclasses.astuple(want)

    def test_walk_memory_is_bounded(self, traced_peak_mb):
        # 573,139 steps over 160,000 cells, a 2^13-step chunk at a time
        golden = (1.0, 1.6180339887498949)
        out = []
        assert traced_peak_mb(lambda: out.append(covering_time(golden, 0.005, 1e5))) < 3.0
        assert out[0].covered and out[0].steps == 573_139

    @given(
        direction=st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e8, -1e8]),
                st.floats(-1e8, 1e8),
            ),
            min_size=1,
            max_size=6,
        ),
        G=st.sampled_from([1, 2, 400, 4096]),
        h=st.floats(1e-9, 1.0),
        n=st.integers(1, 64),
        start=st.one_of(st.integers(0, 2**52 - 64), st.just(2**52 - 64)),
    )
    def test_floor_reduction_equals_the_remainder(self, direction, G, h, n, start):
        # x - floor(x) is x % 1.0 bit for bit, sign bit included, so each
        # axis's cell indices and the flat walk equal the remainder's; the
        # flat index of a grid past the cell limit wraps alike in both
        v = np.asarray(direction, dtype=np.float64)
        x = np.arange(start, start + n, dtype=np.float64) * h * v[:, None]
        assert ((x - np.floor(x)).view(np.uint64) == (x % 1.0).view(np.uint64)).all()
        for k in range(v.size):
            got = oracle._walk_cells(v[k : k + 1], G, h, start, n)
            assert got.tolist() == _remainder_cells(v[k : k + 1], G, h, start, n).tolist()
        assert oracle._walk_cells(v, G, h, start, n).tolist() == (
            _remainder_cells(v, G, h, start, n).tolist()
        )


def _remainder_cells(v, G, h, start, n):
    """_walk_cells reduced mod 1 by numpy's remainder, x % 1.0, the form
    its floor reduction replaces."""
    jh = np.arange(start, start + n, dtype=np.float64) * h
    flat = np.zeros(n, dtype=np.int64)
    for k in range(v.size):
        ik = np.minimum(((jh * v[k]) % 1.0 * G).astype(np.int64), G - 1)
        flat += ik * G**k
    return flat


def _covering_sorting_every_step(direction, eps, cap):
    """covering_time's walk with np.unique over every step of each chunk
    of 2^16, the slow path its gather of unvisited cells replaces; inputs
    are valid and the grid uses the default cell."""
    v = np.asarray(direction, dtype=np.float64)
    cell = eps / 2
    G = int(np.ceil(1.0 / cell))
    total = G**v.size
    h = 0.999 * cell / (2 * float(np.linalg.norm(v)))
    max_index = int(np.floor(cap / h))
    visited = np.zeros(total, dtype=bool)
    visited_count, last, start = 0, max_index, 0
    while start <= max_index and visited_count < total:
        stop = min(start + (1 << 16), max_index + 1)
        flat = _matmul_cells(direction, eps, start, stop - start)
        uniq, first = np.unique(flat, return_index=True)
        new_mask = ~visited[uniq]
        if new_mask.any():
            visited[uniq[new_mask]] = True
            visited_count += int(new_mask.sum())
            if visited_count == total:
                last = start + int(first[new_mask].max())
        start = stop
    covered = visited_count == total
    return CoveringOutcome(
        covered=covered,
        L=last * h if covered else None,
        cells_total=total,
        cells_visited=visited_count,
        dim=v.size,
        eps=eps,
        cell=cell,
        cap=cap,
        steps=last + 1,
    )


def _matmul_cells(direction, eps, start, n):
    """Flat cell indices of steps start .. start + n - 1 of the walk, from
    one (n, dim) position array and an int64 matmul: the reference for
    covering_time's per-axis indices; inputs are valid and the grid uses
    the default cell."""
    v = np.asarray(direction, dtype=np.float64)
    cell = eps / 2
    G = int(np.ceil(1.0 / cell))
    h = 0.999 * cell / (2 * float(np.linalg.norm(v)))
    strides = np.array([G**k for k in range(v.size)], dtype=np.int64)
    js = np.arange(start, start + n, dtype=np.float64)
    pos = (js[:, None] * h * v[None, :]) % 1.0
    return np.minimum((pos * G).astype(np.int64), G - 1) @ strides


def _covering_matmul_walk(direction, eps, cap):
    """covering_time's walk over _matmul_cells."""
    v = np.asarray(direction, dtype=np.float64)
    cell = eps / 2
    G = int(np.ceil(1.0 / cell))
    total = G**v.size
    h = 0.999 * cell / (2 * float(np.linalg.norm(v)))
    max_index = int(np.floor(cap / h))
    visited = np.zeros(total, dtype=bool)
    visited_count, last, start = 0, max_index, 0
    while start <= max_index and visited_count < total:
        stop = min(start + oracle._CHUNK, max_index + 1)
        flat = _matmul_cells(direction, eps, start, stop - start)
        new = np.nonzero(~visited[flat])[0]
        if new.size:
            uniq, first = np.unique(flat[new], return_index=True)
            visited[uniq] = True
            visited_count += uniq.size
            if visited_count == total:
                last = start + int(new[first].max())
        start = stop
    covered = visited_count == total
    return CoveringOutcome(
        covered=covered,
        L=last * h if covered else None,
        cells_total=total,
        cells_visited=visited_count,
        dim=v.size,
        eps=eps,
        cell=cell,
        cap=cap,
        steps=last + 1,
    )
