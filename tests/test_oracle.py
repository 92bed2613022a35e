import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mpc, mpf

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
from lattice_rotor.precision import parse_complex_pair, parse_decimal, working_precision
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

# coordinates up to modulus ~7e4: floats, half-integers, and half-integers
# nudged by less than a float64 screen can see at that size
HALVES = st.integers(-98_000, 98_000).map(lambda k: k / 2)
COORD = st.one_of(
    st.floats(-49_000, 49_000),
    HALVES,
    st.tuples(HALVES, st.floats(-1e-6, 1e-6)).map(lambda p: p[0] + p[1]),
)

# coordinates past _EXACT_ROTATION_MODULUS: half-integers, nudged ones and
# plain floats up to 1e9
FAR_HALVES = st.integers(-2 * 10**9, 2 * 10**9).map(lambda k: k / 2)
FAR = st.one_of(
    st.floats(-1e9, 1e9),
    FAR_HALVES,
    st.tuples(FAR_HALVES, st.floats(-1e-6, 1e-6)).map(lambda p: p[0] + p[1]),
)


def _triangle(scale=1):
    with working_precision(B):
        w = mpmath.expjpi(mpf(2) / 3)
        return ComplexVector(tuple(mpf(scale) * z for z in (mpc(1), w, w * w)), B)


def _assert_rotation_bound_sound(vec, n_t, n_u, reflect):
    # no cell of a rotation lies below its bound by more than float error
    rw, iw = oracle._rotated_images(vec, n_t, [False, True] if reflect else [False], B)
    lb = oracle._rotation_bound(rw, iw)
    u = np.arange(n_u, dtype=np.float64) / n_u
    for j in range(len(rw)):
        cells = oracle._cell_max(*oracle._frac_sq_tables(rw[j], iw[j], u))
        assert lb[j] <= cells.min() + oracle._SCREEN_MARGIN / 10


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
        # cell that exact evaluation of all 16^3 cells finds
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
                for j in range(n)
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
        ],
    )
    def test_pruned_candidates_match_full_grid(self, vec, reflect, n_t, n_u, monkeypatch):
        # the unpruned candidate pass: every rotation's full translation
        # grid, every cell within the margin of the global float minimum,
        # in (branch, rotation, a, b) order, with no bound over rotations;
        # "1e5" lies past _EXACT_ROTATION_MODULUS, where rotations are
        # formed exactly
        exact = float(vec.max_abs()) > oracle._EXACT_ROTATION_MODULUS
        assert exact == (float(vec.max_abs()) > 1e4)
        u = np.arange(n_u, dtype=np.float64) / n_u
        angles = 2 * np.pi * np.arange(n_t, dtype=np.float64) / n_t
        re = np.array([float(z.real) for z in vec.entries])
        im = np.array([float(z.imag) for z in vec.entries])
        grids = {}
        with working_precision(B):
            for refl in (False, True) if reflect else (False,):
                for j in range(n_t):
                    rot = Rotation.from_angle(2 * mpmath.pi * j / n_t, B)
                    if not exact:
                        c, s, base_im = np.cos(angles[j]), np.sin(angles[j]), -im if refl else im
                        rw = c * re - s * base_im
                        iw = s * re + c * base_im
                    else:
                        ws = [rot.value * (mpmath.conj(z) if refl else z) for z in vec.entries]
                        rw = np.array([float(w.real - mpmath.nint(w.real)) for w in ws])
                        iw = np.array([float(w.imag - mpmath.nint(w.imag)) for w in ws])
                    grids[refl, j] = (rot, oracle._cell_max(*oracle._frac_sq_tables(rw, iw, u)))
            cut = min(float(g.min()) for _, g in grids.values()) + oracle._SCREEN_MARGIN
            best, best_g, evals = None, None, 0
            for (refl, j), (rot, grid) in grids.items():
                for a, b in np.argwhere(grid <= cut):
                    g = PlanarIsometry(rot, refl, (mpf(int(a)) / n_u, mpf(int(b)) / n_u))
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
        assert evals > 1
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
        # the sweep rotates all angles at once; each row must equal the
        # per-rotation scalar formula bit for bit, or a numpy whose vector
        # cos or sin differs from its scalar path would move the goldens
        vec = _entries(FIVE_RATIONAL[:3] + [("3", "-7"), ("123.25", "-0.5")])
        rw, iw = oracle._rotated_images(vec, n_t, [False, True], B)
        re = np.array([float(z.real) for z in vec.entries])
        im = np.array([float(z.imag) for z in vec.entries])
        angles = 2 * np.pi * np.arange(n_t, dtype=np.float64) / n_t
        want_rw, want_iw = [], []
        for base_im in (im, -im):
            for j in range(n_t):
                c, s = np.cos(angles[j]), np.sin(angles[j])
                want_rw.append(c * re - s * base_im)
                want_iw.append(s * re + c * base_im)
        assert rw.tobytes() == np.vstack(want_rw).tobytes()
        assert iw.tobytes() == np.vstack(want_iw).tobytes()

    @given(
        st.lists(st.tuples(COORD, COORD), min_size=1, max_size=5),
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
        st.lists(st.tuples(FAR, FAR), min_size=1, max_size=4),
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

    def test_sweep_work_on_the_unit_triangle(self, monkeypatch):
        # the per-axis gap bound prunes most rotations of the benchmark
        # triangle: the pairwise bound alone builds 1872 translation tables
        # at this grid, both passes together
        calls = []
        real = oracle._frac_sq_tables
        monkeypatch.setattr(oracle, "_frac_sq_tables", lambda *a: calls.append(1) or real(*a))
        tau_estimate(_triangle(), 1600, 1600, with_reflection=True, bits=B)
        assert len(calls) <= 600

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


def _sampled_isometries(seed, samples):
    """The isometries check_prop_sep draws, replayed from its seed stream:
    rotation turn, reflection bit, two translation coordinates."""
    rng = random.Random(seed)
    out = []
    with working_precision(B):
        for _ in range(samples):
            turn = rng.random()
            refl = rng.random() < 0.5
            t1, t2 = rng.random(), rng.random()
            out.append(
                PlanarIsometry(
                    Rotation.from_angle(2 * mpmath.pi * mpf(turn), B), refl, (mpf(t1), mpf(t2))
                )
            )
    return out


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3, -5])
def test_random_stream_equals_stdlib(seed):
    # check_prop_sep's numpy stream must stay random.Random(seed)'s, draw
    # for draw, whatever either library changes; two calls cover the
    # continuation of the generator between chunks
    rng = random.Random(seed)
    expected = [rng.random() for _ in range(5000)]
    draw = oracle._random_stream(seed)
    assert np.concatenate([draw(1), draw(4999)]).tolist() == expected


def _unbounded_kept(t, samples, seed):
    """The prop-sep float screen with no bound before the rotation: every
    sample's image is formed, chunk by chunk, and the kept (index, row)
    pairs are returned as check_prop_sep re-evaluates them.  Draws come
    from random.Random(seed) itself."""
    probe = separated_probe(t, B)
    re = np.array([float(z.real) for z in probe.entries])
    im = np.array([float(z.imag) for z in probe.entries])
    exact_all = float(probe.max_abs()) > oracle._EXACT_ROTATION_MODULUS
    with working_precision(B):
        screen_sq = float((mpf(1) / 8 + mpf("1e-6")) ** 2)
    rng = random.Random(seed)
    index, rows, screened = [], [], []
    float_min_sq = np.inf
    for start in range(0, samples, oracle._PROP_SEP_CHUNK):
        n = min(oracle._PROP_SEP_CHUNK, samples - start)
        vals = np.array([rng.random() for _ in range(4 * n)]).reshape(n, 4)
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
        monkeypatch.setattr(oracle, "_PROP_SEP_CHUNK", 64)
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
        # at t = 2 about 5% of translations lie within the cut of 1/8 on
        # their own; from the second chunk on only those are rotated
        sizes = []
        real = np.cos
        monkeypatch.setattr(np, "cos", lambda x, *a, **k: sizes.append(np.size(x)) or real(x, *a, **k))
        chunk = oracle._PROP_SEP_CHUNK
        check_prop_sep("2", 8 * chunk, seed=1, bits=B)
        assert sizes[0] == chunk
        assert sum(sizes[1:]) <= 0.1 * 7 * chunk

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
        # 2 * chunk + 3 on each side of the chunk boundaries; seed 2 puts
        # the minimum past the first chunk at 9 and 19 samples, and at 1e5
        # every sample is kept for the exact pass
        probe = separated_probe(t, B)
        values = [isometry_max_frac(g, probe, B) for g in _sampled_isometries(2, samples)]
        calls = []
        real = oracle.isometry_max_frac
        monkeypatch.setattr(
            oracle, "isometry_max_frac", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        check_prop_sep(t, samples, seed=2, bits=B)
        whole = len(calls)
        monkeypatch.setattr(oracle, "_PROP_SEP_CHUNK", 8)
        chk = check_prop_sep(t, samples, seed=2, bits=B)
        # chunks re-evaluate exactly the samples one screen would
        assert len(calls) == 2 * whole
        assert chk.minimum == min(values)
        assert chk.argmin_index == values.index(min(values))
        assert chk.violations == tuple((i, v) for i, v in enumerate(values) if v < chk.threshold)

    def test_deterministic(self):
        a = check_prop_sep(2, 500, seed=9, bits=B)
        b = check_prop_sep(2, 500, seed=9, bits=B)
        assert to_json_data(a) == to_json_data(b)

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            check_prop_sep(2, 0, seed=1, bits=B)

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
