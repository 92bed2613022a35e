import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mpc, mpf

from lattice_rotor import cli, flowsearch, lll, solver
from lattice_rotor.corelattice import ComplexVector, vec_frac_dist
from lattice_rotor.flowsearch import FlowSearchOutcome, flow_search
from lattice_rotor.lll import float_start, lll_reduce
from lattice_rotor.precision import raise_for_magnitude, working_precision
from lattice_rotor.solver import SolverConfig

BITS = 128


def _golden_direction():
    with working_precision(BITS):
        g = (1 + mpmath.sqrt(mpf(5))) / 2
        return ComplexVector((mpc(1, g),), BITS)


def _half_offset():
    with working_precision(BITS):
        return ComplexVector((mpc(mpf("0.5"), mpf("0.5")),), BITS)


def _first_hit_reference(v, w, eps, L_max):
    """(grid index, s) of the first grid point with vec_frac_dist(W + sV) <
    eps, or (None, None): every point of the grid is screened in float64
    with a generous margin, and the candidates are re-checked exactly in
    increasing j."""
    with working_precision(BITS):
        eps = mpf(eps)
        delta = eps / (4 * v.max_abs())
        count = int(mpmath.floor(mpf(L_max) / delta)) + 1
        start = [float(x - mpmath.nint(x)) for z in w for x in (z.real, z.imag)]
        step = [float(delta * x) for z in v for x in (z.real, z.imag)]
    vals = np.array(start) + np.arange(count)[:, None] * np.array(step)
    resid = (vals - np.rint(vals)) ** 2
    worst = (resid[:, 0::2] + resid[:, 1::2]).max(axis=1)
    for j in np.flatnonzero(worst < (float(eps) + 1e-6) ** 2).tolist():
        with working_precision(BITS):
            s = j * delta
            if vec_frac_dist([zw + s * zv for zv, zw in zip(v, w)], BITS) < eps:
                return j, s
    return None, None


def _assert_matches_reference(out, v, w, eps, L_max):
    j, s = _first_hit_reference(v, w, eps, L_max)
    assert (out.found, out.grid_index, out.s) == (j is not None, j, s)
    assert out.strategy == "enumerate"


class TestTrivialCases:
    def test_zero_offset_found_immediately(self):
        out = flow_search(_golden_direction(), ComplexVector((mpc(0),), BITS), "0.3", 100, BITS)
        assert out.found and out.s == 0 and out.grid_index == 0

    def test_zero_budget_only_origin(self):
        v = _golden_direction()
        out = flow_search(v, _half_offset(), "0.05", 0, BITS)
        assert not out.found and out.reason == "absent"
        near = ComplexVector((mpc("0.01", "0.02"),), BITS)
        out2 = flow_search(v, near, "0.05", 0, BITS)
        assert out2.found and out2.s == 0

    def test_all_zero_direction_rejected(self):
        # so is one zero entry: it never moves, and the solver's reduced
        # blocks have none
        for direction in ((mpc(0), mpc(0)), (mpc(1), mpc(0))):
            with pytest.raises(ValueError, match="degenerate"):
                flow_search(
                    ComplexVector(direction, BITS),
                    ComplexVector((mpc("0.5"), mpc(0)), BITS),
                    "0.1",
                    10,
                    BITS,
                )

    def test_parameter_validation(self):
        v = _golden_direction()
        w = _half_offset()
        with pytest.raises(ValueError):
            flow_search(v, w, "0", 10, BITS)
        with pytest.raises(ValueError):
            flow_search(v, w, "0.8", 10, BITS)
        with pytest.raises(ValueError):
            flow_search(v, w, "0.1", -1, BITS)
        with pytest.raises(ValueError):
            flow_search(v, ComplexVector((mpc(0), mpc(0)), BITS), "0.1", 10, BITS)

    def test_eps_bound_is_exact(self):
        # 2^-60 above sqrt(2)/2 is past the bound, though a 53-bit
        # sqrt(2)/2 lies above it; 2^-60 below it is inside
        with working_precision(BITS):
            limit = mpmath.sqrt(mpf(2)) / 2
            above, below = limit + mpf(2) ** -60, limit - mpf(2) ** -60
        with pytest.raises(ValueError, match="eps must lie"):
            flow_search(_golden_direction(), _half_offset(), above, 10, BITS)
        out = flow_search(_golden_direction(), _half_offset(), below, 10, BITS)
        _assert_matches_reference(out, _golden_direction(), _half_offset(), below, 10)


class TestGoldenLineFixture:
    """Search along (1 + i*golden) from the cell corner at eps = 0.05.

    The expected first-hit index was frozen from a standalone scan written
    before this module; the slow loop below re-derives it on every run.
    """

    EPS = "0.05"
    L_MAX = 4
    FIRST_HIT = 231
    HIT_VALUE = "0.047322781886"

    def _delta(self):
        v = _golden_direction()
        with working_precision(BITS):
            return mpf(self.EPS) / (4 * v.max_abs())

    def _walk(self, step):
        """First index j, and its distance, of a plain exact walk over the
        grid {j * step} in [0, L_MAX]."""
        v = _golden_direction()
        w = _half_offset()
        with working_precision(BITS):
            for j in range(int(mpmath.floor(self.L_MAX / step)) + 1):
                d = vec_frac_dist([w[0] + j * step * v[0]], BITS)
                if d < mpf(self.EPS):
                    return j, d
        return None, None

    def test_first_grid_hit_matches_independent_scan(self):
        v = _golden_direction()
        w = _half_offset()
        out = flow_search(v, w, self.EPS, self.L_MAX, BITS)
        assert out.found
        assert out.grid_index == self.FIRST_HIT

        # independent re-derivation: plain walk over the same grid
        delta = self._delta()
        first, d = self._walk(delta)
        assert first == self.FIRST_HIT
        with working_precision(BITS):
            assert out.s == self.FIRST_HIT * delta
            assert abs(d - mpf(self.HIT_VALUE)) < mpf("1e-9")

    def test_sixteen_fold_refinement(self):
        # a 16x finer grid finds a slightly earlier crossing, within one
        # coarse step of the coarse answer
        v = _golden_direction()
        w = _half_offset()
        delta = self._delta()
        with working_precision(BITS):
            sixteenth = delta / 16
        coarse = flow_search(v, w, self.EPS, self.L_MAX, BITS)
        fine, _ = self._walk(sixteenth)
        assert fine == 3691
        with working_precision(BITS):
            fine_s = fine * sixteenth
        assert fine_s <= coarse.s
        assert coarse.s - fine_s <= delta

    def test_halving_the_grid_keeps_success(self):
        v = _golden_direction()
        w = _half_offset()
        delta = self._delta()
        with working_precision(BITS):
            halved = delta / 2
        base = flow_search(v, w, self.EPS, self.L_MAX, BITS)
        half, _ = self._walk(halved)
        assert base.found and half is not None
        with working_precision(BITS):
            half_s = half * halved
        assert half_s <= base.s
        assert base.s - half_s <= delta

    def test_deterministic(self):
        v = _golden_direction()
        w = _half_offset()
        a = flow_search(v, w, self.EPS, self.L_MAX, BITS)
        b = flow_search(v, w, self.EPS, self.L_MAX, BITS)
        assert a == b


class TestEnumerationWindows:
    def test_budget_exhaustion_is_reported(self, monkeypatch):
        with working_precision(BITS):
            v = ComplexVector((mpc(1), mpc(mpmath.sqrt(mpf(2)))), BITS)
            w = ComplexVector((mpc("0.3", "0.4"), mpc("0.1", "0.2")), BITS)
        monkeypatch.setattr(flowsearch, "DEFAULT_WINDOW_BUDGET", 1)
        monkeypatch.setattr(flowsearch, "DEFAULT_NODE_BUDGET", 8)
        out = flow_search(v, w, "0.01", mpf(10) ** 9, BITS)
        assert not out.found
        assert out.reason == "exhausted"
        assert isinstance(out, FlowSearchOutcome)

    def test_floor_window_over_node_budget_is_exhausted(self, monkeypatch):
        # the golden line's first window is already the floor length, so a
        # window that outgrows the node budget cannot shrink and the walk
        # gives up in it
        assert flowsearch._first_window(1, mpf("0.05")) == flowsearch._WINDOW_FLOOR
        monkeypatch.setattr(flowsearch, "DEFAULT_NODE_BUDGET", 0)
        out = flow_search(_golden_direction(), _half_offset(), "0.05", 4, BITS)
        assert (out.found, out.reason, out.windows_used, out.examined) == (
            False, "exhausted", 1, 0
        )

    def test_target_past_double_resolution_is_exhausted(self, monkeypatch):
        # at eps 1e-16 the golden line's first window is 2^101 indices long
        # and its target's coordinates in the reduced basis pass 2^52, where
        # a double no longer holds their integer part, though not 2^63: the
        # walk ends there instead of enumerating around a rounded target
        largest = []
        real_gso = flowsearch._gso

        def gso(window, target):
            y = real_gso(window, target)
            largest.append(max(abs(c) for c in y))
            return y

        monkeypatch.setattr(flowsearch, "_gso", gso)
        out = flow_search(_golden_direction(), _half_offset(), "1e-16", mpf(10) ** 40, BITS)
        assert (out.found, out.reason, out.windows_used, out.examined) == (
            False, "exhausted", 1, 0
        )
        assert len(largest) == 1 and 2.0**52 <= largest[0] < 2.0**63

    def test_enumeration_agrees_with_scan(self):
        # the enumeration walk lands on the first hit a whole-grid scan finds
        v = _golden_direction()
        w = _half_offset()
        windowed = flow_search(v, w, "0.05", 4, BITS)
        assert windowed.found
        _assert_matches_reference(windowed, v, w, "0.05", 4)


def _near_half(a: int, nudge: float):
    with working_precision(BITS):
        return mpf(a) + mpf(1) / 2 + mpf(nudge)


NEAR_HALF = st.builds(
    _near_half,
    st.integers(-3, 3),
    st.one_of(st.just(0.0), st.floats(-0.01, 0.01), st.floats(-1e-9, 1e-9)),
)


@st.composite
def entries_and_offsets(draw, m):
    """m direction entries and their offsets; each entry after the first is
    generic or a Gaussian-rational multiple of the first, so the flow may
    live on a lower-dimensional subtorus."""
    with working_precision(BITS):
        polar = st.tuples(st.floats(0.2, 2), st.floats(0, 6.283))
        first = mpmath.rect(*draw(polar))
        entries = [first]
        for _ in range(m - 1):
            if draw(st.booleans()):
                entries.append(mpmath.rect(*draw(polar)))
            else:
                p, q = draw(
                    st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda pq: pq != (0, 0))
                )
                entries.append(first * mpc(p, q) / draw(st.integers(1, 4)))
        offset = [mpc(draw(NEAR_HALF), draw(NEAR_HALF)) for _ in entries]
    return ComplexVector(tuple(entries), BITS), ComplexVector(tuple(offset), BITS)


@st.composite
def flows(draw):
    """(direction, offset, eps, L_max) with one or two entries on a short
    grid."""
    v, w = draw(entries_and_offsets(draw(st.integers(1, 2))))
    return v, w, draw(st.floats(0.05, 0.3)), draw(st.integers(1, 60))


class TestScanEnumerationDifferential:
    @given(flow=flows())
    def test_enumeration_finds_the_scan_minimum(self, flow):
        # enumeration windows from j = 0 find the whole-grid scan's minimum
        v, w, eps, L_max = flow
        _assert_matches_reference(flow_search(v, w, eps, L_max, BITS), v, w, eps, L_max)

    @pytest.mark.parametrize("ratio", [mpc(1, 1), mpc(1, -2) / 3], ids=["1+i", "(1-2i)/3"])
    def test_early_hit_of_a_rational_flow(self, ratio):
        # the second entry is a Gaussian-rational multiple of the first, so
        # the flow lives on a subtorus and hits hundreds of times earlier
        # than the generic estimate E that sizes the first window
        eps = mpf("0.01")
        with working_precision(BITS):
            first, offset = mpc(1, (1 + mpmath.sqrt(5)) / 2), mpc("0.5", "0.5")
            v = ComplexVector((first, ratio * first), BITS)
            w = ComplexVector((offset, ratio * offset), BITS)
            L_max = (1 << 17) * eps / (4 * v.max_abs())
            E = (mpmath.pi * eps**2) ** -2
        hit, _ = _first_hit_reference(v, w, eps, L_max)
        assert hit < E / 100 < flowsearch._first_window(2, eps)
        _assert_matches_reference(flow_search(v, w, eps, L_max, BITS), v, w, eps, L_max)

    @pytest.mark.parametrize("kind", ["generic", "rational"])
    def test_three_entries_on_a_long_grid(self, kind):
        # m = 3 over a 2^17-point grid: a generic flow, and one whose third
        # entry is a Gaussian-rational multiple of the first, so it lives on
        # a subtorus of the 3-entry torus
        eps = mpf("0.1")
        with working_precision(BITS):
            a, w_a = mpc(1, (1 + mpmath.sqrt(5)) / 2), mpc("0.5", "0.5")
            b, w_b = mpc(mpmath.sqrt(2), mpmath.sqrt(3) - 1), mpc("0.3", "0.1")
            if kind == "rational":
                c, w_c = a * mpc(1, -2) / 3, w_a * mpc(1, -2) / 3
            else:
                c, w_c = mpc(mpmath.e / 2, mpmath.pi / 3), mpc("0.2", "0.45")
            v = ComplexVector((a, b, c), BITS)
            w = ComplexVector((w_a, w_b, w_c), BITS)
            L_max = (1 << 17) * eps / (4 * v.max_abs())
        out = flow_search(v, w, eps, L_max, BITS)
        assert out.found
        _assert_matches_reference(out, v, w, eps, L_max)


@st.composite
def long_flows(draw):
    """(direction, offset, eps, L_max) with 1-3 entries whose walk can span
    several windows: eps puts the generic first-hit estimate
    E = (pi*eps^2)^(-m) at 2^17-2^20 grid indices, past the first window,
    and the grid runs to 4E."""
    m = draw(st.integers(1, 3))
    log2_hit = draw(st.integers(17, 20))
    v, w = draw(entries_and_offsets(m))
    with working_precision(BITS):
        eps = mpmath.sqrt(mpf(2) ** (-mpf(log2_hit) / m) / mpmath.pi)
        L_max = (4 << log2_hit) * eps / (4 * v.max_abs())
    return v, w, eps, L_max


class TestWarmStartedWindows:
    """A walk's first window starts its exact LLL from float_start's
    pre-reduction of its rows; every later window hands the transform of
    the window before it straight to the exact LLL.  A walk whose every
    reduction starts cold, the test's own reference, must end
    identically."""

    @staticmethod
    def _warm_and_cold(monkeypatch, v, w, eps, L_max):
        # both walks bypass the reduction memo, so every window of each is
        # reduced by its own lll_reduce call: the warm walk's from the
        # start it is given, the cold walk's from scratch.  Each walk
        # records every window's length, rows, float_start calls, the
        # start passed on and the transform got back
        real_lattice = flowsearch._window_lattice

        def record(log, reduce, start_from):
            def lattice(dv_coords, eps, window_len, bits_eval):
                log.append({"len": window_len, "reductions": 0, "float_starts": 0})
                return real_lattice(dv_coords, eps, window_len, bits_eval)

            def float_start_(rows):
                log[-1]["float_starts"] += 1
                return start_from(rows)

            def reduce_(rows, start=None):
                out = reduce(rows, start)
                log[-1].update(rows=rows, start=start, transform=out[1])
                log[-1]["reductions"] += 1
                return out

            monkeypatch.setattr(flowsearch, "_window_lattice", lattice)
            monkeypatch.setattr(flowsearch, "float_start", float_start_)
            monkeypatch.setattr(flowsearch, "lll_reduce", reduce_)

        monkeypatch.setattr(flowsearch, "_reduced_window", flowsearch._reduced_window.__wrapped__)
        windows, cold_windows = [], []
        record(windows, lll_reduce, float_start)
        warm = flow_search(v, w, eps, L_max, BITS)
        record(cold_windows, lambda rows, start=None: lll_reduce(rows), lambda rows: None)
        cold = flow_search(v, w, eps, L_max, BITS)

        for log, outcome in ((windows, warm), (cold_windows, cold)):
            assert [win["reductions"] for win in log] == [1] * outcome.windows_used
            assert [win["float_starts"] for win in log] == [1] + [0] * (outcome.windows_used - 1)
        assert windows[0]["start"] == float_start(windows[0]["rows"])
        for before, after in zip(windows, windows[1:]):
            assert after["start"] == tuple(map(tuple, before["transform"]))
        return warm, cold, windows

    @staticmethod
    def _assert_same_walk(warm, cold):
        fields = ("found", "reason", "s", "grid_index", "examined", "windows_used")
        assert [getattr(warm, f) for f in fields] == [getattr(cold, f) for f in fields]

    @given(flow=long_flows())
    def test_warm_walk_equals_cold_walk(self, flow):
        with pytest.MonkeyPatch.context() as monkeypatch:
            warm, cold, windows = self._warm_and_cold(monkeypatch, *flow)
        self._assert_same_walk(warm, cold)
        assert len(windows) == warm.windows_used

    def test_a_shrunken_window_starts_from_the_longer_window(self, monkeypatch):
        # a 16-node budget makes the 2^25-index windows of this walk fail
        # and shrink to 2^23, so those windows start from the transform of
        # a window four times longer than themselves
        eps = mpf("0.01")
        with working_precision(BITS):
            a, w_a = mpc(1, (1 + mpmath.sqrt(5)) / 2), mpc("0.5", "0.5")
            b, w_b = mpc(mpmath.sqrt(2), mpmath.sqrt(3) - 1), mpc("0.3", "0.1")
            v = ComplexVector((a, b), BITS)
            w = ComplexVector((w_a, w_b), BITS)
            L_max = (1 << 28) * eps / (4 * v.max_abs())
        monkeypatch.setattr(flowsearch, "DEFAULT_NODE_BUDGET", 16)
        warm, cold, windows = self._warm_and_cold(monkeypatch, v, w, eps, L_max)
        self._assert_same_walk(warm, cold)
        assert warm.found and warm.grid_index == 69_759_995
        lengths = [win["len"] for win in windows]
        assert any(after < before for before, after in zip(lengths, lengths[1:]))
        assert len(lengths) == warm.windows_used == 19

    @staticmethod
    def _generic_flow(m):
        """m generic entries and offsets at the eps that puts the first-hit
        estimate E at 2^20 grid indices, on a grid of 4E."""
        with working_precision(BITS):
            eps = mpmath.sqrt(mpf(2) ** (-mpf(20) / m) / mpmath.pi)
            v = ComplexVector(
                tuple(mpmath.rect(mpf("0.5") + mpf(k) / 7, mpmath.sqrt(k + 2)) for k in range(m)),
                BITS,
            )
            w = ComplexVector(
                tuple(mpc(mpf(k + 1) / (m + 3), mpf(2 * k + 1) / (2 * m + 5)) for k in range(m)),
                BITS,
            )
            L_max = (4 << 20) * eps / (4 * v.max_abs())
        return v, w, eps, L_max

    @pytest.mark.parametrize("m, grid_index", [(6, 1_841_033), (7, 1_744_591)])
    def test_thirteen_and_fifteen_dimensional_windows(self, monkeypatch, m, grid_index):
        # 2m+1 = 13 and 15 come near the dimension where doubles stop
        # carrying L^2's reduction; the float start of the first window
        # and the transforms carried after it still leave the walk as
        # cold reductions leave it
        warm, cold, windows = self._warm_and_cold(monkeypatch, *self._generic_flow(m))
        self._assert_same_walk(warm, cold)
        assert len(windows[0]["rows"]) == 2 * m + 1
        assert windows[0]["start"] is not None
        assert warm.found and warm.grid_index == grid_index

    def test_five_dimensional_windows(self, monkeypatch):
        # the window dimension of the README and block solves, where a
        # carried transform gains most over a float pre-reduction
        warm, cold, windows = self._warm_and_cold(monkeypatch, *self._generic_flow(2))
        self._assert_same_walk(warm, cold)
        assert len(windows[0]["rows"]) == 5 and warm.windows_used == 3
        assert warm.found and warm.grid_index == 979_797

    def test_a_refused_float_start_leaves_the_first_window_cold(self, monkeypatch):
        monkeypatch.setattr(lll, "_float_iterations", lambda n, bits: 0)
        warm, cold, windows = self._warm_and_cold(monkeypatch, *self._generic_flow(6))
        self._assert_same_walk(warm, cold)
        assert windows[0]["start"] is None
        assert warm.found and warm.grid_index == 1_841_033


class TestReadmeWorkGuard:
    def test_search_work_stays_bounded(self, monkeypatch):
        # the README solve at its first dilation: the reduced flow has two
        # entries at eps 0.1/8, so E is about 2^22.  The windows start at
        # j = 0 with 2^17 indices and grow 4x; the hit at index 9,845,939
        # lies in the fourth, and the walk examines 6 candidates in all
        outcomes = []

        def recording(*args, **kwargs):
            out = flow_search(*args, **kwargs)
            outcomes.append(out)
            return out

        monkeypatch.setattr(solver, "flow_search", recording)
        points = (mpc("1", "0"), mpc("0.5", "0.866025403784438646763723170753"))
        report = solver.solve_general(
            ComplexVector(points, 128), "4e16", "0.1", seed=7, config=SolverConfig(bits=128)
        )
        assert report.achieved
        assert len(outcomes) == 1
        assert report.search_steps == outcomes[0].examined <= 16
        assert outcomes[0].windows_used <= 6

    def test_precision_contexts_follow_calls_and_checks(self, monkeypatch, tmp_path):
        # the README solve's 20 dilations: flowsearch enters a precision
        # context three times per call (parsing eps and L_max, the grid
        # step, and the first window's length), once per verified
        # candidate and once per window-lattice memo miss; never once per
        # window, whose targets are fixed point
        entries = []
        real_precision, real_frac_dist = flowsearch.working_precision, flowsearch.frac_dist

        def precision(bits):
            entries.append(bits)
            return real_precision(bits)

        checks = []

        def frac_dist(z, bits):
            checks.append(bits)
            return real_frac_dist(z, bits)

        outcomes = []

        def recording(*args, **kwargs):
            out = flow_search(*args, **kwargs)
            outcomes.append((len(args[0]), out))
            return out

        monkeypatch.setattr(flowsearch, "working_precision", precision)
        monkeypatch.setattr(flowsearch, "frac_dist", frac_dist)
        monkeypatch.setattr(solver, "flow_search", recording)
        spec = {
            "mode": "solve",
            "points": [["1", "0"], ["0.5", "0.866025403784438646763723170753"]],
            "epsilon": "0.1",
            "t_range": {"from": "4e16", "to": "4e17", "count": 20, "spacing": "log"},
            "seed": 7,
            "precision_bits": 128,
        }
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        misses_before = flowsearch._window_lattice.cache_info().misses
        code = cli.main(
            ["solve", "--input", str(tmp_path / "spec.json"), "--output", str(tmp_path / "r.json")]
        )
        lattice_misses = flowsearch._window_lattice.cache_info().misses - misses_before
        assert code == 0
        assert len(outcomes) == 20 and all(out.found for _, out in outcomes)
        (m,) = {m for m, _ in outcomes}
        verified, rest = divmod(len(checks), m)
        windows = sum(out.windows_used for _, out in outcomes)
        assert rest == 0 and windows > 2 * len(outcomes)
        assert len(entries) == 3 * len(outcomes) + verified + lattice_misses


class TestWrongCandidatesRejected:
    def test_injected_misses_end_in_an_honest_miss(self, monkeypatch):
        # the first entry's imaginary part stays at 1/2 for every s, so no
        # grid index is within eps; the injected enumeration offers them all
        with working_precision(BITS):
            v = ComplexVector((mpc(1), mpc(mpmath.sqrt(mpf(2)), 1)), BITS)
            w = ComplexVector((mpc(0, "0.5"), mpc("0.1", "0.2")), BITS)
        eps = mpf("0.1")

        def every_index(window, target, eps, window_len, node_budget):
            return list(range(window_len))

        monkeypatch.setattr(flowsearch, "_window_candidates", every_index)
        out = flow_search(v, w, eps, 4, BITS)
        if out.s is not None:
            with working_precision(BITS):
                point = [zw + out.s * zv for zv, zw in zip(v, w)]
            assert vec_frac_dist(point, BITS) < eps
        assert not out.found and out.s is None and out.grid_index is None
        assert (out.reason, out.strategy, out.windows_used) == ("absent", "enumerate", 1)


class TestWindowCandidates:
    def _window(self):
        # one window of the golden line's enumeration, at the first index
        # of its 0.05-neighbourhood search: the reduced window, the
        # target, eps and the window length
        with working_precision(BITS):
            step = mpf("0.05") / (4 * _golden_direction().max_abs())
            g = (1 + mpmath.sqrt(mpf(5))) / 2
        eps, length = mpf("0.05"), 1 << 10
        rows, scale = flowsearch._window_lattice((step, step * g), eps, length, BITS)
        return flowsearch._reduced_window(rows, scale, None), [-0.5, -0.5], eps, length

    def test_no_enumerated_point_gives_no_candidate(self, monkeypatch):
        monkeypatch.setattr(flowsearch, "_enumerate_ball", lambda *args: [])
        assert flowsearch._window_candidates(*self._window(), 10**6) == []

    def test_disk_filter_matches_a_point_by_point_filter(self, monkeypatch):
        # the filter steps along each enumerated range by the first basis
        # row; a loop over the points with the same per-entry disks gives
        # the same indices, except for a point within float rounding of a
        # disk's edge
        seen = {}
        real_gso, real_enumerate = flowsearch._gso, flowsearch._enumerate_ball

        def gso(window, target):
            seen.update(basis=window.basis, tau=target)
            return real_gso(window, target)

        def enumerate_(*args):
            seen["ranges"] = real_enumerate(*args)
            return seen["ranges"]

        monkeypatch.setattr(flowsearch, "_gso", gso)
        monkeypatch.setattr(flowsearch, "_enumerate_ball", enumerate_)
        window = self._window()
        transform, length = window[0].transform, window[-1]
        got = flowsearch._window_candidates(*window, 10**6)

        coeffs = _range_points(seen["ranges"])
        kept, edge = _disk_filter(coeffs, seen["basis"], seen["tau"], transform, length)
        assert len(coeffs) > len(got) > 0
        assert kept <= set(got) <= kept | edge
        assert got == sorted(got)


@st.composite
def window_steps(draw):
    """The step coordinates and eps of a flow with 1-3 entries at eps in
    [1e-3, 0.7], and a window length of 2^4 to 2^14 indices."""
    m = draw(st.integers(1, 3))
    v, _ = draw(entries_and_offsets(m))
    eps = mpf(10 ** draw(st.floats(-3, math.log10(0.7))))
    with working_precision(BITS):
        delta = eps / (4 * v.max_abs())
        dv = tuple([delta * z.real for z in v] + [delta * z.imag for z in v])
    return dv, eps, 1 << draw(st.integers(4, 14))


class TestWindowMemos:
    """_window_lattice and _reduced_window remember their answers under
    exact keys, as tuples, and a remembered answer is the one a fresh
    computation gives."""

    @staticmethod
    def _step():
        with working_precision(BITS):
            step = mpf("0.05") / (4 * _golden_direction().max_abs())
            return (step, step * (1 + mpmath.sqrt(mpf(5))) / 2)

    def test_each_precision_is_its_own_entry(self):
        # the same step at two evaluation precisions takes two entries,
        # and each answers its own repeat
        memo = flowsearch._window_lattice
        step, eps, length = self._step(), mpf("0.05"), 12345
        misses = memo.cache_info().misses
        for bits in (BITS, 2 * BITS):
            flowsearch._window_lattice(step, eps, length, bits)
        assert memo.cache_info().misses == misses + 2
        hits = memo.cache_info().hits
        for bits in (BITS, 2 * BITS):
            flowsearch._window_lattice(step, eps, length, bits)
        assert memo.cache_info().hits == hits + 2

    @given(step=window_steps())
    def test_remembered_window_equals_a_fresh_reduction(self, step):
        dv, eps, length = step
        rows, scale = flowsearch._window_lattice(dv, eps, length, BITS)
        fresh = flowsearch._reduced_window.__wrapped__(rows, scale, None)
        for _ in range(2):
            assert flowsearch._reduced_window(rows, scale, None) == fresh

    @given(step=window_steps())
    def test_remembered_warm_window_equals_a_fresh_reduction(self, step):
        # the next window of a walk, four times longer, starts from this
        # window's transform
        dv, eps, length = step
        rows, scale = flowsearch._window_lattice(dv, eps, length, BITS)
        start = flowsearch._reduced_window(rows, scale, None).transform
        rows, scale = flowsearch._window_lattice(dv, eps, 4 * length, BITS)
        fresh = flowsearch._reduced_window.__wrapped__(rows, scale, start)
        for _ in range(2):
            assert flowsearch._reduced_window(rows, scale, start) == fresh

    def test_reduced_window_memo_stays_bounded(self):
        limit = flowsearch._reduced_window.cache_info().maxsize
        for k in range(limit + 8):
            flowsearch._reduced_window(((1, k + 1), (0, 1)), 1, None)
        assert flowsearch._reduced_window.cache_info().currsize <= limit

    def test_gso_coordinates_follow_each_target(self):
        # the remembered window serves every target, and y is each
        # target's own coordinates
        rows, scale = flowsearch._window_lattice(self._step(), mpf("0.05"), 1 << 10, BITS)
        window = flowsearch._reduced_window(rows, scale, None)
        assert flowsearch._reduced_window(rows, scale, None) is window
        for target in ([0.25, -0.5, 1.0], [-3.0, 0.125, 1.0]):
            y = flowsearch._gso(window, target)
            back = [sum(yk * row[c] for yk, row in zip(y, window.basis)) for c in range(len(target))]
            assert back == pytest.approx(target, abs=1e-9)


@st.composite
def fixed_point_windows(draw):
    """A flow whose offset coordinates are lifted by integers up to 2^60
    (its exact half-integers and negative coordinates kept), its walk's
    evaluation precision, 1000 bits or more in some draws so that a
    residue's integer passes the double range, and a window start j0 in
    [0, grid_last]: (direction, offset, eps, bits_eval, j0)."""
    v, w = draw(entries_and_offsets(draw(st.integers(1, 3))))
    lift = st.integers(-(1 << 60), 1 << 60)
    with working_precision(BITS):
        w = ComplexVector(tuple(z + mpc(draw(lift), draw(lift)) for z in w), BITS)
    eps = mpf(draw(st.floats(1e-3, 0.7)))
    L_max = mpf(2) ** draw(st.integers(0, 60))
    base = draw(st.sampled_from([BITS, 1000]))
    bits_eval = raise_for_magnitude(base, max(w.max_abs(), L_max * v.max_abs(), mpf(1)), eps)
    with working_precision(bits_eval):
        grid_last = int(mpmath.floor(L_max / (eps / (4 * v.max_abs()))))
    assert grid_last < 2 ** (bits_eval - 46)
    j0 = draw(st.sampled_from([0, grid_last]) | st.integers(0, grid_last))
    return v, w, eps, bits_eval, j0


class TestFixedPointTargets:
    """A window's target residues come from fixed-point integers; each
    equals the signed fractional part of W + j0*delta*V at four times the
    evaluation precision, within j0 + 2 fixed-point units (below the
    stated bound 2^-100) plus the double's own rounding."""

    @given(window=fixed_point_windows())
    def test_residues_match_a_high_precision_reference(self, window):
        v, w, eps, bits_eval, j0 = window
        with working_precision(bits_eval):
            delta = eps / (4 * v.max_abs())
            dv = [delta * z for z in v]
        coords = [z.real for z in w] + [z.imag for z in w]
        dv_coords = [z.real for z in dv] + [z.imag for z in dv]
        offset = flowsearch._fixed_point(coords, bits_eval)
        step = flowsearch._fixed_point(dv_coords, bits_eval)
        got = flowsearch._residues(offset, step, j0, bits_eval)
        assert all(-0.5 <= r <= 0.5 for r in got)
        with working_precision(4 * bits_eval):
            unit = mpf(2) ** (bits_eval + 64)
            for x, fixed in zip(coords + dv_coords, offset + step, strict=True):
                assert 0 <= x * unit - fixed < 1
            for r, x, c in zip(got, coords, dv_coords, strict=True):
                exact = x + j0 * c
                # an exact half-integer's residue is -1/2 here and may be
                # +1/2 by nint: the two differ by a whole unit
                diff = mpf(r) - (exact - mpmath.nint(exact))
                diff -= mpmath.nint(diff)
                # each fixed-point coordinate lies under its value by less
                # than one unit of 2^-(bits_eval + 64), so the sum by less
                # than j0 + 1 units, which grid_last < 2^(bits_eval - 46)
                # keeps below 2^-100; past 960 fractional bits the step to
                # a double may drop up to 2^-960 more
                bound = (j0 + 2) * mpf(2) ** -(bits_eval + 64) + mpf(2) ** -960
                assert bound < mpf(2) ** -100
                assert abs(diff) <= bound + mpf(math.ulp(r)) / 2

    def test_exact_half_integers_land_on_minus_one_half(self):
        with working_precision(BITS):
            w = [mpf("2.5"), mpf("-3.5"), -mpf(2) ** 60 - mpf("0.5")]
        # 64 fractional bits past the evaluation precision
        frac_bits = BITS + 64
        offset = flowsearch._fixed_point(w, BITS)
        assert offset[0] == 5 << (frac_bits - 1)
        assert flowsearch._residues(offset, [0, 0, 0], 0, BITS) == [-0.5] * 3
        # one unit under 1/2 rounds up to the double 1/2
        just_under = (1 << (frac_bits - 1)) - 1
        assert flowsearch._residues([just_under], [0], 0, BITS) == [0.5]


def _range_points(ranges):
    """The coefficient vectors of _enumerate_ball's ranges, one by one."""
    return [(first + i, *rest) for first, count, rest in ranges for i in range(count)]


def _disk_filter(coeffs, basis, tau, transform, length):
    """(kept, edge): the relative grid indices in [0, length) of the
    enumerated points whose every entry lies within 1.02 of its disk
    centre, judged point by point, and those of the points within float
    rounding of a disk's edge."""
    m = (len(transform) - 1) // 2
    kept, edge = set(), set()
    basis, tau = np.asarray(basis), np.asarray(tau)
    for u in coeffs:
        offset = np.asarray(u) @ basis - tau
        worst = max(offset[k] ** 2 + offset[k + m] ** 2 for k in range(m))
        j_rel = sum(int(c) * row[0] for c, row in zip(u, transform))
        if not 0 <= j_rel < length:
            continue
        if abs(worst - 1.02**2) < 1e-9:
            edge.add(j_rel)
        elif worst < 1.02**2:
            kept.add(j_rel)
    return kept, edge


def _vectorized_candidates(window, target, eps, length):
    """(kept, edge) of one window as numpy arrays give them: Gram-Schmidt
    on the float basis, the ball of radius sqrt(m+1) around the target
    coordinates np.linalg.solve gives, and one array pass of the
    1.02-disk filter over its points; edge holds the indices of the
    points within float rounding of a disk's edge."""
    n = len(window.basis)
    m = (n - 1) // 2
    reduced_f = np.array(window.basis, dtype=np.float64)
    mu, ortho, bstar_sq = np.zeros((n, n)), reduced_f.copy(), np.zeros(n)
    for i in range(n):
        for j in range(i):
            mu[i, j] = np.dot(reduced_f[i], ortho[j]) / bstar_sq[j]
            ortho[i] -= mu[i, j] * ortho[j]
        bstar_sq[i] = np.dot(ortho[i], ortho[i])
    tau = np.array([t * (1.0 / float(eps)) for t in target] + [1.0])
    radius = math.sqrt(m + 1) * 1.01 + 0.05
    coeffs, _ = _recursive_ball(reduced_f, mu, bstar_sq, tau, radius * radius)
    us = np.array(coeffs, dtype=np.int64).reshape(len(coeffs), n)
    offsets = us @ reduced_f - tau
    worst = (offsets[:, :m] ** 2 + offsets[:, m : n - 1] ** 2).max(axis=1)
    kept, edge = set(), set()
    for u, w in zip(us.tolist(), worst.tolist()):
        j_rel = sum(c * row[0] for c, row in zip(u, window.transform))
        if not 0 <= j_rel < length:
            continue
        if abs(w - 1.02**2) < 1e-9:
            edge.add(j_rel)
        elif w < 1.02**2:
            kept.add(j_rel)
    return kept, edge


def _recursive_ball(basis, mu, bstar_sq, tau, radius_sq):
    """(coefficient vectors, node count) of a recursive Fincke-Pohst
    enumeration of the ball |u*basis - tau| <= radius, one point at a
    time: the enumerator the explicit loop replaced, kept as its
    reference."""
    basis, mu = np.asarray(basis), np.asarray(mu)
    n = basis.shape[0]
    y = np.linalg.solve(basis.T, tau)
    results = []
    u = np.zeros(n, dtype=np.int64)
    diff = np.zeros(n)
    nodes = 0

    def descend(k, remaining):
        nonlocal nodes
        center = y[k]
        for i in range(k + 1, n):
            center -= diff[i] * mu[i, k]
        half = math.sqrt(max(remaining, 0.0) / bstar_sq[k])
        lo = math.ceil(center - half - 1e-12)
        hi = math.floor(center + half + 1e-12)
        for cand in range(lo, hi + 1):
            nodes += 1
            step = cand - center
            used = step * step * bstar_sq[k]
            if used > remaining + 1e-12:
                continue
            u[k] = cand
            diff[k] = cand - y[k]
            if k == 0:
                results.append(u.copy())
            else:
                descend(k - 1, remaining - used)
        u[k] = 0
        diff[k] = 0.0

    descend(n - 1, radius_sq)
    return results, nodes


@st.composite
def planted_windows(draw):
    """One enumeration window of a flow with 1-3 entries (generic or
    Gaussian-rational multiples of the first) at eps in [1e-3, 0.7], whose
    target puts a point within 0.71*eps of the lattice at one index of the
    window: its reduced window, target, eps and length.  The length keeps
    the expected number of near points small."""
    m = draw(st.integers(1, 3))
    v, _ = draw(entries_and_offsets(m))
    eps = 10 ** draw(st.floats(-3, math.log10(0.7)))
    cap = max(16, int(64 / (math.pi * eps * eps) ** m))
    length = min(1 << draw(st.integers(4, 16)), 1 << (cap.bit_length() - 1))
    hit = draw(st.integers(0, length - 1))
    noise = draw(st.lists(st.floats(-0.5, 0.5), min_size=2 * m, max_size=2 * m))
    with working_precision(BITS):
        delta = mpf(eps) / (4 * v.max_abs())
        dv = tuple([delta * z.real for z in v] + [delta * z.imag for z in v])
        target = [hit * c - mpf(x) * mpf(eps) for c, x in zip(dv, noise)]
        target = [float(x - mpmath.nint(x)) for x in target]
    rows, scale = flowsearch._window_lattice(dv, mpf(eps), length, BITS)
    return flowsearch._reduced_window(rows, scale, None), target, mpf(eps), length


def _ball_inputs(window, target, eps):
    """The window's float basis and target, as _window_candidates scales
    them, and their Gram-Schmidt data (mu, bstar_sq, y)."""
    tau = [t / float(eps) for t in target] + [1.0]
    return window.basis, tau, window.mu, window.bstar_sq, flowsearch._gso(window, tau)


class TestDiskEnumeration:
    """Each window enumerates the ball of radius sqrt(m+1) around its
    target, which covers the m admissible disks times the time interval,
    not the ball of radius sqrt(2m+1) around their bounding cube."""

    @given(window=planted_windows())
    def test_candidates_equal_the_cube_ball_filtered_by_disks(self, window):
        reduced, target, eps, length = window
        m = (len(reduced.basis) - 1) // 2
        got = flowsearch._window_candidates(*window, 10**7)

        reduced_f, tau, mu, bstar_sq, _ = _ball_inputs(reduced, target, eps)
        radius = math.sqrt(2 * m + 1) * 1.01 + 0.05
        coeffs, _ = _recursive_ball(reduced_f, mu, bstar_sq, tau, radius * radius)
        kept, edge = _disk_filter(coeffs, reduced_f, tau, reduced.transform, length)
        assert kept <= set(got) <= kept | edge

    @given(window=planted_windows())
    def test_plain_lists_equal_the_vectorized_filter(self, window):
        # the same indices as the array version of the window: its target
        # coordinates from np.linalg.solve and one array pass of the disk
        # filter, except for a point within float rounding of a disk's edge
        got = flowsearch._window_candidates(*window, 10**7)
        kept, edge = _vectorized_candidates(*window)
        assert kept <= set(got) <= kept | edge

    @given(window=planted_windows())
    def test_explicit_loop_equals_the_recursion(self, window):
        # the same coefficient set and node count at the same radius, so
        # the node budget runs out in the same window
        reduced, target, eps, _ = window
        m = (len(reduced.basis) - 1) // 2
        reduced_f, tau, mu, bstar_sq, y = _ball_inputs(reduced, target, eps)
        radius_sq = (math.sqrt(m + 1) * 1.01 + 0.05) ** 2
        coeffs, nodes = _recursive_ball(reduced_f, mu, bstar_sq, tau, radius_sq)
        points = _range_points(flowsearch._enumerate_ball(mu, bstar_sq, y, radius_sq, nodes))
        assert all(type(c) is int for u in points for c in u)
        assert sorted(points) == sorted(tuple(int(c) for c in u) for u in coeffs)
        if nodes:
            with pytest.raises(flowsearch._BudgetExceeded):
                flowsearch._enumerate_ball(mu, bstar_sq, y, radius_sq, nodes - 1)
