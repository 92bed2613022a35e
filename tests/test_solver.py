import random
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpc, mpf

from lattice_rotor import flowsearch, relations, solver
from lattice_rotor.corelattice import ComplexVector, Rotation, real_dist_to_lattice
from lattice_rotor.precision import (
    parse_complex_pair,
    parse_decimal,
    residual_tol,
    unit_modulus_tol,
    working_precision,
)
from lattice_rotor.products import embed_points, project_planes
from lattice_rotor.reporting import to_json_data
from lattice_rotor.solver import (
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


def _first_horizon_at(monkeypatch, L0: str):
    """Set solve_general's first horizon to L0, so the horizon t certifies
    can lie past it."""
    monkeypatch.setattr(solver, "initial_search_length", lambda eps, entries, bits: mpf(L0))


def _record_calls(monkeypatch, name):
    """Replace solver.<name> by a wrapper that appends each call's result
    to the returned list."""
    results, real = [], getattr(solver, name)

    def record(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(solver, name, record)
    return results


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
    """(thetas, t, planes, bits) whose images theta_i*t*z are drawn
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
    return thetas, t, project_planes(points, bits), bits


class TestCertify:
    @given(case=certify_cases(1))
    def test_one_plane_is_lattice_residuals_rounded(self, case):
        (theta,), t, (vec,), bits = case
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
        thetas, t, planes, bits = case
        per_point, worst = certify(thetas, t, planes, bits)
        hi = 2 * bits
        report = SimpleNamespace(
            eval_bits=hi, t=t, per_plane=[SimpleNamespace(theta=th) for th in thetas]
        )
        with working_precision(hi):
            tol = mpf(2) ** -(bits - 8)
            for got, coords in zip(per_point, embed_points(planes, report)):
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
    """One phase attempt's flow walk, on values already at BITS."""

    def test_integral_dilation_is_exact(self):
        # 7*(1+i) is a Gaussian integer: the walk hits at grid index 0
        with working_precision(BITS):
            v = ComplexVector((mpc(1, 1),), BITS)
        outcome, theta = solve_typical(v, mpf(7), parse_decimal("0.1", BITS), mpf(4), BITS)
        assert outcome.grid_index == 0 and outcome.s == 0
        assert theta.value == 1
        assert certify([theta], mpf(7), [v], BITS)[1] == 0

    def test_single_unit_entry_large_dilation(self):
        v = _unit_angle_one()
        L = initial_search_length("0.05", 1, BITS)
        eps = parse_decimal("0.1", BITS)
        outcome, theta = solve_typical(v, mpf(1000), eps, L, BITS)
        assert outcome.found
        # independent re-evaluation at doubled precision
        residuals = lattice_residuals(theta, mpf(1000), v, 2 * BITS)
        assert max(residuals) < eps + residual_tol(BITS)

    def test_empty_horizon_reports_honestly(self):
        v = _unit_angle_one()
        eps = parse_decimal("1e-6", BITS)
        outcome, theta = solve_typical(v, mpf(10) ** 6, eps, mpf(0), BITS)
        assert not outcome.found and theta is None


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
        assert any(d.startswith("inner-solve: flow search hit grid index") for d in report.diagnostics)

    def test_seed_changes_phase(self):
        v = ComplexVector((mpc(1),), BITS)
        a = solve_general(v, "1e4", "0.1", seed=0)
        b = solve_general(v, "1e4", "0.1", seed=1)
        assert a.phi != b.phi

    def test_deterministic_reports(self):
        v = _triangle()
        a = solve_general(v, "1e26", "0.25", seed=3)
        b = solve_general(v, "1e26", "0.25", seed=3)
        assert to_json_data(a) == to_json_data(b)

    def test_report_json_round_trip(self):
        v = ComplexVector((mpc(1),), BITS)
        hit = solve_general(v, "1e4", "0.1", seed=0)
        miss = solve_general(v, "1e4", "0.1", seed=0, config=SolverConfig(l_cap="0.001"))
        assert miss.s_found is None
        # the CLI's recheck and plots read t and theta back from this data
        for report in (hit, miss):
            data = to_json_data(report)
            bits = data["eval_bits"]
            assert parse_decimal(data["t"], bits) == report.t
            assert parse_complex_pair(data["theta"], bits) == report.theta.value
            assert parse_decimal(data["phi"], bits) == report.phi
            s_found = data["s_found"] and parse_decimal(data["s_found"], bits)
            assert s_found == report.s_found
            assert parse_decimal(data["max_frac"], bits) == report.max_frac
            assert tuple(parse_decimal(x, bits) for x in data["per_point_frac"]) == report.per_point_frac
            assert data["achieved"] == report.achieved

    def test_starved_horizon_retries_then_reports(self, monkeypatch):
        monkeypatch.setattr(solver, "MAX_PHASE_RETRIES", 2)
        config = SolverConfig(l_cap="0.01")
        report = solve_general(_unit_angle_one(), "1e6", "1e-6", seed=0, config=config)
        assert not report.achieved
        assert report.s_found is None
        for attempt in range(3):
            assert f"inner-solve: density horizon exceeded at phase attempt {attempt}" in report.diagnostics
        assert any("retry 1" in d for d in report.diagnostics)
        assert any("retry 2" in d for d in report.diagnostics)

    def test_exhausted_walk_says_so(self, monkeypatch):
        # with its full window budget the first attempt hits grid index
        # 1997057 in its fourth window; one window gives up on every attempt
        monkeypatch.setattr(flowsearch, "DEFAULT_WINDOW_BUDGET", 1)
        with working_precision(BITS):
            v = ComplexVector((mpc(1), mpc("0.5", "0.25")), BITS)
        report = solve_general(v, "1e12", "0.05", seed=1)
        assert not report.achieved and report.s_found is None
        assert [d for d in report.diagnostics if d.startswith("inner-solve:")] == [
            f"inner-solve: search budget exhausted after 1 windows at phase attempt {attempt}"
            for attempt in range(4)
        ]

    def test_one_horizon_is_walked_and_checked(self, monkeypatch):
        # from a first horizon of 1, t = 1e5 certifies L_t = sqrt(1e5*0.05/2)
        # = 50, short of 64; the hit at s ~ 32.8 lies inside it, and the
        # linearization check runs once, in solve_typical, with that horizon
        checked = []
        real_check = solver._check_linearization

        def check(theta, t, s, vec, L, max_abs, bits):
            checked.append(L)
            real_check(theta, t, s, vec, L, max_abs, bits)

        monkeypatch.setattr(solver, "_check_linearization", check)
        _first_horizon_at(monkeypatch, "1")
        monkeypatch.setattr(solver, "MAX_PHASE_RETRIES", 0)
        report = solve_general(_unit_angle_one(), "1e5", "0.1", seed=0)
        assert report.achieved
        assert report.s_found == mpf("32.8125")
        assert abs(report.L_used - 50) < mpf(2) ** -100
        assert report.T_threshold == report.t
        assert len(checked) == 1 and abs(checked[0] - report.L_used) < mpf(2) ** -100

    def test_every_attempt_is_in_the_report(self, monkeypatch):
        # all four phase attempts hit and fail verification at t = 1e5; the
        # report keeps the closest attempt (2) and the trail of all four
        walks = _record_calls(monkeypatch, "solve_typical")
        measured = _record_calls(monkeypatch, "certify")
        with working_precision(BITS):
            v = ComplexVector((mpc(1), mpc("0.5", "0.25")), BITS)
        report = solve_general(v, "1e5", "0.1", seed=1)
        assert not report.achieved
        assert len(walks) == 4 and all(theta is not None for _, theta in walks)
        assert report.search_steps == sum(outcome.examined for outcome, _ in walks)
        for attempt in range(4):
            assert any(f"not below eps at phase attempt {attempt}" in d for d in report.diagnostics)
        assert report.s_found == walks[2][0].s
        # each hit is measured once, against the original entries: the
        # report reuses the closest attempt's measurement
        assert len(measured) == 4
        assert (report.per_point_frac, report.max_frac) == measured[2]
        assert report.max_frac == min(m[1] for m in measured)

    def test_total_miss_threshold_is_the_last_rungs(self, monkeypatch):
        # the horizon 64 * 2^-10 = 2^-4, short of the L_t = 0.5 that t
        # certifies, misses on each phase attempt
        _first_horizon_at(monkeypatch, "0.0009765625")
        v, eps = _unit_angle_one(), "1e-6"
        report = solve_general(v, "1e6", eps, seed=0)
        assert report.s_found is None and not report.achieved
        assert report.L_used == mpf("0.0625")
        # the one threshold formula of hits and misses: the horizon, the
        # plan's reduced max|z| and eps/2 (one unit entry), at eval_bits
        plan = solve_plan(v, eps)
        with working_precision(report.eval_bits):
            eps_inner = parse_decimal(eps, report.eval_bits) / 2
        assert report.T_threshold == dilation_threshold(
            report.L_used, plan.reduced_max_abs, eps_inner, report.eval_bits
        )
        assert abs(report.T_threshold - 15625) < 1e-9

    def test_invalid_inputs(self):
        v = ComplexVector((mpc(1),), BITS)
        with pytest.raises(ValueError):
            solve_general(v, 0, "0.1")
        with pytest.raises(ValueError):
            solve_general(v, 10, "0.8")
        # t is checked before relation detection finds nothing to search
        with pytest.raises(ValueError):
            solve_general(ComplexVector((mpc(0),), BITS), 0, "0.1")
        # l_cap is a positive decimal, as the CLI's L_cap
        for l_cap in ("0", "-1"):
            with pytest.raises(ValueError, match="l_cap must be positive"):
                solve_general(v, 10, "0.1", config=SolverConfig(l_cap=l_cap))


def _golden_pi():
    with working_precision(BITS):
        return ComplexVector((mpc((1 + mpmath.sqrt(5)) / 2, mpmath.pi),), BITS)


def _generic_pair():
    with working_precision(BITS):
        return ComplexVector((mpc("0.3", "0.7"), mpc(mpmath.sqrt(2), mpmath.sqrt(3))), BITS)


class TestSingleHorizonWalk:
    """One walk per phase attempt to the horizon t certifies, against a
    reference walk to HORIZON_SPAN*L0, the longest the search ever walked:
    the walk returns the smallest grid hit, so where t clears the hit both
    report the same rotation."""

    @staticmethod
    def _solve_both(monkeypatch, V, t, eps, seed, L0, config):
        _first_horizon_at(monkeypatch, L0)
        walk = solve_general(V, t, eps, seed=seed, config=config)
        real = solver.solve_typical

        def to_the_longest(vec, t, eps, L, eval_bits):
            return real(vec, t, eps, solver.HORIZON_SPAN * mpf(L0), eval_bits)

        monkeypatch.setattr(solver, "solve_typical", to_the_longest)
        return walk, solve_general(V, t, eps, seed=seed, config=config)

    @pytest.mark.parametrize(
        "vector, t, eps, seed, L0, l_cap, hits",
        [
            # t certifies L_t = 50 of 1 .. 64; hit at s ~ 32.8
            (_unit_angle_one, "1e5", "0.1", 0, "1", None, True),
            # l_cap ends the walk at 40, short of L_t ~ 5942; hit at s ~ 11.3
            (_golden_pi, "1e10", "0.05", 0, "1", "40", True),
            # the walk to 64 * 2^-10 misses, on each of three phases
            (_unit_angle_one, "1e6", "1e-6", 0, "0.0009765625", None, False),
            # l_cap ends the walk at 5; every attempt misses
            (_generic_pair, "1e12", "0.1", 2, "1", "5", False),
        ],
    )
    def test_same_report_as_the_longest_walk(
        self, monkeypatch, vector, t, eps, seed, L0, l_cap, hits
    ):
        monkeypatch.setattr(solver, "MAX_PHASE_RETRIES", 2)
        config = SolverConfig(l_cap=l_cap)
        walk, longest = self._solve_both(monkeypatch, vector(), t, eps, seed, L0, config)
        assert (walk.s_found is not None) == hits
        assert walk.T_threshold <= walk.t
        for field in ("s_found", "theta", "per_point_frac", "achieved", "eval_bits"):
            assert getattr(walk, field) == getattr(longest, field), field
        assert walk.search_steps <= longest.search_steps


class TestCertifiedHorizon:
    """No phase attempt walks past the horizon t certifies,
    L_t = sqrt(t*eps_inner/(2*max|z|)), and none stops short of L0."""

    @pytest.mark.parametrize(
        "t, l_cap, horizon",
        [
            # t < T(L0) = 4.096e8: the first horizon, L0 = 3200
            ("1e4", None, lambda plan, t: plan.initial_L),
            # T(L0) <= t <= T(64*L0): L_t ~ 15811
            (
                "1e10", None,
                lambda plan, t: mpmath.sqrt(t * plan.eps_inner / (2 * plan.reduced_max_abs)),
            ),
            # t > T(64*L0) ~ 1.7e12: 64*L0
            ("1e20", None, lambda plan, t: solver.HORIZON_SPAN * plan.initial_L),
            # L0 < l_cap < L_t: l_cap
            ("1e10", "5000", lambda plan, t: mpf(5000)),
        ],
        ids=["below-T(L0)", "L_t", "past-T(64*L0)", "l_cap"],
    )
    def test_walks_exactly_the_certified_horizon(self, monkeypatch, t, l_cap, horizon):
        walked, real = [], solver.solve_typical

        def record(vec, t, eps, L, eval_bits):
            walked.append(L)
            return real(vec, t, eps, L, eval_bits)

        monkeypatch.setattr(solver, "solve_typical", record)
        v, config = _unit_angle_one(), SolverConfig(l_cap=l_cap)
        report = solve_general(v, t, "0.1", seed=0, config=config)
        plan = solve_plan(v, "0.1", config)
        with working_precision(BITS + 64):
            expected = horizon(plan, parse_decimal(t, BITS + 64))
        # the walk takes the horizon rounded to the evaluation precision
        assert walked and all(L == parse_decimal(expected, report.eval_bits) for L in walked)
        assert report.L_used == expected
        assert plan.initial_L <= expected <= solver.HORIZON_SPAN * plan.initial_L


# a coordinate k + 1/2 + d with |d| <= 1e-9
NEAR_HALF = st.builds(
    lambda k, d: mpf(k) + mpf("0.5") + mpf(d), st.integers(-3, 3), st.floats(-1e-9, 1e-9)
)
# eps within 1e-6 below its limit sqrt(2)/2, or a moderate tolerance
EPS = st.one_of(
    st.floats(1e-15, 1e-6).map(lambda d: mpmath.nstr(mpmath.sqrt(mpf(2)) / 2 - mpf(d), 40)),
    st.sampled_from(["0.05", "0.1", "0.3"]),
)


class TestAdversarialSolveInputs:
    @settings(max_examples=25)
    @given(NEAR_HALF, NEAR_HALF, EPS, st.integers(0, 3))
    def test_achieved_is_certified(self, re, im, eps, seed):
        with working_precision(BITS):
            vec = ComplexVector((mpc(re, im),), BITS)
            T = solve_plan(vec, eps).T_threshold
            t = T * (1 + mpf(2) ** -20)
        report = solve_general(vec, t, eps, seed=seed)
        if report.achieved:
            _, worst = certify([report.theta], report.t, [vec], report.eval_bits)
            assert worst < parse_decimal(eps, report.eval_bits)

    def test_near_relation_pair_stops_at_the_certified_horizon(self, monkeypatch):
        # the pair lies 1e-11 from z2 = (1+2i)/5 * z1, far above the
        # detection residual, so both entries are searched; t clears T(L0)
        # by 2^-20, so t certifies L0 * sqrt(1 + 2^-20) and no further
        walks = _record_calls(monkeypatch, "solve_typical")
        with working_precision(BITS):
            vec = ComplexVector((mpc("0.49999999999", "0.5"), mpc("0.3", "0.7")), BITS)
        plan = solve_plan(vec, "0.05")
        assert plan.decomposition.num_basis == 2
        with working_precision(BITS):
            t = plan.T_threshold * (1 + mpf(2) ** -20)
        report = solve_general(vec, t, "0.05", seed=1)
        assert not report.achieved
        assert plan.initial_L < report.L_used < plan.initial_L * (1 + mpf(2) ** -21)
        assert report.T_threshold <= t
        # four walks, each ending absent after 9 windows with no point
        # examined; walked to 64 * L0 instead, they take 12, 23, 12 and 12
        # windows, and one hits past the certified horizon after 34,472
        assert len(walks) == 4
        assert all(theta is None and outcome.reason == "absent" for outcome, theta in walks)
        assert report.search_steps == sum(outcome.examined for outcome, _ in walks)
        assert sum(outcome.windows_used for outcome, _ in walks) < 4 * 12

    @pytest.mark.parametrize("eps", ["1e-17", "1e-20", "1e-250", "1e-330"])
    @pytest.mark.parametrize(
        "points", [[["1", "0"]], [["1", "0"], ["0.5", "0.25"]]], ids=["one", "two"]
    )
    def test_tiny_epsilon_ends_as_a_miss(self, monkeypatch, points, eps):
        # at 1e-17 and 1e-20 the window target's coordinates pass 2^52,
        # past the doubles' integer resolution, and those walks end
        # exhausted in _window_candidates instead of raising.  At 1e-250
        # the window scale passes the double range, as it does at 1e-330,
        # where eps itself rounds to a zero double: those walks end
        # exhausted after their first window, before either reduction of
        # its rows of about 4,400 bits
        walks = _record_calls(monkeypatch, "solve_typical")
        reductions = []
        for name in ("lll_reduce", "float_start"):
            real = getattr(flowsearch, name)
            monkeypatch.setattr(
                flowsearch, name, lambda *args, real=real: reductions.append(args) or real(*args)
            )
        report = solve_general(project_planes(points, BITS)[0], mpf("1e4"), eps, seed=0)
        assert not report.achieved
        assert any(outcome.reason == "exhausted" for outcome, _ in walks)
        if eps in ("1e-250", "1e-330"):
            exhausted = flowsearch.FlowSearchOutcome(
                found=False, reason="exhausted", s=None, grid_index=None,
                strategy="enumerate", examined=0, windows_used=1,
            )
            assert not reductions and all(w == (exhausted, None) for w in walks)

    @pytest.mark.parametrize("height_bound", [2**32 - 1, 2**32], ids=["under", "past"])
    def test_height_bound_at_the_advisory_edge_ends_honestly(self, height_bound):
        # two entries at 128 bits are advised height bounds of at most 32
        # bits: detection warns just past that edge and not just under it,
        # and the solve either verifies or reports an honest miss
        vec = project_planes([["1", "0"], ["0.5", "0.866025403784438646763723170753"]], BITS)[0]
        config = SolverConfig(bits=BITS, height_bound=height_bound)
        report = solve_general(vec, mpf("1e17"), "0.1", seed=3, config=config)
        assert len(report.decomposition.warnings) == (height_bound == 2**32)
        if report.achieved:
            _, worst = certify([report.theta], report.t, [vec], report.eval_bits)
            assert worst < parse_decimal("0.1", report.eval_bits)
        else:
            assert report.s_found is None and report.diagnostics

    @pytest.mark.parametrize(
        "point", [["1e-30", "2e-30"], ["1e30", "3e29"]], ids=["near-zero", "huge"]
    )
    def test_extreme_modulus_ends_honestly(self, point):
        # a single entry of modulus about 2e-30 or 1e30: the threshold and
        # the evaluation precision follow |z|, and the solve either
        # verifies or reports the identity as a miss
        vec = project_planes([point], BITS)[0]
        report = solve_general(vec, mpf("1e6"), "0.1", seed=0)
        if report.achieved:
            _, worst = certify([report.theta], report.t, [vec], report.eval_bits)
            assert worst < parse_decimal("0.1", report.eval_bits)
        else:
            assert report.s_found is None and report.diagnostics

    @pytest.mark.parametrize(
        "z1, g, delta, eps, seed, verifies",
        [
            (("0.41", "-0.23"), (2, -1, 3), "3e-12", "0.05", 0, False),
            (("1.7", "0.2"), (3, 0, 2), "1e-9", "0.1", 2, False),
            (("-0.6", "0.45"), (0, 1, 2), "5e-13", "0.05", 3, False),
            (("0.25", "0.9"), (1, 1, 3), "1e-13", "0.1", 0, False),
            (("0.8", "-0.35"), (-2, 1, 5), "2e-10", "0.05", 1, False),
            (("0.77", "0.11"), (-1, 2, 3), "6e-11", "0.1", 3, False),
            (("-1.3", "-1.449"), (2, -3, 2), "2e-10", "0.1", 3, True),
            (("1.271", "-0.076"), (-1, 2, 3), "1e-10", "0.2", 0, True),
        ],
    )
    def test_near_relation_ends_honestly(self, z1, g, delta, eps, seed, verifies):
        # z2 = g*z1 + delta with g = (a + bi)/d of small height, delta
        # above the detection residual, at t just past the threshold
        a, b, d = g
        with working_precision(BITS):
            first = mpc(*z1)
            second = mpc(a, b) / d * first + mpc(mpf(delta), -mpf(delta) / 3)
            vec = ComplexVector((first, second), BITS)
            t = solve_plan(vec, eps).T_threshold * (1 + mpf(2) ** -20)
        report = solve_general(vec, t, eps, seed=seed)
        assert report.achieved == verifies
        if report.achieved:
            _, worst = certify([report.theta], report.t, [vec], report.eval_bits)
            assert worst < parse_decimal(eps, report.eval_bits)
        else:
            assert report.T_threshold <= t


def _planted_dilations():
    """Four generic entries and one Gaussian-rational combination, as in the
    planted benchmark, at 256 bits, with two dilations past the threshold."""
    rng = random.Random(5)
    with working_precision(256):
        z = [mpc(*(mpf(rng.getrandbits(180)) / mpf(2) ** 179 - 1 for _ in "xy")) for _ in range(4)]
        z.append(mpc(mpf(3) / 8, mpf(1) / 2) * z[0] + mpc(-1, mpf(1) / 4) * z[2])
        vec = ComplexVector(tuple(z), 256)
    config = SolverConfig(bits=256)
    plan = solve_plan(vec, "0.1", config)
    assert plan.decomposition.num_basis == 4
    with working_precision(320):
        ts = [plan.T_threshold * 2, plan.T_threshold * 7]
    return vec, ts, config


class TestRunCache:
    """solve_general's run cache holds the t-independent plan and phase
    draws of a solve run, and changes no report."""

    def test_cached_reports_equal_uncached_ones(self, monkeypatch):
        # t from a miss through a change of eval_bits; the cache is filled
        # by the first call and read by the later ones
        detections = _record_calls(monkeypatch, "detect_relations")
        vec = project_planes([["1", "0"], ["0.5", "0.866025403784438646763723170753"]], BITS)[0]
        ts = [parse_decimal(t, BITS) for t in ("1e4", "1e17", "1e30")]
        cache = {}
        cached = [solve_general(vec, t, "0.1", seed=3, cache=cache) for t in ts]
        assert len(detections) == 1
        alone = [solve_general(vec, t, "0.1", seed=3) for t in ts]
        assert cached == alone
        assert len({r.eval_bits for r in alone}) == 2
        # one plan, and one phase per attempt seed and eval_bits
        phases = {key[1:] for key, value in cache.items() if isinstance(value, solver.PhaseSample)}
        assert len(cache) == 1 + len(phases)
        assert {bits for _, bits in phases} == {r.eval_bits for r in alone}

    def test_one_cache_serves_distinct_point_sets(self):
        # its keys hold every input of a plan and of a phase, so a cache
        # shared by two point sets keeps them apart
        cache = {}
        for points in ([["1", "0"]], [["0.5", "0.866025403784438646763723170753"]]):
            vec = project_planes(points, BITS)[0]
            assert solve_general(vec, mpf("1e6"), "0.1", seed=1, cache=cache) == solve_general(
                vec, mpf("1e6"), "0.1", seed=1
            )


class TestReductionMemo:
    def test_a_second_dilation_reduces_no_new_lattice(self, monkeypatch):
        # the two dilations evaluate at different precisions, so their
        # phases differ in the low bits and their step coordinates differ,
        # but every window's rows round to the same integers: the
        # reduction memo, keyed on the rows, answers every window of the
        # second solve, and the detection memo its relation detection
        vec, ts, config = _planted_dilations()
        first = solve_general(vec, ts[0], "0.1", seed=3, config=config)
        assert first.achieved
        calls = []
        for module, name in (
            (flowsearch, "lll_reduce"),
            (flowsearch, "float_start"),
            (relations, "lll_reduce"),
            (relations, "float_start"),
        ):
            real = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *args, real=real, name=name: calls.append(name) or real(*args)
            )
        second = solve_general(vec, ts[1], "0.1", seed=3, config=config)
        assert second.achieved
        assert first.eval_bits != second.eval_bits
        assert calls == []


class TestPlantedWorkGuard:
    def test_enumerated_points_stay_bounded(self, monkeypatch):
        # the reduced flow has four entries, so each window is a 9-D
        # lattice; enumerating the ball around the four admissible disks
        # gives 23 points over the whole solve, where the ball around their
        # bounding cube gave 289.  search_steps counts only the survivors
        # of the disk filter, so it cannot show this work
        vec, ts, config = _planted_dilations()
        points = []
        real_enumerate = flowsearch._enumerate_ball

        def counting(*args):
            ranges = real_enumerate(*args)
            points.append(sum(count for _, count, _ in ranges))
            return ranges

        monkeypatch.setattr(flowsearch, "_enumerate_ball", counting)
        assert solve_general(vec, ts[0], "0.1", seed=3, config=config).achieved
        assert points and sum(points) <= 35
