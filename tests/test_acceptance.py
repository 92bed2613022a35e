"""Acceptance gates, one test per shipping criterion.

Each test prints "[criterion N] PASS" or "[criterion N] FAIL" so that
`pytest -s tests/test_acceptance.py` doubles as the release checklist.
Time budgets are asserted alongside the numeric claims.
"""
import contextlib
import json
import math
import random
import time
from fractions import Fraction

import mpmath
from mpmath import mpc, mpf

from lattice_rotor import solver
from lattice_rotor.cli import main
from lattice_rotor.corelattice import ComplexVector, frac_dist
from lattice_rotor.gaussian import GaussianInteger, GaussianRational
from lattice_rotor.oracle import (
    check_prop_sep,
    covering_time,
    separated_probe,
    separation,
    tau_estimate,
)
from lattice_rotor.precision import parse_decimal, residual_tol, working_precision
from lattice_rotor.products import embed_points, project_planes, solve_even_dim
from lattice_rotor.relations import detect_relations
from lattice_rotor.solver import (
    SolverConfig,
    lattice_residuals,
    solve_general,
    solve_plan,
)

B = 128


@contextlib.contextmanager
def _criterion(n: int):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {n}] FAIL")
        raise
    print(f"\n[criterion {n}] PASS")


def _triangle(bits=B):
    with working_precision(bits):
        w = mpmath.expjpi(mpf(2) / 3)
        return ComplexVector((mpc(1), w, w * w), bits)


def _planted_five(bits=256):
    # four generic entries plus one dyadic-rational combination; dyadic
    # denominators keep the dependent entry exact at this precision, so
    # the planted relation survives any dilation of the fixture
    rng = random.Random(42)

    def draw():
        return mpc(
            mpf(rng.getrandbits(180)) / mpf(2) ** 179 - 1,
            mpf(rng.getrandbits(180)) / mpf(2) ** 179 - 1,
        )

    with working_precision(bits):
        z = [draw() for _ in range(4)]
        f1 = mpc(mpf(3) / 8, mpf(1) / 2)
        f3 = mpc(-1, mpf(1) / 4)
        z.append(f1 * z[0] + f3 * z[2])
        return ComplexVector(tuple(z), bits)


def test_criterion_1_identity_suite():
    with _criterion(1):
        start = time.monotonic()
        slack = mpf("1e-25")
        rng = random.Random(1001)
        with working_precision(B):
            i_unit = mpc(0, 1)
            half_diag = mpmath.sqrt(mpf(2)) / 2
            prev = mpc(0)
            prev_frac = mpf(0)
            for _ in range(10**4):
                z = mpc(rng.uniform(-1000, 1000), rng.uniform(-1000, 1000))
                fz = frac_dist(z, B)
                # range
                assert 0 <= fz <= half_diag + slack
                # quarter-turn invariance
                assert abs(frac_dist(i_unit * z, B) - fz) <= slack
                # subadditivity against the previous draw
                assert frac_dist(prev + z, B) <= prev_frac + fz + slack
                # Gaussian-integer contraction with |g| <= 10
                gre = rng.randint(-7, 7)
                gim = rng.randint(-7, 7)
                g = mpc(gre, gim)
                assert frac_dist(g * z, B) <= abs(g) * fz + slack
                prev, prev_frac = z, fz
        elapsed = time.monotonic() - start
        print(f"  identity suite: 10^4 samples in {elapsed:.2f}s")
        assert elapsed < 5.0


def test_criterion_2_separated_probe_sampling():
    with _criterion(2):
        start = time.monotonic()
        for t in (1, 2, 5):
            probe = separated_probe(t, B)
            assert separation(probe, B) == mpf(t)
            chk = check_prop_sep(t, 100000, seed=20260800 + t, bits=B)
            assert chk.violations == ()
            assert chk.minimum >= mpf(1) / 8 - residual_tol(B)
            assert chk.minimum >= mpf("0.125")
            print(f"  t={t}: min={mpmath.nstr(chk.minimum, 8)} violations=0")
        elapsed = time.monotonic() - start
        print(f"  3 x 10^5 isometries in {elapsed:.2f}s")
        assert elapsed < 30.0


def test_criterion_3_solver_success_rates(monkeypatch):
    with _criterion(3):
        start = time.monotonic()
        fixtures = [
            ("single", ComplexVector((mpc(1),), B), B),
            ("pair", None, B),  # filled below, needs high-precision sqrt
            ("triangle", _triangle(), B),
            ("planted5", _planted_five(), 256),
        ]
        with working_precision(B):
            fixtures[1] = ("pair", ComplexVector((mpc(1), mpc(mpmath.sqrt(mpf(2)))), B), B)

        for name, vec, bits in fixtures:
            for eps in ("0.1", "0.02"):
                config = SolverConfig(bits=bits)
                plan = solve_plan(vec, eps, config)
                with working_precision(bits + 64):
                    T = plan.T_threshold
                    la, lb = mpmath.log(T), mpmath.log(10 * T)
                    ts = [mpmath.exp(la + (lb - la) * i / 19) for i in range(20)]
                first_try = 0
                total = 0
                for t in ts:
                    monkeypatch.setattr(solver, "MAX_PHASE_RETRIES", 0)
                    rep = solve_general(vec, t, eps, seed=0, config=config)
                    if rep.achieved:
                        first_try += 1
                    else:
                        monkeypatch.setattr(solver, "MAX_PHASE_RETRIES", 3)
                        rep = solve_general(vec, t, eps, seed=0, config=config)
                    assert rep.achieved, f"{name} eps={eps} t={mpmath.nstr(t, 6)}"
                    total += 1
                    # final verification at doubled precision
                    res = lattice_residuals(rep.theta, rep.t, vec, 2 * rep.eval_bits)
                    with working_precision(2 * rep.eval_bits):
                        assert max(res) < mpf(eps) + residual_tol(rep.eval_bits)
                assert total == 20
                assert first_try >= 19, f"{name} eps={eps}: {first_try}/20 without retries"
                print(f"  {name} eps={eps}: {first_try}/20 first-try, 20/20 with retries")
        elapsed = time.monotonic() - start
        print(f"  160 solves in {elapsed:.1f}s")
        assert elapsed < 300.0


def test_criterion_4_planted_relation_recovery():
    with _criterion(4):
        start = time.monotonic()
        bits = 256
        rng = random.Random(19937)
        recovered = 0
        for instance in range(50):
            m = rng.randint(1, 4)
            n = rng.randint(1, 3)
            with working_precision(2 * bits):
                basis = [
                    mpc(
                        mpf(rng.getrandbits(220)) / mpf(2) ** 219 - 1,
                        mpf(rng.getrandbits(220)) / mpf(2) ** 219 - 1,
                    )
                    for _ in range(m)
                ]
                planted_rows = []
                dependents = []
                for _ in range(n):
                    # single shared denominator keeps the reduced height <= 64,
                    # matching the detector's bound
                    row = tuple(
                        GaussianRational(
                            GaussianInteger(rng.randint(-64, 64), rng.randint(-64, 64)),
                            rng.randint(1, 64),
                        )
                        for _ in range(m)
                    )
                    planted_rows.append(row)
                    acc = mpc(0)
                    for f, b in zip(row, basis):
                        acc += mpc(mpf(f.num.re) / f.den, mpf(f.num.im) / f.den) * b
                    dependents.append(acc)
                entries = tuple(basis) + tuple(dependents)
            vec = ComplexVector(entries, bits)
            dec = detect_relations(vec, 64, bits)

            assert dec.basis_indices == tuple(range(m)), f"instance {instance}"
            assert dec.dependent_indices == tuple(range(m, m + n))
            assert dec.coeffs == tuple(planted_rows), f"instance {instance}"

            # reported rows certified at doubled precision
            with working_precision(2 * bits):
                for j, row in zip(dec.dependent_indices, dec.coeffs):
                    acc = mpc(0)
                    for f, bidx in zip(row, dec.basis_indices):
                        acc += mpc(mpf(f.num.re) / f.den, mpf(f.num.im) / f.den) * entries[bidx]
                    assert abs(acc - entries[j]) < mpf(2) ** -128

            # scaling integer: clears every denominator, strictly beats the
            # exact mass over-estimate, and is the least such multiple
            base_den = 1
            mass = Fraction(0)
            for row in dec.coeffs:
                for f in row:
                    base_den = base_den * f.den // math.gcd(base_den, f.den)
                    mass += abs(Fraction(f.num.re, f.den)) + abs(Fraction(f.num.im, f.den))
            for row in dec.coeffs:
                for f in row:
                    assert (f.num.re * dec.M) % f.den == 0
                    assert (f.num.im * dec.M) % f.den == 0
            assert Fraction(dec.M) > mass
            assert dec.M % base_den == 0
            assert Fraction(dec.M - base_den) <= mass
            recovered += 1
        elapsed = time.monotonic() - start
        print(f"  {recovered}/50 planted instances recovered exactly in {elapsed:.1f}s")
        assert recovered == 50
        assert elapsed < 60.0


def test_criterion_5_two_plane_product():
    with _criterion(5):
        start = time.monotonic()
        points = (("0.3", "1.7", "-0.4", "0.9"), ("1.1", "-0.2", "0.5", "0.6"))
        planes = project_planes(points, B)
        eps = "0.1"
        with working_precision(B + 64):
            share = mpf(eps) / mpmath.sqrt(mpf(2))
            T = max(solve_plan(pl, share).T_threshold for pl in planes)
            t = 2 * T
        report = solve_even_dim(planes, t, eps, seed=0)
        for i, rep in enumerate(report.per_plane):
            assert rep.achieved and rep.max_frac < share, f"plane {i}"
        assert report.achieved
        assert report.combined_max_frac < mpf(eps)
        print(
            f"  both planes under eps/sqrt(2), combined "
            f"{mpmath.nstr(report.combined_max_frac, 8)} < {eps}"
        )

        # the assembled map scales every pairwise distance by t
        images = embed_points(planes, report)
        with working_precision(2 * report.eval_bits):
            t_v = mpf(report.t)
            (xa, ya) = (tuple(parse_decimal(c, B) for c in p) for p in points)
            (pa, pb) = images
            orig = mpmath.sqrt(sum((mpf(a) - mpf(b)) ** 2 for a, b in zip(xa, ya)))
            mapped = mpmath.sqrt(sum((a - b) ** 2 for a, b in zip(pa, pb)))
            rel = abs(mapped - t_v * orig) / (t_v * orig)
        assert rel < mpf("1e-20")
        print(f"  pairwise distance preserved to relative {mpmath.nstr(rel, 3)}")
        elapsed = time.monotonic() - start
        assert elapsed < 60.0


def test_criterion_6_embedding_infimum_trend():
    with _criterion(6):
        start = time.monotonic()
        tri = _triangle()
        half_diag = mpmath.sqrt(mpf(2)) / 2
        tol = residual_tol(B)
        coarse = []
        fine = []
        for t in (1, 2, 5, 10, 20):
            with working_precision(B):
                scaled = ComplexVector(tuple(mpf(t) * z for z in tri.entries), B)
            est = tau_estimate(scaled, 400, 400, with_reflection=True, bits=B)
            confirm = tau_estimate(scaled, 1600, 1600, with_reflection=True, bits=B)
            coarse.append(est.upper)
            fine.append(confirm.upper)
            assert est.upper <= half_diag + tol
            assert confirm.upper <= est.upper + tol
            print(
                f"  t={t}: upper={mpmath.nstr(est.upper, 8)} "
                f"(4x finer: {mpmath.nstr(confirm.upper, 8)})"
            )
        for seq in (coarse, fine):
            for a, b in zip(seq, seq[1:]):
                assert b <= a + tol
        assert coarse[-1] < mpf("0.1")
        assert fine[-1] < mpf("0.1")
        elapsed = time.monotonic() - start
        print(f"  sweeps done in {elapsed:.1f}s")
        assert elapsed < 300.0


def test_criterion_7_covering_times():
    with _criterion(7):
        start = time.monotonic()
        golden = (1.0, 1.6180339887498949)
        ls = {}
        for eps in (0.2, 0.1, 0.05):
            out = covering_time(golden, eps, 100000.0)
            assert out.covered, f"golden direction must cover at eps={eps}"
            ls[eps] = out.L
            print(f"  golden eps={eps}: L={out.L:.3f}")
        assert ls[0.05] >= ls[0.1] >= ls[0.2]

        diag = covering_time((1.0, 1.0), 0.1, 10000.0)
        assert not diag.covered
        assert diag.cells_visited < diag.cells_total
        print(f"  diagonal: {diag.cells_visited}/{diag.cells_total} cells, never covers")
        elapsed = time.monotonic() - start
        assert elapsed < 120.0


def test_criterion_8_byte_identical_runs(tmp_path, capsys):
    with _criterion(8):
        spec = {
            "mode": "solve",
            "points": [["1", "0"]],
            "epsilon": "0.1",
            "t_range": {"from": "1e3", "to": "1e5", "count": 3, "spacing": "log"},
            "seed": 7,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        outputs = []
        for sub in ("first", "second"):
            d = tmp_path / sub
            d.mkdir()
            code = main(
                [
                    "solve",
                    "--input", str(spec_path),
                    "--output", str(d / "report.json"),
                    "--plot", str(d / "curve.svg"),
                ]
            )
            assert code == 0
            code = main(
                [
                    "solve",
                    "--input", str(spec_path),
                    "--output", str(d / "report2.json"),
                    "--plot", str(d / "cell.svg"),
                    "--plot-kind", "cell",
                ]
            )
            assert code == 0
            outputs.append(d)
        a, b = outputs
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        assert (a / "curve.svg").read_bytes() == (b / "curve.svg").read_bytes()
        assert (a / "cell.svg").read_bytes() == (b / "cell.svg").read_bytes()

        # oracle lanes behave the same way on stdout
        main(["prop-sep", "--t", "2", "--samples", "1000", "--seed", "5"])
        first = capsys.readouterr().out
        main(["prop-sep", "--t", "2", "--samples", "1000", "--seed", "5"])
        second = capsys.readouterr().out
        assert first == second
        print("  reports, SVGs, and stdout reproduce byte for byte")
