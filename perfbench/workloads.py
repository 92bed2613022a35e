"""Workload inputs, generated by the benchmark's own code from a seed.

Nothing here imports lattice_rotor.  Dilations, planted points and 4-D
points are computed with fractions and mpmath and handed to the program
as decimal strings, so a later change to the package's planning code
cannot move the inputs.

Each workload draws its inputs from a fixed pool of POOL input sets,
and a run's pass k uses set (3 * seed + k) mod POOL.  Every set in the
pool has a recorded reference (reference.json), so the check of s_found
never has to skip an input.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Dict, List

import mpmath
from mpmath import mpf

POOL = 24

EPS = "0.1"

README_POINTS = (("1", "0"), ("0.5", "0.866025403784438646763723170753"))
README_T_FROM, README_T_TO, README_T_COUNT = "4e16", "4e17", 20

PLANTED_BITS = 256
PLANTED_ITEMS = 8
# dependent entry z4 = F1*z0 + F3*z2; the benchmark's copy of the
# package's scaling-integer rule (smallest multiple of the denominator
# lcm 8 above the l1 coefficient mass 17/8) gives M = 8
PLANTED_F1 = (Fraction(3, 8), Fraction(1, 2))
PLANTED_F3 = (Fraction(-1), Fraction(1, 4))
PLANTED_M = 8
PLANTED_BASIS = 4

BLOCK_BITS = 128
BLOCK_POINTS = 2
BLOCK_ITEMS = 10

TAU_TS = ("1", "2", "5", "10", "20")
TAU_GRID = 1600
PROP_SEP_T = "2"
PROP_SEP_SAMPLES = 2_000_000
COVERING_DIRECTION = "1,1.6180339887498949"
COVERING_EPS = "0.005"
COVERING_CAP = "100000"

WORKLOADS = ("readme-solve", "planted-solve", "block-solve", "oracle-sweep")


def input_id(seed: int, k: int) -> int:
    return (3 * seed + k) % POOL


def exact_decimal(value: Fraction) -> str:
    """Exact decimal expansion of a dyadic rational."""
    den = value.denominator
    k = den.bit_length() - 1
    if den != 1 << k:
        raise ValueError("only dyadic rationals have a finite binary expansion")
    digits = str(abs(value.numerator) * 5**k).rjust(k + 1, "0")
    sign = "-" if value < 0 else ""
    if k == 0:
        return sign + digits
    return f"{sign}{digits[:-k]}.{digits[-k:]}"


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def dilation_threshold(eps: mpf, m: int, M: int, max_abs: mpf) -> mpf:
    """T = 2*L0^2*max|z|/eps_inner with eps_inner = eps/(2*m*M^2) and
    L0 = 8/eps_inner^(2m), where max|z| is taken over the reduced basis."""
    eps_inner = eps / (2 * m * M * M)
    L0 = 8 / eps_inner ** (2 * m)
    return 2 * L0 * L0 * (max_abs / M) / eps_inner


def log_spaced(lo: mpf, hi: mpf, count: int) -> List[mpf]:
    la, lb = mpmath.log(lo), mpmath.log(hi)
    return [mpmath.exp(la + (lb - la) * i / (count - 1)) for i in range(count)]


def _abs(z) -> mpf:
    return mpmath.sqrt(mpf(z[0]) ** 2 + mpf(z[1]) ** 2)


def planted_points(iid: int) -> List[List[str]]:
    """Four random 180-bit Gaussian dyadics plus one exact combination."""
    rng = random.Random(f"planted-solve:{iid}")

    def draw() -> Fraction:
        return Fraction(rng.getrandbits(180), 1 << 179) - 1

    z = [(draw(), draw()) for _ in range(PLANTED_BASIS)]
    a, b = _cmul(PLANTED_F1, z[0]), _cmul(PLANTED_F3, z[2])
    z.append((a[0] + b[0], a[1] + b[1]))
    return [[exact_decimal(c) for c in p] for p in z]


def block_points(iid: int) -> List[List[str]]:
    rng = random.Random(f"block-solve:{iid}")
    return [
        [exact_decimal(Fraction(rng.getrandbits(100), 1 << 99) - 1) for _ in range(4)]
        for _ in range(BLOCK_POINTS)
    ]


def _format_t(t: mpf) -> str:
    return mpmath.nstr(t, 60, strip_zeros=False)


def planted_dilations(points: List[List[str]]) -> List[str]:
    with mpmath.workprec(400):
        max_abs = max(_abs(p) for p in points[:PLANTED_BASIS])
        T = dilation_threshold(mpf(EPS), PLANTED_BASIS, PLANTED_M, max_abs)
        return [_format_t(t) for t in log_spaced(T, 10 * T, PLANTED_ITEMS)]


def block_dilations(points: List[List[str]]) -> List[str]:
    # each plane holds BLOCK_POINTS generic entries (M = 1) and gets eps/sqrt(2)
    with mpmath.workprec(400):
        share = mpf(EPS) / mpmath.sqrt(2)
        T = max(
            dilation_threshold(share, BLOCK_POINTS, 1, max(_abs(p[2 * i : 2 * i + 2]) for p in points))
            for i in range(2)
        )
        return [_format_t(t) for t in log_spaced(T, 10 * T, BLOCK_ITEMS)]


def readme_dilations() -> List[mpf]:
    """The t values the CLI should expand the README range into."""
    return log_spaced(mpf(README_T_FROM), mpf(README_T_TO), README_T_COUNT)


def _write(path: Path, data) -> str:
    path.write_text(json.dumps(data, indent=1), encoding="utf-8")
    return str(path)


def build(workload: str, iid: int, workdir: Path) -> Dict:
    """Write the spec files for one input set and return the job: the
    CLI argument lists to run in order, and what the checker needs."""
    workdir.mkdir(parents=True, exist_ok=True)
    calls: List[List[str]] = []
    items: List[Dict] = []
    if workload == "readme-solve":
        spec = {
            "mode": "solve",
            "points": [list(p) for p in README_POINTS],
            "epsilon": EPS,
            "t_range": {
                "from": README_T_FROM,
                "to": README_T_TO,
                "count": README_T_COUNT,
                "spacing": "log",
            },
            "seed": iid,
            "precision_bits": 128,
        }
        report = str(workdir / "report.json")
        calls.append(
            ["solve", "--input", _write(workdir / "spec.json", spec), "--output", report,
             "--plot", str(workdir / "curve.svg")]
        )
        with mpmath.workprec(200):
            ts = [_format_t(t) for t in readme_dilations()]
        for i, t in enumerate(ts):
            items.append({"kind": "planar", "report": report, "index": i, "t": t})
        points = [list(p) for p in README_POINTS]
    elif workload in ("planted-solve", "block-solve"):
        planted = workload == "planted-solve"
        points = planted_points(iid) if planted else block_points(iid)
        ts = planted_dilations(points) if planted else block_dilations(points)
        for i, t in enumerate(ts):
            spec = {
                "mode": "solve",
                "points": points,
                "epsilon": EPS,
                "t": t,
                "seed": iid,
                "precision_bits": PLANTED_BITS if planted else BLOCK_BITS,
            }
            report = str(workdir / f"report{i}.json")
            calls.append(
                ["solve", "--input", _write(workdir / f"spec{i}.json", spec), "--output", report]
            )
            items.append(
                {"kind": "planar" if planted else "block", "report": report, "index": 0, "t": t}
            )
    elif workload == "oracle-sweep":
        points = oracle_triangle()
        for t in TAU_TS:
            spec = {"mode": "tau", "points": points, "t": t, "precision_bits": 128}
            report = str(workdir / f"tau{t}.json")
            calls.append(
                ["tau", "--input", _write(workdir / f"tau{t}.spec.json", spec),
                 "--grid-theta", str(TAU_GRID), "--grid-trans", str(TAU_GRID), "--reflect",
                 "--output", report]
            )
            items.append({"kind": "tau", "report": report, "index": 0, "t": t})
        report = str(workdir / "prop_sep.json")
        calls.append(
            ["prop-sep", "--t", PROP_SEP_T, "--samples", str(PROP_SEP_SAMPLES),
             "--seed", str(iid), "--output", report]
        )
        items.append({"kind": "prop_sep", "report": report, "index": 0, "t": PROP_SEP_T})
        report = str(workdir / "covering.json")
        calls.append(
            ["covering", "--direction", COVERING_DIRECTION, "--eps", COVERING_EPS,
             "--cap", COVERING_CAP, "--output", report]
        )
        items.append({"kind": "covering", "report": report, "index": 0, "t": None})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {
        "workload": workload,
        "input_id": iid,
        "eps": EPS,
        "points": points,
        "calls": calls,
        "items": items,
    }


def oracle_triangle() -> List[List[str]]:
    """The unit triangle 1, w, w^2 with w = exp(2*pi*i/3)."""
    with mpmath.workprec(200):
        h = mpmath.nstr(mpmath.sqrt(3) / 2, 45)
    return [["1", "0"], ["-0.5", h], ["-0.5", "-" + h]]
