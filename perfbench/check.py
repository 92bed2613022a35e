"""Output checks that share no code with the package's own verifier.

Distances to Z[i] are recomputed here in plain mpmath at twice the
report's evaluation precision, without lattice_residuals or frac_dist.
Values that a correct change must leave alone (s_found, the tau upper
bound, the covering time) are compared with reference.json, recorded
from the program at the commit that added the benchmark.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

import mpmath
from mpmath import mpc, mpf

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def load_reference() -> Dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def _dist_sq(x: mpf) -> mpf:
    r = x - mpmath.nint(x)
    return r * r


def _complex(pair) -> mpc:
    return mpc(mpf(pair[0]), mpf(pair[1]))


def _result(item: Dict) -> Dict:
    report = json.loads(Path(item["report"]).read_text(encoding="utf-8"))
    return report["results"][item["index"]] if item["kind"] in ("planar", "block", "tau") else report


def observed(item: Dict):
    """The value of an item that reference.json pins."""
    r = _result(item)
    if item["kind"] == "planar":
        return r["s_found"]
    if item["kind"] == "block":
        return [p["s_found"] for p in r["per_plane"]]
    if item["kind"] == "tau":
        return r["estimate"]["upper"]
    if item["kind"] == "covering":
        return r["summary"]["L"]
    return None


def expected(reference: Dict, job: Dict, position: int):
    """Reference value for the item at `position` in the job, or None
    where the item has no pinned value."""
    ref = reference[job["workload"]]
    item = job["items"][position]
    if item["kind"] in ("planar", "block"):
        return ref[str(job["input_id"])][position]
    if item["kind"] == "tau":
        return ref["tau_upper"][item["t"]]
    if item["kind"] == "covering":
        return ref["covering_L"]
    return None


def _same_grid_point(found: Optional[str], ref: Optional[str], bits: int) -> bool:
    # grid points differ relatively by at least 2^-(bits - 46), while the
    # same point printed at another precision moves by about 2^-bits
    if found is None or ref is None:
        return found == ref
    with mpmath.workprec(2 * bits + 64):
        a, b = mpf(found), mpf(ref)
        return abs(a - b) <= abs(b) * mpf(2) ** (24 - bits)


def _check_planar(item: Dict, job: Dict, ref) -> str:
    r = _result(item)
    if not r["achieved"]:
        return "achieved is false"
    bits = int(r["eval_bits"])
    with mpmath.workprec(2 * bits):
        t, eps = mpf(item["t"]), mpf(job["eps"])
        if abs(mpf(r["t"]) - t) > t * mpf(2) ** -100:
            return f"report t {r['t']} is not the requested {item['t']}"
        theta = _complex(r["theta"])
        worst = max(
            mpmath.sqrt(_dist_sq(w.real) + _dist_sq(w.imag))
            for w in (theta * t * _complex(p) for p in job["points"])
        )
        if not worst < eps:
            return f"recomputed residual {mpmath.nstr(worst, 12)} is not below eps"
    if not _same_grid_point(r["s_found"], ref, bits):
        return f"s_found {r['s_found']} differs from the reference {ref}"
    return ""


def _check_block(item: Dict, job: Dict, ref) -> str:
    r = _result(item)
    if not r["achieved"]:
        return "achieved is false"
    planes = r["per_plane"]
    bits = max(int(p["eval_bits"]) for p in planes)
    with mpmath.workprec(2 * bits):
        t, eps = mpf(item["t"]), mpf(job["eps"])
        if abs(mpf(r["t"]) - t) > t * mpf(2) ** -100:
            return f"report t {r['t']} is not the requested {item['t']}"
        thetas = [_complex(p["theta"]) for p in planes]
        for point in job["points"]:
            total = mpf(0)
            for i, theta in enumerate(thetas):
                w = theta * t * _complex(point[2 * i : 2 * i + 2])
                total += _dist_sq(w.real) + _dist_sq(w.imag)
            if not mpmath.sqrt(total) < eps:
                return f"recomputed residual {mpmath.nstr(mpmath.sqrt(total), 12)} is not below eps"
    for p, s_ref in zip(planes, ref):
        if not _same_grid_point(p["s_found"], s_ref, int(p["eval_bits"])):
            return f"s_found {p['s_found']} differs from the reference {s_ref}"
    return ""


def _check_tau(item: Dict, job: Dict, ref) -> str:
    est = _result(item)["estimate"]
    bits = int(est["bits"])
    g = est["argmin"]
    with mpmath.workprec(2 * bits):
        tol = mpf(2) ** (-bits // 2)
        t = mpf(item["t"])
        theta = _complex(g["theta"])
        shift = _complex(g["translation"])
        upper = mpf(est["upper"])
        worst = mpf(0)
        for p in job["points"]:
            z = t * _complex(p)
            w = theta * (mpmath.conj(z) if g["reflect"] else z) + shift
            worst = max(worst, mpmath.sqrt(_dist_sq(w.real) + _dist_sq(w.imag)))
        if abs(worst - upper) > tol:
            return f"argmin gives {mpmath.nstr(worst, 12)}, not the reported upper"
        if not mpf(est["certified_lower"]) <= upper <= mpmath.sqrt(2) / 2 + tol:
            return "upper is outside [certified_lower, sqrt(2)/2]"
        if abs(upper - mpf(ref)) > tol:
            return f"upper {est['upper']} differs from the reference {ref}"
    return ""


def _check_prop_sep(item: Dict, job: Dict, ref) -> str:
    summary = _result(item)["summary"]
    if summary["violations"] != 0:
        return f"{summary['violations']} violations"
    with mpmath.workprec(256):
        if not mpf(summary["minimum"]) >= mpf(1) / 8:
            return f"minimum {summary['minimum']} is below 1/8"
    return ""


def _check_covering(item: Dict, job: Dict, ref) -> str:
    summary = _result(item)["summary"]
    if not summary["covered"]:
        return "the golden direction did not cover"
    if float(summary["L"]) != float(ref):
        return f"L {summary['L']} differs from the reference {ref}"
    return ""


_CHECKS = {
    "planar": _check_planar,
    "block": _check_block,
    "tau": _check_tau,
    "prop_sep": _check_prop_sep,
    "covering": _check_covering,
}


def check_job(job: Dict, reference: Dict) -> List[str]:
    """One entry per item: empty when the item's output is correct,
    otherwise the reason it is not."""
    out = []
    for pos, item in enumerate(job["items"]):
        try:
            ref = expected(reference, job, pos)
        except KeyError:
            out.append(f"no reference for input set {job['input_id']}")
            continue
        try:
            out.append(_CHECKS[item["kind"]](item, job, ref))
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            out.append(f"unreadable output: {exc!r}")
    return out


def eval_bits(job: Dict) -> List[int]:
    """Evaluation precision of every solve item that produced a report."""
    bits = []
    for item in job["items"]:
        if item["kind"] not in ("planar", "block"):
            continue
        try:
            r = _result(item)
        except (OSError, ValueError, KeyError, IndexError):
            continue
        planes = r["per_plane"] if item["kind"] == "block" else [r]
        bits.extend(int(p["eval_bits"]) for p in planes)
    return bits
