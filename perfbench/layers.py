"""Per-layer metrics derived from one traced pass.

Which end-to-end metric each layer metric should move, and on which
workload, is listed in README.md next to this file.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

# span counts a workload must show, so that a refactor which moves an
# import fails the traced run instead of silently dropping a layer
EXPECTED_SPANS = {
    "readme-solve": {"flowsearch": ">0", "solver.solve_general": ">0", "plotting.emit_plot": ">0"},
    "planted-solve": {"lll.flowsearch": ">0", "lll.relations": ">0", "relations": ">0"},
    "block-solve": {"products.solve_even_dim": ">0", "solver.solve_general": ">0"},
    "oracle-sweep": {
        "flowsearch": "=0",
        "lll.flowsearch": "=0",
        "lll.relations": "=0",
        "relations": "=0",
        "oracle.tau": ">0",
    },
}

# name -> unit, in the order they are reported
UNITS = {
    "flowsearch.calls": "count",
    "flowsearch.s": "s",
    "flowsearch.scan_s": "s",
    "flowsearch.enum_s": "s",
    "flowsearch.scan_hits": "count",
    "flowsearch.enum_hits": "count",
    "flowsearch.misses": "count",
    "flowsearch.examined": "count",
    "flowsearch.windows": "count",
    "flowsearch.exact_checks": "count",
    "flowsearch.hit_ratio": "ratio",
    "lll.flowsearch.calls": "count",
    "lll.flowsearch.s": "s",
    "lll.flowsearch.dim_max": "count",
    "lll.relations.calls": "count",
    "lll.relations.s": "s",
    "lll.relations.dim_max": "count",
    "relations.calls": "count",
    "relations.s": "s",
    "solver.solve_general.calls": "count",
    "solver.solve_general.s": "s",
    "solver.solve_typical.calls": "count",
    "solver.phase_attempts": "count",
    "solver.verify.calls": "count",
    "solver.verify.s": "s",
    "solver.self_s": "s",
    "solver.eval_bits_max": "bits",
    "products.solve_even_dim.s": "s",
    "products.self_s": "s",
    "products.embed_points.s": "s",
    "oracle.tau.calls": "count",
    "oracle.tau.s": "s",
    "oracle.tau.exact_evals": "count",
    "oracle.prop_sep.s": "s",
    "oracle.prop_sep.exact_evals": "count",
    "oracle.covering.s": "s",
    "oracle.covering.steps": "count",
    "cli.run.s": "s",
    "reporting.canonical_json.s": "s",
    "plotting.emit_plot.s": "s",
    "trace.overhead_frac": "ratio",
}


def _dur(span: Dict) -> float:
    return span["end"] - span["start"]


def _children(spans: List[Dict]) -> Dict[int, List[Dict]]:
    kids: Dict[int, List[Dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            kids.setdefault(s["parent"], []).append(s)
    return kids


def _covered(span: Dict, kids: Dict[int, List[Dict]], names: Tuple[str, ...]) -> float:
    """Time of the nearest descendants of `span` named in `names`."""
    total = 0.0
    for child in kids.get(span["id"], ()):
        total += _dur(child) if child["name"] in names else _covered(child, kids, names)
    return total


def span_counts(spans: List[Dict]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for s in spans:
        counts[s["name"]] = counts.get(s["name"], 0) + 1
    return counts


def guard_failures(workload: str, spans: List[Dict]) -> List[str]:
    counts = span_counts(spans)
    out = []
    for name, rule in EXPECTED_SPANS[workload].items():
        n = counts.get(name, 0)
        if (rule == ">0" and n == 0) or (rule == "=0" and n != 0):
            out.append(f"{workload}: expected {name} calls {rule}, saw {n}")
    return out


def per_layer(
    spans: List[Dict],
    outside: Dict[str, int],
    eval_bits: List[int],
    calib_s: float,
    scale: float,
    overhead: float,
) -> Dict[str, float]:
    """Every metric in UNITS.  Times are multiplied by the pass's speed
    scale, as the end-to-end times are; calib_s, the calibration time
    spent between items, all of it inside cli.run, is taken out of
    cli.run.s."""
    kids = _children(spans)
    by_name: Dict[str, List[Dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def named(name: str) -> List[Dict]:
        return by_name.get(name, [])

    def total(name: str) -> float:
        return sum(_dur(s) for s in named(name))

    def counted(counter: str, names: Tuple[str, ...] = ()) -> int:
        pool = [s for s in spans if not names or s["name"] in names]
        n = sum(s["counts"].get(counter, 0) for s in pool)
        return n + (0 if names else outside.get(counter, 0))

    fs = named("flowsearch")
    scan_s = 0.0
    exact_checks = 0.0
    for s in fs:
        first_lll = min(
            (c["start"] for c in kids.get(s["id"], ()) if c["name"] == "lll.flowsearch"),
            default=s["end"],
        )
        scan_s += first_lll - s["start"]
        exact_checks += s["counts"].get("frac_dist", 0) / s["entries"]
    hits = sum(1 for s in fs if s["found"])

    out = {
        "flowsearch.calls": len(fs),
        "flowsearch.s": total("flowsearch"),
        "flowsearch.scan_s": scan_s,
        "flowsearch.enum_s": total("flowsearch") - scan_s,
        "flowsearch.scan_hits": sum(1 for s in fs if s["found"] and s["strategy"] == "scan"),
        "flowsearch.enum_hits": sum(1 for s in fs if s["found"] and s["strategy"] == "enumerate"),
        "flowsearch.misses": len(fs) - hits,
        "flowsearch.examined": sum(s["examined"] for s in fs),
        "flowsearch.windows": sum(s["windows"] for s in fs),
        "flowsearch.exact_checks": exact_checks,
        "flowsearch.hit_ratio": hits / exact_checks if exact_checks else 0.0,
    }
    for layer in ("flowsearch", "relations"):
        lll = named(f"lll.{layer}")
        out[f"lll.{layer}.calls"] = len(lll)
        out[f"lll.{layer}.s"] = total(f"lll.{layer}")
        out[f"lll.{layer}.dim_max"] = max((s["dim"] for s in lll), default=0)
    out["relations.calls"] = len(named("relations"))
    out["relations.s"] = total("relations")

    general = named("solver.solve_general")
    out["solver.solve_general.calls"] = len(general)
    out["solver.solve_general.s"] = total("solver.solve_general")
    out["solver.solve_typical.calls"] = counted("solve_typical")
    out["solver.phase_attempts"] = counted("randomize_phase")
    out["solver.verify.calls"] = len(named("solver.verify"))
    out["solver.verify.s"] = total("solver.verify")
    out["solver.self_s"] = sum(
        _dur(s) - _covered(s, kids, ("flowsearch", "relations", "solver.verify")) for s in general
    )
    out["solver.eval_bits_max"] = max(eval_bits, default=0)

    even = named("products.solve_even_dim")
    out["products.solve_even_dim.s"] = total("products.solve_even_dim")
    out["products.self_s"] = sum(
        _dur(s) - _covered(s, kids, ("solver.solve_general",)) for s in even
    )
    out["products.embed_points.s"] = total("products.embed_points")

    out["oracle.tau.calls"] = len(named("oracle.tau"))
    out["oracle.tau.s"] = total("oracle.tau")
    out["oracle.tau.exact_evals"] = counted("isometry_max_frac", ("oracle.tau",))
    out["oracle.prop_sep.s"] = total("oracle.prop_sep")
    out["oracle.prop_sep.exact_evals"] = counted("isometry_max_frac", ("oracle.prop_sep",))
    out["oracle.covering.s"] = total("oracle.covering")
    out["oracle.covering.steps"] = sum(s["steps"] for s in named("oracle.covering"))

    out["cli.run.s"] = total("cli.run") - calib_s
    out["reporting.canonical_json.s"] = total("reporting.canonical_json")
    out["plotting.emit_plot.s"] = total("plotting.emit_plot")
    for name, unit in UNITS.items():
        if unit == "s":
            out[name] *= scale
    out["trace.overhead_frac"] = overhead
    return out
