"""Command-line front end: one path from arguments to report.

main parses the arguments, and _spec_and_options turns them into a
ProblemSpec and the subcommand's options.  Every spec passes
parse_problem_spec, which reads one table, SPEC_SCHEMA: per mode, the
spec keys it requires and those it may carry with their defaults.  It
refuses every other key and every missing one, and a report echoes
exactly the keys its mode reads.  run(spec, options=None, timings=False)
calls the mode's _run_<mode>(spec, options) from one table, echoes the
options under spec.options and returns the RunReport.  main writes the
report to --output or stdout, then the tau CSV (--csv) and the solve SVG
(--plot).

Numbers cross this boundary as decimal strings in both directions; JSON
floats are rejected outright because a double-precision detour would
silently corrupt high-precision inputs.  Exit codes: 0 means the run
completed (whether or not the target tolerance was achieved), 2 means
the input was unusable (an oracle input that overflows its float64
screen included), 3 means an internal a-posteriori check failed and the
result cannot be trusted.

Every result is re-verified against its module's closing invariant
before it is written.  A solve result is rechecked on its serialized
form: t and the plane rotations are read back from the result's
decimals and measured against the spec's points with solver.certify.
Per-t work is dispatched strictly in t order; the arbitrary-precision
context is process-global, so the dispatcher keeps a single lane.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import mpmath
from mpmath import mpc, mpf

from . import __version__
from .corelattice import Rotation, nearest_gaussian
from .plotting import cell_svg, curve_svg
from .precision import (
    MIN_PRECISION,
    format_decimal,
    parse_complex_pair,
    parse_decimal,
    residual_tol,
    working_precision,
)
from .products import project_planes, solve_even_dim
from .reporting import RunReport, canonical_json, tau_csv, to_json_data
from .solver import (
    InternalCheckError,
    SolverConfig,
    certify,
    # kept importable here: perfbench/tracer.py wraps cli.lattice_residuals
    lattice_residuals,  # noqa: F401
    solve_general,
)

__all__ = [
    "SPEC_SCHEMA",
    "SpecError",
    "ProblemSpec",
    "parse_problem_spec",
    "run",
    "emit_plot",
    "main",
]

# mode -> (the spec keys it requires, the keys it may carry with their
# defaults), the one schema parsing, refusal and the report echo read;
# "t" stands for t or t_range, and an L_cap of None is no cap
SPEC_SCHEMA = {
    "solve": (
        ("points", "epsilon", "t"),
        {"seed": 0, "precision_bits": 128, "height_bound": 64, "L_cap": None},
    ),
    "tau": (("points", "t"), {"precision_bits": 128}),
    "prop_sep": (("t",), {"seed": 0, "precision_bits": 128}),
    "covering": ((), {}),
}
_MAX_T_COUNT = 10000

# oracle imports numpy, which a solve never needs.  These three entry
# points import their oracle namesake only when called, so looking them
# up imports nothing; the runners call them by their global names, so a
# rebinding of this module's attribute (perfbench/tracer.py wraps them)
# takes effect.
def tau_estimate(*args, **kwargs):
    from .oracle import tau_estimate

    return tau_estimate(*args, **kwargs)


def check_prop_sep(*args, **kwargs):
    from .oracle import check_prop_sep

    return check_prop_sep(*args, **kwargs)


def covering_time(*args, **kwargs):
    from .oracle import covering_time

    return covering_time(*args, **kwargs)


class SpecError(ValueError):
    """Problem spec failed validation; maps to exit code 2."""


def _require_decimal(value, name: str, bits: int = 64) -> str:
    if not isinstance(value, str):
        raise SpecError(
            f"{name} must be a decimal string (JSON numbers are rejected so "
            f"precision survives the boundary), got {type(value).__name__}"
        )
    try:
        parse_decimal(value, bits)
    except (ValueError, TypeError):
        raise SpecError(f"{name} is not a valid decimal: {value!r}")
    return value


def _positive_decimal(value, name: str, bits: int) -> str:
    text = _require_decimal(value, name)
    if not parse_decimal(text, bits) > 0:
        raise SpecError(f"{name} must be positive, got {text}")
    return text


def _require_int(value, name: str, minimum: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SpecError(f"{name} must be an integer, got {type(value).__name__}")
    if value < minimum:
        raise SpecError(f"{name} must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class ProblemSpec:
    """Validated run description: the mode and every spec key the mode
    reads, each with its normalized value or its default.  "t" holds the
    t or t_range echo together with the expanded t_values."""

    values: dict

    @property
    def mode(self) -> str:
        return self.values["mode"]

    @property
    def t_values(self) -> List[str]:
        return self.values["t"]["t_values"]

    def echo(self) -> dict:
        data = {k: v for k, v in self.values.items() if k != "t" and v is not None}
        data.update(self.values.get("t", {}))
        return data


def _parse_points(raw, mode: str, bits: int) -> List[List[str]]:
    # the JSON shapes and decimal strings here; the point-set rules (some
    # points, one even dimension) are project_planes'
    if not isinstance(raw, list):
        raise SpecError("points must be a list")
    points = []
    for idx, entry in enumerate(raw):
        if not isinstance(entry, list):
            raise SpecError(f"points[{idx}] must be a list of decimal strings")
        points.append([_require_decimal(c, f"points[{idx}][{j}]") for j, c in enumerate(entry)])
    try:
        planes = project_planes(points, bits)
    except ValueError as exc:
        raise SpecError(str(exc))
    if mode == "tau" and len(planes) != 1:
        raise SpecError(f"mode {mode} requires planar points, got dimension {2 * len(planes)}")
    return points


def _expand_t(given: dict, bits: int) -> dict:
    """The t or t_range echo of a spec, with its expanded t_values."""
    if len(given) > 1:
        raise SpecError("give either t or t_range, not both")
    with working_precision(bits + 32):
        if "t" in given:
            t_str = _positive_decimal(given["t"], "t", bits + 32)
            return {"t": t_str, "t_values": [t_str]}
        rng = given["t_range"]
        if not isinstance(rng, dict):
            raise SpecError("t_range must be an object")
        unknown = set(rng) - {"from", "to", "count", "spacing"}
        if unknown:
            raise SpecError(f"unknown t_range keys: {sorted(unknown)}")
        for key in ("from", "to"):
            if key not in rng:
                raise SpecError(f"t_range is missing {key!r}")
        count = _require_int(rng.get("count", 1), "t_range.count", 1)
        if count > _MAX_T_COUNT:
            raise SpecError(f"t_range.count must be <= {_MAX_T_COUNT}, got {count}")
        spacing = rng.get("spacing", "log")
        if spacing not in ("linear", "log"):
            raise SpecError(f"t_range.spacing must be linear or log, got {spacing!r}")
        a = parse_decimal(_require_decimal(rng["from"], "t_range.from"), bits + 32)
        b = parse_decimal(_require_decimal(rng["to"], "t_range.to"), bits + 32)
        if not (a > 0 and b > 0):
            raise SpecError("t_range endpoints must be positive")
        if b < a:
            raise SpecError("t_range.to must be >= t_range.from")
        if count == 1:
            values = [a]
        elif spacing == "linear":
            step = (b - a) / (count - 1)
            values = [a + step * i for i in range(count)]
        else:
            la, lb = mpmath.log(a), mpmath.log(b)
            step = (lb - la) / (count - 1)
            values = [mpmath.exp(la + step * i) for i in range(count)]
        return {
            "t_range": {"from": rng["from"], "to": rng["to"], "count": count, "spacing": spacing},
            "t_values": [format_decimal(v, bits) for v in values],
        }


def _check_t(value, got: dict) -> dict:
    t = _expand_t(value, got["precision_bits"])
    # a prop-sep check runs at one t
    if got["mode"] == "prop_sep" and len(t["t_values"]) > 1:
        raise SpecError(f"mode prop_sep checks one t, got {len(t['t_values'])} values")
    return t


def _check_precision(value, got: dict) -> int:
    bits = _require_int(value, "precision_bits", MIN_PRECISION)
    if bits > (1 << 20):
        raise SpecError(f"precision_bits is implausibly large: {bits}")
    return bits


def _check_epsilon(value, got: dict) -> str:
    epsilon = _require_decimal(value, "epsilon")
    k = len(got["points"][0])
    bits = max(got["precision_bits"], 64)
    with working_precision(bits):
        eps_v = parse_decimal(epsilon, bits)
        limit = mpmath.sqrt(mpf(k)) / 2
        if not (0 < eps_v < limit):
            raise SpecError(
                f"epsilon must lie in (0, sqrt({k})/2 = {mpmath.nstr(limit, 8)}), "
                f"got {epsilon}"
            )
    return epsilon


# each spec key's validator, given the key's value and the keys validated
# before it; they run in this order, so bits and points come first
_VALIDATORS = {
    "precision_bits": _check_precision,
    "seed": lambda value, got: _require_int(value, "seed", 0),
    "height_bound": lambda value, got: _require_int(value, "height_bound", 1),
    "points": lambda value, got: _parse_points(value, got["mode"], got["precision_bits"]),
    "epsilon": _check_epsilon,
    "t": _check_t,
    "L_cap": lambda value, got: _positive_decimal(value, "L_cap", 64),
}


def parse_problem_spec(data, mode_expected: str) -> ProblemSpec:
    """Validate a raw spec object for the given subcommand against
    SPEC_SCHEMA; SpecError on a key the mode does not read, a missing
    required key or any value its validator refuses."""
    if not isinstance(data, dict):
        raise SpecError("problem spec must be a JSON object")
    mode = data.get("mode", mode_expected)
    if mode not in SPEC_SCHEMA:
        raise SpecError(f"mode must be one of {tuple(SPEC_SCHEMA)}, got {mode!r}")
    if mode != mode_expected:
        raise SpecError(f"spec mode {mode!r} does not match subcommand {mode_expected!r}")
    required, optional = SPEC_SCHEMA[mode]
    reads = {"mode", *required, *optional} | ({"t_range"} if "t" in required else set())
    unread = set(data) - reads
    if unread:
        raise SpecError(f"mode {mode} does not read spec keys {sorted(unread)}")
    for key in required:
        if key not in data and (key != "t" or "t_range" not in data):
            raise SpecError(f"mode {mode} requires {'t or t_range' if key == 't' else key}")

    given = {**optional, **data, "t": {k: data[k] for k in ("t", "t_range") if k in data}}
    got = {"mode": mode}
    for key, check in _VALIDATORS.items():
        if key in required or key in optional:
            # a default of None stands for the key's absence
            absent = given[key] is None and key not in data
            got[key] = None if absent else check(given[key], got)
    return ProblemSpec(got)


def _result_rotations(result: dict) -> Tuple[int, mpf, Tuple[mpc, ...]]:
    """(eval_bits, t, plane thetas) read back from a serialized solve
    result; a planar result is a block of one plane."""
    bits = int(result["eval_bits"])
    t = parse_decimal(result["t"], bits)
    planes = result.get("per_plane", [result])
    return bits, t, tuple(parse_complex_pair(p["theta"], bits) for p in planes)


def _recheck(result: dict, planes, eps: mpf) -> None:
    """Measure the result about to be written against the spec's points."""
    if not result["achieved"]:
        return
    bits, t, thetas = _result_rotations(result)
    _, worst = certify([Rotation(th, bits) for th in thetas], t, planes, bits)
    with working_precision(bits):
        if not worst < eps + residual_tol(bits):
            raise InternalCheckError(
                f"a-posteriori recheck failed at t={mpmath.nstr(t, 12)}: "
                f"recomputed worst residual {mpmath.nstr(worst, 12)} is not "
                f"below tolerance"
            )


# what each _run_<mode> returns: (results, summary, warnings)
_Outcome = Tuple[Tuple[dict, ...], dict, Tuple[str, ...]]


def _run_solve(spec: ProblemSpec, options: dict) -> _Outcome:
    keys = spec.values
    bits, seed = keys["precision_bits"], keys["seed"]
    config = SolverConfig(bits=bits, height_bound=keys["height_bound"], l_cap=keys["L_cap"])
    planes = project_planes(keys["points"], bits)
    planar = len(planes) == 1

    warnings = []
    results = []
    achieved_count = 0
    worst = None
    # strictly ordered by t; see the module docstring for why the per-t
    # lane count stays at one
    eps_v = parse_decimal(keys["epsilon"], bits)
    for t_str in spec.t_values:
        t_v = parse_decimal(t_str, bits)
        if planar:
            rep = solve_general(planes[0], t_v, eps_v, seed=seed, config=config)
            plane_reports, frac = (rep,), rep.max_frac
        else:
            rep = solve_even_dim(planes, t_v, eps_v, seed=seed, config=config)
            plane_reports, frac = rep.per_plane, rep.combined_max_frac
        # relation detection's advisories, once each across planes and t
        for w in (w for r in plane_reports for w in r.decomposition.warnings):
            if w not in warnings:
                warnings.append(w)
        result = to_json_data(rep)
        _recheck(result, planes, eps_v)
        results.append(result)
        if rep.achieved:
            achieved_count += 1
        with working_precision(rep.eval_bits):
            if worst is None or frac > worst[0]:
                worst = (frac, rep.eval_bits)

    summary = {
        "count": len(results),
        "achieved_count": achieved_count,
        "all_achieved": achieved_count == len(results),
        "worst_max_frac": format_decimal(worst[0], worst[1]),
    }
    return tuple(results), summary, tuple(warnings)


def _run_tau(spec: ProblemSpec, options: dict) -> _Outcome:
    from .oracle import isometry_max_frac

    bits = spec.values["precision_bits"]
    base = project_planes(spec.values["points"], bits)[0]
    results = []
    uppers = []
    for t_str in spec.t_values:
        with working_precision(bits):
            t_v = parse_decimal(t_str, bits)
            scaled = base.scaled(t_v)
        try:
            # the tau options are tau_estimate's keyword arguments
            est = tau_estimate(scaled, bits=bits, **options)
        except ValueError as exc:
            raise SpecError(str(exc))
        with working_precision(bits):
            reproduced = isometry_max_frac(est.argmin, scaled, bits)
            tol = residual_tol(bits)
            ok = (
                abs(reproduced - est.upper) <= tol
                and est.certified_lower <= est.upper
                and est.upper <= mpmath.sqrt(mpf(2)) / 2 + tol
            )
        if not ok:
            raise InternalCheckError(
                f"tau a-posteriori recheck failed at t={t_str}: argmin does not "
                f"reproduce the reported upper bound"
            )
        uppers.append(est.upper)
        results.append({"t": t_str, "estimate": to_json_data(est)})

    with working_precision(bits):
        nonincreasing = all(
            uppers[i + 1] <= uppers[i] + residual_tol(bits)
            for i in range(len(uppers) - 1)
        )
    summary = {
        "count": len(results),
        "upper_min": format_decimal(min(uppers), bits),
        "upper_max": format_decimal(max(uppers), bits),
        "nonincreasing": nonincreasing,
    }
    return tuple(results), summary, ()


def _replay_draw(seed: int, index: int) -> Tuple[float, bool, float, float]:
    """Sample `index` of prop-sep's stream, reproduced on the stdlib
    generator independently of the check: each sample takes four
    random() calls of two 32-bit words each, and getrandbits(32 * k)
    skips exactly k words."""
    rng = random.Random(seed)
    words = 8 * index
    while words:
        step = min(words, 1 << 20)
        rng.getrandbits(32 * step)
        words -= step
    return rng.random(), rng.random() < 0.5, rng.random(), rng.random()


def _run_prop_sep(spec: ProblemSpec, options: dict) -> _Outcome:
    from .oracle import PlanarIsometry, isometry_max_frac, separated_probe, separation

    t, samples = spec.t_values[0], options["samples"]
    seed, bits = spec.values["seed"], spec.values["precision_bits"]
    try:
        chk = check_prop_sep(t, samples, seed, bits=bits)
    except ValueError as exc:
        raise SpecError(str(exc))

    draw = _replay_draw(seed, chk.argmin_index)
    probe = separated_probe(t, bits)
    with working_precision(bits):
        g = PlanarIsometry(
            Rotation.from_angle(2 * mpmath.pi * mpf(draw[0]), bits),
            draw[1],
            (mpf(draw[2]), mpf(draw[3])),
        )
        reproduced = isometry_max_frac(g, probe, bits)
        sep = separation(probe, bits)
        t_v = parse_decimal(t, bits)
        if abs(reproduced - chk.minimum) > residual_tol(bits) or sep != t_v:
            raise InternalCheckError(
                "prop-sep a-posteriori recheck failed: the argmin sample does "
                "not reproduce the reported minimum"
            )

    result = to_json_data(chk)
    result["separation"] = format_decimal(sep, bits)
    summary = {
        "samples": samples,
        "violations": len(chk.violations),
        "minimum": format_decimal(chk.minimum, bits),
    }
    return (result,), summary, ()


def _run_covering(spec: ProblemSpec, options: dict) -> _Outcome:
    dir_floats = [float(parse_decimal(c, 64)) for c in options["direction"]]
    eps_f = float(parse_decimal(options["eps"], 64))
    cap_f = float(parse_decimal(options["cap"], 64))
    cell = options.get("cell")
    cell_f = None if cell is None else float(parse_decimal(cell, 64))
    try:
        out = covering_time(dir_floats, eps_f, cap_f, cell_f)
    except ValueError as exc:
        raise SpecError(str(exc))
    if out.covered:
        if out.cells_visited != out.cells_total or out.L is None or out.L > cap_f:
            raise InternalCheckError("covering a-posteriori recheck failed")
    elif out.cells_visited >= out.cells_total:
        raise InternalCheckError("covering a-posteriori recheck failed")
    summary = {
        "covered": out.covered,
        "L": None if out.L is None else repr(out.L),
        "cells_visited": out.cells_visited,
        "cells_total": out.cells_total,
    }
    return (to_json_data(out),), summary, ()


_RUNNERS = {
    "solve": _run_solve,
    "tau": _run_tau,
    "prop_sep": _run_prop_sep,
    "covering": _run_covering,
}


def run(
    spec: ProblemSpec, options: Optional[dict] = None, timings: bool = False
) -> RunReport:
    """Execute a validated spec with its subcommand options (tau: grid_theta,
    grid_trans, with_reflection; prop_sep: samples; covering: direction,
    eps, cap and an optional cell), which the report echoes under
    spec.options; deterministic given the spec, the options and the seed."""
    start = time.monotonic()
    options = options or {}
    results, summary, warnings = _RUNNERS[spec.mode](spec, options)
    echo = spec.echo()
    if options:
        echo["options"] = options
    return RunReport(
        spec_echo=echo,
        mode=spec.mode,
        results=results,
        summary=summary,
        tool_version=__version__,
        warnings=warnings,
        wall_clock_seconds=f"{time.monotonic() - start:.3f}" if timings else None,
    )


def _curve_data(report: RunReport):
    ts, values, achieved = [], [], []
    bits = int(report.spec_echo.get("precision_bits", 128))
    with working_precision(bits + 32):
        for r in report.results:
            t_v = parse_decimal(r["t"], bits + 32)
            frac_str = r["max_frac"] if "max_frac" in r else r["combined_max_frac"]
            f_v = parse_decimal(frac_str, bits + 32)
            ts.append(float(mpmath.log10(t_v)))
            values.append(float(f_v) if f_v > 0 else 0.0)
            achieved.append(bool(r["achieved"]))
        eps = float(parse_decimal(report.spec_echo["epsilon"], bits + 32))
    return ts, values, achieved, eps


def _cell_data(report: RunReport):
    chosen = next((r for r in report.results if r["achieved"]), report.results[0])
    eps = float(parse_decimal(report.spec_echo["epsilon"], 64))
    bits, t_v, thetas = _result_rotations(chosen)
    residues = []
    with working_precision(bits):
        for p in report.spec_echo["points"]:
            for i, theta in enumerate(thetas):
                w = theta * (t_v * parse_complex_pair(p[2 * i : 2 * i + 2], bits))
                ga, gb = nearest_gaussian(w, bits)
                residues.append((float(w.real - ga), float(w.imag - gb)))
    return residues, eps, chosen["t"]


def emit_plot(report: RunReport, path: str, kind: str = "curve") -> None:
    """Write a deterministic SVG for a solve-mode report."""
    if report.mode != "solve":
        raise SpecError(f"plots are available for solve reports, not {report.mode!r}")
    if not report.results:
        raise SpecError("report has no results to plot")
    if kind == "curve":
        ts, values, achieved, eps = _curve_data(report)
        svg = curve_svg(
            ts, values, achieved, eps, "worst fractional distance vs dilation"
        )
    elif kind == "cell":
        residues, eps, t_str = _cell_data(report)
        label = t_str if len(t_str) <= 24 else t_str[:21] + "..."
        svg = cell_svg(residues, eps, f"rotated configuration at t = {label}")
    else:
        raise SpecError(f"unknown plot kind {kind!r}")
    _write_text(path, svg)


def _fail(code: int, message: str) -> int:
    sys.stdout.write(canonical_json({"error": message, "exit_code": code}))
    return code


def _load_spec_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"malformed JSON in {path}: {exc}")


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lattice-rotor",
        description=(
            "Find rotations that pull a dilated planar configuration onto the "
            "Gaussian integer lattice; sweep, sample, and tabulate the "
            "brute-force counterparts."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the solver over a t grid")
    p_solve.add_argument("--input", required=True, help="problem spec JSON")
    p_solve.add_argument("--output", required=True, help="report JSON path")
    p_solve.add_argument("--plot", help="optional SVG path")
    p_solve.add_argument(
        "--plot-kind", choices=("curve", "cell"), default="curve",
        help="curve: worst residual vs t; cell: residues in one lattice cell",
    )
    p_solve.add_argument("--seed", type=int, help="override the spec seed")
    p_solve.add_argument("--precision", type=int, help="override precision_bits")
    p_solve.add_argument("--timings", action="store_true", help="include wall-clock")

    p_tau = sub.add_parser("tau", help="grid sweep for the embedding infimum")
    p_tau.add_argument("--input", required=True, help="problem spec JSON")
    p_tau.add_argument("--grid-theta", type=int, required=True)
    p_tau.add_argument("--grid-trans", type=int, required=True)
    p_tau.add_argument("--reflect", action="store_true")
    p_tau.add_argument("--output", help="report JSON path (default stdout)")
    p_tau.add_argument("--csv", help="optional CSV path: t,upper,certified_lower")
    p_tau.add_argument("--precision", type=int, help="override precision_bits")
    p_tau.add_argument("--timings", action="store_true")

    p_sep = sub.add_parser("prop-sep", help="sampled separation lower-bound check")
    p_sep.add_argument("--t", required=True, help="separation parameter (decimal)")
    p_sep.add_argument("--samples", type=int, required=True)
    p_sep.add_argument("--seed", type=int, required=True)
    p_sep.add_argument("--precision", type=int, help="precision_bits (default 128)")
    p_sep.add_argument("--output", help="report JSON path (default stdout)")
    p_sep.add_argument("--timings", action="store_true")

    p_cov = sub.add_parser("covering", help="torus orbit covering time")
    p_cov.add_argument(
        "--direction", required=True, help="comma-separated decimals, e.g. 1,1.618"
    )
    p_cov.add_argument("--eps", required=True, help="target density (decimal)")
    p_cov.add_argument("--cap", required=True, help="give up past this time")
    p_cov.add_argument("--cell", help="grid cell size (default eps/2)")
    p_cov.add_argument("--output", help="report JSON path (default stdout)")
    p_cov.add_argument("--timings", action="store_true")
    # flags some subcommands lack, so every namespace has the same shape
    parser.set_defaults(
        input=None, csv=None, plot=None, plot_kind="curve", t=None, seed=None, precision=None
    )
    return parser


def _spec_and_options(args) -> Tuple[ProblemSpec, dict]:
    """The validated spec for the subcommand, and the options its report
    echoes under spec.options."""
    # prop-sep and covering take flags only, so their specs start empty
    data = {} if args.input is None else _load_spec_file(args.input)
    for key, value in (("t", args.t), ("seed", args.seed), ("precision_bits", args.precision)):
        if value is not None and isinstance(data, dict):
            data[key] = value
    spec = parse_problem_spec(data, args.command.replace("-", "_"))

    if args.command == "tau":
        return spec, {
            "grid_theta": _require_int(args.grid_theta, "grid_theta", 1),
            "grid_trans": _require_int(args.grid_trans, "grid_trans", 1),
            "with_reflection": args.reflect,
        }
    if args.command == "prop-sep":
        return spec, {"samples": _require_int(args.samples, "samples", 1)}
    if args.command == "covering":
        direction = [c.strip() for c in args.direction.split(",") if c.strip()]
        if not direction:
            raise SpecError("direction must list at least one coordinate")
        options = {
            "direction": [_require_decimal(c, "direction") for c in direction],
            "eps": _require_decimal(args.eps, "eps"),
            "cap": _require_decimal(args.cap, "cap"),
        }
        if args.cell is not None:
            options["cell"] = _require_decimal(args.cell, "cell")
        return spec, options
    return spec, {}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        spec, options = _spec_and_options(args)
        report = run(spec, options, timings=args.timings)
        text = report.to_json()
        if args.output:
            _write_text(args.output, text)
        else:
            sys.stdout.write(text)
        if args.csv:
            rows = [
                (r["t"], r["estimate"]["upper"], r["estimate"]["certified_lower"])
                for r in report.results
            ]
            _write_text(args.csv, tau_csv(rows))
        if args.plot:
            emit_plot(report, args.plot, args.plot_kind)
        return 0
    except SpecError as exc:
        return _fail(2, str(exc))
    except OSError as exc:
        return _fail(2, f"file error: {exc}")
    except InternalCheckError as exc:
        return _fail(3, f"internal invariant violation: {exc}")


if __name__ == "__main__":
    sys.exit(main())
