"""lattice-rotor benchmark: one workload, end to end or traced.

    python3 perfbench/run.py --workload readme-solve --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Every pass of a workload runs in its
own fresh Python process (perfbench/child.py) with one closed-loop
client: items run one at a time, in t order, on one thread, because
mpmath's precision is process-global.  Inputs are generated from the
seed before any timing starts, and every output is checked by
perfbench/check.py.

--trace 0 measures passes until --seconds of passes have run and prints
the end-to-end metrics.  --trace 1 runs the first input set twice,
untraced and then traced, and prints the per-layer metrics.  Human
readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  A full
record, machine facts, raw wall times and spans included, goes to
.perfbench_out/<workload>-seed<seed>-trace<trace>.json.

Times are reported at a reference machine speed.  On a shared host the
speed at which this machine runs Python drifts by a quarter over
minutes, far more than the changes the benchmark must resolve.  Each
pass therefore runs a fixed pure-Python calibration loop before every
item (outside the item's time), and every wall time of the pass is
multiplied by CALIBRATION_REF_S / (median calibration time of the pass).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import check
import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# set-up-only spawns per run, on top of the one every pass makes; one
# more spawn before them fills the bytecode cache and is discarded
SETUP_SPAWNS = 6
# a run ends within this many seconds, whatever the child processes do
DEADLINE_S = 170.0
# median time of tracer.calibrate() on the 2-core Xeon box (Python 3.11)
# the benchmark was written on; reported times are at that speed
CALIBRATION_REF_S = 0.065


def machine_facts(env: Dict[str, str]) -> Dict:
    import mpmath
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "thread_env": {k: env.get(k) for k in sorted(THREAD_ENV)},
    }


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    # set-up is measured with the bytecode cache on, as an installed
    # package runs, whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(
    job_path: Path, result_path: Path, mode: str, env: Dict[str, str], deadline: float
) -> Dict:
    """Run one child to completion, killing it at the monotonic-clock
    deadline; the spawn time is stamped on that shared clock just before
    the process is created."""
    result_path.unlink(missing_ok=True)
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), str(job_path), str(result_path), mode],
        cwd=str(ROOT),
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    exited = time.monotonic()
    if proc.returncode != 0 or not result_path.exists():
        return {"ok": False, "code": proc.returncode, "stderr": err[-4000:], "stdout": out[-2000:]}
    res = json.loads(result_path.read_text(encoding="utf-8"))
    res.update(ok=True, spawned=spawned, exited=exited)
    return res


def item_times(res: Dict) -> List[float]:
    """Raw wall time of each item: from its start to the next item's
    entry (before that item's calibration), the last one to the end."""
    ends = res["enters"][1:] + [res["done"]]
    return [end - start for start, end in zip(res["starts"], ends)]


def run_pass(
    job: Dict, job_path: Path, mode: str, env: Dict[str, str], reference: Dict, deadline: float
) -> Dict:
    res = spawn(job_path, job_path.with_name(f"result-{mode}.json"), mode, env, deadline)
    n = len(job["items"])
    if not res["ok"]:
        return {"ok": False, "why": [f"child failed: {res}"] * n, "res": res}
    why = check.check_job(job, reference)
    if not res["package"].startswith(str(ROOT / "src")):
        why = [w or f"benchmarked {res['package']}, not this checkout" for w in why]
    if res["codes"] != [0] * len(job["calls"]):
        why = [w or f"exit codes {res['codes']}" for w in why]
    if len(res["starts"]) != n:
        why = [w or f"{len(res['starts'])} items started, {n} expected" for w in why]
    if not res["starts"]:
        return {"ok": False, "why": why, "res": res}
    raw_items = item_times(res)
    scale = CALIBRATION_REF_S / statistics.median(res["calib"])
    return {
        "ok": True,
        "why": why,
        "res": res,
        "setup": (res["enters"][0] - res["spawned"], res["calib"][0]),
        "scale": scale,
        "raw_run_s": sum(raw_items),
        "run_s": sum(raw_items) * scale,
        "items": [t * scale for t in raw_items],
        "rss_mb": res["maxrss_kb"] / 1024.0,
        "eval_bits": check.eval_bits(job),
    }


def setup_sample(job_path: Path, env: Dict[str, str], deadline: float) -> Tuple[float, float]:
    """Raw set-up time of one spawn, and the calibration time that
    followed it in the same process."""
    res = spawn(job_path, job_path.with_name("result-setup.json"), "setup", env, deadline)
    if not res["ok"] or not res["starts"]:
        raise RuntimeError(f"set-up spawn failed: {res}")
    return res["enters"][0] - res["spawned"], res["calib"][0]


def _metric(value: float, unit: str) -> Dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "lattice_rotor" / "__init__.py").is_file():
        print(f"no lattice_rotor source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".perfbench_work" / tag
    shutil.rmtree(work, ignore_errors=True)
    jobs = []
    for k in range(1 if args.trace else workloads.POOL):
        job = workloads.build(args.workload, workloads.input_id(args.seed, k), work / f"pass{k}")
        path = work / f"pass{k}" / "job.json"
        path.write_text(json.dumps(job), encoding="utf-8")
        jobs.append((job, path))
    reference = check.load_reference()
    env = child_env()

    setup_sample(jobs[0][1], env, deadline)  # fills the bytecode cache; discarded
    setups = [setup_sample(jobs[0][1], env, deadline) for _ in range(SETUP_SPAWNS)]

    if args.trace:
        passes = [
            run_pass(*jobs[0], mode, env, reference, deadline) for mode in ("untraced", "traced")
        ]
    else:
        passes = []
        measured = 0.0
        while measured < args.seconds and len(passes) < len(jobs):
            p = run_pass(*jobs[len(passes)], "untraced", env, reference, deadline)
            passes.append(p)
            if not p["ok"]:
                break
            measured += p["res"]["exited"] - p["res"]["spawned"]

    attempted = sum(len(p["why"]) for p in passes)
    failures = [w for p in passes for w in p["why"] if w]
    good = [p for p in passes if p["ok"]]
    setups += [p["setup"] for p in good]
    setup_scale = CALIBRATION_REF_S / statistics.median(c for _, c in setups)
    facts = machine_facts(env)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_ids": [job["input_id"] for job, _ in jobs[: len(passes)]],
        "machine": facts,
        "calibration_ref_s": CALIBRATION_REF_S,
        "failures": failures,
        "raw_setup_s": [s for s, _ in setups],
        "setup_calibration_s": [c for _, c in setups],
        "raw_run_s": [p["raw_run_s"] for p in good],
        "pass_scale": [p["scale"] for p in good],
        "run_s": [p["run_s"] for p in good],
        "item_s": [t for p in good for t in p["items"]],
        "peak_rss_mb": [p["rss_mb"] for p in good],
    }

    if not good or (args.trace and len(good) != 2):
        for p in passes:
            if not p["ok"]:
                print(p["res"].get("stderr", ""), file=sys.stderr)
        print("a pass did not complete; see " + str(work), file=sys.stderr)
        return 1
    if args.trace:
        untraced, traced = passes
        spans = traced["res"]["spans"]
        guard = layers.guard_failures(args.workload, spans)
        if guard:
            for g in guard:
                print(f"binding guard failed: {g}", file=sys.stderr)
            return 1
        values = layers.per_layer(
            spans,
            traced["res"]["outside_counts"],
            traced["eval_bits"],
            calib_s=sum(traced["res"]["calib"]),
            scale=traced["scale"],
            overhead=traced["run_s"] / untraced["run_s"] - 1.0,
        )
        metrics = {name: _metric(values[name], unit) for name, unit in layers.UNITS.items()}
        samples = {name: 1 for name in metrics}
        record["spans"] = spans
        record["span_counts"] = layers.span_counts(spans)
    else:
        metrics = {
            "setup_s": _metric(statistics.median(record["raw_setup_s"]) * setup_scale, "s"),
            "run_s": _metric(statistics.median(record["run_s"]), "s"),
            "item_s_p50": _metric(statistics.median(record["item_s"]), "s"),
            "peak_rss_mb": _metric(statistics.median(record["peak_rss_mb"]), "MB"),
        }
        samples = {
            "setup_s": len(setups),
            "run_s": len(good),
            "item_s_p50": len(record["item_s"]),
            "peak_rss_mb": len(good),
        }
    record["metrics"] = metrics
    record["samples"] = samples

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if not failures:
        shutil.rmtree(work, ignore_errors=True)

    for name, m in metrics.items():
        print(f"{args.workload}  {name:30s} {m['value']:.6g} {m['unit']}  (n={samples[name]})")
    print(
        f"{args.workload}  {'failed_frac':30s} {len(failures) / attempted:.6g} ratio  (n={attempted})"
    )
    print(
        f"{args.workload}  wall time of set-up {statistics.median(record['raw_setup_s']):.6g} s, "
        f"of a pass {statistics.median(record['raw_run_s']):.6g} s; speed scale "
        f"{setup_scale:.4g} (set-up), {statistics.median(record['pass_scale']):.4g} (passes)"
    )
    for f in failures[:10]:
        print(f"  failed: {f}")
    print("machine: " + json.dumps(facts, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
