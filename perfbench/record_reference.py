"""Record reference.json: the values a correct change leaves alone.

    python3 perfbench/record_reference.py [--workload NAME ...] [--ids 0-23]

Runs every input set of the pool through the program, untimed, and
stores s_found per solve item, the tau upper bound per t and the
covering time.  Values already in reference.json for other workloads or
input sets are kept.  Re-record only when the program's answers are
meant to change, and say so where the change is described.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

import check
import workloads
from run import ROOT, child_env, spawn


def record(workload: str, iid: int, ref: dict) -> None:
    work = ROOT / ".perfbench_work" / "reference" / f"{workload}-{iid}"
    shutil.rmtree(work, ignore_errors=True)
    job = workloads.build(workload, iid, work)
    job_path = work / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    res = spawn(job_path, work / "result.json", "untraced", child_env(), time.monotonic() + 600)
    if not res["ok"] or res["codes"] != [0] * len(job["calls"]):
        raise RuntimeError(f"{workload} input set {iid} did not run cleanly: {res}")
    values = [check.observed(item) for item in job["items"]]
    entry = ref.setdefault(workload, {})
    if workload == "oracle-sweep":
        entry["tau_upper"] = {
            item["t"]: v for item, v in zip(job["items"], values) if item["kind"] == "tau"
        }
        entry["covering_L"] = values[-1]
    else:
        entry[str(iid)] = values
    failures = [w for w in check.check_job(job, ref) if w]
    if failures:
        raise RuntimeError(f"{workload} input set {iid} fails its own check: {failures}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--ids", default=f"0-{workloads.POOL - 1}")
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.ids.split("-"))
    ref = check.load_reference() if check.REFERENCE.exists() else {}
    for workload in args.workload or workloads.WORKLOADS:
        # the oracle references do not depend on the input set
        ids = [lo] if workload == "oracle-sweep" else range(lo, hi + 1)
        for iid in ids:
            record(workload, iid, ref)
            check.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            print(f"recorded {workload} input set {iid}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
