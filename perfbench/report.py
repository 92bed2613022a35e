"""Every end-to-end metric of every workload, in one command.

    python3 perfbench/report.py [--seed 1] [--seconds 20] [--trace 0]

Runs perfbench/run.py once per workload, one after the other, and prints
each metric with its unit and sample count, then failed_frac.  Exits
non-zero if any workload failed to run or produced a wrong output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        print("\n".join(lines[:-1]))
        if not json.loads(lines[-1])["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
