"""One pass of a workload, in a fresh process.

    python3 perfbench/child.py JOB.json RESULT.json {setup,untraced,traced}

Runs the job's CLI calls in order through lattice_rotor.cli.main and
writes the timestamps, calibration times, exit codes, peak RSS and
(when traced) the spans to RESULT.json.  In setup mode it stops at the
first item, which is when set-up ends.  Time stamps come from
time.monotonic(), a clock the parent shares, so the parent can time
set-up from its own spawn.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

from tracer import BindingError, ItemClock, Tracer


class _SetupDone(Exception):
    pass


def _stop() -> None:
    raise _SetupDone


def main(job_path: str, result_path: str, mode: str) -> int:
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))

    import lattice_rotor.cli as cli

    tracer = Tracer() if mode == "traced" else None
    clock = ItemClock()
    try:
        if tracer is not None:
            tracer.install()
        clock.install()
    except BindingError as exc:
        print(f"binding check failed: {exc}", file=sys.stderr)
        return 3
    if mode == "setup":
        clock.on_first = _stop

    codes = []
    errors = []
    try:
        for argv in job["calls"]:
            try:
                codes.append(cli.main(argv))
            except _SetupDone:
                raise
            except Exception:
                codes.append(None)
                errors.append(traceback.format_exc())
    except _SetupDone:
        pass
    done = time.monotonic()

    result = {
        "enters": clock.enters,
        "calib": clock.calib,
        "starts": clock.starts,
        "done": done,
        "codes": codes,
        "errors": errors,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "package": cli.__file__,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["outside_counts"] = tracer.outside
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:4]))
