"""Digest every report and SVG one of the benchmark's pools writes.

Builds each input set of the pool's workloads with perfbench/workloads.py:
the solve pool is readme-solve, planted-solve and block-solve, the
oracle pool is oracle-sweep (tau, prop-sep and covering).  It runs their
CLI calls through lattice_rotor.cli.main in this one process, as the
benchmark's child does, and prints the number of reports and SVGs the
calls wrote (their --output and --plot paths) and one sha256 over their
paths (relative to the work directory) and bytes, in sorted path order.
Two trees that print the same digest wrote byte-identical artifacts.
The package is imported from this checkout's src/.  With --expect, a
digest other than the expected one prints both and exits 1;
tests/data/pool_digest.json records the digests of sets 0 and 1, the
solve pool's at the top level and the oracle pool's under "oracle",
and the whole solve pool's under "all_sets", which only a declared
artifact change may re-record.

Usage:
    python3 scripts/pool_digest.py
    python3 scripts/pool_digest.py --sets 0,1 --workdir /tmp/pool
    python3 scripts/pool_digest.py --sets 0,1 --expect 147b075c...
    python3 scripts/pool_digest.py --pool oracle --sets 0,1
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from lattice_rotor import cli  # noqa: E402

POOLS = {
    "solve": ("readme-solve", "planted-solve", "block-solve"),
    "oracle": ("oracle-sweep",),
}


def digest(workdir: Path, sets, pool: str = "solve") -> tuple:
    """Run the pool's input sets under workdir; return the count of the
    artifacts their calls wrote and the artifacts' digest."""
    written = set()
    for workload in POOLS[pool]:
        for iid in sets:
            job = workloads.build(workload, iid, workdir / workload / str(iid))
            for argv in job["calls"]:
                code = cli.main(argv)
                if code != 0:
                    raise SystemExit(f"{workload} set {iid}: {argv[0]} exited {code}")
                written.update(
                    argv[i + 1] for i, flag in enumerate(argv[:-1]) if flag in ("--output", "--plot")
                )
    paths = sorted(Path(p).relative_to(workdir).as_posix() for p in written)
    h = hashlib.sha256()
    for rel in paths:
        h.update(rel.encode("utf-8") + b"\0")
        h.update((workdir / rel).read_bytes())
    return len(paths), h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pool", choices=sorted(POOLS), default="solve", help="which workloads to run (default: solve)")
    ap.add_argument("--sets", default=None, help="comma-separated input set ids (default: the whole pool)")
    ap.add_argument("--workdir", default=None, help="directory for specs and artifacts (default: a temporary one)")
    ap.add_argument("--expect", default=None, metavar="HEX", help="exit 1 unless the digest is this sha256")
    args = ap.parse_args(argv)
    sets = [int(s) for s in args.sets.split(",")] if args.sets else range(workloads.POOL)

    if args.workdir:
        count, hexdigest = digest(Path(args.workdir), sets, args.pool)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            count, hexdigest = digest(Path(tmp), sets, args.pool)
    print(f"{count} files")
    print(f"sha256 {hexdigest}")
    if args.expect is not None and args.expect != hexdigest:
        print(f"digest mismatch: expected sha256 {args.expect}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
