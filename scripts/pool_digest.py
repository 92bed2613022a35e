"""Digest every report and SVG the benchmark's solve pool writes.

Builds each input set of readme-solve, planted-solve and block-solve
with perfbench/workloads.py, runs its CLI calls through
lattice_rotor.cli.main in this one process, as the benchmark's child
does, and prints the number of reports and SVGs written and one sha256
over their paths (relative to the work directory) and bytes, in sorted
path order.  Two trees that print the same digest wrote byte-identical
solve artifacts.  The package is imported from this checkout's src/.
With --expect, a digest other than the expected one prints both and
exits 1; tests/data/pool_digest.json records the digest of sets 0 and 1,
which only a declared artifact change may re-record.

Usage:
    python3 scripts/pool_digest.py
    python3 scripts/pool_digest.py --sets 0,1 --workdir /tmp/pool
    python3 scripts/pool_digest.py --sets 0,1 --expect 147b075c...
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

SOLVE_WORKLOADS = ("readme-solve", "planted-solve", "block-solve")


def digest(workdir: Path, sets) -> tuple:
    """Run the solve workloads' input sets under workdir; return the
    artifact count and their digest."""
    for workload in SOLVE_WORKLOADS:
        for iid in sets:
            job = workloads.build(workload, iid, workdir / workload / str(iid))
            for argv in job["calls"]:
                code = cli.main(argv)
                if code != 0:
                    raise SystemExit(f"{workload} set {iid}: {argv[0]} exited {code}")
    paths = sorted(
        p.relative_to(workdir).as_posix()
        for p in workdir.rglob("*")
        if p.suffix == ".svg" or p.name.startswith("report")
    )
    h = hashlib.sha256()
    for rel in paths:
        h.update(rel.encode("utf-8") + b"\0")
        h.update((workdir / rel).read_bytes())
    return len(paths), h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", default=None, help="comma-separated input set ids (default: the whole pool)")
    ap.add_argument("--workdir", default=None, help="directory for specs and artifacts (default: a temporary one)")
    ap.add_argument("--expect", default=None, metavar="HEX", help="exit 1 unless the digest is this sha256")
    args = ap.parse_args(argv)
    sets = [int(s) for s in args.sets.split(",")] if args.sets else range(workloads.POOL)

    if args.workdir:
        count, hexdigest = digest(Path(args.workdir), sets)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            count, hexdigest = digest(Path(tmp), sets)
    print(f"{count} files")
    print(f"sha256 {hexdigest}")
    if args.expect is not None and args.expect != hexdigest:
        print(f"digest mismatch: expected sha256 {args.expect}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
