"""Sweep the embedding-infimum upper bound across dilations.

Default configuration is the unit equilateral triangle; the upper bound
should drift toward zero as the dilation grows.  Each row reports the
grid optimum and its Lipschitz-certified lower companion.  Reflections
need no flag: the sweep reaches them through the lattice's conjugation
symmetry (see lattice_rotor.oracle).

Usage:
    python3 scripts/convergence_sweep.py
    python3 scripts/convergence_sweep.py --t 1,2,5,10,20,40 --grid 800 --csv out.csv
"""

import argparse
import sys

import mpmath
from mpmath import mpc, mpf

from lattice_rotor.corelattice import ComplexVector
from lattice_rotor.oracle import tau_estimate
from lattice_rotor.precision import format_decimal, working_precision
from lattice_rotor.reporting import tau_csv


def triangle(bits: int) -> ComplexVector:
    with working_precision(bits):
        w = mpmath.expjpi(mpf(2) / 3)
        return ComplexVector((mpc(1), w, w * w), bits)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--t", default="1,2,5,10,20", help="comma-separated dilations")
    ap.add_argument("--grid", type=int, default=400, help="rotation and translation grid")
    ap.add_argument("--bits", type=int, default=128)
    ap.add_argument("--csv", help="write t,upper,certified_lower rows here")
    args = ap.parse_args(argv)

    base = triangle(args.bits)
    rows = []
    print(f"{'t':>10}  {'upper':>14}  {'certified_lower':>16}")
    for t_str in args.t.split(","):
        t_str = t_str.strip()
        with working_precision(args.bits):
            t_v = mpmath.mpmathify(t_str)
            scaled = base.scaled(t_v)
        est = tau_estimate(scaled, args.grid, args.grid, bits=args.bits)
        print(
            f"{t_str:>10}  {mpmath.nstr(est.upper, 8):>14}  "
            f"{mpmath.nstr(est.certified_lower, 8):>16}"
        )
        rows.append(
            (
                t_str,
                format_decimal(est.upper, args.bits),
                format_decimal(est.certified_lower, args.bits),
            )
        )
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(tau_csv(rows))
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
