"""Distance to the Gaussian integer lattice, at configurable precision.

The primitive everything else is built on: for a complex z, frac_dist(z)
is the distance from z to the nearest point of Z[i], computed by rounding
each coordinate to the nearest integer (ties to even) and taking the
hypotenuse of the residuals.  It is a pseudometric identification of C
with the 2-torus: values lie in [0, sqrt(2)/2], rotation by i and
translation by Gaussian integers leave it unchanged, and multiplying by
a Gaussian integer g inflates it by at most |g|.

Complex values are mpmath mpc numbers at an explicit binary precision;
vectors are thin tuples of them.  Callers that feed values of magnitude
2^B must supply at least B + (result bits) precision or the fractional
part is rounding noise; the solver raises its working precision for
exactly this reason.

The exact evaluations here (frac_dist, a vector's entries and max_abs,
a rotation's normalization) call mpmath's libmp functions on the raw
values, at the precision passed in, with round-to-nearest: mpmath's
default, which the package never changes.  Every libmp operation is
correctly rounded at the precision it is given, so these give the same
bits as the mpf/mpc arithmetic they replace run at that precision, and
they open no precision context: their results do not depend on the
ambient precision.
"""
from __future__ import annotations

from typing import Sequence

import mpmath
from mpmath import mpc, mpf
from mpmath.libmp import (
    fone,
    from_float,
    fzero,
    mpc_abs,
    mpc_div_mpf,
    mpc_mul,
    mpc_to_str,
    mpf_abs,
    mpf_gt,
    mpf_hypot,
    mpf_nint,
    mpf_pos,
    mpf_sub,
    prec_to_dps,
    to_int,
)

from .precision import (
    DEFAULT_PRECISION,
    NEAREST,
    Frozen,
    check_precision,
    make_mpc,
    make_mpf,
    unit_modulus_tol,
    working_precision,
)


def _finite_parts(z, bits: int) -> tuple:
    """The raw real and imaginary parts of mpc(z) at `bits`, each rounded
    to `bits`; ValueError unless both are finite."""
    if hasattr(z, "_mpc_"):
        parts = z._mpc_
    elif isinstance(z, complex):
        parts = (from_float(z.real), from_float(z.imag))
    else:
        parts = (mpf(z, prec=bits, rounding=NEAREST)._mpf_, fzero)
    re, im = parts = (mpf_pos(parts[0], bits, NEAREST), mpf_pos(parts[1], bits, NEAREST))
    # a raw value with a zero mantissa and a nonzero exponent is inf or nan
    if (not re[1] and re[2]) or (not im[1] and im[2]):
        raise ValueError(f"non-finite complex value: ({mpc_to_str(parts, prec_to_dps(bits))})")
    return parts


def frac_dist(z, bits: int = DEFAULT_PRECISION) -> mpf:
    """Distance from z to the nearest Gaussian integer.

    Rounds each coordinate half-to-even, so the result is deterministic on
    exact half-integer inputs.  Raises ValueError on non-finite input.
    """
    check_precision(bits)
    re, im = _finite_parts(z, bits)
    dre = mpf_sub(re, mpf_nint(re, bits, NEAREST), bits, NEAREST)
    dim = mpf_sub(im, mpf_nint(im, bits, NEAREST), bits, NEAREST)
    return make_mpf(mpf_hypot(dre, dim, bits, NEAREST))


def vec_frac_dist(entries: Sequence, bits: int = DEFAULT_PRECISION) -> mpf:
    """Largest frac_dist over the entries of a complex vector."""
    entries = tuple(entries)
    if not entries:
        raise ValueError("empty vector")
    return max(frac_dist(z, bits) for z in entries)


def real_dist_to_lattice(coords: Sequence, bits: int = DEFAULT_PRECISION) -> mpf:
    """Euclidean distance from a real vector to the integer lattice Z^n."""
    coords = tuple(coords)
    if not coords:
        raise ValueError("empty vector")
    check_precision(bits)
    with working_precision(bits):
        total = mpf(0)
        for x in coords:
            x = mpf(x)
            if not mpmath.isfinite(x):
                raise ValueError(f"non-finite coordinate: {x}")
            r = x - mpmath.nint(x)
            total += r * r
        return mpmath.sqrt(total)


def nearest_gaussian(z, bits: int = DEFAULT_PRECISION):
    """The rounding target of frac_dist, as a pair of exact integers."""
    check_precision(bits)
    re, im = _finite_parts(z, bits)
    return int(to_int(mpf_nint(re, bits, NEAREST))), int(to_int(mpf_nint(im, bits, NEAREST)))


class Rotation(Frozen):
    """A unit-modulus complex number, renormalized on construction.

    The stored value satisfies | |value| - 1 | <= 2^(-P+4) by dividing out
    the modulus at precision P; composing rotations therefore cannot drift
    away from the unit circle faster than the tolerance ladder allows.
    """

    __slots__ = _fields = ("value", "bits")

    def __init__(self, value: mpc, bits: int = DEFAULT_PRECISION) -> None:
        check_precision(bits)
        v = _finite_parts(value, bits)
        modulus = mpc_abs(v, bits, NEAREST)
        if modulus == fzero:
            raise ValueError("zero has no direction")
        off = mpf_abs(mpf_sub(modulus, fone, bits, NEAREST), bits, NEAREST)
        if mpf_gt(off, unit_modulus_tol(bits)._mpf_):
            v = mpc_div_mpf(v, modulus, bits, NEAREST)
        super().__init__(make_mpc(v), bits)

    @classmethod
    def from_angle(cls, phi, bits: int = DEFAULT_PRECISION) -> "Rotation":
        with working_precision(bits):
            return cls(mpmath.expj(mpf(phi)), bits)

    def __mul__(self, other: "Rotation") -> "Rotation":
        bits = max(self.bits, other.bits)
        return Rotation(make_mpc(mpc_mul(self.value._mpc_, other.value._mpc_, bits, NEAREST)), bits)


class ComplexVector(Frozen):
    """A nonempty tuple of finite complex entries at a shared precision."""

    __slots__ = _fields = ("entries", "bits")

    def __init__(self, entries: tuple, bits: int = DEFAULT_PRECISION) -> None:
        check_precision(bits)
        # every entry is rounded to the vector's own precision
        entries = tuple(make_mpc(_finite_parts(z, bits)) for z in entries)
        if not entries:
            raise ValueError("a complex vector needs at least one entry")
        super().__init__(entries, bits)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, idx):
        return self.entries[idx]

    def max_abs(self) -> mpf:
        return max(make_mpf(mpc_abs(z._mpc_, self.bits, NEAREST)) for z in self.entries)

    def scaled(self, factor) -> "ComplexVector":
        with working_precision(self.bits):
            return ComplexVector(tuple(mpc(factor) * z for z in self.entries), self.bits)
