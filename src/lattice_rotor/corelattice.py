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
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import mpmath
from mpmath import mpc, mpf

from .precision import (
    DEFAULT_PRECISION,
    check_precision,
    unit_modulus_tol,
    working_precision,
)

def _require_finite_complex(z: mpc) -> mpc:
    z = mpc(z)
    if not (mpmath.isfinite(z.real) and mpmath.isfinite(z.imag)):
        raise ValueError(f"non-finite complex value: {z}")
    return z


def frac_dist(z, bits: int = DEFAULT_PRECISION) -> mpf:
    """Distance from z to the nearest Gaussian integer.

    Rounds each coordinate half-to-even, so the result is deterministic on
    exact half-integer inputs.  Raises ValueError on non-finite input.
    """
    check_precision(bits)
    with working_precision(bits):
        z = _require_finite_complex(z)
        dre = z.real - mpmath.nint(z.real)
        dim = z.imag - mpmath.nint(z.imag)
        return mpmath.hypot(dre, dim)


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
    with working_precision(bits):
        z = _require_finite_complex(z)
        return int(mpmath.nint(z.real)), int(mpmath.nint(z.imag))


@dataclass(frozen=True)
class Rotation:
    """A unit-modulus complex number, renormalized on construction.

    The stored value satisfies | |value| - 1 | <= 2^(-P+4) by dividing out
    the modulus at precision P; composing rotations therefore cannot drift
    away from the unit circle faster than the tolerance ladder allows.
    """

    value: mpc
    bits: int = DEFAULT_PRECISION

    def __post_init__(self) -> None:
        check_precision(self.bits)
        with working_precision(self.bits):
            v = _require_finite_complex(self.value)
            modulus = abs(v)
            if modulus == 0:
                raise ValueError("zero has no direction")
            if abs(modulus - 1) > unit_modulus_tol(self.bits):
                v = v / modulus
            object.__setattr__(self, "value", v)

    @classmethod
    def from_angle(cls, phi, bits: int = DEFAULT_PRECISION) -> "Rotation":
        with working_precision(bits):
            return cls(mpmath.expj(mpf(phi)), bits)

    def angle(self) -> mpf:
        with working_precision(self.bits):
            return mpmath.arg(self.value)

    def __mul__(self, other: "Rotation") -> "Rotation":
        bits = max(self.bits, other.bits)
        with working_precision(bits):
            return Rotation(self.value * other.value, bits)

    def apply(self, z) -> mpc:
        with working_precision(self.bits):
            return self.value * mpc(z)


@dataclass(frozen=True)
class ComplexVector:
    """A nonempty tuple of finite complex entries at a shared precision."""

    entries: tuple
    bits: int = DEFAULT_PRECISION

    def __post_init__(self) -> None:
        check_precision(self.bits)
        # conversion must run at the vector's own precision: mpc() rounds
        # to the ambient working precision, which defaults to 53 bits
        with working_precision(self.bits):
            entries = tuple(mpc(z) for z in self.entries)
        if not entries:
            raise ValueError("a complex vector needs at least one entry")
        for z in entries:
            _require_finite_complex(z)
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, idx):
        return self.entries[idx]

    def max_abs(self) -> mpf:
        with working_precision(self.bits):
            return max(abs(z) for z in self.entries)

    def scaled(self, factor) -> "ComplexVector":
        with working_precision(self.bits):
            return ComplexVector(tuple(mpc(factor) * z for z in self.entries), self.bits)

    def frac_dist(self) -> mpf:
        return vec_frac_dist(self.entries, self.bits)
