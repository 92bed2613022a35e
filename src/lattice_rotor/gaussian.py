"""Exact Gaussian integers and the relation coefficients built from them.

A relation coefficient is a Gaussian integer numerator over a positive
integer denominator, always in lowest terms.  Relation detection forms
coefficients from the integer rows that lattice reduction returns; the
scaling integer M is read from their denominators and exact ell-1
masses, and reports carry their exact "p/q+r/qi" text.  Nothing here
touches floats except the to_mpc conversion of the residual check.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

from mpmath import mpc, mpf

from .precision import Frozen, working_precision


class GaussianInteger(Frozen):
    __slots__ = _fields = ("re", "im")

    def __init__(self, re: int, im: int) -> None:
        if not isinstance(re, int) or not isinstance(im, int):
            raise TypeError("GaussianInteger components must be ints")
        super().__init__(re, im)

    def __mul__(self, other: "GaussianInteger") -> "GaussianInteger":
        return GaussianInteger(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "GaussianInteger":
        return GaussianInteger(-self.re, -self.im)

    def conjugate(self) -> "GaussianInteger":
        return GaussianInteger(self.re, -self.im)

    def norm(self) -> int:
        """Field norm re^2 + im^2 (an ordinary nonnegative integer)."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0


GI_ZERO = GaussianInteger(0, 0)


class GaussianRational(Frozen):
    """num/den with num a Gaussian integer and den a positive int, reduced."""

    __slots__ = _fields = ("num", "den")

    def __init__(self, num: GaussianInteger, den: int) -> None:
        if not isinstance(den, int) or den == 0:
            raise ValueError("denominator must be a nonzero int")
        if den < 0:
            num, den = -num, -den
        g = gcd(gcd(abs(num.re), abs(num.im)), den)
        if g > 1:
            num, den = GaussianInteger(num.re // g, num.im // g), den // g
        super().__init__(num, den)

    @classmethod
    def zero(cls) -> "GaussianRational":
        return cls(GI_ZERO, 1)

    def abs_upper_fraction(self) -> Fraction:
        """Exact rational over-estimate |re| + |im| >= |self|."""
        return Fraction(abs(self.num.re) + abs(self.num.im), self.den)

    def height(self) -> int:
        """max(|num.re|, |num.im|, den) in lowest terms."""
        return max(abs(self.num.re), abs(self.num.im), self.den)

    def to_mpc(self, bits: int) -> mpc:
        with working_precision(bits):
            return mpc(mpf(self.num.re) / self.den, mpf(self.num.im) / self.den)

    def format(self) -> str:
        """Render as "p/q+r/qi" with both parts over the common denominator."""
        p, r, q = self.num.re, self.num.im, self.den
        sign = "+" if r >= 0 else "-"
        return f"{p}/{q}{sign}{abs(r)}/{q}i"


def lcm_int(a: int, b: int) -> int:
    return a * b // gcd(a, b)
