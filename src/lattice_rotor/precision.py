"""Working-precision plumbing shared by every numeric stage.

All arithmetic runs on mpmath floats at an explicit binary precision P
(bits of mantissa).  Every tolerance used anywhere in the package is a
function of P, never a bare literal, so that raising P tightens the whole
pipeline coherently.  Reported values are decimal strings carrying
ceil(P*log10(2)) significant digits; doubles appear only in throwaway
search phases whose results are always re-verified at full precision.
The flow search's window targets are fixed-point integers, carrying 64
fractional bits past P, and only their final residues become doubles.
Tolerances, parsing and formatting take P as an argument and never read
mpmath's global precision: they call mpmath's libmp layer, or mpf with
an explicit prec, at P with round-to-nearest (NEAREST, mpmath's default,
which the package never changes), so they return the same bits whatever
precision the caller holds.
Bit counts of a value (magnitude_bits, resolution_bits) are read off its
exact binary exponent, never off a rounded logarithm.  The package's
validated values (rotations, vectors, Gaussian numbers, isometries,
solver settings) share one immutable base, Frozen.
"""
from __future__ import annotations

import math

import mpmath
from mpmath import mpc, mpf
from mpmath.libmp import (
    fone,
    from_int,
    from_man_exp,
    mpf_add,
    mpf_pow,
    mpf_shift,
    round_nearest,
)

DEFAULT_PRECISION = 128

# the rounding of every explicit-precision evaluation in the package
NEAREST = round_nearest
# a raw libmp value as an mpf or mpc object, rounding nothing
make_mpf = mpmath.mp.make_mpf
make_mpc = mpmath.mp.make_mpc

# below this, double arithmetic would be just as good and the certified
# tolerances stop making sense
MIN_PRECISION = 53


def check_precision(bits: int) -> int:
    if not isinstance(bits, int) or bits < MIN_PRECISION:
        raise ValueError(f"precision must be an integer >= {MIN_PRECISION}, got {bits!r}")
    return bits


def working_precision(bits: int):
    """Scope mpmath's global precision to exactly `bits` mantissa bits: a
    context manager, with `bits` checked when it is made."""
    return mpmath.workprec(check_precision(bits))


def unit_modulus_tol(bits: int) -> mpf:
    """Largest |1 - |theta|| tolerated before a rotation is renormalized."""
    return make_mpf(mpf_shift(fone, 4 - bits))


def identity_slack(bits: int, scale: float | mpf = 0) -> mpf:
    """Slack 2^(6-P) * (1 + scale) for exact metric identities evaluated at
    `bits`, on inputs of the given magnitude; scale and the sum are
    rounded at `bits`."""
    check_precision(bits)
    scale_v = mpf(scale, prec=bits, rounding=NEAREST)._mpf_
    return make_mpf(mpf_shift(mpf_add(scale_v, fone, bits, NEAREST), 6 - bits))


def residual_tol(bits: int) -> mpf:
    """Certification threshold 2^(-P/2) for detected rational relations and
    for the a-posteriori slack on achieved solves, rounded at P bits (an
    odd P makes it irrational)."""
    check_precision(bits)
    return make_mpf(mpf_pow(from_int(2), from_man_exp(-bits, -1), bits, NEAREST))


def significant_digits(bits: int) -> int:
    # two guard digits past ceil(bits*log10(2)) make decimal round trips
    # recover the binary value exactly
    return int(math.ceil(bits * math.log10(2))) + 2


def parse_decimal(text: str, bits: int) -> mpf:
    """Parse a decimal string to an mpf at `bits` precision.

    The string is the interface unit of the package: JSON inputs and
    outputs carry decimals, never binary floats.
    """
    check_precision(bits)
    try:
        value = mpf(text.strip() if isinstance(text, str) else text, prec=bits, rounding=NEAREST)
    except Exception as exc:
        raise ValueError(f"not a decimal number: {text!r}") from exc
    if not mpmath.isfinite(value):
        raise ValueError(f"non-finite value not allowed: {text!r}")
    return value


def format_decimal(value: mpf | float, bits: int) -> str:
    """Render a real value as a decimal string at the precision's digit count."""
    check_precision(bits)
    value = mpf(value, prec=bits, rounding=NEAREST)
    return mpmath.nstr(value, significant_digits(bits), strip_zeros=False)


def parse_complex_pair(pair, bits: int) -> mpc:
    """Parse a [re, im] pair of decimal strings to an mpc."""
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"expected a [re, im] pair, got {pair!r}")
    re = parse_decimal(pair[0], bits)
    im = parse_decimal(pair[1], bits)
    return make_mpc((re._mpf_, im._mpf_))


def format_complex_pair(z: mpc, bits: int) -> list[str]:
    return [format_decimal(z.real, bits), format_decimal(z.imag, bits)]


def _mag(value: mpf | float) -> int:
    """floor(log2 |value|) + 1 for a nonzero value, by mpmath.mag, which
    reads an mpf's exact exponent and mantissa length (never rounding it
    to the ambient precision) and converts a float exactly."""
    bits = mpmath.mag(value)
    if not isinstance(bits, int):
        raise ValueError(f"non-finite value has no bit count: {value!r}")
    return bits


def magnitude_bits(value: mpf | float) -> int:
    """Bits needed left of the binary point to hold |value|."""
    return max(0, _mag(value)) if value else 0


def resolution_bits(eps: mpf | float) -> int:
    """Bits right of the binary point needed to resolve a gap of size eps."""
    return max(0, 1 - _mag(eps)) if eps else 0


def below_half_sqrt2(eps: mpf) -> bool:
    """Whether 0 < eps < sqrt(2)/2, decided on eps's exact binary value:
    eps = man * 2^exp lies below sqrt(2)/2 exactly when 2*man^2 < 2^(-2*exp),
    so no rounding of sqrt(2)/2 can let an eps on or above it through."""
    sign, man, exp, _ = eps._mpf_
    return not sign and man > 0 and (2 * man * man).bit_length() <= -2 * exp


def raise_for_magnitude(base_bits: int, largest: mpf | float, eps: mpf | float) -> int:
    """Precision needed to resolve fractional parts of size eps on values
    as large as `largest`.

    Dilations in this package routinely reach 10^40 and beyond; a fixed
    128-bit mantissa cannot even represent the fractional part of such a
    product.  Stages that evaluate lattice distances of t-scaled points
    raise their working precision with this rule and report having done so.
    """
    need = magnitude_bits(largest) + resolution_bits(eps) + 48
    return max(base_bits, need)


class Frozen:
    """Base of the package's validated immutable values.

    A subclass names its fields once, as `__slots__ = _fields = (...)`,
    checks and normalizes its arguments in __init__ and hands the
    results, in field order, to Frozen.__init__.  An instance then
    refuses assignment and deletion, and compares, hashes and prints by
    its fields.  It is no tuple, so a subclass that defines * or +
    gains no repetition or concatenation.
    """

    __slots__ = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"
