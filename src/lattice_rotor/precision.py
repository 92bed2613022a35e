"""Working-precision plumbing shared by every numeric stage.

All arithmetic runs on mpmath floats at an explicit binary precision P
(bits of mantissa).  Every tolerance used anywhere in the package is a
function of P, never a bare literal, so that raising P tightens the whole
pipeline coherently.  Reported values are decimal strings carrying
ceil(P*log10(2)) significant digits; doubles appear only in throwaway
search phases whose results are always re-verified at full precision.
"""
from __future__ import annotations

import math

import mpmath
from mpmath import mpc, mpf

DEFAULT_PRECISION = 128

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
    return mpf(2) ** (-bits + 4)


def identity_slack(bits: int, scale: float | mpf = 0) -> mpf:
    """Slack for exact metric identities evaluated at `bits`, on inputs of
    the given magnitude."""
    return (mpf(2) ** (-bits + 6)) * (1 + mpf(scale))


def residual_tol(bits: int) -> mpf:
    """Certification threshold 2^(-P/2) for detected rational relations and
    for the a-posteriori slack on achieved solves."""
    return mpf(2) ** (-(mpf(bits) / 2))


def significant_digits(bits: int) -> int:
    # two guard digits past ceil(bits*log10(2)) make decimal round trips
    # recover the binary value exactly
    return int(math.ceil(bits * math.log10(2))) + 2


def parse_decimal(text: str, bits: int) -> mpf:
    """Parse a decimal string to an mpf at `bits` precision.

    The string is the interface unit of the package: JSON inputs and
    outputs carry decimals, never binary floats.
    """
    with working_precision(bits):
        try:
            value = mpf(text.strip()) if isinstance(text, str) else mpf(text)
        except Exception as exc:
            raise ValueError(f"not a decimal number: {text!r}") from exc
    if not mpmath.isfinite(value):
        raise ValueError(f"non-finite value not allowed: {text!r}")
    return value


def format_decimal(value: mpf | float, bits: int) -> str:
    """Render a real value as a decimal string at the precision's digit count."""
    with working_precision(bits):
        return mpmath.nstr(mpf(value), significant_digits(bits), strip_zeros=False)


def parse_complex_pair(pair, bits: int) -> mpc:
    """Parse a [re, im] pair of decimal strings to an mpc."""
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"expected a [re, im] pair, got {pair!r}")
    re = parse_decimal(pair[0], bits)
    im = parse_decimal(pair[1], bits)
    with working_precision(bits):
        return mpc(re, im)


def format_complex_pair(z: mpc, bits: int) -> list[str]:
    return [format_decimal(z.real, bits), format_decimal(z.imag, bits)]


def magnitude_bits(value: mpf | float) -> int:
    """Bits needed left of the binary point to hold |value|."""
    v = abs(mpf(value))
    if v == 0:
        return 0
    return max(0, int(mpmath.floor(mpmath.log(v, 2))) + 1)


def resolution_bits(eps: mpf | float) -> int:
    """Bits right of the binary point needed to resolve a gap of size eps."""
    e = abs(mpf(eps))
    if e == 0 or e >= 1:
        return 0
    return -int(mpmath.floor(mpmath.log(e, 2)))


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
