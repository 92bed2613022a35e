import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp, mpf

from lattice_rotor.precision import (
    DEFAULT_PRECISION,
    MIN_PRECISION,
    check_precision,
    format_complex_pair,
    format_decimal,
    identity_slack,
    magnitude_bits,
    parse_complex_pair,
    parse_decimal,
    raise_for_magnitude,
    residual_tol,
    significant_digits,
    unit_modulus_tol,
    working_precision,
)


def test_min_precision_enforced():
    check_precision(MIN_PRECISION)
    check_precision(DEFAULT_PRECISION)
    with pytest.raises(ValueError):
        check_precision(MIN_PRECISION - 1)
    with pytest.raises(ValueError):
        check_precision(0)


def test_working_precision_restores_ambient():
    before = mp.prec
    with working_precision(301):
        assert mp.prec == 301
    assert mp.prec == before


def test_working_precision_restores_on_error():
    before = mp.prec
    with pytest.raises(RuntimeError):
        with working_precision(200):
            raise RuntimeError("boom")
    assert mp.prec == before


def test_working_precision_refuses_too_few_bits():
    before = mp.prec
    with pytest.raises(ValueError, match="precision must be an integer >= 53"):
        with working_precision(52):
            raise AssertionError("entered a 52-bit scope")
    assert mp.prec == before


def test_tolerance_ladder_values():
    assert unit_modulus_tol(128) == mpf(2) ** -124
    assert identity_slack(128) == mpf(2) ** -122
    assert identity_slack(128, scale=3) == (mpf(2) ** -122) * 4
    assert residual_tol(128) == mpf(2) ** -64
    assert residual_tol(256) == mpf(2) ** -128


def test_significant_digits_grows_with_bits():
    assert significant_digits(53) >= 17
    assert significant_digits(128) >= 40
    assert significant_digits(256) > significant_digits(128)


@pytest.mark.parametrize("bits", [53, 128, 256])
def test_decimal_round_trip_exact(bits):
    import random

    rng = random.Random(bits)
    with working_precision(bits):
        for _ in range(40):
            mantissa = rng.getrandbits(bits) | 1
            exponent = rng.randint(-40, 40)
            x = mpf(mantissa) * mpf(2) ** (exponent - bits)
            if rng.random() < 0.5:
                x = -x
            text = format_decimal(x, bits)
            assert isinstance(text, str)
            assert parse_decimal(text, bits) == x


def test_decimal_round_trip_special_values():
    for literal in ("0", "1", "-1", "0.5", "1e-30", "12345.678"):
        x = parse_decimal(literal, 128)
        assert parse_decimal(format_decimal(x, 128), 128) == x


def test_parse_decimal_rejects_garbage():
    for bad in ("", "abc", "1.2.3", "0x10", None, object()):
        with pytest.raises((ValueError, TypeError)):
            parse_decimal(bad, 128)


def test_complex_pair_round_trip():
    with working_precision(128):
        z = mpmath.mpc(mpf(1) / 3, -mpf(7) / 11)
    pair = format_complex_pair(z, 128)
    assert isinstance(pair, (list, tuple)) and len(pair) == 2
    back = parse_complex_pair(pair, 128)
    assert back == z


def test_magnitude_bits_scale():
    assert magnitude_bits(mpf(0)) == 0
    assert magnitude_bits(mpf(1)) <= 1
    assert magnitude_bits(mpf(1024)) >= 10
    assert magnitude_bits(mpf(10) ** 9) >= 29


def test_raise_for_magnitude_monotone():
    base = 128
    small = raise_for_magnitude(base, mpf(1), mpf("0.1"))
    big = raise_for_magnitude(base, mpf(10) ** 30, mpf("0.1"))
    fine = raise_for_magnitude(base, mpf(1), mpf("1e-30"))
    assert small >= base
    assert big > small
    assert fine > small


@given(st.integers(min_value=-(10**12), max_value=10**12), st.integers(min_value=-30, max_value=30))
def test_format_parse_identity_dyadic(n, e):
    x = mpf(n) * mpf(2) ** e
    assert parse_decimal(format_decimal(x, 128), 128) == x
