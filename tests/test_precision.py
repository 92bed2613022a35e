import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from lattice_rotor.corelattice import ComplexVector, Rotation
from lattice_rotor.oracle import PlanarIsometry
from lattice_rotor.precision import (
    DEFAULT_PRECISION,
    MIN_PRECISION,
    Frozen,
    check_precision,
    format_complex_pair,
    format_decimal,
    identity_slack,
    magnitude_bits,
    parse_complex_pair,
    parse_decimal,
    raise_for_magnitude,
    residual_tol,
    resolution_bits,
    significant_digits,
    unit_modulus_tol,
    working_precision,
)
from lattice_rotor.relations import GaussianRational
from lattice_rotor.solver import SolverConfig


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
    assert magnitude_bits(mpf(1)) == 1
    assert magnitude_bits(mpf(1024)) == 11
    assert magnitude_bits(mpf(10) ** 9) == 30
    assert magnitude_bits(0.75) == 0
    # just below a power of two, read at the ambient 53 bits
    with working_precision(128):
        below_2_100, below_2_m40 = mpf(2) ** 100 - 1, mpf(2) ** -40 * (1 - mpf(2) ** -80)
    assert magnitude_bits(below_2_100) == 100
    assert magnitude_bits(-(mpf(2) ** 100)) == 101
    assert resolution_bits(below_2_m40) == 41
    assert resolution_bits(mpf(2) ** -40) == 40
    assert resolution_bits(mpf("0.1")) == 4
    assert resolution_bits(mpf(0)) == resolution_bits(mpf(1)) == resolution_bits(3.0) == 0


def _log2_floor_reference(x: mpf, prec: int) -> int:
    """floor(log2 |x|) from mpmath's logarithm at several times the bits
    of a prec-bit x, nudged up by far less than the distance from
    log2 |x| to the next integer below a power of two (at least 2^-prec
    for a prec-bit x), so an exact power of two rounding just under its
    integer still floors to it."""
    with working_precision(4 * prec + 64):
        return int(mpmath.floor(mpmath.log(abs(x), 2) + mpf(2) ** -(prec + 32)))


@st.composite
def binary_values(draw):
    """(x, prec): a prec-bit value 2^k, 2^k one unit in the last place
    either side, or a random prec-bit mantissa at exponent k; k spans
    both sides of 1 and either sign."""
    prec = draw(st.integers(53, 300))
    k = draw(st.integers(-400, 400))
    with working_precision(prec):
        power = mpf(2) ** k
        x = draw(
            st.sampled_from(
                [power, power * (1 - mpf(2) ** -prec), power * (1 + mpf(2) ** (1 - prec))]
            )
            | st.integers(1 << (prec - 1), (1 << prec) - 1).map(
                lambda man: mpf(man) * mpf(2) ** (k - prec)
            )
        )
        x = -x if draw(st.booleans()) else x
    return x, prec


@given(binary_values())
def test_bit_counts_equal_the_exact_floor_log2(value):
    x, prec = value
    e = _log2_floor_reference(x, prec)
    with working_precision(4 * prec):
        assert mpf(2) ** e <= abs(x) < mpf(2) ** (e + 1)
    assert magnitude_bits(x) == max(0, e + 1)
    assert resolution_bits(x) == (-e if e < 0 else 0)


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


def _quarter():
    with working_precision(128):
        return Rotation.from_angle(mpmath.pi / 4, 128)


# each Frozen class of the package: a factory of one value, and a value
# that differs from it in one field
FROZEN_CASES = {
    "Rotation": (_quarter, lambda: Rotation(mpc(0, 1), 128)),
    "ComplexVector": (
        lambda: ComplexVector((mpc(1, 2), mpc(0, 1)), 128),
        lambda: ComplexVector((mpc(1, 2), mpc(0, 1)), 192),
    ),
    "GaussianRational": (lambda: GaussianRational(1, 2, 3), lambda: GaussianRational(1, 2, 5)),
    "SolverConfig": (lambda: SolverConfig(l_cap="1e6"), lambda: SolverConfig(l_cap="1e7")),
    "PlanarIsometry": (
        lambda: PlanarIsometry(_quarter(), False, (mpf("1.25"), mpf("-0.5"))),
        lambda: PlanarIsometry(_quarter(), True, (mpf("0.25"), mpf("0.5"))),
    ),
}


@pytest.mark.parametrize("make, other", FROZEN_CASES.values(), ids=FROZEN_CASES)
def test_frozen_values_compare_and_hash_by_their_fields(make, other):
    a, b, c = make(), make(), other()
    assert isinstance(a, Frozen) and not isinstance(a, tuple)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != c
    assert a != tuple(getattr(a, name) for name in a._fields)
    assert repr(a) == repr(b) and repr(a).startswith(type(a).__name__ + "(")


@pytest.mark.parametrize("make", [m for m, _ in FROZEN_CASES.values()], ids=FROZEN_CASES)
def test_frozen_values_refuse_assignment(make):
    value = make()
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == make()


def test_frozen_values_gain_no_tuple_arithmetic():
    with pytest.raises(TypeError):
        2 * GaussianRational(1, 2, 3)
    with pytest.raises(TypeError):
        GaussianRational(1, 2, 3) + GaussianRational(0, 1, 1)
    with pytest.raises(TypeError):
        len(_quarter())


def test_frozen_values_keep_their_constructors():
    q = GaussianRational(2, -4, -6)
    assert (q.re, q.im, q.den) == (-1, 2, 3)
    assert q.format() == "-1/3+2/3i"
    g = PlanarIsometry(_quarter(), 1, (mpf("1.25"), mpf("-0.5")))
    assert g.reflect is True and g.translation == (mpf("0.25"), mpf("0.5")) and g.bits == 128
    with pytest.raises(TypeError):
        GaussianRational(1.0, 2, 3)
    with pytest.raises(ValueError):
        GaussianRational(1, 2, 0)
    with pytest.raises(ValueError):
        SolverConfig(bits=MIN_PRECISION - 1)
