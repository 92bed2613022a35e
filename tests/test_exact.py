"""The exact evaluations, bit for bit.

frac_dist and its rounding target, a vector's entries and max_abs, a
rotation's normalization and product, lattice_residuals, certify, the
linearization self check, the flow search's candidate check and the
tolerances call mpmath's libmp layer at an explicit precision.  Each is
compared here, on its raw _mpf_/_mpc_ tuples, with a reference that
evaluates the mpf/mpc expressions they replace inside a precision
context, and each must give the same bits whatever precision its caller
holds.
"""

import random

import mpmath
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from mpmath import mpc, mpf, workprec
from mpmath.libmp import finf, fnan, fninf, from_man_exp, mpf_abs, mpf_gt

from lattice_rotor import flowsearch, solver
from lattice_rotor.corelattice import ComplexVector, Rotation, frac_dist, nearest_gaussian
from lattice_rotor.precision import (
    format_decimal,
    identity_slack,
    parse_decimal,
    residual_tol,
    significant_digits,
)
from lattice_rotor.solver import InternalCheckError, certify, lattice_residuals

# --- references: the expressions the package evaluated in a context ---


def _ref_finite(z):
    if not (mpmath.isfinite(z.real) and mpmath.isfinite(z.imag)):
        raise ValueError(f"non-finite complex value: {z}")
    return z


def ref_frac_dist(z, bits):
    with workprec(bits):
        z = _ref_finite(mpc(z))
        dre = z.real - mpmath.nint(z.real)
        dim = z.imag - mpmath.nint(z.imag)
        return mpmath.hypot(dre, dim)


def ref_entries(entries, bits):
    with workprec(bits):
        entries = tuple(mpc(z) for z in entries)
    for z in entries:
        _ref_finite(z)
    return entries


def ref_max_abs(entries, bits):
    with workprec(bits):
        return max(abs(z) for z in entries)


def ref_rotation(value, bits):
    with workprec(bits):
        v = _ref_finite(mpc(value))
        modulus = abs(v)
        if modulus == 0:
            raise ValueError("zero has no direction")
        if abs(modulus - 1) > mpf(2) ** (-bits + 4):
            v = v / modulus
        return v


def ref_lattice_residuals(theta_value, t, entries, bits):
    with workprec(bits):
        tt = mpf(t)
        return tuple(ref_frac_dist(theta_value * tt * z, bits) for z in entries)


def ref_certify(theta_values, t, plane_entries, eval_bits):
    hi = 2 * eval_bits
    per_plane = [ref_lattice_residuals(v, t, e, hi) for v, e in zip(theta_values, plane_entries)]
    with workprec(hi):
        combined = [mpmath.sqrt(sum(r * r for r in rs)) for rs in zip(*per_plane)]
    with workprec(eval_bits):
        per_point = tuple(mpf(v) for v in combined)
        return per_point, max(per_point)


def ref_identity_slack(bits, scale=0):
    with workprec(bits):
        return (mpf(2) ** (-bits + 6)) * (1 + mpf(scale))


def ref_residual_tol(bits):
    with workprec(bits):
        return mpf(2) ** (-(mpf(bits) / 2))


def ref_linearization(theta_value, t, s, entries, L, max_abs, bits):
    """The (error, bound) pairs the self check compares, up to the first
    error over the bound, and the message it then raises, or None."""
    pairs = []
    with workprec(bits):
        bound = L**2 * max_abs / (2 * t) + ref_identity_slack(bits, t * max_abs)
        linear = mpc(t, s)
        for z in entries:
            err = abs(theta_value * t * z - linear * z)
            pairs.append((err._mpf_, bound._mpf_))
            if err > bound:
                return pairs, (
                    "linearization bound violated: "
                    f"|theta*t*z - (t+is)*z| = {mpmath.nstr(err, 10)} exceeds "
                    f"{mpmath.nstr(bound, 10)}"
                )
    return pairs, None


make_mpf, make_mpc = mpmath.mp.make_mpf, mpmath.mp.make_mpc


def raw(x):
    if isinstance(x, (tuple, list)):
        return tuple(raw(v) for v in x)
    return x._mpc_ if hasattr(x, "_mpc_") else x._mpf_


# --- inputs ---

BITS = st.integers(53, 1024)


def _bits_of(draw, width):
    # exactly `width` random bits: hypothesis alone draws wide ranges
    # mostly as small integers
    return random.Random(draw(st.integers(0, 2**32))).getrandbits(width) | (1 << (width - 1))


@st.composite
def reals(draw):
    """Exact values: half-integers, whose rounding ties, and values up to
    2^300 in magnitude whose mantissas may carry far more bits than the
    precision they are evaluated at."""
    sign = draw(st.sampled_from([1, -1]))
    if draw(st.booleans()):
        small = draw(st.booleans())
        k = draw(st.integers(0, 8)) if small else _bits_of(draw, draw(st.integers(1, 299)))
        return make_mpf(from_man_exp(sign * (2 * k + 1), -1))
    width = draw(st.integers(1, 1300))
    exp = draw(st.integers(-width - 600, 300 - width))
    return make_mpf(from_man_exp(sign * _bits_of(draw, width), exp))


complexes = st.builds(lambda a, b: make_mpc((a._mpf_, b._mpf_)), reals(), reals())
# what callers may hand frac_dist, a vector or a rotation besides an mpc
numbers = st.one_of(
    complexes,
    complexes,
    reals(),
    st.integers(-(2**200), 2**200),
    st.floats(allow_nan=False, allow_infinity=False),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    st.builds("{}e{}".format, st.integers(-(10**40), 10**40), st.integers(-90, 90)),
)
non_finite = st.builds(
    lambda bad, good, swap: make_mpc((good._mpf_, bad) if swap else (bad, good._mpf_)),
    st.sampled_from([finf, fninf, fnan]),
    reals(),
    st.booleans(),
)
unit = st.builds(lambda a: mpmath.expj(a), st.floats(0, 6.3))
# abs() would round to the ambient precision
positive = reals().filter(bool).map(lambda x: make_mpf(mpf_abs(x._mpf_)))


# --- bit for bit against the reference ---


@given(numbers, BITS)
def test_frac_dist_and_its_target_match_the_reference(z, bits):
    assert raw(frac_dist(z, bits)) == raw(ref_frac_dist(z, bits))
    with workprec(bits):
        w = mpc(z)
        target = int(mpmath.nint(w.real)), int(mpmath.nint(w.imag))
    assert nearest_gaussian(z, bits) == target


@given(non_finite, BITS)
def test_non_finite_input_raises_on_both_sides(z, bits):
    for new, ref in (
        (frac_dist, ref_frac_dist),
        (lambda v, b: ComplexVector((mpc(1), v), b), lambda v, b: ref_entries((mpc(1), v), b)),
        (Rotation, ref_rotation),
    ):
        with pytest.raises(ValueError):
            ref(z, bits)
        with pytest.raises(ValueError, match="non-finite complex value"):
            new(z, bits)


@given(st.lists(numbers, min_size=1, max_size=4), BITS)
def test_vector_entries_and_max_abs_match_the_reference(entries, bits):
    vec = ComplexVector(tuple(entries), bits)
    want = ref_entries(entries, bits)
    assert raw(vec.entries) == raw(want)
    assert raw(vec.max_abs()) == raw(ref_max_abs(want, bits))


def _near_unit(angle, k, bits):
    # off the unit circle by k*2^(-bits), near the renormalization
    # tolerance 2^(4-bits)
    with workprec(bits + 64):
        return mpmath.expj(angle) * (1 + k * mpf(2) ** -bits)


@st.composite
def rotation_inputs(draw):
    """A precision and two values: anything, a unit value, or one near
    the unit circle."""
    bits = draw(BITS)

    def value():
        kind = draw(st.sampled_from(["number", "unit", "near"]))
        if kind == "number":
            return draw(numbers)
        if kind == "unit":
            return draw(unit)
        return _near_unit(draw(st.floats(0, 6.3)), draw(st.integers(-64, 64)), bits)

    return value(), value(), bits


# one value just inside the tolerance and one just outside it
@example((_near_unit(1.0, 10, 128), _near_unit(2.0, -20, 128), 128))
@given(rotation_inputs())
def test_rotation_and_its_product_match_the_reference(inputs):
    a, b, bits = inputs
    try:
        want_a, want_b = ref_rotation(a, bits), ref_rotation(b, bits)
    except ValueError:
        with pytest.raises(ValueError):
            Rotation(a, bits), Rotation(b, bits)
        return
    ra, rb = Rotation(a, bits), Rotation(b, bits)
    assert (raw(ra.value), raw(rb.value)) == (raw(want_a), raw(want_b))
    with workprec(bits):
        product = ref_rotation(want_a * want_b, bits)
    assert raw((ra * rb).value) == raw(product)


@given(
    st.lists(unit, min_size=1, max_size=3),
    st.one_of(positive, st.sampled_from(["1e20", "12345.678", "0.5"])),
    st.integers(1, 3),
    st.data(),
    BITS,
)
def test_residuals_and_certify_match_the_reference(thetas, t, count, data, eval_bits):
    # planes carried at their own precision, below or above eval_bits
    planes = []
    for _ in thetas:
        entries = data.draw(st.lists(complexes, min_size=count, max_size=count))
        planes.append(ComplexVector(tuple(entries), data.draw(BITS)))
    rotations = [Rotation(th, eval_bits) for th in thetas]
    values = [r.value for r in rotations]
    for r, plane in zip(rotations, planes):
        assert raw(lattice_residuals(r, t, plane, 2 * eval_bits)) == raw(
            ref_lattice_residuals(r.value, t, plane.entries, 2 * eval_bits)
        )
    got = certify(rotations, t, planes, eval_bits)
    assert raw(got) == raw(ref_certify(values, t, [p.entries for p in planes], eval_bits))


@given(
    st.lists(complexes, min_size=1, max_size=3),
    positive,
    reals(),
    positive,
    st.booleans(),
    unit,
    BITS,
    BITS,
)
def test_linearization_check_matches_the_reference(
    entries, t, s, L, true_theta, other, vec_bits, bits
):
    vec = ComplexVector(tuple(entries), vec_bits)
    with workprec(bits):
        # the rotation the check is made for, or an unrelated one
        theta = Rotation(mpmath.expj(s / t) if true_theta else other, bits)
    max_abs = vec.max_abs()
    pairs, message = ref_linearization(theta.value, t, s, vec.entries, L, max_abs, bits)
    # the check compares each error with the bound through solver's mpf_gt
    compared = []

    def recording_gt(a, b):
        compared.append((a, b))
        return mpf_gt(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "mpf_gt", recording_gt)
        if message is None:
            solver._check_linearization(theta, t, s, vec, L, max_abs, bits)
        else:
            with pytest.raises(InternalCheckError) as info:
                solver._check_linearization(theta, t, s, vec, L, max_abs, bits)
            assert str(info.value) == message
    assert compared == pairs


@given(BITS, st.one_of(reals(), st.floats(0, 1e300)))
def test_tolerances_match_the_reference(bits, scale):
    assert raw(residual_tol(bits)) == raw(ref_residual_tol(bits))
    assert raw(identity_slack(bits, scale)) == raw(ref_identity_slack(bits, scale))


@given(numbers.filter(lambda x: not isinstance(x, complex) and not hasattr(x, "_mpc_")), BITS)
def test_parsing_and_formatting_match_the_reference(x, bits):
    with workprec(bits):
        want = mpf(x)
        text = mpmath.nstr(want, significant_digits(bits), strip_zeros=False)
    assert raw(parse_decimal(x, bits)) == raw(want)
    assert format_decimal(x, bits) == text


@pytest.mark.parametrize(
    "t",
    # an unscaled flow, and one whose offset -i*t*V raises the evaluation
    # precision past the vector's
    ["0", "1e30"],
)
def test_flow_search_checks_its_hit_as_the_reference(monkeypatch, t):
    checked = []
    real_frac_dist = flowsearch.frac_dist

    def recording(z, bits):
        checked.append((z, bits))
        return real_frac_dist(z, bits)

    monkeypatch.setattr(flowsearch, "frac_dist", recording)
    bits = 128
    with workprec(bits):
        direction = ComplexVector((mpmath.expj(1), mpmath.expj(2.5) * mpmath.sqrt(2) / 3), bits)
        offset = ComplexVector(tuple(mpc("0.1", "-0.4") - mpc(0, t) * z for z in direction), bits)
        eps = mpf("0.05")
    out = flowsearch.flow_search(direction, offset, eps, mpf("1e5"), bits=bits)
    assert out.found and out.grid_index > 0
    last = checked[-len(direction):]
    (bits_eval,) = {b for _, b in last}
    assert (bits_eval > bits) == (t != "0")
    with workprec(bits_eval):
        delta = eps / (4 * ref_max_abs(direction.entries, bits))
        s = mpf(out.grid_index) * delta
        points = [zw + s * zv for zv, zw in zip(direction, offset)]
    assert raw(out.s) == raw(s)
    assert tuple(raw(z) for z, _ in last) == raw(points)


# --- the ambient precision changes nothing ---

AMBIENT = (None, 53, 3000)


def _under(prec, fn):
    if prec is None:
        return fn()
    with workprec(prec):
        return fn()


def _outcome(fn):
    try:
        fn()
    except InternalCheckError as exc:
        return str(exc)
    return None


@given(
    st.lists(complexes, min_size=1, max_size=3),
    unit,
    positive,
    reals(),
    positive,
    BITS,
)
def test_exact_evaluations_ignore_the_ambient_precision(entries, theta, t, s, L, bits):
    def evaluate():
        vec = ComplexVector(tuple(entries), bits)
        rotation = Rotation(theta, bits)
        max_abs = vec.max_abs()
        return (
            raw(vec.entries),
            raw(max_abs),
            raw(frac_dist(entries[0], bits)),
            raw(lattice_residuals(rotation, t, vec, bits)),
            raw(certify([rotation], t, [vec], bits)),
            _outcome(lambda: solver._check_linearization(rotation, t, s, vec, L, max_abs, bits)),
        )

    outside, low, high = (_under(prec, evaluate) for prec in AMBIENT)
    assert outside == low == high


@pytest.mark.parametrize("bits", [128, 129, 255, 256])
def test_tolerances_do_not_depend_on_the_ambient_precision(bits):
    scale = mpf(10) ** 30 / 3
    for fn in (lambda: residual_tol(bits), lambda: identity_slack(bits, scale)):
        with workprec(20):
            low = fn()
        with workprec(300):
            high = fn()
        assert low._mpf_ == high._mpf_ == fn()._mpf_
