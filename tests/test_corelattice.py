import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mpc, mpf

from lattice_rotor.corelattice import (
    ComplexVector,
    Rotation,
    frac_dist,
    nearest_gaussian,
    real_dist_to_lattice,
    vec_frac_dist,
)
from lattice_rotor.precision import identity_slack, unit_modulus_tol, working_precision

BITS = 128
TIGHT = mpf(2) ** -120


def _c(re, im=0):
    with working_precision(BITS):
        return mpc(mpf(re), mpf(im))


finite_complex = st.builds(
    _c,
    st.floats(min_value=-1000, max_value=1000, allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1000, max_value=1000, allow_nan=False, allow_infinity=False),
)


class TestFracDist:
    def test_zero(self):
        assert frac_dist(_c(0), BITS) == 0

    def test_half_half_corner(self):
        with working_precision(BITS):
            expected = mpmath.sqrt(mpf(2)) / 2
        assert abs(frac_dist(_c("0.5", "0.5"), BITS) - expected) < TIGHT

    def test_generic_point(self):
        # 3.25 - 1.9i sits 0.25 and 0.1 away from the nearest integers
        got = frac_dist(_c("3.25", "-1.9"), BITS)
        with working_precision(BITS):
            expected = mpmath.sqrt(mpf("0.0725"))
        assert abs(got - expected) < TIGHT

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            frac_dist(mpc(mpf("inf"), 0), BITS)
        with pytest.raises(ValueError):
            frac_dist(mpc(mpf("nan"), 0), BITS)

    @given(finite_complex)
    def test_range(self, z):
        d = frac_dist(z, BITS)
        with working_precision(BITS):
            bound = mpmath.sqrt(mpf(2)) / 2 + TIGHT
        assert 0 <= d <= bound

    @given(finite_complex)
    def test_quarter_turn_invariance(self, z):
        slack = identity_slack(BITS, scale=abs(z))
        assert abs(frac_dist(_c(0, 1) * z, BITS) - frac_dist(z, BITS)) <= slack

    @given(finite_complex, st.integers(-50, 50), st.integers(-50, 50))
    def test_gaussian_translation_invariance(self, z, a, b):
        # the shift itself must not round, or the identity drowns in noise
        with working_precision(BITS):
            slack = identity_slack(BITS, scale=abs(z) + abs(a) + abs(b))
            shifted = z + mpc(a, b)
        assert abs(frac_dist(shifted, BITS) - frac_dist(z, BITS)) <= slack

    @given(finite_complex, finite_complex)
    def test_subadditive(self, x, y):
        with working_precision(BITS):
            slack = identity_slack(BITS, scale=abs(x) + abs(y))
            total = x + y
        lhs = frac_dist(total, BITS)
        with working_precision(BITS):
            rhs = frac_dist(x, BITS) + frac_dist(y, BITS) + slack
        assert lhs <= rhs

    @given(
        finite_complex,
        st.integers(min_value=-10, max_value=10),
        st.integers(min_value=-10, max_value=10),
    )
    def test_gaussian_contraction(self, u, gre, gim):
        with working_precision(BITS):
            g = mpc(gre, gim)
            slack = identity_slack(BITS, scale=(1 + abs(g)) * (1 + abs(u)))
            gu = g * u
        lhs = frac_dist(gu, BITS)
        with working_precision(BITS):
            rhs = abs(g) * frac_dist(u, BITS) + slack
        assert lhs <= rhs


class TestNearestGaussian:
    def test_rounds_each_coordinate(self):
        assert nearest_gaussian(_c("3.25", "-1.9"), BITS) == (3, -2)
        assert nearest_gaussian(_c("-0.49", "0.49"), BITS) == (0, 0)

    def test_ties_go_to_even(self):
        assert nearest_gaussian(_c("0.5", "1.5"), BITS) == (0, 2)
        assert nearest_gaussian(_c("-2.5", "-0.5"), BITS) == (-2, 0)


class TestVecFracDist:
    def test_all_zero(self):
        assert vec_frac_dist((_c(0), _c(0)), BITS) == 0

    def test_max_of_coordinates(self):
        got = vec_frac_dist((_c("0.5", "0.5"), _c(0)), BITS)
        with working_precision(BITS):
            expected = mpmath.sqrt(mpf(2)) / 2
        assert abs(got - expected) < TIGHT

    def test_mixed_entries(self):
        got = vec_frac_dist((_c("0.1"), _c(0, "0.2"), _c("1.3")), BITS)
        with working_precision(BITS):
            expected = mpf("0.3")
        assert abs(got - expected) < TIGHT

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            vec_frac_dist((), BITS)

    @given(st.lists(finite_complex, min_size=1, max_size=4))
    def test_matches_entrywise_max(self, zs):
        expected = max(frac_dist(z, BITS) for z in zs)
        assert abs(vec_frac_dist(tuple(zs), BITS) - expected) <= TIGHT


class TestRealDistToLattice:
    def test_deep_hole(self):
        coords = tuple(mpf("0.5") for _ in range(4))
        assert abs(real_dist_to_lattice(coords, BITS) - 1) < TIGHT

    def test_integer_point(self):
        assert real_dist_to_lattice((mpf(1), mpf(2), mpf(-3)), BITS) == 0

    def test_plane_pair(self):
        with working_precision(BITS):
            coords = (mpf("0.3"), mpf("-0.1"))
            expected = mpmath.sqrt(mpf("0.10"))
        got = real_dist_to_lattice(coords, BITS)
        assert abs(got - expected) < TIGHT

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            real_dist_to_lattice((), BITS)

    @given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=6))
    def test_range_bound(self, xs):
        coords = tuple(mpf(x) for x in xs)
        d = real_dist_to_lattice(coords, BITS)
        with working_precision(BITS):
            bound = mpmath.sqrt(mpf(len(xs))) / 2 + TIGHT
        assert 0 <= d <= bound


class TestRotation:
    def test_from_angle_unit_modulus(self):
        r = Rotation.from_angle(mpf(1), BITS)
        assert abs(abs(r.value) - 1) <= unit_modulus_tol(BITS)

    def test_renormalizes_off_circle_input(self):
        r = Rotation(_c(3, 4), BITS)
        assert abs(abs(r.value) - 1) <= unit_modulus_tol(BITS)
        # direction survives the renormalization
        with working_precision(BITS):
            drift = abs(mpmath.arg(r.value) - mpmath.atan2(mpf(4), mpf(3)))
        assert drift < mpf(2) ** -100

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            Rotation(_c(0), BITS)

    def test_product_adds_angles(self):
        a = Rotation.from_angle(mpf("0.7"), BITS)
        b = Rotation.from_angle(mpf("1.1"), BITS)
        expected = Rotation.from_angle(mpf("1.8"), BITS)
        assert abs((a * b).value - expected.value) < mpf(2) ** -100


class TestComplexVector:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ComplexVector((), BITS)

    def test_max_abs(self):
        v = ComplexVector((_c(3, 4), _c(1)), BITS)
        assert abs(v.max_abs() - 5) < TIGHT

    def test_scaled(self):
        v = ComplexVector((_c(1), _c(0, 1)), BITS)
        w = v.scaled(mpf(2))
        assert w.entries[0] == _c(2)
        assert w.entries[1] == _c(0, 2)
