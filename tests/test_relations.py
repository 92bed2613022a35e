import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpc, mpf

from lattice_rotor.corelattice import ComplexVector
from lattice_rotor.gaussian import GaussianInteger, GaussianRational
from lattice_rotor.precision import working_precision
from lattice_rotor.relations import (
    RelationDecomposition,
    detect_relations,
    recommended_precision,
    select_M,
)
from lattice_rotor.reporting import from_json_data, to_json_data

BITS = 128


def _gr(re_num, re_den=1, im_num=0, im_den=1):
    return GaussianRational.from_fractions(Fraction(re_num, re_den), Fraction(im_num, im_den))


def _vec(entries, bits=BITS):
    with working_precision(bits):
        return ComplexVector(tuple(mpc(z) for z in entries), bits)


class TestDetectNumeric:
    def test_unit_and_quarter_turn_and_sum(self):
        with working_precision(BITS):
            v = ComplexVector((mpc(1), mpc(0, 1), mpc(1, 1)), BITS)
        dec = detect_relations(v, 8, BITS)
        assert dec.basis_indices == (0,)
        assert dec.dependent_indices == (1, 2)
        assert dec.coeffs[0] == (_gr(0, 1, 1, 1),)
        assert dec.coeffs[1] == (_gr(1, 1, 1, 1),)
        assert dec.num_basis == 1

    def test_independent_pair(self):
        with working_precision(BITS):
            v = ComplexVector((mpc(1), mpc(mpmath.sqrt(mpf(2)))), BITS)
        dec = detect_relations(v, 8, BITS)
        assert dec.basis_indices == (0, 1)
        assert dec.dependent_indices == ()
        assert dec.coeffs == ()
        assert dec.M == 1

    def test_rational_mix_over_independent_pair(self):
        bits = 256
        with working_precision(bits):
            s = mpmath.sqrt(mpf(2))
            z3 = mpf(3) / 2 - mpc(0, 1) * s
            v = ComplexVector((mpc(1), mpc(s), z3), bits)
        dec = detect_relations(v, 8, bits)
        assert dec.basis_indices == (0, 1)
        assert dec.dependent_indices == (2,)
        assert dec.coeffs[0] == (_gr(3, 2), _gr(0, 1, -1, 1))
        # re-evaluate the reported relation at doubled precision
        with working_precision(512):
            s = mpmath.sqrt(mpf(2))
            combo = mpc(mpf(3) / 2) + mpc(0, -1) * s
            residual = abs((mpf(3) / 2 - mpc(0, 1) * s) - combo)
        assert residual < mpf(2) ** -128

    def test_zero_entry_becomes_zero_row(self):
        with working_precision(BITS):
            v = ComplexVector((mpc(1), mpc(0), mpc(0, 1)), BITS)
        dec = detect_relations(v, 8, BITS)
        assert 1 in dec.dependent_indices
        row = dec.coeffs[dec.dependent_indices.index(1)]
        assert all(f.is_zero() for f in row)

    def test_low_precision_warns(self):
        entries = tuple(mpc(mpmath.sqrt(p)) for p in (2, 3, 5, 7, 11, 13, 17, 19))
        assert recommended_precision(8, 64) > 53
        dec = detect_relations(_vec(entries, 53), 64, 53)
        assert dec.warnings
        assert "precision" in dec.warnings[0]

    def test_height_bound_validation(self):
        v = _vec((1, 2))
        with pytest.raises(ValueError):
            detect_relations(v, 0, BITS)
        with pytest.raises(ValueError):
            detect_relations(v, "8", BITS)


class TestDetectExact:
    def test_exact_inputs_take_exact_path(self):
        entries = (_gr(1), _gr(0, 1, 1, 1), _gr(1, 1, 1, 1))
        dec = detect_relations(entries, 8, BITS)
        assert dec.basis_indices == (0,)
        assert dec.dependent_indices == (1, 2)
        assert dec.coeffs[0] == (_gr(0, 1, 1, 1),)
        assert dec.coeffs[1] == (_gr(1, 1, 1, 1),)

    def test_exact_zero_and_scaling(self):
        entries = (_gr(3, 7), GaussianRational.zero(), _gr(6, 7))
        dec = detect_relations(entries, 8, BITS)
        assert dec.basis_indices == (0,)
        assert dec.dependent_indices == (1, 2)
        assert dec.coeffs[0] == (GaussianRational.zero(),)
        assert dec.coeffs[1] == (_gr(2),)


class TestSelectM:
    def test_single_half_plus_half_i(self):
        assert select_M([[_gr(1, 2, 1, 2)]]) == 2

    def test_two_negative_units(self):
        assert select_M([[_gr(-1), _gr(-1)]]) == 3

    def test_no_coefficients(self):
        assert select_M([]) == 1

    def test_divisibility_and_mass(self):
        coeffs = [[_gr(5, 6, -7, 4)]]
        M = select_M(coeffs)
        # evenly clears every denominator
        assert (5 * M) % 6 == 0 and (7 * M) % 4 == 0
        # strictly exceeds the exact ell-1 over-estimate 5/6 + 7/4 = 31/12
        assert Fraction(M) > Fraction(5, 6) + Fraction(7, 4)
        # smallest qualifying multiple of lcm(6, 4) = 12 is 12 itself
        assert M == 12

    def test_mass_on_multiple_needs_next_step(self):
        # over-estimate is exactly 2, so M = 2 fails the strict inequality
        assert select_M([[_gr(1), _gr(1)]]) == 3
        assert select_M([[_gr(2)]]) == 3


class TestPlantedRecovery:
    def test_planted_rows_certify_at_doubled_precision(self):
        bits = 256
        rng = random.Random(7)
        for _ in range(5):
            m = rng.randint(1, 3)
            with working_precision(2 * bits):
                basis = [
                    mpc(mpf(rng.getrandbits(200)) / mpf(2) ** 199 - 1,
                        mpf(rng.getrandbits(200)) / mpf(2) ** 199 - 1)
                    for _ in range(m)
                ]
                coeffs = [
                    GaussianRational.from_fractions(
                        Fraction(rng.randint(-8, 8), rng.randint(1, 8)),
                        Fraction(rng.randint(-8, 8), rng.randint(1, 8)),
                    )
                    for _ in range(m)
                ]
                dep = sum(
                    mpc(mpf(f.re_fraction.numerator) / f.re_fraction.denominator,
                        mpf(f.im_fraction.numerator) / f.im_fraction.denominator) * b
                    for f, b in zip(coeffs, basis)
                )
                entries = tuple(basis) + (dep,)
            dec = detect_relations(_vec(entries, bits), 64, bits)
            assert dec.dependent_indices, "planted relation went undetected"
            # every reported row must hold to well below the certification bar
            with working_precision(2 * bits):
                for j, row in zip(dec.dependent_indices, dec.coeffs):
                    combo = mpc(0)
                    for f, b in zip(row, dec.basis_indices):
                        combo += mpc(
                            mpf(f.re_fraction.numerator) / f.re_fraction.denominator,
                            mpf(f.im_fraction.numerator) / f.im_fraction.denominator,
                        ) * mpc(entries[b])
                    assert abs(combo - mpc(entries[j])) < mpf(2) ** -128


class TestDecompositionContainer:
    def test_validate_rejects_overlap(self):
        with pytest.raises(ValueError):
            RelationDecomposition(
                basis_indices=(0,),
                dependent_indices=(0,),
                coeffs=((_gr(1),),),
                M=2,
            ).validate()

    def test_validate_rejects_wrong_row_width(self):
        with pytest.raises(ValueError):
            RelationDecomposition(
                basis_indices=(0, 1),
                dependent_indices=(2,),
                coeffs=((_gr(1),),),
                M=2,
            ).validate()

    def test_validate_rejects_undersized_M(self):
        with pytest.raises(ValueError):
            RelationDecomposition(
                basis_indices=(0,),
                dependent_indices=(1,),
                coeffs=((_gr(3),),),
                M=3,
            ).validate()

    def test_json_round_trip(self):
        dec = detect_relations(_vec((1, mpc(0, 1), mpc(1, 1))), 8, BITS)
        data = to_json_data(dec)
        back = from_json_data(RelationDecomposition, data)
        assert back == dec

    def test_scaled_coefficients_are_gaussian_integers(self):
        dec = detect_relations(_vec((mpc("0.5", "0.5"), mpc(1, 0))), 8, BITS)
        if dec.coeffs:
            for row in dec.scaled_coefficients():
                for g in row:
                    assert isinstance(g, GaussianInteger)
