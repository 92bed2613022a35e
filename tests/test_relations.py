import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mpc, mpf

from lattice_rotor import lll, relations
from lattice_rotor.corelattice import ComplexVector
from lattice_rotor.precision import residual_tol, working_precision
from lattice_rotor.relations import (
    GaussianRational,
    RelationDecomposition,
    detect_relations,
    recommended_precision,
    select_M,
)

BITS = 128


def _gr(re_num, re_den=1, im_num=0, im_den=1):
    # the constructor reduces to lowest terms
    return GaussianRational(re_num * im_den, im_num * re_den, re_den * im_den)


def _vec(entries, bits=BITS):
    with working_precision(bits):
        return ComplexVector(tuple(mpc(z) for z in entries), bits)


def _generic(rng):
    # a random 120-bit Gaussian dyadic in the unit square around 0
    return mpc(
        mpf(rng.getrandbits(120)) / mpf(2) ** 119 - 1,
        mpf(rng.getrandbits(120)) / mpf(2) ** 119 - 1,
    )


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
        assert all(f == GaussianRational(0, 0, 1) for f in row)

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
        # bool is an int subclass; True would otherwise run as height bound 1
        with pytest.raises(ValueError):
            detect_relations(v, True, BITS)


class TestDetectExact:
    """Dyadic entries, which decimal inputs such as 0.375 give exactly."""

    def test_exact_dyadic_inputs(self):
        entries = (mpc("0.375"), mpc(0, "0.375"), mpc("0.25", "0.75"))
        dec = detect_relations(_vec(entries), 8, BITS)
        assert dec.basis_indices == (0,)
        assert dec.dependent_indices == (1, 2)
        assert dec.coeffs[0] == (_gr(0, 1, 1, 1),)
        # (1/4 + 3i/4) / (3/8) = 2/3 + 2i
        assert dec.coeffs[1] == (_gr(2, 3, 2, 1),)
        assert dec.M == 6

    def test_exact_zero_and_scaling(self):
        entries = (mpc("0.375"), mpc(0), mpc("0.75"))
        dec = detect_relations(_vec(entries), 8, BITS)
        assert dec.basis_indices == (0,)
        assert dec.dependent_indices == (1, 2)
        assert dec.coeffs[0] == (GaussianRational(0, 0, 1),)
        assert dec.coeffs[1] == (_gr(2),)
        assert dec.M == 3

    def test_gaussian_rational_entries_refused(self):
        with pytest.raises(TypeError):
            detect_relations((_gr(3, 8), _gr(3, 4)), 8, BITS)


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

    @given(
        st.lists(
            st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 6)), max_size=3),
            max_size=3,
        )
    )
    @example([])
    @example([[(0, 0, 1), (0, 0, 5)]])  # all zero: no mass, lcm 1
    @example([[(1, 1, 2), (1, 1, 2)]])  # mass 2 lands on a multiple of 2
    @example([[(3, 0, 1)], [(-2, 1, 1)]])  # mass 6 lands on a multiple of 1
    def test_least_multiple_of_the_denominators_above_the_mass(self, rows):
        coeffs = [[GaussianRational(*parts) for parts in row] for row in rows]
        fs = [f for row in coeffs for f in row]
        mass = sum(Fraction(abs(f.re) + abs(f.im), f.den) for f in fs)
        # brute force: the first positive integer that every denominator
        # divides and that lies strictly above the mass
        M = 1
        while any(M % f.den for f in fs) or not M > mass:
            M += 1
        assert select_M(coeffs) == M


class TestGaussianRational:
    @given(
        st.integers(-(10**6), 10**6),
        st.integers(-(10**6), 10**6),
        st.integers(-(10**6), 10**6).filter(bool),
    )
    @example(0, 0, -7)
    @example(2, -4, -6)
    @example(0, 5, 10)
    def test_lowest_terms_with_positive_denominator(self, re, im, den):
        f = GaussianRational(re, im, den)
        assert Fraction(f.re, f.den) == Fraction(re, den)
        assert Fraction(f.im, f.den) == Fraction(im, den)
        assert f.den > 0
        assert math.gcd(f.re, f.im, f.den) == 1


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
                    _gr(rng.randint(-8, 8), rng.randint(1, 8), rng.randint(-8, 8), rng.randint(1, 8))
                    for _ in range(m)
                ]
                dep = sum(
                    mpc(mpf(f.re) / f.den, mpf(f.im) / f.den) * b
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
                        combo += mpc(mpf(f.re) / f.den, mpf(f.im) / f.den) * mpc(entries[b])
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

    def test_scaled_coefficients_are_gaussian_integers(self):
        dec = detect_relations(_vec((mpc("0.5", "0.5"), mpc(1, 0))), 8, BITS)
        assert dec.coeffs
        for row in dec.coeffs:
            for f in row:
                assert (dec.M * f.re) % f.den == 0
                assert (dec.M * f.im) % f.den == 0


class TestPslqOracle:
    """Differential test against mpmath.pslq (Ferguson-Bailey-Arno).

    A Gaussian relation sum h_k x_k = 0 gives the integer relation
    sum Re(h_k) Re(x_k) - Im(h_k) Im(x_k) = 0 among the real and imaginary
    parts, so PSLQ on those 2(q+1) reals is an oracle independent of the
    detector's lattice embedding.
    """

    BITS = 256

    @staticmethod
    def _pslq(entries, bits):
        with working_precision(bits):
            parts = [p for z in entries for p in (z.real, z.imag)]
            rel = mpmath.pslq(parts, tol=mpf(2) ** -(bits // 2), maxcoeff=10**4, maxsteps=10**4)
        if rel is None:
            return None
        # h_k = re + im*i as an int pair
        return [(int(rel[2 * k]), -int(rel[2 * k + 1])) for k in range(len(entries))]

    @staticmethod
    def _random_entry(rng):
        return mpc(
            mpf(rng.getrandbits(220)) / mpf(2) ** 219 - 1,
            mpf(rng.getrandbits(220)) / mpf(2) ** 219 - 1,
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_planted_relation_found_by_both(self, seed):
        rng = random.Random(seed)
        with working_precision(2 * self.BITS):
            basis = [self._random_entry(rng) for _ in range(2)]
            planted = [
                _gr(rng.randint(-8, 8), rng.randint(1, 8), rng.randint(-8, 8), rng.randint(1, 8))
                for _ in basis
            ]
            z = sum(mpc(mpf(f.re) / f.den, mpf(f.im) / f.den) * b for f, b in zip(planted, basis))
        entries = (basis[0], basis[1], z)
        h = self._pslq(entries, self.BITS)
        assert h is not None and h[2] != (0, 0), "PSLQ missed the planted relation"
        dec = detect_relations(_vec(entries, self.BITS), 64, self.BITS)
        assert dec.basis_indices == (0, 1) and dec.dependent_indices == (2,)
        # z = sum f_k b_k and h_2 z + sum h_k b_k = 0, so f_k h_2 = -h_k,
        # that is (f.re + f.im i)(c + d i) = -(hk_re + hk_im i) * f.den
        c, d = h[2]
        for f, (hk_re, hk_im) in zip(dec.coeffs[0], h[:2]):
            assert (f.re * c - f.im * d, f.re * d + f.im * c) == (-hk_re * f.den, -hk_im * f.den)

    @pytest.mark.parametrize("seed", range(6))
    def test_generic_entries_related_by_neither(self, seed):
        rng = random.Random(1000 + seed)
        with working_precision(2 * self.BITS):
            entries = tuple(self._random_entry(rng) for _ in range(3))
        assert self._pslq(entries, self.BITS) is None
        dec = detect_relations(_vec(entries, self.BITS), 64, self.BITS)
        assert dec.dependent_indices == ()


def _cold_detection(vec, height_bound, bits):
    """The detection with the memo bypassed and every relation lattice
    reduced from scratch: the reference a started detection must equal."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relations, "gaussian_start", lambda rows, carried=None: None)
        mp.setattr(relations, "lll_reduce", lambda rows, start=None: lll.lll_reduce(rows))
        return relations._detect.__wrapped__(tuple(vec), height_bound, bits)


@st.composite
def relation_entries(draw):
    """2-6 entries, each a generic random dyadic, an exact zero, or a
    Gaussian-rational combination (height <= 8) of the generic entries
    before it.  Returns the entries and the indices of the combinations."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kinds = draw(st.lists(st.sampled_from(["generic", "planted", "zero"]), min_size=2, max_size=6))
    entries, generic, planted = [], [], []
    with working_precision(2 * BITS):
        for idx, kind in enumerate(kinds):
            if kind == "zero":
                entries.append(mpc(0))
            elif kind == "planted" and generic:
                coeff = st.tuples(st.integers(-8, 8), st.integers(-8, 8), st.integers(1, 8))
                coeffs = draw(st.lists(coeff, min_size=len(generic), max_size=len(generic)))
                terms = zip(coeffs, generic)
                entries.append(sum(mpc(mpf(re) / den, mpf(im) / den) * g for (re, im, den), g in terms))
                planted.append(idx)
            else:
                generic.append(_generic(rng))
                entries.append(generic[-1])
    return entries, planted


def _has_block_form(start):
    """Every 2x2 block of the start reads [[a, b], [-b, a]]: the real
    image of a transform over Z[i]."""
    return all(
        turned[2 * j : 2 * j + 2] == [-row[2 * j + 1], row[2 * j]]
        for row, turned in zip(start[0::2], start[1::2])
        for j in range(len(row) // 2)
    )


class TestWarmStartedDetection:
    """Every membership test starts its reduction from gaussian_start's
    pre-reduction of its lattice over Z[i], carrying the transform of the
    test whose candidate joined the basis last (none for the first test);
    the decomposition must be the one that reducing every relation
    lattice from scratch gives."""

    @settings(max_examples=30)
    @given(case=relation_entries())
    def test_warm_detection_equals_cold_detection(self, case):
        # both detections bypass the detection memo, so each membership
        # test of each makes its own gaussian_start and lll_reduce call
        entries, planted = case
        vec = _vec(entries)
        nonzero = [idx for idx, z in enumerate(vec) if z != 0]
        tests = max(0, len(nonzero) - 1)
        starts, calls, cold_calls = [], [], []

        def recording_start(rows, carried=None):
            start = lll.gaussian_start(rows, carried)
            starts.append((rows, carried, start))
            return start

        def recording(rows, start=None):
            basis, transform = lll.lll_reduce(rows, start)
            calls.append((rows, start, basis, transform))
            return basis, transform

        def cold(rows, start=None):
            cold_calls.append(rows)
            return lll.lll_reduce(rows)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(relations, "_detect", relations._detect.__wrapped__)
            mp.setattr(relations, "gaussian_start", recording_start)
            mp.setattr(relations, "lll_reduce", recording)
            warm = detect_relations(vec, 8, BITS)
            mp.setattr(relations, "gaussian_start", lambda rows, carried=None: None)
            mp.setattr(relations, "lll_reduce", cold)
            assert detect_relations(vec, 8, BITS) == warm
        assert len(starts) == len(calls) == len(cold_calls) == tests
        assert set(planted) <= set(warm.dependent_indices)
        joined = None
        for idx, (rows, carried, start), (rows_, start_, basis, transform) in zip(
            nonzero[1:], starts, calls
        ):
            assert rows_ is rows and start_ is start
            if joined is None:
                assert carried is None
            else:
                # the joined test's rows [last basis entry, b1..] reappear
                # here as rows 2.. in the order [b1.., last basis entry],
                # above the candidate's two rows
                unknowns = len(rows)
                expected = [[0, 0] + row[2:] + row[:2] for row in joined]
                expected += [[int(c == u) for c in range(unknowns)] for u in range(2)]
                assert carried == expected
            assert start == lll.gaussian_start(rows, carried)
            # at 128 bits no pass is refused, so every start is the real
            # image of a transform over Z[i]
            assert start is not None and _has_block_form(start)
            assert lll.is_reduced(basis)
            if idx in warm.basis_indices:
                joined = transform

    def test_refused_float_starts_leave_the_cold_decomposition(self, monkeypatch):
        # with every float start refused, the first test reduces from
        # scratch and each later one from its carried transform alone
        rng = random.Random(11)
        with working_precision(2 * BITS):
            basis = [_generic(rng) for _ in range(3)]
            entries = basis[:2] + [mpc(3, -1) / 4 * basis[0] + 5 * basis[1], basis[2]]
        vec = _vec(entries)
        monkeypatch.setattr(lll, "_float_iterations", lambda n, bits: 0)
        starts = []

        def recording_start(rows, carried=None):
            start = lll.gaussian_start(rows, carried)
            starts.append((carried, start))
            return start

        monkeypatch.setattr(relations, "gaussian_start", recording_start)
        refused = relations._detect.__wrapped__(tuple(vec), 8, BITS)
        assert refused.dependent_indices == (2,)
        assert len(starts) == 3 and all(start == carried for carried, start in starts)
        assert refused == _cold_detection(vec, 8, BITS)

    def test_a_relation_past_the_double_range_is_found(self, monkeypatch):
        # at 1024 bits the relation lattices carry 1008-bit entries, so
        # every Gram matrix is past the double range: each float start
        # hands back what it was given, and the decomposition is the cold one
        bits = 1024
        rng = random.Random(12)
        with working_precision(2 * bits):
            basis = [_generic(rng) for _ in range(2)]
            entries = basis + [mpc(-7, 2) / 3 * basis[0] + mpc(0, 5) / 8 * basis[1]]
        vec = _vec(entries, bits)
        starts = []

        def recording_start(rows, carried=None):
            start = lll.gaussian_start(rows, carried)
            starts.append(start == carried)
            return start

        monkeypatch.setattr(relations, "gaussian_start", recording_start)
        found = relations._detect.__wrapped__(tuple(vec), 8, bits)
        assert found.dependent_indices == (2,)
        assert starts == [True, True]
        assert found == _cold_detection(vec, 8, bits)


@st.composite
def near_relation_entries(draw):
    """1-3 generic entries and, at a random position among them, a
    Gaussian-rational combination of them (height <= 8) moved off the
    relation by |delta| between 2^-(P/2+8) and 2^-(P/2-8), at P = 128 or
    256 bits: the residual gate's own scale.  Returns the entries and P."""
    bits = draw(st.sampled_from([128, 256]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    q = draw(st.integers(1, 3))
    coeff = st.tuples(st.integers(-8, 8), st.integers(-8, 8), st.integers(1, 8))
    coeffs = draw(st.lists(coeff, min_size=q, max_size=q))
    with working_precision(2 * bits):
        generic = [_generic(rng) for _ in range(q)]
        delta = mpmath.expjpi(2 * mpf(rng.random())) * mpf(2) ** (rng.uniform(-8, 8) - bits // 2)
        near = delta + sum(
            mpc(mpf(re) / den, mpf(im) / den) * g for (re, im, den), g in zip(coeffs, generic)
        )
    entries = list(generic)
    entries.insert(draw(st.integers(0, q)), near)
    return entries, bits


class TestNearRelations:
    """A near-relation at the residual gate's scale is listed or not, but
    never raises, never lists a dependent that fails the gate, and
    float-started detection answers as the cold one does."""

    @settings(max_examples=40)
    @given(case=near_relation_entries())
    def test_near_relations_detect_as_cold_and_certify(self, case):
        entries, bits = case
        vec = _vec(entries, bits)
        started = relations._detect.__wrapped__(tuple(vec), 8, bits)
        assert started == _cold_detection(vec, 8, bits)
        with working_precision(2 * bits):
            for idx, row in zip(started.dependent_indices, started.coeffs):
                combo = sum(f.to_mpc(2 * bits) * vec[b] for f, b in zip(row, started.basis_indices))
                assert abs(vec[idx] - combo) < residual_tol(bits)

    @settings(max_examples=40)
    @given(case=near_relation_entries())
    def test_gaussian_started_detection_equals_cold_detection(self, case):
        # every membership test reduces from a start the Gaussian pass
        # made, never refused at 128 or 256 bits
        entries, bits = case
        vec = _vec(entries, bits)
        starts = []

        def recording_start(rows, carried=None):
            start = lll.gaussian_start(rows, carried)
            starts.append(start)
            return start

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(relations, "gaussian_start", recording_start)
            started = relations._detect.__wrapped__(tuple(vec), 8, bits)
        assert started == _cold_detection(vec, 8, bits)
        assert len(starts) == len(entries) - 1
        assert all(start is not None and _has_block_form(start) for start in starts)


class TestDetectionMemo:
    """detect_relations remembers its decompositions, keyed on the entries,
    the height bound and the precision; a remembered decomposition is the
    one a fresh detection gives, its warnings included."""

    @settings(max_examples=30)
    @given(case=relation_entries())
    def test_remembered_detection_equals_a_fresh_one(self, case):
        # the detections of three or more entries warm-start their later
        # membership tests
        vec = _vec(case[0])
        fresh = relations._detect.__wrapped__(tuple(vec), 8, BITS)
        for _ in range(2):
            assert detect_relations(vec, 8, BITS) == fresh

    def test_a_repeated_detection_reduces_nothing(self, monkeypatch):
        rng = random.Random(20)
        with working_precision(2 * BITS):
            basis = [_generic(rng) for _ in range(3)]
            # a dependent in the middle, so the last test starts from a
            # transform older than the test just before it
            entries = basis[:2] + [mpf(3) / 2 * basis[0] - mpc(0, 1) * basis[1], basis[2]]
        vec = _vec(entries)
        calls = []

        def recording(rows, start=None):
            calls.append(start)
            return lll.lll_reduce(rows, start)

        monkeypatch.setattr(relations, "lll_reduce", recording)
        relations._detect.cache_clear()
        first = detect_relations(vec, 8, BITS)
        assert first.dependent_indices == (2,)
        assert len(calls) == len(entries) - 1
        assert detect_relations(vec, 8, BITS) == first
        assert len(calls) == len(entries) - 1

    def test_detection_memo_stays_bounded(self):
        limit = relations._detect.cache_info().maxsize
        for k in range(limit + 8):
            detect_relations([mpc(k + 1)], 8, BITS)
        assert relations._detect.cache_info().currsize <= limit

    def test_the_precision_advisory_is_part_of_the_key(self):
        # two entries at 128 bits are advised height bounds of at most 32
        # bits; the same entries past that edge and just under it each get
        # their own warnings, whichever was remembered first
        with working_precision(BITS):
            vec = _vec([mpc(1), mpc(mpmath.sqrt(2), mpmath.sqrt(3))])
        past, under = 2**32, 2**32 - 1
        assert recommended_precision(2, past) > BITS >= recommended_precision(2, under)
        for _ in range(2):
            assert len(detect_relations(vec, past, BITS).warnings) == 1
            assert detect_relations(vec, under, BITS).warnings == ()
