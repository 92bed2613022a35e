import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from lattice_rotor import lll
from lattice_rotor.lll import (
    float_start,
    gaussian_start,
    gram_schmidt_fractions,
    is_reduced,
    lll_reduce,
)


def _det(matrix):
    """Exact determinant by fraction-valued elimination."""
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@st.composite
def bases(draw):
    """Integer bases of 1-5 rows, as wide as or wider than they are tall."""
    n = draw(st.integers(1, 5))
    width = draw(st.integers(n, n + 2))
    size = draw(st.sampled_from([10, 10**6, 10**30]))
    entries = st.integers(-size, size)
    rows = draw(st.lists(st.lists(entries, min_size=width, max_size=width), min_size=n, max_size=n))
    gram = _matmul(rows, [list(col) for col in zip(*rows)])
    assume(_det(gram) != 0)
    return rows


@st.composite
def unimodular(draw, n):
    """n x n integer matrices of determinant +-1: the identity after a
    random product of elementary row operations (add a multiple of one
    row to another, swap two rows, negate a row)."""
    matrix = [[int(i == j) for j in range(n)] for i in range(n)]
    ops = st.tuples(
        st.sampled_from(["add", "swap", "negate"]),
        st.integers(0, n - 1),
        st.integers(0, n - 1),
        st.integers(-50, 50),
    )
    for kind, i, j, k in draw(st.lists(ops, max_size=12)):
        if kind == "add" and i != j:
            matrix[i] = [a + k * b for a, b in zip(matrix[i], matrix[j])]
        elif kind == "swap":
            matrix[i], matrix[j] = matrix[j], matrix[i]
        elif kind == "negate":
            matrix[i] = [-a for a in matrix[i]]
    return matrix


@st.composite
def knapsack_starts(draw):
    """Identity rows next to two big columns, the shape of a relation
    lattice, with a block-triangular unimodular start: a unimodular block
    on the last columns, then identity rows on the first two."""
    n = draw(st.integers(3, 8))
    size = draw(st.sampled_from([2**20, 2**60, 2**100]))
    big = st.integers(-size, size)
    rows = [[int(i == j) for j in range(n)] + [draw(big), draw(big)] for i in range(n)]
    start = [[0, 0] + row for row in draw(unimodular(n - 2))]
    tail = st.lists(st.integers(-5, 5), min_size=n - 2, max_size=n - 2)
    start += [[int(i == j) for j in range(2)] + draw(tail) for i in range(2)]
    return rows, start


@st.composite
def window_rows(draw):
    """One row of big entries, the last of them positive, above scaled
    identity rows: the shape of a flow-search window lattice, in 2 to 9
    dimensions."""
    n = draw(st.integers(2, 9))
    size = 2 ** draw(st.sampled_from([20, 60, 120, 170]))
    scale = draw(st.integers(size // 4, size))
    step = [draw(st.integers(-size, size)) for _ in range(n - 1)] + [draw(st.integers(1, size))]
    return [step] + [[scale * int(i == j) for j in range(n)] for i in range(n - 1)]


def _gaussian_pairs(half):
    """Real rows in pairs (b, i*b) from one real row b per complex row,
    whose column pairs (x, y) read x + iy: i*b holds (-y, x) for them."""
    rows = []
    for row in half:
        rows.append(list(row))
        rows.append([v for x, y in zip(row[0::2], row[1::2]) for v in (-y, x)])
    return rows


def _has_block_form(matrix):
    """Every 2x2 block reads [[a, b], [-b, a]]: the real image of a matrix
    over Z[i]."""
    return len(matrix) % 2 == 0 and _gaussian_pairs(matrix[0::2]) == matrix


@st.composite
def gaussian_knapsacks(draw):
    """1-5 complex rows, each a unit column next to one big Gaussian
    column: the shape of a relation lattice over Z[i], as real rows in
    pairs (b, i*b)."""
    n = draw(st.integers(1, 5))
    size = draw(st.sampled_from([2**20, 2**60, 2**100, 2**240]))
    big = st.integers(-size, size)
    half = [[int(c == 2 * p) for c in range(2 * n)] + [draw(big), draw(big)] for p in range(n)]
    return _gaussian_pairs(half)


@st.composite
def gaussian_unimodular(draw, n):
    """Real images of n x n matrices over Z[i] of unit determinant: the
    identity after a random product of elementary row operations (add a
    Gaussian multiple of one row to another, swap two rows, multiply a
    row by i), as real rows (real part, imaginary part) per entry."""
    matrix = [[(int(i == j), 0) for j in range(n)] for i in range(n)]
    ops = st.tuples(
        st.sampled_from(["add", "swap", "turn"]),
        st.integers(0, n - 1),
        st.integers(0, n - 1),
        st.integers(-50, 50),
        st.integers(-50, 50),
    )
    for kind, i, j, xr, xi in draw(st.lists(ops, max_size=12)):
        if kind == "add" and i != j:
            matrix[i] = [
                (a + xr * c - xi * d, b + xr * d + xi * c)
                for (a, b), (c, d) in zip(matrix[i], matrix[j])
            ]
        elif kind == "swap":
            matrix[i], matrix[j] = matrix[j], matrix[i]
        elif kind == "turn":
            matrix[i] = [(-b, a) for a, b in matrix[i]]
    return _gaussian_pairs([[v for entry in row for v in entry] for row in matrix])


@st.composite
def warm_starts(draw):
    """A basis from bases() and a unimodular start of its size."""
    rows = draw(bases())
    return rows, draw(unimodular(len(rows)))


# starts that are not square and unimodular of the size of BAD_START_ROWS
BAD_START_ROWS = [[1, 0, 0], [5, 1, 0], [7, 3, 1]]
BAD_STARTS = [
    [[1, 0], [0, 1]],
    [[1, 0, 0], [0, 1, 0]],
    [[1, 0, 0], [0, 1], [0, 0, 1]],
    [[1, 0, 0], [0, 1, 0], [1, 1, 0]],
    [[2, 0, 0], [0, 1, 0], [0, 0, 1]],
]
BAD_START_IDS = ["too-small", "too-few-rows", "ragged", "singular", "determinant-2"]


class TestLllReduce:
    @given(rows=bases())
    def test_transform_maps_input_to_output(self, rows):
        reduced, transform = lll_reduce(rows)
        assert _matmul(transform, rows) == reduced

    @given(rows=bases())
    def test_transform_is_unimodular(self, rows):
        _, transform = lll_reduce(rows)
        assert abs(_det(transform)) == 1

    @given(rows=bases())
    def test_output_is_reduced(self, rows):
        reduced, _ = lll_reduce(rows)
        assert is_reduced(reduced)

    def test_reduced_input_is_recognised_and_unreduced_is_not(self):
        assert is_reduced([[1, 0], [0, 1]])
        assert not is_reduced([[1, 0], [5, 1]])  # mu = 5 breaks size reduction
        assert not is_reduced([[10, 0], [0, 1]])  # a short second vector breaks exchange

    def test_gram_schmidt_of_a_known_basis(self):
        ortho_sq, mu = gram_schmidt_fractions([[1, 1], [1, 0]])
        assert ortho_sq == [Fraction(2), Fraction(1, 2)]
        assert mu[1][0] == Fraction(1, 2)

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 2], [2, 4]],
            [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]],
            [[0, 0]],
        ],
        ids=["parallel", "more-rows-than-rank", "zero-row"],
    )
    def test_dependent_rows_raise(self, rows):
        with pytest.raises(ValueError, match="dependent"):
            lll_reduce(rows)

    @pytest.mark.parametrize(
        "rows",
        [[[1, 2], [2, 4]], [[0, 0]], [[1, 0], [0, 1], [1, 1]]],
        ids=["dependent-last-row", "zero-row", "more-rows-than-rank"],
    )
    def test_gram_schmidt_and_is_reduced_refuse_dependent_rows(self, rows):
        with pytest.raises(ValueError, match="dependent"):
            gram_schmidt_fractions(rows)
        with pytest.raises(ValueError, match="dependent"):
            is_reduced(rows)

    def test_ragged_rows_raise(self):
        with pytest.raises(ValueError, match="ragged"):
            lll_reduce([[1, 0], [0, 1, 0]])

    def test_empty_basis_raises(self):
        with pytest.raises(ValueError, match="empty"):
            lll_reduce([])


class TestWarmStart:
    """lll_reduce(rows, start) begins from start * rows and answers for the
    input rows themselves."""

    @given(case=warm_starts())
    def test_transform_is_unimodular_and_maps_input_to_reduced_output(self, case):
        rows, start = case
        reduced, transform = lll_reduce(rows, start)
        assert _matmul(transform, rows) == reduced
        assert abs(_det(transform)) == 1
        assert is_reduced(reduced)

    @given(case=knapsack_starts())
    def test_knapsack_rows_from_a_block_triangular_start(self, case):
        rows, start = case
        reduced, transform = lll_reduce(rows, start)
        assert is_reduced(reduced)
        assert _matmul(transform, rows) == reduced

    @given(rows=bases())
    def test_a_start_that_already_reduces_the_rows_is_kept(self, rows):
        cold = lll_reduce(rows)
        assert lll_reduce(rows, cold[1]) == cold

    @pytest.mark.parametrize("start", BAD_STARTS, ids=BAD_START_IDS)
    def test_bad_start_raises(self, start):
        with pytest.raises(ValueError, match="start transform"):
            lll_reduce(BAD_START_ROWS, start)

    def test_a_wrong_composed_transform_raises(self, monkeypatch):
        # the composition is checked against the rows in exact integers
        real = lll._lll

        def corrupt(rows):
            basis, transform = real(rows)
            transform[0][0] += 1
            return basis, transform

        monkeypatch.setattr(lll, "_lll", corrupt)
        rows = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
        start = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
        with pytest.raises(ArithmeticError, match="composed transform"):
            lll_reduce(rows, start)


class TestMemo:
    """lll.py keeps no memo, as the hygiene test checks: its callers
    remember their own units of work.  Every call answers afresh, in
    lists that no later call shares, and bad input raises every time."""

    def test_editing_a_returned_basis_or_transform_changes_nothing(self):
        rows = [[1, 0, 0], [5, 1, 0], [7, 3, 1]]
        first = lll_reduce(rows)
        expected = tuple([list(r) for r in m] for m in first)
        for matrix in first:
            matrix[0][0] += 99
            matrix.append([0, 0, 0])
        assert lll_reduce(rows) == expected
        rows[0][0] = 2  # editing the input after the call does not either
        assert lll_reduce([[1, 0, 0], [5, 1, 0], [7, 3, 1]]) == expected

    @pytest.mark.parametrize(
        "rows, match",
        [([[1, 2], [2, 4]], "dependent"), ([[1, 0], [0, 1, 0]], "ragged"), ([], "empty")],
        ids=["dependent", "ragged", "empty"],
    )
    def test_bad_rows_raise_on_every_call(self, rows, match):
        for _ in range(3):
            with pytest.raises(ValueError, match=match):
                lll_reduce(rows)


class TestFloatStart:
    """float_start answers None or a unimodular start whose product with
    the rows is nearly reduced, checked in exact rationals."""

    @staticmethod
    def _assert_nearly_reduced(rows, start, delta=Fraction(98, 100)):
        assert all(type(x) is int for r in start for x in r)
        assert len(start) == len(rows) and all(len(r) == len(rows) for r in start)
        assert abs(_det(start)) == 1
        ortho_sq, mu = gram_schmidt_fractions(_matmul(start, rows))
        eta = Fraction(52, 100)
        assert all(abs(mu[i][j]) <= eta for i in range(len(rows)) for j in range(i))
        for i in range(1, len(rows)):
            assert ortho_sq[i] >= (delta - mu[i][i - 1] ** 2) * ortho_sq[i - 1]

    @given(rows=bases())
    def test_a_start_is_unimodular_and_nearly_reduces_the_rows(self, rows):
        start = float_start(rows)
        if start is not None:
            self._assert_nearly_reduced(rows, start)

    @given(rows=window_rows())
    def test_window_shaped_rows_are_nearly_reduced(self, rows):
        start = float_start(rows)
        assert start is not None
        self._assert_nearly_reduced(rows, start)
        assert is_reduced(lll_reduce(rows, start)[0])

    def test_a_gram_range_past_one_scale_gives_none(self):
        # Gram entries past 2^1024 are read over one power of two, so rows
        # past the double range get a start; a Gram matrix spanning more
        # than one scale holds (2^2400 against 10) underflows to a zero
        # pivot and is refused
        big = 2**600
        start = float_start([[big, 1], [3, big]])
        assert start is not None and abs(_det(start)) == 1
        assert float_start([[2**1200, 1], [3, 1]]) is None

    @pytest.mark.parametrize("seed", range(4))
    def test_rows_past_the_double_range_are_nearly_reduced(self, seed):
        # generic rows of 2 to 5 entries of 2^600 to 2^1500 have Gram
        # entries up to 2^3000, which one scale holds
        rng = random.Random(seed)
        n = 2 + seed
        rows = [
            [rng.choice((-1, 1)) * rng.getrandbits(rng.randint(600, 1500)) for _ in range(n + 1)]
            for _ in range(n)
        ]
        start = float_start(rows)
        assert start is not None
        self._assert_nearly_reduced(rows, start)
        assert is_reduced(lll_reduce(rows, start)[0])

    def test_the_iteration_bound_gives_none(self, monkeypatch):
        rows = [[2**100 + 17, 2**99 + 5, 1], [2**98 + 3, 2**100 - 1, 0], [7, 11, 13]]
        assert float_start(rows) is not None
        monkeypatch.setattr(lll, "_float_iterations", lambda n, bits: 1)
        assert float_start(rows) is None

    def test_dependent_rows_give_none_or_a_unimodular_start(self):
        for rows in ([[1, 2], [2, 4]], [[0, 0]], [[3, 1, 4], [1, 5, 9], [4, 6, 13]]):
            start = float_start(rows)
            assert start is None or abs(_det(start)) == 1

    def test_editing_a_returned_start_changes_nothing(self):
        rows = [[1, 0, 0], [5, 1, 0], [7, 3, 1]]
        first = float_start(rows)
        expected = [list(r) for r in first]
        first[0][0] += 99
        assert float_start(rows) == expected


class TestGaussianStart:
    """gaussian_start answers None or the real image of a unimodular
    matrix over Z[i], whose product with the rows is nearly reduced over
    Z[i], checked in exact rationals on the real rows."""

    @staticmethod
    def _assert_nearly_reduced(rows, start):
        # over Z[i], |Re mu| and |Im mu| stay within eta and the Lovasz
        # condition holds at delta for |mu|^2, which the real rows k and
        # k + 1 see as the two coefficients of b_k against the pair
        # (b_(k-2), i*b_(k-2)).  The real condition between i*b_(k-2) and
        # b_k sees only the second, so the real rows are nearly reduced
        # at delta - eta^2, as TestFloatStart checks them
        assert _has_block_form(start)
        eta, delta = Fraction(52, 100), Fraction(98, 100)
        TestFloatStart._assert_nearly_reduced(rows, start, delta - eta**2)
        ortho_sq, mu = gram_schmidt_fractions(_matmul(start, rows))
        for k in range(2, len(rows), 2):
            mu_sq = mu[k][k - 2] ** 2 + mu[k][k - 1] ** 2
            assert ortho_sq[k] >= (delta - mu_sq) * ortho_sq[k - 2]

    @given(rows=gaussian_knapsacks())
    def test_a_start_has_the_block_form_and_nearly_reduces_the_rows(self, rows):
        start = gaussian_start(rows)
        assert start is not None
        self._assert_nearly_reduced(rows, start)
        assert is_reduced(lll_reduce(rows, start)[0])

    @given(rows=gaussian_knapsacks(), data=st.data())
    def test_a_carried_gaussian_start_is_composed_in(self, rows, data):
        carried = data.draw(gaussian_unimodular(len(rows) // 2))
        composed = gaussian_start(rows, carried)
        assert composed == _matmul(gaussian_start(_matmul(carried, rows)), carried)
        self._assert_nearly_reduced(rows, composed)
        assert is_reduced(lll_reduce(rows, composed)[0])

    def test_a_carried_start_without_the_block_form_is_left_out(self, monkeypatch):
        # a swap of the two rows of a pair is unimodular over Z but not
        # the image of a matrix over Z[i]: the pass starts from the rows
        # alone, and hands it back only when it is refused
        rows = _gaussian_pairs([[1, 0, 0, 0, 2**90 + 7, 3**50], [0, 0, 1, 0, -(5**40), 2**85 - 1]])
        carried = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        assert not _has_block_form(carried)
        assert gaussian_start(rows, carried) == gaussian_start(rows)
        monkeypatch.setattr(lll, "_float_iterations", lambda n, bits: 0)
        assert gaussian_start(rows, carried) == carried

    @pytest.mark.parametrize("refusal", ["past-one-scale", "no-visits"])
    def test_a_refused_pass_hands_back_the_carried_start(self, monkeypatch, refusal):
        if refusal == "past-one-scale":
            # rows past the double range are pre-reduced over one power of
            # two; a Gram matrix spanning 2^2400 against 11 is refused
            size = 2**600
            rows = _gaussian_pairs([[1, 0, 0, 0, size + 17, size - 5], [0, 0, 1, 0, 3, -size]])
            assert gaussian_start(rows) is not None
            size = 2**1200
            rows = _gaussian_pairs([[1, 0, 0, 0, size + 17, size - 5], [0, 0, 1, 0, 3, -1]])
        else:
            size = 2**100
            rows = _gaussian_pairs([[1, 0, 0, 0, size + 17, size - 5], [0, 0, 1, 0, 3, -size]])
            assert gaussian_start(rows) is not None
            monkeypatch.setattr(lll, "_float_iterations", lambda n, bits: 0)
        assert gaussian_start(rows) is None
        carried = [[1, 0, 2, 3], [0, 1, -3, 2], [0, 0, 1, 0], [0, 0, 0, 1]]
        copy = gaussian_start(rows, carried)
        assert copy == carried and copy is not carried
        assert all(a is not b for a, b in zip(copy, carried))
        copy[0][0] += 99
        assert carried[0] == [1, 0, 2, 3]

    @pytest.mark.parametrize(
        "rows",
        [[[1, 0], [1, 0]], [[1, 0], [0, 1], [1, 1]], [[1, 0, 1], [0, 1, 1]]],
        ids=["not-turned", "odd-rows", "odd-width"],
    )
    def test_rows_not_in_pairs_raise(self, rows):
        with pytest.raises(ValueError, match="pairs"):
            gaussian_start(rows)

    def test_editing_a_returned_start_changes_nothing(self):
        rows = _gaussian_pairs([[1, 0, 0, 0, 2**40 + 3, 2**39], [0, 0, 1, 0, 7**12, -(3**20)]])
        first = gaussian_start(rows)
        expected = [list(r) for r in first]
        first[0][0] += 99
        first[1].append(0)
        assert gaussian_start(rows) == expected
