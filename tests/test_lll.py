from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from lattice_rotor import lll
from lattice_rotor.lll import float_start, gram_schmidt_fractions, is_reduced, lll_reduce


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


@st.composite
def warm_starts(draw):
    """A basis from bases() and a unimodular start of its size."""
    rows = draw(bases())
    return rows, draw(unimodular(len(rows)))


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

    @pytest.mark.parametrize(
        "start",
        [
            [[1, 0], [0, 1]],
            [[1, 0, 0], [0, 1, 0]],
            [[1, 0, 0], [0, 1], [0, 0, 1]],
            [[1, 0, 0], [0, 1, 0], [1, 1, 0]],
            [[2, 0, 0], [0, 1, 0], [0, 0, 1]],
        ],
        ids=["too-small", "too-few-rows", "ragged", "singular", "determinant-2"],
    )
    def test_bad_start_raises(self, start):
        rows = [[1, 0, 0], [5, 1, 0], [7, 3, 1]]
        with pytest.raises(ValueError, match="start transform"):
            lll_reduce(rows, start)

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
    def _assert_nearly_reduced(rows, start):
        assert all(type(x) is int for r in start for x in r)
        assert len(start) == len(rows) and all(len(r) == len(rows) for r in start)
        assert abs(_det(start)) == 1
        ortho_sq, mu = gram_schmidt_fractions(_matmul(start, rows))
        eta, delta = Fraction(52, 100), Fraction(98, 100)
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

    def test_entries_past_the_double_range_give_none(self):
        big = 2**600
        assert float_start([[big, 1], [3, big]]) is None

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
