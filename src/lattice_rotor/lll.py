"""Lattice basis reduction over exact integers.

A self-contained LLL with the classical integer-only bookkeeping: instead
of rational Gram-Schmidt data it carries the Gram determinants d_i of the
leading subbases and the scaled coefficients lam[i][j] = d_j * mu_{i,j},
all of which stay integers.  Division in the update formulas is exact, so
the reduction is deterministic and immune to floating-point drift, which
matters because two different callers rely on it for completeness
arguments: the rational-relation detector and the lattice-point
enumeration inside the flow search.

Doubles enter at two places, float_start and gaussian_start: a
pre-reduction in the style of L^2 (Nguyen-Stehle, SIAM J. Comput. 39,
2009) that keeps the Gram matrix exact, recomputes each visited row's
Gram-Schmidt data in doubles from it, and returns only the unimodular
transform it built from elementary integer row operations, or None when
doubles cannot carry the reduction.  Each Gram entry becomes a double
over one power of two fixed from the starting Gram matrix, so rows
whose Gram entries pass 2^1024 are pre-reduced too, as long as the
matrix spans less than about 2^2000.  gaussian_start runs it over Z[i]
(Napias, J. Theor. Nombres Bordeaux 8, 1996; Gan-Ling-Mow, IEEE Trans.
Signal Process. 57, 2009) for a lattice whose rows come in pairs (b,
i*b), on half the rows and with a Hermitian Gram matrix, and returns the
real image of its transform.  Either answer is a start for lll_reduce,
never a basis, so lll_reduce's answer and its exact check are the same
whichever start it is given; the exact integer reduction then only
finishes a basis that is almost reduced already.

Rows are plain lists of Python ints.  The transform matrix returned by
lll_reduce expresses each reduced row as an integer combination of the
input rows; its determinant is +-1.

A caller that already holds a unimodular transform close to the answer
can pass it as start: the reduction then begins from start * rows, and
the transform it returns is composed with start and checked exactly
against the rows, so it still maps the input rows to the basis.  The
flow search hands the transform it carries from window to window
straight to lll_reduce, and pre-reduces only a walk's first window, as
lll_reduce(rows, float_start(rows)).  Relation detection reduces every
relation lattice, a module over Z[i], as lll_reduce(rows,
gaussian_start(rows, carried)): the pre-reduction runs on carried * rows
and composes its transform with carried (the rows alone when nothing is
carried, or when carried is not the image of a matrix over Z[i]), and
hands carried back unchanged when doubles cannot carry the reduction.
Their module docstrings say what each carries.

The module keeps no memo: every call computes afresh and returns new
lists, and a caller that meets the same lattice again remembers its own
unit of work.
"""
from __future__ import annotations

import math
from operator import mul
from typing import List, Optional, Sequence, Tuple

Row = List[int]


def _dot(u: Row, v: Row) -> int:
    return sum(map(mul, u, v))


def _nearest_quotient(num: int, den: int) -> int:
    # round num/den to the nearest integer, den > 0; tie direction is
    # irrelevant for size reduction
    return (2 * num + den) // (2 * den)


def _exact_div(num: int, den: int) -> int:
    # every division in the integer LLL bookkeeping is exact by theory;
    # a remainder here means corrupted state, not a rounding question
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("inexact division in lattice reduction state")
    return q


def lll_reduce(
    rows: Sequence[Sequence[int]], start: Optional[Sequence[Sequence[int]]] = None
) -> Tuple[List[Row], List[Row]]:
    """Reduce a linearly independent integer basis; return (basis, transform).

    transform[i] holds the coefficients of reduced basis[i] in terms of the
    input rows; the exchange condition uses the Lovasz constant 3/4.
    start, when given, is a unimodular integer matrix with one row per
    input row, and the reduction begins from start * rows.
    Raises ValueError if the rows are empty, ragged or linearly dependent,
    or if start is not square and unimodular of that size.
    """
    rows = [list(map(int, r)) for r in rows]
    if not rows:
        raise ValueError("empty basis")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged basis")
    if start is None:
        return _lll(rows)
    start = [list(map(int, r)) for r in start]
    if len(start) != len(rows) or any(len(r) != len(rows) for r in start):
        raise ValueError("start transform must be square with one row per basis row")
    if abs(_det(start)) != 1:
        raise ValueError("start transform is not unimodular")
    basis, warm = _lll(_matmul(start, rows))
    transform = _matmul(warm, start)
    if _matmul(transform, rows) != basis:
        raise ArithmeticError("composed transform does not map the rows to the basis")
    return basis, transform


def _matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> List[Row]:
    cols = list(zip(*b))
    return [[_dot(row, col) for col in cols] for row in a]


def _det(matrix: Sequence[Sequence[int]]) -> int:
    # Bareiss fraction-free elimination: every division is exact
    a = [list(r) for r in matrix]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = _exact_div(a[i][j] * a[k][k] - a[i][k] * a[k][j], prev)
        prev = a[k][k]
    return sign * prev


def _lll(rows: Sequence[Sequence[int]]) -> Tuple[List[Row], List[Row]]:
    # the integer reduction itself, on non-empty rectangular rows
    n = len(rows)
    width = len(rows[0])

    b: List[Row] = [list(r) for r in rows]
    h: List[Row] = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    # d[i] = Gram determinant of b[0..i-1]; lam[i][j] = d[j+1] * mu_{i,j}
    d: List[int] = [1] * (n + 1)
    lam: List[List[int]] = [[0] * n for _ in range(n)]

    for i in range(n):
        for j in range(i + 1):
            u = _dot(b[i], b[j])
            for k in range(j):
                u = _exact_div(d[k + 1] * u - lam[i][k] * lam[j][k], d[k])
            if j < i:
                lam[i][j] = u
            else:
                if u <= 0:
                    raise ValueError("rows are linearly dependent")
                d[i + 1] = u

    def reduce_row(k: int, l: int) -> None:
        if 2 * abs(lam[k][l]) > d[l + 1]:
            r = _nearest_quotient(lam[k][l], d[l + 1])
            bk, bl = b[k], b[l]
            for c in range(width):
                bk[c] -= r * bl[c]
            hk, hl = h[k], h[l]
            for c in range(n):
                hk[c] -= r * hl[c]
            for j in range(l):
                lam[k][j] -= r * lam[l][j]
            lam[k][l] -= r * d[l + 1]

    def swap_rows(k: int) -> None:
        b[k], b[k - 1] = b[k - 1], b[k]
        h[k], h[k - 1] = h[k - 1], h[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lam_ = lam[k][k - 1]
        new_dk = _exact_div(d[k - 1] * d[k + 1] + lam_ * lam_, d[k])
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = _exact_div(d[k + 1] * lam[i][k - 1] - lam_ * t, d[k])
            lam[i][k - 1] = _exact_div(new_dk * t + lam_ * lam[i][k], d[k + 1])
        d[k] = new_dk

    k = 1
    while k < n:
        reduce_row(k, k - 1)
        lam_ = lam[k][k - 1]
        # Lovasz exchange condition at delta = 3/4, denominators cleared
        if 4 * (d[k + 1] * d[k - 1] + lam_ * lam_) < 3 * d[k] * d[k]:
            swap_rows(k)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce_row(k, l)
            k += 1

    return b, h


# float_start's reduction parameters: the lazy size-reduction bound eta and
# the Lovasz constant delta, as in L^2
_FLOAT_ETA = 0.51
_FLOAT_DELTA = 0.99


def _float_iterations(n: int, bits: int) -> int:
    # a cap on the visits (size-reduction passes and exchanges) of the
    # loops below, which follow LLL's O(n^2 log B) exchange count, with n
    # the rows the loop runs on: the cold 9-D flow window of a 256-bit
    # planted solve, with 171-bit entries, takes 1,098 of its 14,580, and
    # 13-D and 15-D windows with 70-bit entries take 409 and 541 of
    # 14,027 and 19,125; the same solve's relation lattices over Z[i],
    # with 240-bit entries, take 156-168 visits of 968 on 2 complex rows,
    # 230-284 of 2,187 on 3 and 335-392 of 3,904 on 4
    return n * n * (bits + n)


def _gram_unit(gram: Sequence[Sequence[int]]) -> int:
    # the one power of two that float_start and _gaussian_transform divide
    # every exact Gram entry by to make it a double: it brings the largest
    # entry, a diagonal one, to about 2^1000, and it is 1 below that, where
    # g / 1 is float(g).  Int true division rounds correctly and cannot
    # overflow there
    top = max(g[i] for i, g in enumerate(gram)).bit_length()
    return 1 << max(0, top - 1000)


def float_start(rows: Sequence[Sequence[int]]) -> Optional[List[Row]]:
    """A unimodular start for lll_reduce from a double-precision reduction.

    Returns an integer matrix T of determinant +-1, with one row per input
    row, such that T * rows is nearly reduced (|mu| <= 0.51 and the
    Lovasz condition at 0.99, up to double rounding), or None when doubles
    cannot carry the reduction: a zero or non-finite Gram-Schmidt pivot, a
    Gram entry that overflows, or more loop iterations than
    _float_iterations allows.  Either answer is a valid start: None means
    a cold exact reduction.

    Every Gram entry becomes a double divided by one power of two, fixed
    from the starting Gram matrix, that brings its largest entry to about
    2^1000, so rows past the double range are reduced too; the scale is 1
    for Gram entries below 2^1000.  A Gram matrix whose range no one scale
    holds, past about 2^2000, underflows to a zero pivot and is refused.

    The reduction of L^2 (Nguyen-Stehle, SIAM J. Comput. 39, 2009): the
    Gram matrix stays exact and follows every row operation, and each
    time row k is visited its Cholesky row is recomputed in doubles from
    the exact Gram row and the rows before it, so rounding errors never
    accumulate across visits.  The exact rows themselves are carried as
    the transform, which only elementary row operations ever touch.
    """
    rows = [list(map(int, r)) for r in rows]
    n = len(rows)
    if not n or not rows[0]:
        return None
    gram = [[_dot(u, v) for v in rows] for u in rows]
    unit = _gram_unit(gram)
    h: List[Row] = [[int(i == j) for j in range(n)] for i in range(n)]
    bits = max(abs(x) for r in rows for x in r).bit_length()
    limit = _float_iterations(n, bits)
    r = [[0.0] * n for _ in range(n)]
    mu = [[0.0] * n for _ in range(n)]
    iterations = 0
    try:
        r[0][0] = gram[0][0] / unit
        if not 0.0 < r[0][0] < math.inf:
            return None
        k = 1
        while k < n:
            gk, rk, muk = gram[k], r[k], mu[k]
            # lazy size reduction: recompute row k's Cholesky data from the
            # exact Gram row until every |mu_kj| is within eta
            while True:
                iterations += 1
                if iterations > limit:
                    return None
                for j in range(k):
                    s = gk[j] / unit
                    muj = mu[j]
                    for i in range(j):
                        s -= muj[i] * rk[i]
                    rk[j] = s
                    muk[j] = s / r[j][j]
                if all(abs(x) <= _FLOAT_ETA for x in muk[:k]):
                    break
                for j in range(k - 1, -1, -1):
                    x = round(muk[j])
                    if not x:
                        continue
                    # b_k -= x * b_j, in the Gram matrix and the transform
                    gj = gram[j]
                    gk[k] += x * (x * gj[j] - 2 * gk[j])
                    for i in range(n):
                        if i != k:
                            gk[i] -= x * gj[i]
                            gram[i][k] = gk[i]
                    hk, hj = h[k], h[j]
                    for i in range(n):
                        hk[i] -= x * hj[i]
                    muj = mu[j]
                    for i in range(j):
                        muk[i] -= x * muj[i]
            # s = |b*_k|^2 + mu_{k,k-1}^2 |b*_{k-1}|^2, what b*_{k-1}
            # would be after an exchange
            s = gk[k] / unit
            for i in range(k - 1):
                s -= muk[i] * rk[i]
            if _FLOAT_DELTA * r[k - 1][k - 1] > s:
                gram[k - 1], gram[k] = gram[k], gram[k - 1]
                for g in gram:
                    g[k - 1], g[k] = g[k], g[k - 1]
                h[k - 1], h[k] = h[k], h[k - 1]
                k = max(1, k - 1)
                if k == 1:
                    r[0][0] = gram[0][0] / unit
            else:
                rk[k] = s - muk[k - 1] * rk[k - 1]
                k += 1
            pivot = r[k - 1][k - 1]
            if not 0.0 < pivot < math.inf:
                return None
    except (OverflowError, ValueError):
        # a Gram entry that outgrew the scale, or a non-finite mu that
        # cannot be rounded to an integer
        return None
    return h


def gaussian_start(
    rows: Sequence[Sequence[int]], start: Optional[Sequence[Sequence[int]]] = None
) -> Optional[List[Row]]:
    """float_start for a lattice that is a module over Z[i], on half its rows.

    Read each pair of columns (x, y) as the Gaussian integer x + iy.  The
    rows come in pairs whose second row is i times the first, (x, y) ->
    (-y, x) in every column pair, so the rows 2p span the lattice over
    Z[i].  The reduction of float_start runs on those complex rows, with
    an exact Hermitian Gram matrix, Gram-Schmidt data in complex doubles
    and mu rounded to the nearest Gaussian integer.  The answer is the
    real image of its transform over Z[i]: an integer matrix of
    determinant +-1 whose 2x2 blocks all read [[a, b], [-b, a]] for the
    entry a + bi.  Over Z[i], T * rows is then nearly reduced (real and
    imaginary parts of mu within 0.51, the Lovasz condition at 0.99);
    as real rows that is size reduction within 0.51 and the Lovasz
    condition at 0.99 - 0.51^2, about 0.73 (Gan-Ling-Mow, IEEE Trans.
    Signal Process. 57, 2009), close to the 3/4 that lll_reduce asks.

    start, when given, is a transform the caller carries.  When its 2x2
    blocks have that form too, the reduction runs on start * rows and
    the answer is composed with start; otherwise the reduction starts
    from the rows alone.  When doubles cannot carry the reduction, for
    the reasons float_start gives, the answer is a fresh copy of start,
    or None without one.  start is not checked here; lll_reduce checks
    what it is given.  Raises ValueError if the rows do not come in
    such pairs.
    """
    half = _gaussian_half(rows)
    if half is None:
        raise ValueError("rows do not come in pairs (b, i*b) over Z[i]")
    carried = None
    if start is not None:
        start = [list(map(int, r)) for r in start]
        if len(start) == len(rows) and all(len(r) == len(rows) for r in start):
            carried = _gaussian_half(start)
    if carried is not None:
        half = _matmul(carried, rows)
    warm = _gaussian_transform(half)
    if warm is None:
        return start
    return warm if carried is None else _matmul(warm, start)


def _gaussian_half(matrix: Sequence[Sequence[int]]) -> Optional[List[Row]]:
    # the rows 2p of an integer matrix whose rows 2p + 1 are i times them,
    # (x, y) -> (-y, x) in every column pair, or None when it is not one
    if len(matrix) % 2 or any(len(r) % 2 for r in matrix):
        return None
    half = [list(map(int, r)) for r in matrix[0::2]]
    for row, turned in zip(half, matrix[1::2]):
        if list(turned) != [v for x, y in zip(row[0::2], row[1::2]) for v in (-y, x)]:
            return None
    return half


def _gaussian_transform(half: Sequence[Sequence[int]]) -> Optional[List[Row]]:
    # float_start over Z[i]: half holds one real row per complex row,
    # column pairs (x, y) for x + iy.  The exact Hermitian Gram matrix
    # <b_k, b_j> = sum b_k conj(b_j) is kept as its real and imaginary
    # parts gr and gi, the transform as hr and hi, and the Gram-Schmidt
    # data r_kj = <b_k, b*_j> and mu_kj = r_kj / |b*_j|^2 in complex
    # doubles.  Returns the real image of the transform, None when
    # doubles cannot carry the reduction.
    n = len(half)
    if not n or not half[0]:
        return None
    re = [r[0::2] for r in half]
    im = [r[1::2] for r in half]
    gr = [[_dot(ur, vr) + _dot(ui, vi) for vr, vi in zip(re, im)] for ur, ui in zip(re, im)]
    gi = [[_dot(ui, vr) - _dot(ur, vi) for vr, vi in zip(re, im)] for ur, ui in zip(re, im)]
    unit = _gram_unit(gr)
    hr: List[Row] = [[int(i == j) for j in range(n)] for i in range(n)]
    hi: List[Row] = [[0] * n for _ in range(n)]
    bits = max(abs(x) for r in half for x in r).bit_length()
    limit = _float_iterations(n, bits)
    r = [[0j] * n for _ in range(n)]
    mu = [[0j] * n for _ in range(n)]
    norms = [0.0] * n  # |b*_j|^2
    iterations = 0
    try:
        norms[0] = gr[0][0] / unit
        if not 0.0 < norms[0] < math.inf:
            return None
        k = 1
        while k < n:
            gkr, gki, rk, muk = gr[k], gi[k], r[k], mu[k]
            while True:
                iterations += 1
                if iterations > limit:
                    return None
                for j in range(k):
                    s = complex(gkr[j] / unit, gki[j] / unit)
                    muj = mu[j]
                    for i in range(j):
                        s -= muj[i].conjugate() * rk[i]
                    rk[j] = s
                    muk[j] = s / norms[j]
                if all(abs(x.real) <= _FLOAT_ETA and abs(x.imag) <= _FLOAT_ETA for x in muk[:k]):
                    break
                for j in range(k - 1, -1, -1):
                    xr, xi = round(muk[j].real), round(muk[j].imag)
                    if not (xr or xi):
                        continue
                    # b_k -= x * b_j for x = xr + i xi, in the Gram
                    # matrix and the transform
                    gjr, gji = gr[j], gi[j]
                    gkr[k] += (xr * xr + xi * xi) * gjr[j] - 2 * (xr * gkr[j] + xi * gki[j])
                    for i in range(n):
                        if i != k:
                            gkr[i] -= xr * gjr[i] - xi * gji[i]
                            gki[i] -= xr * gji[i] + xi * gjr[i]
                            gr[i][k], gi[i][k] = gkr[i], -gki[i]
                    hkr, hki, hjr, hji = hr[k], hi[k], hr[j], hi[j]
                    for i in range(n):
                        hkr[i] -= xr * hjr[i] - xi * hji[i]
                        hki[i] -= xr * hji[i] + xi * hjr[i]
                    x = complex(xr, xi)
                    muj = mu[j]
                    for i in range(j):
                        muk[i] -= x * muj[i]
            # s = |b*_k|^2 + |mu_{k,k-1}|^2 |b*_{k-1}|^2, what b*_{k-1}
            # would be after an exchange
            s = gkr[k] / unit
            for i in range(k - 1):
                s -= (muk[i].conjugate() * rk[i]).real
            if _FLOAT_DELTA * norms[k - 1] > s:
                for g in (gr, gi, hr, hi):
                    g[k - 1], g[k] = g[k], g[k - 1]
                for g in gr + gi:
                    g[k - 1], g[k] = g[k], g[k - 1]
                k = max(1, k - 1)
                if k == 1:
                    norms[0] = gr[0][0] / unit
            else:
                norms[k] = s - (muk[k - 1].conjugate() * rk[k - 1]).real
                k += 1
            if not 0.0 < norms[k - 1] < math.inf:
                return None
    except (OverflowError, ValueError):
        # a Gram entry that outgrew the scale, or a non-finite mu that
        # cannot be rounded to a Gaussian integer
        return None
    image: List[Row] = []
    for ar, ai in zip(hr, hi):
        image.append([v for a, b in zip(ar, ai) for v in (a, b)])
        image.append([v for a, b in zip(ar, ai) for v in (-b, a)])
    return image


def gram_schmidt_fractions(rows: Sequence[Sequence[int]]):
    """Exact rational GSO of integer rows, a reference for the tests.

    Returns (ortho_sq, mu) with ortho_sq[i] = |b*_i|^2 as a Fraction and
    mu[i][j] the GSO coefficients.  Raises ValueError if the rows are
    linearly dependent (some b*_i is zero).  fractions (and the decimal
    it loads) is imported here, not with the module, so no solve loads it.
    """
    from fractions import Fraction

    n = len(rows)
    basis = [[Fraction(x) for x in r] for r in rows]
    ortho: List[List[Fraction]] = []
    ortho_sq: List[Fraction] = []
    mu: List[List[Fraction]] = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        vec = list(basis[i])
        for j in range(i):
            mu[i][j] = sum(a * c for a, c in zip(basis[i], ortho[j])) / ortho_sq[j]
            vec = [a - mu[i][j] * c for a, c in zip(vec, ortho[j])]
        ortho.append(vec)
        ortho_sq.append(sum(a * a for a in vec))
        if ortho_sq[i] == 0:
            raise ValueError("rows are linearly dependent")
    return ortho_sq, mu


def is_reduced(rows: Sequence[Sequence[int]], delta=None) -> bool:
    """Exact check of the size-reduction and exchange conditions, a
    reference for the tests; delta is a Fraction, None for 3/4."""
    from fractions import Fraction

    if delta is None:
        delta = Fraction(3, 4)
    ortho_sq, mu = gram_schmidt_fractions(rows)
    n = len(rows)
    for i in range(n):
        for j in range(i):
            if abs(mu[i][j]) > Fraction(1, 2):
                return False
    for i in range(1, n):
        if ortho_sq[i] < (delta - mu[i][i - 1] ** 2) * ortho_sq[i - 1]:
            return False
    return True
