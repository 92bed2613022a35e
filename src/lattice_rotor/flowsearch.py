"""Search along a straight-line torus flow for a near-lattice time.

The task: given complex vectors V (direction) and W (offset), a target
eps and a horizon L_max, find the smallest s on the grid {j * delta} with
vec_frac_dist(W + s*V) < eps, where delta = eps / (4 * max|V_k|).  The
grid is fine enough that a continuous witness interval at half the target
cannot fall between grid points, and only samples strictly below eps are
ever accepted.

flow_search answers it with one walk of lattice-point enumeration windows
over the grid indices, in increasing j from j = 0.  Writing the condition
"j*delta*V close to Z[i]^m - W" as a closest-point question in a
(2m+1)-dimensional lattice makes the qualifying j of a window enumerable
without visiting the grid, in time that depends on the number of
near-solutions rather than on the window length (Fincke-Pohst bounds,
Math. Comp. 44, 1985).  The admissible region of a window is m unit
disks, one per entry, times the time interval, so the enumerated
ball has radius sqrt(m+1), and a point is a candidate when every entry
lies in its own disk.  Every window yields every qualifying index in it,
sorted, and every candidate is re-checked exactly, so the first verified
index is the true grid minimum.

Windows grow while they come up empty and shrink when the enumeration
exceeds its node budget.  The first window's length is derived from the
flow's own entry count m and eps.  For generic entries a grid point
lands within eps of the lattice with probability about (pi*eps^2)^m, so
the first hit is expected near index E = (pi*eps^2)^(-m), and the first
window is a few factors of the growth rate shorter than E.  The length
only decides how fast the walk gets there: a flow that hits long before E
(rational structure pins it to a subtorus) gets the same answer.

Every window's basis comes from the exact LLL (lll_reduce), at the one
call site the benchmark times; only its start differs.  A walk's first
window starts from float_start, a double-precision pre-reduction of its
rows (cold when doubles cannot carry it), so the exact reduction only
finishes an almost reduced basis.  Consecutive windows of one walk
differ only in length: the scale K grows with the window while the
step's time entry 2K/length stays put, so each later window starts from
the previous window's unimodular transform, whose product with the new
rows is nearly reduced already.  The enumerated point set is a property
of the lattice, not of the basis that spans it, so no start changes a
candidate.  Dilations of one direction walk the same windows from the
same starts, so the memos of float_start and lll_reduce answer every
window that an earlier walk has reduced.

Each window's target is the signed fractional parts of W + j0*delta*V at
its first index, computed at working precision.  Every candidate is
re-evaluated with mpmath before being accepted; doubles only ever decide
what to look at, never what to return.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import mpmath
import numpy as np
from mpmath import mpf

from .corelattice import ComplexVector, frac_dist
from .lll import float_start, lll_reduce
from .precision import raise_for_magnitude, working_precision

# a walk ends "exhausted" after this many windows, when a window of the
# floor length outgrows the node budget, or when a window's target leaves
# the int64 range; flow_search reads both budgets at call time
DEFAULT_WINDOW_BUDGET = 256
DEFAULT_NODE_BUDGET = 2_000_000

# enumeration windows grow by _WINDOW_GROWTH while empty and shrink by it,
# down to _WINDOW_FLOOR, when the enumeration exceeds its node budget;
# the first window is 2^_WINDOW_LEAD_BITS times shorter than the expected
# first-hit index, so a hit near that index is reached in the third window
_WINDOW_FLOOR = 1 << 16
_WINDOW_GROWTH = 4
_WINDOW_LEAD_BITS = 4


@dataclass(frozen=True)
class FlowSearchOutcome:
    """Result of one grid search; reason is one of found / absent /
    exhausted.  strategy is always "enumerate", the walk's one candidate
    source."""

    found: bool
    reason: str
    s: Optional[mpf]
    grid_index: Optional[int]
    strategy: str
    examined: int
    windows_used: int = 0


class _BudgetExceeded(Exception):
    pass


def flow_search(direction, offset, eps, L_max, bits: int) -> FlowSearchOutcome:
    """Smallest grid point s in [0, L_max] with vec_frac_dist(W + sV) < eps,
    for a direction without zero entries."""
    vec_v = direction if isinstance(direction, ComplexVector) else ComplexVector(tuple(direction), bits)
    vec_w = offset if isinstance(offset, ComplexVector) else ComplexVector(tuple(offset), bits)
    if len(vec_v) != len(vec_w):
        raise ValueError("direction and offset lengths differ")

    with working_precision(bits):
        eps = mpf(eps)
        L_max = mpf(L_max)
    if not (0 < eps < mpf(2) ** mpf("0.5") / 2):
        raise ValueError(f"eps must lie in (0, sqrt(2)/2), got {eps}")
    if not (mpmath.isfinite(L_max) and L_max >= 0):
        raise ValueError(f"L_max must be finite and >= 0, got {L_max}")

    # a zero entry never moves; relation detection keeps zeros out of the
    # solver's reduced blocks
    if any(z == 0 for z in vec_v):
        raise ValueError("degenerate direction: a direction entry is zero")
    max_abs = vec_v.max_abs()

    # evaluation precision must resolve eps on top of the largest value met
    bits_eval = raise_for_magnitude(
        bits, max(vec_w.max_abs(), L_max * max_abs, mpf(1)), eps
    )

    with working_precision(bits_eval):
        delta = eps / (4 * max_abs)
        grid_last = int(mpmath.floor(L_max / delta))

    # entries are already mpc at the vector's precision; re-wrapping in
    # mpc() here would round them to the ambient 53-bit default
    values_v = list(vec_v)
    values_w = list(vec_w)
    m = len(values_v)

    with working_precision(bits_eval):
        dv = [delta * z for z in values_v]
        dv_coords = [z.real for z in dv] + [z.imag for z in dv]

    def residues(j0: int) -> np.ndarray:
        """Signed fractional parts of W + j0*delta*V, real parts first."""
        with working_precision(bits_eval):
            s0 = mpf(j0) * delta
            w = [zw + s0 * zv for zv, zw in zip(values_v, values_w)]
            parts = [z.real for z in w] + [z.imag for z in w]
            return np.array([float(x - mpmath.nint(x)) for x in parts], dtype=np.float64)

    def verify(j: int) -> Optional[mpf]:
        with working_precision(bits_eval):
            s = mpf(j) * delta
            worst = mpf(0)
            for zv, zw in zip(values_v, values_w):
                d = frac_dist(zw + s * zv, bits_eval)
                if d > worst:
                    worst = d
            return s if worst < eps else None

    window_len = _first_window(m, eps)
    examined = windows = j0 = 0
    transform: Optional[List[List[int]]] = None

    def outcome(reason: str, j: Optional[int] = None, s=None) -> FlowSearchOutcome:
        return FlowSearchOutcome(
            found=s is not None,
            reason=reason,
            s=s,
            grid_index=j,
            strategy="enumerate",
            examined=examined,
            windows_used=windows,
        )

    # one walk of enumeration windows in increasing j from j = 0; each
    # window yields sorted relative candidates that are re-checked exactly,
    # so the first verified index is the grid minimum
    while j0 <= grid_last:
        if windows >= DEFAULT_WINDOW_BUDGET:
            return outcome("exhausted")
        windows += 1
        count = min(window_len, grid_last - j0 + 1)
        rows, scale = _window_lattice(dv_coords, eps, count, bits_eval)
        # the first window starts from a double-precision pre-reduction
        # (cold when there is none), every later one from the last
        # window's transform, also one whose enumeration outgrew the node
        # budget
        if transform is None:
            transform = float_start(rows)
        basis, transform = lll_reduce(rows, transform)
        try:
            candidates = _window_candidates(
                basis, transform, scale, -residues(j0), eps, count, DEFAULT_NODE_BUDGET
            )
        except _BudgetExceeded:
            if window_len > _WINDOW_FLOOR:
                window_len = max(_WINDOW_FLOOR, window_len // _WINDOW_GROWTH)
                continue
            return outcome("exhausted")
        except OverflowError:
            # the target's coefficients passed the int64 range, where
            # doubles have long lost their integer part: no window resolves
            return outcome("exhausted")
        examined += len(candidates)
        window_len *= _WINDOW_GROWTH
        for j_rel in candidates:
            s = verify(j0 + j_rel)
            if s is not None:
                return outcome("found", j0 + j_rel, s)
        j0 += count
    return outcome("absent")


def _first_window(m: int, eps: mpf) -> int:
    """First enumeration window length for a flow with m entries at
    tolerance eps.

    It follows from m and eps alone, never from a clock or a budget, so
    the same flow always takes the same walk.
    """
    with working_precision(53):
        log2_eps = float(mpmath.log(eps, 2))
    # log2 of the expected first-hit index E = (pi*eps^2)^(-m)
    log2_hit = math.floor(-m * (math.log2(math.pi) + 2 * log2_eps))
    return max(_WINDOW_FLOOR, 1 << max(0, log2_hit - _WINDOW_LEAD_BITS))


def _window_lattice(
    dv_coords: Sequence[mpf], eps: mpf, window_len: int, bits_eval: int
) -> Tuple[List[List[int]], int]:
    """Integer rows of the rank d+1 lattice of one window, and its scale K.

    The lattice is spanned by one grid step and the unit translations,
    scaled by K/eps so the admissible region is m unit disks, one per
    entry, times the time interval; the step's time entry
    2K/window_len maps the window onto [0, 2).  The embedding is
    computed from the exact step coordinates; rounding the step to a
    double first would drift by many eps over a long window and falsify
    the lattice itself.
    """
    d = len(dv_coords)
    # embedding scale keeping rounding error far below one eps-unit across
    # the whole window
    scale_bits = max(64, window_len.bit_length() + max(0, int(-math.log2(float(eps)))) + 48)
    K = 1 << scale_bits

    with working_precision(max(bits_eval, scale_bits + 32)):
        big = mpf(K)
        step_row = [int(mpmath.nint(big * c / eps)) for c in dv_coords]
        step_row.append(int(mpmath.nint(2 * big / window_len)))
        trans_entry = int(mpmath.nint(big / eps))
    rows = [step_row]
    for c in range(d):
        tr = [0] * (d + 1)
        tr[c] = trans_entry
        rows.append(tr)
    return rows, K


def _window_candidates(
    basis: Sequence[Sequence[int]],
    transform: Sequence[Sequence[int]],
    scale: int,
    target: Sequence[float],
    eps: mpf,
    window_len: int,
    node_budget: int,
) -> List[int]:
    """Sorted relative grid indices in [0, window_len) whose flow point can
    lie within eps of the integer lattice, with safety margins.

    basis is an LLL-reduced basis of the window's _window_lattice rows at
    scale K, and transform maps those rows to it; the candidates depend on
    the lattice only, never on which reduced basis spans it.  The
    admissible region, m unit disks times the time interval, lies within
    sqrt(m+1) of the window target: that ball is enumerated, each point
    is kept when every entry lies in its own slightly inflated
    disk, and each survivor's grid index is read off the transform's first
    column.
    """
    n = len(basis)
    d = n - 1
    m = d // 2
    eps_f = float(eps)
    reduced_f = np.array(basis, dtype=np.float64) / float(scale)

    mu, bstar_sq = _gso(reduced_f)
    if min(bstar_sq) <= 0:
        raise ArithmeticError("degenerate lattice in flow enumeration")

    radius = math.sqrt(m + 1) * 1.01 + 0.05
    tau = np.array(
        [t * (1.0 / eps_f) for t in target] + [1.0], dtype=np.float64
    )

    us = _enumerate_ball(
        reduced_f, mu, bstar_sq, tau, radius * radius, node_budget
    )

    if not len(us):
        return []
    # keep the lattice points whose every entry lies in its slightly
    # inflated disk (real parts first, then imaginary parts), all at once;
    # only the survivors get their exact grid index
    disk_tol = 1.0 + 0.02
    offsets = us @ reduced_f - tau
    inside = (offsets[:, :m] ** 2 + offsets[:, m:d] ** 2).max(axis=1) <= disk_tol * disk_tol
    j_col = [row[0] for row in transform]
    out = set()
    for u in us[inside].tolist():
        j_rel = sum(c * j for c, j in zip(u, j_col))
        if 0 <= j_rel < window_len:
            out.add(j_rel)
    return sorted(out)


def _gso(basis: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    n = basis.shape[0]
    mu = np.zeros((n, n))
    ortho = basis.astype(np.float64).copy()
    bstar_sq = np.zeros(n)
    for i in range(n):
        for j in range(i):
            mu[i, j] = float(np.dot(basis[i], ortho[j]) / bstar_sq[j])
            ortho[i] -= mu[i, j] * ortho[j]
        bstar_sq[i] = float(np.dot(ortho[i], ortho[i]))
    return mu, bstar_sq


def _enumerate_ball(
    basis: np.ndarray,
    mu: np.ndarray,
    bstar_sq: np.ndarray,
    tau: np.ndarray,
    radius_sq: float,
    node_budget: int,
) -> np.ndarray:
    """All integer coefficient vectors u with |u*basis - tau| <= radius, as
    the rows of one int64 array.

    A depth-first walk of the Fincke-Pohst bounds from the last level
    down, as an explicit loop; the first level's admissible values form
    one integer range, emitted whole.  Every value tried at any level
    counts as one node, and _BudgetExceeded is raised once the count
    passes node_budget.
    """
    n = basis.shape[0]
    # plain floats: the same IEEE arithmetic as numpy scalars, faster
    y = np.linalg.solve(basis.T, tau).tolist()
    mu_t = mu.T.tolist()
    b = bstar_sq.tolist()

    u = [0] * n
    diff = [0.0] * n
    remaining = [0.0] * n
    center = [0.0] * n
    top = [0] * n
    # one record per emitted range: first value, length, then u[1:]
    ranges: List[List[int]] = []
    nodes = 0

    k = n - 1
    remaining[k] = radius_sq
    while k < n:
        # enter level k: bounds from the levels above it
        c = y[k]
        mu_k = mu_t[k]
        for i in range(k + 1, n):
            c -= diff[i] * mu_k[i]
        half = math.sqrt(max(remaining[k], 0.0) / b[k])
        lo = math.ceil(c - half - 1e-12)
        hi = math.floor(c + half + 1e-12)
        if k > 0:
            center[k], u[k], top[k] = c, lo - 1, hi
        else:
            nodes += max(0, hi - lo + 1)
            if nodes > node_budget:
                raise _BudgetExceeded
            # the range's ends may overshoot the bound by the rounding
            # slack; the values between them are inside
            bound = remaining[0] + 1e-12
            while lo <= hi and (lo - c) * (lo - c) * b[0] > bound:
                lo += 1
            while lo <= hi and (hi - c) * (hi - c) * b[0] > bound:
                hi -= 1
            if lo <= hi:
                ranges.append([lo, hi - lo + 1] + u[1:])
            k = 1
        # next value at level k, climbing while a level is used up
        while k < n:
            cand = u[k] + 1
            if cand > top[k]:
                k += 1
                continue
            u[k] = cand
            nodes += 1
            if nodes > node_budget:
                raise _BudgetExceeded
            step = cand - center[k]
            used = step * step * b[k]
            if used <= remaining[k] + 1e-12:
                diff[k] = cand - y[k]
                remaining[k - 1] = remaining[k] - used
                k -= 1
                break

    records = np.array(ranges, dtype=np.int64).reshape(len(ranges), n + 1)
    sizes = records[:, 1]
    rows = np.repeat(records[:, 1:], sizes, axis=0)
    # the first coefficient runs through each range: its start, shifted by
    # the range's offset among the rows, plus the row number
    shift = records[:, 0] - (np.cumsum(sizes) - sizes)
    rows[:, 0] = np.repeat(shift, sizes) + np.arange(len(rows))
    return rows
