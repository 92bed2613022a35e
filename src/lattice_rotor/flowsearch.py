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
call site the benchmark times; only its start differs.  Consecutive
windows of one walk differ only in length: the scale K grows with the
window while the step's time entry 2K/length stays put, so each later
window hands the previous window's unimodular transform straight to the
exact LLL, whose product with the new rows is nearly reduced already.
A walk's first window carries none, and starts from float_start, a
double-precision pre-reduction of its rows, or from scratch where
doubles cannot carry it.  The enumerated point set is a property of the
lattice, not of the basis that spans it, so no start changes a
candidate.

Dilations of one direction walk the same windows from the same starts:
a window's lattice follows from the step coordinates, eps, its length
and the evaluation precision, never from t.  Two memos answer every
window an earlier walk has met, each keeping its last 32 answers under
exact keys and handing out tuples: _window_lattice its rows and scale,
and _reduced_window everything of it that the target does not change
(the exact reduction and its transform, the basis in doubles and its
Gram-Schmidt data).  _reduced_window is keyed on the integer rows, the
scale and the carried transform, not on the step coordinates:
dilations whose evaluation precision differs by a bit draw phases that
differ only in low bits, and their windows' rows still round to the
same integers.  Only the target moves with t; its residues, its
coordinates, the enumeration and the exact verification run on every
window.

Each window's target is the signed fractional parts of W + j0*delta*V at
its first index, in fixed point: once per call, every coordinate of W
and of the step delta*V becomes an integer with frac_bits = bits_eval +
64 fractional bits (_fixed_point: exact where the mpf has no bit below
2^-frac_bits, else rounded down by less than that unit), and each
window's residues are integer additions, a mask and one rounding to a
double (_residues), with no mpmath call and no precision context.  The
evaluation precision keeps grid_last within 2^(bits_eval - 46)
(raise_for_magnitude adds 48 bits past the magnitude and resolution
bits), so j0 times the step's rounding, plus W's, stays below 2^-100:
far below the double rounding that follows, and below every margin the
enumeration keeps.  Every candidate is re-evaluated with mpmath at
bits_eval before being accepted; integers and doubles only ever decide
what to look at, never what to return.  A window whose target lies so
far out that a double no longer holds its coordinates' integer part
(2^52 and up), or whose scale is past the double range, ends the walk
"exhausted": doubles cannot tell there what to look at.  The scale is
checked as soon as the window's lattice is built, before either
reduction, since no basis would let the enumeration read it.

The lattices are at most (2m+1)-dimensional, so the window arithmetic
runs on plain Python floats and ints, which at this size cost less than
any array library's per-call overhead; the module imports no numpy.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from operator import mul
from typing import List, NamedTuple, Optional, Sequence, Tuple

import mpmath
from mpmath import mpf
from mpmath.libmp import to_fixed

from .corelattice import ComplexVector, frac_dist
from .lll import float_start, lll_reduce
from .precision import below_half_sqrt2, raise_for_magnitude, working_precision

# a walk ends "exhausted" after this many windows, when a window of the
# floor length outgrows the node budget, or when a window's target
# coordinates reach _Y_RESOLUTION or its scale passes the double range;
# flow_search reads both budgets at call time
DEFAULT_WINDOW_BUDGET = 256
DEFAULT_NODE_BUDGET = 2_000_000

# enumeration windows grow by _WINDOW_GROWTH while empty and shrink by it,
# down to _WINDOW_FLOOR, when the enumeration exceeds its node budget;
# the first window is 2^_WINDOW_LEAD_BITS times shorter than the expected
# first-hit index, so a hit near that index is reached in the third window
_WINDOW_FLOOR = 1 << 16
_WINDOW_GROWTH = 4
_WINDOW_LEAD_BITS = 4

# from 2^52 on, a double's spacing is 1 or more, so it no longer holds the
# integer part of a target coordinate and its enumeration is noise
_Y_RESOLUTION = 2.0**52

# window targets are fixed-point integers with this many fractional bits
# past the evaluation precision (see _fixed_point and _residues)
_FIXED_GUARD_BITS = 64


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


# an integer matrix as the memos keep it, one tuple per row
Matrix = Tuple[Tuple[int, ...], ...]


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
    if not below_half_sqrt2(eps):
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

    # entries are already mpc at the vector's precision; re-wrapping in
    # mpc() here would round them to the ambient 53-bit default
    values_v = list(vec_v)
    values_w = list(vec_w)
    m = len(values_v)

    with working_precision(bits_eval):
        delta = eps / (4 * max_abs)
        grid_last = int(mpmath.floor(L_max / delta))
        dv = [delta * z for z in values_v]
        dv_coords = tuple([z.real for z in dv] + [z.imag for z in dv])

    coords_w = [z.real for z in values_w] + [z.imag for z in values_w]
    offset_fixed = _fixed_point(coords_w, bits_eval)
    step_fixed = _fixed_point(dv_coords, bits_eval)

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
    transform: Optional[Matrix] = None

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
        if scale > sys.float_info.max:
            # no basis would let the enumeration read a scale past the
            # double range, so the walk ends before reducing it
            return outcome("exhausted")
        try:
            # every window after the first starts from the last window's
            # transform, also from one whose enumeration outgrew the node
            # budget
            window = _reduced_window(rows, scale, transform)
            transform = window.transform
            residues = _residues(offset_fixed, step_fixed, j0, bits_eval)
            candidates = _window_candidates(
                window, [-r for r in residues], eps, count, DEFAULT_NODE_BUDGET
            )
        except _BudgetExceeded:
            if window_len > _WINDOW_FLOOR:
                window_len = max(_WINDOW_FLOOR, window_len // _WINDOW_GROWTH)
                continue
            return outcome("exhausted")
        except OverflowError:
            # the window's reduced basis or target coordinates are past
            # what doubles resolve, and skipping the window would lose the
            # grid minimum
            return outcome("exhausted")
        examined += len(candidates)
        window_len *= _WINDOW_GROWTH
        for j_rel in candidates:
            s = verify(j0 + j_rel)
            if s is not None:
                return outcome("found", j0 + j_rel, s)
        j0 += count
    return outcome("absent")


def _fixed_point(coords: Sequence[mpf], bits_eval: int) -> List[int]:
    """coords as integers in units of 2^-frac_bits, frac_bits = bits_eval
    + _FIXED_GUARD_BITS: exact where a coordinate has no bit below that
    unit, else rounded down by less than one unit."""
    frac_bits = bits_eval + _FIXED_GUARD_BITS
    return [to_fixed(x._mpf_, frac_bits) for x in coords]


def _residues(offset: Sequence[int], step: Sequence[int], j0: int, bits_eval: int) -> List[float]:
    """Signed fractional parts of W + j0*delta*V, from the _fixed_point
    coordinates of W (offset) and of delta*V (step) at bits_eval.

    Each part is ((w + j0*a + half) & mask) - half in exact integers, in
    [-1/2, 1/2), then one rounding to a double, which may round a part
    just under 1/2 up to 1/2 itself.  An exact half-integer coordinate
    gives -1/2 where mpmath's nint may give +1/2; the two targets differ
    by a unit translation, which every window's lattice holds up to the
    1/K rounding of its translation rows, far inside the enumeration's
    margins, so the window's candidates are the same.
    """
    frac_bits = bits_eval + _FIXED_GUARD_BITS
    half = 1 << (frac_bits - 1)
    mask = (1 << frac_bits) - 1
    # float() of an integer below 2^1024 rounds it correctly; a longer
    # one first drops bits far below a double's resolution
    drop = max(0, frac_bits - 960)
    return [
        math.ldexp(float((((w + j0 * a + half) & mask) - half) >> drop), drop - frac_bits)
        for w, a in zip(offset, step)
    ]


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


@functools.lru_cache(maxsize=32)
def _window_lattice(
    dv_coords: Tuple[mpf, ...], eps: mpf, window_len: int, bits_eval: int
) -> Tuple[Matrix, int]:
    """Integer rows of the rank d+1 lattice of one window, and its scale K.

    The lattice is spanned by one grid step and the unit translations,
    scaled by K/eps so the admissible region is m unit disks, one per
    entry, times the time interval; the step's time entry
    2K/window_len maps the window onto [0, 2).  The embedding is
    computed from the exact step coordinates; rounding the step to a
    double first would drift by many eps over a long window and falsify
    the lattice itself.

    Answers for the last 32 distinct inputs are remembered, keyed on the
    exact step coordinates, eps, length and bits_eval.
    """
    d = len(dv_coords)
    # embedding scale keeping rounding error far below one eps-unit across
    # the whole window; an eps that rounds to a zero double takes its bit
    # count from mpmath, and its scale is past the double range
    eps_f = float(eps)
    eps_bits = -math.log2(eps_f) if eps_f else -float(mpmath.log(eps, 2))
    scale_bits = max(64, window_len.bit_length() + max(0, int(eps_bits)) + 48)
    K = 1 << scale_bits

    with working_precision(max(bits_eval, scale_bits + 32)):
        big = mpf(K)
        step_row = [int(mpmath.nint(big * c / eps)) for c in dv_coords]
        step_row.append(int(mpmath.nint(2 * big / window_len)))
        trans_entry = int(mpmath.nint(big / eps))
    rows = [tuple(step_row)]
    for c in range(d):
        tr = [0] * (d + 1)
        tr[c] = trans_entry
        rows.append(tuple(tr))
    return tuple(rows), K


class _ReducedWindow(NamedTuple):
    """What a window keeps whatever its target: the transform mapping its
    rows to their LLL-reduced basis, that basis in doubles over the scale
    K, and the basis's Gram-Schmidt data: mu[i][j] for j < i, the squared
    lengths |b*_k|^2 and the orthogonalized rows b*_k."""

    transform: Matrix
    basis: Tuple[Tuple[float, ...], ...]
    mu: Tuple[Tuple[float, ...], ...]
    bstar_sq: Tuple[float, ...]
    ortho: Tuple[Tuple[float, ...], ...]


@functools.lru_cache(maxsize=32)
def _reduced_window(rows: Matrix, scale: int, start: Optional[Matrix]) -> _ReducedWindow:
    """The reduction of one window's _window_lattice rows at scale K.

    start is the unimodular transform carried from the window before,
    where the exact LLL begins; a walk's first window carries None and
    begins from float_start's pre-reduction of its rows, or from scratch
    when doubles cannot carry it.  Answers for the last 32 distinct
    inputs are remembered, keyed on the exact rows, scale and start.
    OverflowError when the reduced basis is past the double range;
    ArithmeticError when doubles see the lattice as degenerate.
    """
    reduced, transform = lll_reduce(rows, start if start is not None else float_start(rows))
    scale_f = float(scale)
    basis = [[float(c) / scale_f for c in row] for row in reduced]
    n = len(basis)
    mu = [[0.0] * n for _ in range(n)]
    ortho: List[List[float]] = []
    bstar_sq: List[float] = []
    for row, mu_row in zip(basis, mu):
        v = row
        for j, o in enumerate(ortho):
            f = mu_row[j] = sum(map(mul, row, o)) / bstar_sq[j]
            v = [a - f * b for a, b in zip(v, o)]
        norm_sq = sum(map(mul, v, v))
        if not norm_sq > 0:
            raise ArithmeticError("degenerate lattice in flow enumeration")
        ortho.append(v)
        bstar_sq.append(norm_sq)
    return _ReducedWindow(
        transform=tuple(map(tuple, transform)),
        basis=tuple(map(tuple, basis)),
        mu=tuple(map(tuple, mu)),
        bstar_sq=tuple(bstar_sq),
        ortho=tuple(map(tuple, ortho)),
    )


def _window_candidates(
    window: _ReducedWindow,
    target: Sequence[float],
    eps: mpf,
    window_len: int,
    node_budget: int,
) -> List[int]:
    """Sorted relative grid indices in [0, window_len) whose flow point can
    lie within eps of the integer lattice, with safety margins.

    window is the _reduced_window of the window's lattice; the candidates
    depend on the lattice only, never on which reduced basis spans it.
    The admissible region, m unit disks times the time interval, lies
    within sqrt(m+1) of the window target: that ball is enumerated, each
    point is kept when every entry lies in its own slightly inflated
    disk, and each survivor's grid index is read off the transform's first
    column.  OverflowError when a target coordinate reaches _Y_RESOLUTION.
    """
    reduced_f = window.basis
    n = len(reduced_f)
    d = n - 1
    m = d // 2
    eps_f = float(eps)
    tau = [t * (1.0 / eps_f) for t in target] + [1.0]

    y = _gso(window, tau)
    if max(abs(c) for c in y) >= _Y_RESOLUTION:
        raise OverflowError("window target past the doubles' integer resolution")

    radius = math.sqrt(m + 1) * 1.01 + 0.05
    ranges = _enumerate_ball(window.mu, window.bstar_sq, y, radius * radius, node_budget)

    # keep the lattice points whose every entry lies in its slightly
    # inflated disk (real parts first, then imaginary parts); the points
    # of a range step along it by the first basis row
    disk_sq = (1.0 + 0.02) ** 2
    first = reduced_f[0]
    j_col = [row[0] for row in window.transform]
    out = set()
    for lo, count, rest in ranges:
        point = [lo * b - t for b, t in zip(first, tau)]
        for c, row in zip(rest, reduced_f[1:]):
            if c:
                point = [p + c * b for p, b in zip(point, row)]
        j_lo = lo * j_col[0] + sum(map(mul, rest, j_col[1:]))
        disks = list(zip(point[:m], point[m:d], first[:m], first[m:d]))
        for i in range(count):
            for re, im, step_re, step_im in disks:
                a = re + i * step_re
                b = im + i * step_im
                if a * a + b * b > disk_sq:
                    break
            else:
                j_rel = j_lo + i * j_col[0]
                if 0 <= j_rel < window_len:
                    out.add(j_rel)
    return sorted(out)


def _gso(window: _ReducedWindow, target: Sequence[float]) -> List[float]:
    """target's coordinates y in the window's basis, target = sum y_k b_k.

    target's component along b*_k is y_k + sum_{i>k} y_i mu[i][k], so y
    follows from the projections by back-substitution.
    """
    mu, bstar_sq, ortho = window.mu, window.bstar_sq, window.ortho
    n = len(bstar_sq)
    y = [0.0] * n
    for k in range(n - 1, -1, -1):
        along = sum(map(mul, target, ortho[k])) / bstar_sq[k]
        y[k] = along - sum(y[i] * mu[i][k] for i in range(k + 1, n))
    return y


def _enumerate_ball(
    mu: Sequence[Sequence[float]],
    bstar_sq: Sequence[float],
    y: Sequence[float],
    radius_sq: float,
    node_budget: int,
) -> List[Tuple[int, int, Tuple[int, ...]]]:
    """All integer coefficient vectors u with |sum (u_k - y_k) b_k| <= radius,
    for the basis b_k with Gram-Schmidt data mu and bstar_sq, as ranges
    (first, count, rest): the vectors (first + i, *rest) for i < count.

    A depth-first walk of the Fincke-Pohst bounds from the last level
    down, as an explicit loop; the first level's admissible values form
    one integer range, emitted whole.  Every value tried at any level
    counts as one node, and _BudgetExceeded is raised once the count
    passes node_budget.
    """
    n = len(bstar_sq)
    mu_t = [list(col) for col in zip(*mu)]
    b = bstar_sq

    u = [0] * n
    diff = [0.0] * n
    remaining = [0.0] * n
    center = [0.0] * n
    top = [0] * n
    ranges: List[Tuple[int, int, Tuple[int, ...]]] = []
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
                ranges.append((lo, hi - lo + 1, tuple(u[1:])))
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
    return ranges
