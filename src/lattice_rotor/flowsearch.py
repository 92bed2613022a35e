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

Dilations of one direction share everything but the target: the grid
follows from the direction, eps and the evaluation precision, and a
window's lattice from the grid step, its length and that precision,
never from t.  Four memos answer what an earlier walk has met, each
keeping its last 32 answers and handing out tuples: _max_abs a
direction's max|V|, _grid_step its grid at one evaluation precision
(delta, the step coordinates and their fixed-point integers, and
log2 eps), _window_lattice a window's rows and scale, and
_reduced_window everything of a window that the target does not change
(the exact reduction, its transform and that transform's first column,
the basis in doubles and its Gram-Schmidt data, mu by columns).  The
first three are keyed on raw libmp tuples (an mpc's _mpc_, an mpf's
_mpf_) and ints: mpmath keeps raw values normalized, so two keys are
equal exactly when their values are, and hashing them runs in C.
_reduced_window is keyed on the integer rows, the scale and the carried
transform, not on the step coordinates: dilations whose evaluation
precision differs by a bit draw phases that differ only in low bits,
and their windows' rows still round to the same integers.  The window
constants and the budgets are read on every call, and no memo's answer
depends on them: a window's length is part of its key.  Only the target
moves with t: W's fixed-point coordinates and the last grid index once
per call, and each window's residues, coordinates, enumeration and
exact verification.

Each window's target is the signed fractional parts of W + j0*delta*V at
its first index, in fixed point: every coordinate of W (once per call)
and of the step delta*V (once per _grid_step) becomes an integer with
frac_bits = bits_eval + 64 fractional bits (_fixed_point: exact where
the mpf has no bit below 2^-frac_bits, else rounded down by less than
that unit), and each
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
"exhausted": doubles cannot tell there what to look at.  Both raise
OverflowError, the scale's first thing in _reduced_window, before either
reduction, since no basis would let the enumeration read it.  They end
the walk at the one exit that the window budget and a floor-length
window over the node budget take too, where its one outcome is built.

The lattices are at most (2m+1)-dimensional, so the window arithmetic
runs on plain Python floats and ints, which at this size cost less than
any array library's per-call overhead; the module imports no numpy.
"""
from __future__ import annotations

import functools
import math
from operator import mul
from typing import List, NamedTuple, Optional, Sequence, Tuple

import mpmath
from mpmath import mpf
from mpmath.libmp import (
    from_int,
    fzero,
    mpc_abs,
    mpc_add,
    mpc_mul_mpf,
    mpf_div,
    mpf_floor,
    mpf_mul,
    to_fixed,
    to_int,
)

from .corelattice import ComplexVector, frac_dist
from .lll import float_start, lll_reduce
from .precision import (
    NEAREST,
    below_half_sqrt2,
    check_precision,
    make_mpc,
    make_mpf,
    raise_for_magnitude,
    working_precision,
)

# a walk ends "exhausted" after this many windows, when a window of the
# floor length outgrows the node budget, or at an OverflowError: a
# window's target coordinates reach _Y_RESOLUTION or its scale passes the
# double range; flow_search reads both budgets at call time
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


class FlowSearchOutcome(NamedTuple):
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
# raw libmp values, the memos' keys: an mpf's _mpf_ tuple and an mpc's
# _mpc_ pair of them
RawMpf = Tuple[int, int, int, int]
RawMpc = Tuple[RawMpf, RawMpf]
_ZERO: RawMpc = (fzero, fzero)


def flow_search(direction, offset, eps, L_max, bits: int) -> FlowSearchOutcome:
    """Smallest grid point s in [0, L_max] with vec_frac_dist(W + sV) < eps,
    for a direction without zero entries."""
    vec_v = direction if isinstance(direction, ComplexVector) else ComplexVector(tuple(direction), bits)
    vec_w = offset if isinstance(offset, ComplexVector) else ComplexVector(tuple(offset), bits)
    if len(vec_v) != len(vec_w):
        raise ValueError("direction and offset lengths differ")

    # eps and L_max rounded at bits, with no precision context
    check_precision(bits)
    eps = mpf(eps, prec=bits, rounding=NEAREST)
    L_max = mpf(L_max, prec=bits, rounding=NEAREST)
    if not below_half_sqrt2(eps):
        raise ValueError(f"eps must lie in (0, sqrt(2)/2), got {eps}")
    if not (mpmath.isfinite(L_max) and L_max >= 0):
        raise ValueError(f"L_max must be finite and >= 0, got {L_max}")

    # a zero entry never moves; relation detection keeps zeros out of the
    # solver's reduced blocks
    entries = tuple(z._mpc_ for z in vec_v)
    if any(z == _ZERO for z in entries):
        raise ValueError("degenerate direction: a direction entry is zero")
    max_abs = _max_abs(entries, vec_v.bits)

    # evaluation precision must resolve eps on top of the largest value met
    bits_eval = raise_for_magnitude(
        bits, max(vec_w.max_abs(), L_max * max_abs, mpf(1)), eps
    )
    step = _grid_step(entries, vec_v.bits, eps._mpf_, bits_eval)
    raw_delta = step.delta
    # floor(L_max / delta) at bits_eval
    last = mpf_div(L_max._mpf_, raw_delta, bits_eval, NEAREST)
    grid_last = to_int(mpf_floor(last, bits_eval, NEAREST))

    offset_fixed = _fixed_point([z.real for z in vec_w] + [z.imag for z in vec_w], bits_eval)
    m = len(entries)

    # the exact check of grid index j: W + s*V with s = j*delta, every
    # operation rounded at bits_eval
    raw_pairs = [(zv, zw._mpc_) for zv, zw in zip(entries, vec_w)]

    def verify(j: int) -> Optional[mpf]:
        s = mpf_mul(from_int(j, bits_eval, NEAREST), raw_delta, bits_eval, NEAREST)
        points = (
            mpc_add(zw, mpc_mul_mpf(zv, s, bits_eval, NEAREST), bits_eval, NEAREST)
            for zv, zw in raw_pairs
        )
        worst = max(frac_dist(make_mpc(p), bits_eval) for p in points)
        return make_mpf(s) if worst < eps else None

    window_len = _first_window(m, step.log2_eps)
    examined = windows = j0 = 0
    transform: Optional[Matrix] = None
    s = grid_index = None

    # one walk of enumeration windows in increasing j from j = 0; each
    # window yields sorted relative candidates that are re-checked exactly,
    # so the first verified index is the grid minimum.  The walk ends
    # "found" there, "absent" past grid_last, and "exhausted" anywhere
    # else: at the window budget or at a refused window
    while s is None and j0 <= grid_last and windows < DEFAULT_WINDOW_BUDGET:
        windows += 1
        count = min(window_len, grid_last - j0 + 1)
        rows, scale = _window_lattice(step.coords, eps._mpf_, count, bits_eval)
        try:
            # every window after the first starts from the last window's
            # transform, also from one whose enumeration outgrew the node
            # budget
            window = _reduced_window(rows, scale, transform)
            transform = window.transform
            residues = _residues(offset_fixed, step.fixed, j0, bits_eval)
            candidates = _window_candidates(
                window, [-r for r in residues], eps, count, DEFAULT_NODE_BUDGET
            )
        except (_BudgetExceeded, OverflowError) as refusal:
            # a window over the node budget shrinks toward the floor; one
            # of the floor length, or one past what doubles resolve, ends
            # the walk, since skipping it would lose the grid minimum
            if isinstance(refusal, OverflowError) or window_len <= _WINDOW_FLOOR:
                break
            window_len = max(_WINDOW_FLOOR, window_len // _WINDOW_GROWTH)
            continue
        examined += len(candidates)
        window_len *= _WINDOW_GROWTH
        for j_rel in candidates:
            s = verify(j0 + j_rel)
            if s is not None:
                grid_index = j0 + j_rel
                break
        else:
            j0 += count
    reason = "found" if s is not None else "absent" if j0 > grid_last else "exhausted"
    return FlowSearchOutcome(
        found=s is not None, reason=reason, s=s, grid_index=grid_index,
        strategy="enumerate", examined=examined, windows_used=windows,
    )


def _fixed_point(coords: Sequence[mpf], bits_eval: int) -> List[int]:
    """coords as integers in units of 2^-frac_bits, frac_bits = bits_eval
    + _FIXED_GUARD_BITS: exact where a coordinate has no bit below that
    unit, else rounded down by less than one unit."""
    frac_bits = bits_eval + _FIXED_GUARD_BITS
    return [to_fixed(x._mpf_, frac_bits) for x in coords]


@functools.lru_cache(maxsize=32)
def _max_abs(entries: Tuple[RawMpc, ...], bits: int) -> mpf:
    """max|V_k| over a direction's raw entries, each modulus rounded at the
    direction's bits, as ComplexVector.max_abs takes it.  Answers for the
    last 32 distinct directions are remembered."""
    return max(make_mpf(mpc_abs(z, bits, NEAREST)) for z in entries)


class _GridStep(NamedTuple):
    """A flow's grid at bits_eval, which follows from its direction and eps
    alone: the grid step delta = eps / (4 * max|V|) and the step delta*V's
    coordinates (real parts, then imaginary parts) as raw mpf, the
    coordinates' _fixed_point integers, and log2(eps) at 53 bits, which
    _first_window reads."""

    delta: RawMpf
    coords: Tuple[RawMpf, ...]
    fixed: Tuple[int, ...]
    log2_eps: float


@functools.lru_cache(maxsize=32)
def _grid_step(entries: Tuple[RawMpc, ...], bits: int, eps: RawMpf, bits_eval: int) -> _GridStep:
    """The _GridStep of the direction with these raw entries at bits, for
    the raw tolerance eps, at bits_eval.  Answers for the last 32 distinct
    inputs are remembered, keyed on the raw tuples, which mpmath keeps
    normalized: two equal values have equal tuples."""
    max_abs, eps = _max_abs(entries, bits), make_mpf(eps)
    values = [make_mpc(z) for z in entries]
    with working_precision(bits_eval):
        delta = eps / (4 * max_abs)
        dv = [delta * z for z in values]
    coords = [z.real for z in dv] + [z.imag for z in dv]
    with working_precision(53):
        log2_eps = float(mpmath.log(eps, 2))
    fixed = tuple(_fixed_point(coords, bits_eval))
    return _GridStep(delta._mpf_, tuple(x._mpf_ for x in coords), fixed, log2_eps)


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


def _first_window(m: int, log2_eps: float) -> int:
    """First enumeration window length for a flow with m entries at
    tolerance eps, from log2_eps, _GridStep's log2(eps) at 53 bits.

    It follows from m and eps alone, never from a clock or a budget, so
    the same flow always takes the same walk.
    """
    # log2 of the expected first-hit index E = (pi*eps^2)^(-m)
    log2_hit = math.floor(-m * (math.log2(math.pi) + 2 * log2_eps))
    return max(_WINDOW_FLOOR, 1 << max(0, log2_hit - _WINDOW_LEAD_BITS))


@functools.lru_cache(maxsize=32)
def _window_lattice(
    step: Tuple[RawMpf, ...], eps: RawMpf, window_len: int, bits_eval: int
) -> Tuple[Matrix, int]:
    """Integer rows of the rank d+1 lattice of one window, and its scale K.

    The lattice is spanned by one grid step and the unit translations,
    scaled by K/eps so the admissible region is m unit disks, one per
    entry, times the time interval; the step's time entry
    2K/window_len maps the window onto [0, 2).  The embedding is
    computed from the exact step coordinates; rounding the step to a
    double first would drift by many eps over a long window and falsify
    the lattice itself.

    step holds the step coordinates as raw mpf, and eps is raw too.
    Answers for the last 32 distinct inputs are remembered, keyed on those
    raw tuples, the length and bits_eval: mpmath keeps raw values
    normalized, so the keys are equal exactly when the values are, and
    hashing them runs in C.
    """
    d = len(step)
    eps = make_mpf(eps)
    # embedding scale keeping rounding error far below one eps-unit across
    # the whole window; an eps that rounds to a zero double takes its bit
    # count from mpmath, and its scale is past the double range
    eps_f = float(eps)
    eps_bits = -math.log2(eps_f) if eps_f else -float(mpmath.log(eps, 2))
    scale_bits = max(64, window_len.bit_length() + max(0, int(eps_bits)) + 48)
    K = 1 << scale_bits

    with working_precision(max(bits_eval, scale_bits + 32)):
        big = mpf(K)
        step_row = [int(mpmath.nint(big * make_mpf(c) / eps)) for c in step]
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
    rows to their LLL-reduced basis and the transform's first column (each
    basis row's grid index), that basis in doubles over the scale K, and
    the basis's Gram-Schmidt data: mu_t[k][i] = mu[i][k] for k < i (mu
    by columns, as the enumeration reads it), the squared lengths
    |b*_k|^2 and the orthogonalized rows b*_k."""

    transform: Matrix
    j_col: Tuple[int, ...]
    basis: Tuple[Tuple[float, ...], ...]
    mu_t: Tuple[Tuple[float, ...], ...]
    bstar_sq: Tuple[float, ...]
    ortho: Tuple[Tuple[float, ...], ...]


@functools.lru_cache(maxsize=32)
def _reduced_window(rows: Matrix, scale: int, start: Optional[Matrix]) -> _ReducedWindow:
    """The reduction of one window's _window_lattice rows at scale K.

    start is the unimodular transform carried from the window before,
    where the exact LLL begins; a walk's first window carries None and
    begins from float_start's pre-reduction of its rows, or from scratch
    when doubles cannot carry it.  Answers for the last 32 distinct
    inputs are remembered, keyed on the exact rows, scale and start,
    with what every window of theirs reads: the transform's first
    column for _window_candidates and mu by columns for _gso and
    _enumerate_ball.  OverflowError when the scale is past the double
    range, before either reduction (K is a power of two, so float(K)
    raises exactly when K passes the largest double), or when the
    reduced basis is; ArithmeticError when doubles see the lattice as
    degenerate.
    """
    scale_f = float(scale)
    reduced, transform = lll_reduce(rows, start if start is not None else float_start(rows))
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
        j_col=tuple(row[0] for row in transform),
        basis=tuple(map(tuple, basis)),
        mu_t=tuple(zip(*mu)),
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
    ranges = _enumerate_ball(window.mu_t, window.bstar_sq, y, radius * radius, node_budget)

    # keep the lattice points whose every entry lies in its slightly
    # inflated disk (real parts first, then imaginary parts); the points
    # of a range step along it by the first basis row
    disk_sq = (1.0 + 0.02) ** 2
    first = reduced_f[0]
    j_col = window.j_col
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
    mu_t, bstar_sq, ortho = window.mu_t, window.bstar_sq, window.ortho
    n = len(bstar_sq)
    y = [0.0] * n
    for k in range(n - 1, -1, -1):
        along = sum(map(mul, target, ortho[k])) / bstar_sq[k]
        y[k] = along - sum(y[i] * mu_t[k][i] for i in range(k + 1, n))
    return y


def _enumerate_ball(
    mu_t: Sequence[Sequence[float]],
    bstar_sq: Sequence[float],
    y: Sequence[float],
    radius_sq: float,
    node_budget: int,
) -> List[Tuple[int, int, Tuple[int, ...]]]:
    """All integer coefficient vectors u with |sum (u_k - y_k) b_k| <= radius,
    for the basis b_k with Gram-Schmidt data mu (by columns, mu_t) and
    bstar_sq, as ranges (first, count, rest): the vectors
    (first + i, *rest) for i < count.

    A depth-first walk of the Fincke-Pohst bounds from the last level
    down, as an explicit loop; the first level's admissible values form
    one integer range, emitted whole.  Every value tried at any level
    counts as one node, and _BudgetExceeded is raised once the count
    passes node_budget.
    """
    n = len(bstar_sq)
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
