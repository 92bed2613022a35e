"""Search along a straight-line torus flow for a near-lattice time.

The task: given complex vectors V (direction) and W (offset), a target
eps and a horizon L_max, find the smallest s on the grid {j * delta} with
vec_frac_dist(W + s*V) < eps, where delta = eps / (4 * max|V_k|).  The
grid is fine enough that a continuous witness interval at half the target
cannot fall between grid points, and only samples strictly below eps are
ever accepted.

Two strategies produce the identical answer:

  * a dense vectorized scan in double precision with exact re-checks,
    used while the grid is small enough to touch every point;
  * lattice-point enumeration, used beyond that.  Writing the condition
    "j*delta*V close to Z[i]^m - W" as a closest-point question in a
    (2m+1)-dimensional lattice makes the qualifying j enumerable without
    visiting the grid at all, in time that depends on the number of
    near-solutions rather than on the horizon.  The search walks windows
    of j in increasing order, enumerates every candidate in the window
    with safety margins, and verifies candidates exactly at working
    precision, so the first verified index is the true grid minimum.

Every candidate from either strategy is re-evaluated with mpmath before
being accepted; doubles only ever decide what to look at, never what to
return.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import mpmath
import numpy as np
from mpmath import mpc, mpf

from .corelattice import ComplexVector, frac_dist
from .lll import lll_reduce
from .precision import raise_for_magnitude, working_precision

# grid sizes up to this are cheaper to scan outright than to enumerate
DEFAULT_SCAN_LIMIT = 1 << 22

DEFAULT_WINDOW_BUDGET = 256
DEFAULT_NODE_BUDGET = 2_000_000

_SCAN_CHUNK = 1 << 16

# enumeration windows start here and grow by _WINDOW_GROWTH while empty;
# the schedule adapts to the observed solution density, which can exceed
# the generic estimate by many orders when the direction carries rational
# structure (then the flow lives in a lower-dimensional subtorus)
_WINDOW_START = 1 << 22
_WINDOW_FLOOR = 1 << 16
_WINDOW_GROWTH = 4


@dataclass(frozen=True)
class FlowSearchOutcome:
    """Result of one grid search; reason is one of found / absent /
    exhausted / infeasible-constant."""

    found: bool
    reason: str
    s: Optional[mpf]
    grid_index: Optional[int]
    grid_step: mpf
    grid_count: int
    strategy: str
    examined: int
    windows_used: int = 0


class _BudgetExceeded(Exception):
    pass


def flow_search(
    direction,
    offset,
    eps,
    L_max,
    bits: int,
    grid_step=None,
    scan_limit: int = DEFAULT_SCAN_LIMIT,
    window_budget: int = DEFAULT_WINDOW_BUDGET,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> FlowSearchOutcome:
    """Smallest grid point s in [0, L_max] with vec_frac_dist(W + sV) < eps.

    grid_step overrides the default delta; it exists for refinement
    experiments and for cross-checks against finer grids and must divide
    the intent of the caller, not the other way around.
    """
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

    max_abs = vec_v.max_abs()
    if max_abs == 0:
        raise ValueError("degenerate direction: all direction entries are zero")

    # evaluation precision must resolve eps on top of the largest value met
    bits_eval = raise_for_magnitude(
        bits, max(vec_w.max_abs(), L_max * max_abs, mpf(1)), eps
    )

    with working_precision(bits_eval):
        if grid_step is None:
            delta = eps / (4 * max_abs)
        else:
            delta = mpf(grid_step)
            if delta <= 0:
                raise ValueError("grid_step must be positive")
        grid_last = int(mpmath.floor(L_max / delta))

    # entries are already mpc at the vector's precision; re-wrapping in
    # mpc() here would round them to the ambient 53-bit default
    values_v = list(vec_v)
    values_w = list(vec_w)

    # constant entries cannot be repaired by any s
    active: List[int] = []
    for k, z in enumerate(values_v):
        if z.real == 0 and z.imag == 0:
            if frac_dist(values_w[k], bits_eval) >= eps:
                return FlowSearchOutcome(
                    found=False,
                    reason="infeasible-constant",
                    s=None,
                    grid_index=None,
                    grid_step=delta,
                    grid_count=grid_last + 1,
                    strategy="precheck",
                    examined=0,
                )
        else:
            active.append(k)

    def verify(j: int) -> Optional[mpf]:
        with working_precision(bits_eval):
            s = mpf(j) * delta
            worst = mpf(0)
            for zv, zw in zip(values_v, values_w):
                d = frac_dist(zw + s * zv, bits_eval)
                if d > worst:
                    worst = d
            return s if worst < eps else None

    scan_last = min(grid_last, max(scan_limit - 1, 0))
    scan_out = _dense_scan(
        values_v, values_w, active, eps, delta, scan_last, grid_last, bits_eval, verify
    )
    if scan_out.found or grid_last <= scan_last:
        return scan_out
    return _enumerate_search(
        values_v,
        values_w,
        active,
        eps,
        delta,
        scan_last + 1,
        grid_last,
        bits_eval,
        verify,
        window_budget,
        node_budget,
        examined_before=scan_out.examined,
    )


def _dense_scan(
    values_v, values_w, active, eps, delta, scan_last, grid_last, bits_eval, verify
) -> FlowSearchOutcome:
    d = 2 * len(active)
    eps_f = float(eps)
    # slightly inflated float threshold; exact verification makes the call
    thresh_sq = (eps_f * (1 + 1e-9)) ** 2

    with working_precision(bits_eval):
        step_f = np.array(
            [float((delta * z).real) for z in (values_v[k] for k in active)]
            + [float((delta * z).imag) for z in (values_v[k] for k in active)],
            dtype=np.float64,
        )

    examined = 0
    j0 = 0
    while j0 <= scan_last:
        count = min(_SCAN_CHUNK, scan_last - j0 + 1)
        with working_precision(bits_eval):
            anchor = []
            s0 = mpf(j0) * delta
            for k in active:
                w = values_w[k] + s0 * values_v[k]
                anchor.append(float(w.real - mpmath.nint(w.real)))
            for k in active:
                w = values_w[k] + s0 * values_v[k]
                anchor.append(float(w.imag - mpmath.nint(w.imag)))
        anchor_f = np.array(anchor, dtype=np.float64)

        js = np.arange(count, dtype=np.float64)
        vals = anchor_f[None, :] + js[:, None] * step_f[None, :]
        resid = vals - np.rint(vals)
        m = d // 2
        dist_sq = resid[:, :m] ** 2 + resid[:, m:] ** 2
        worst = dist_sq.max(axis=1)
        hits = np.flatnonzero(worst < thresh_sq)
        examined += count
        for h in hits:
            j = j0 + int(h)
            s = verify(j)
            if s is not None:
                return FlowSearchOutcome(
                    found=True,
                    reason="found",
                    s=s,
                    grid_index=j,
                    grid_step=delta,
                    grid_count=grid_last + 1,
                    strategy="scan",
                    examined=j + 1,
                )
        j0 += count

    return FlowSearchOutcome(
        found=False,
        reason="absent",
        s=None,
        grid_index=None,
        grid_step=delta,
        grid_count=grid_last + 1,
        strategy="scan",
        examined=examined,
    )


def _enumerate_search(
    values_v,
    values_w,
    active,
    eps,
    delta,
    j_start,
    grid_last,
    bits_eval,
    verify,
    window_budget,
    node_budget,
    examined_before=0,
) -> FlowSearchOutcome:
    with working_precision(bits_eval):
        dv = [delta * values_v[k] for k in active]
        dv_coords = [z.real for z in dv] + [z.imag for z in dv]

    examined = examined_before
    windows = 0
    j0 = j_start
    window_len = _WINDOW_START
    while j0 <= grid_last and windows < window_budget:
        windows += 1
        this_len = min(window_len, grid_last - j0 + 1)

        with working_precision(bits_eval):
            target = []
            s0 = mpf(j0) * delta
            for k in active:
                w = values_w[k] + s0 * values_v[k]
                target.append(-float(w.real - mpmath.nint(w.real)))
            for k in active:
                w = values_w[k] + s0 * values_v[k]
                target.append(-float(w.imag - mpmath.nint(w.imag)))

        try:
            raw, nodes = _window_candidates(
                dv_coords, target, eps, this_len, node_budget, bits_eval
            )
        except _BudgetExceeded:
            if window_len > _WINDOW_FLOOR:
                window_len = max(_WINDOW_FLOOR, window_len // _WINDOW_GROWTH)
                continue
            return FlowSearchOutcome(
                found=False,
                reason="exhausted",
                s=None,
                grid_index=None,
                grid_step=delta,
                grid_count=grid_last + 1,
                strategy="enumerate",
                examined=examined,
                windows_used=windows,
            )

        examined += len(raw)
        for j_rel in raw:
            s = verify(j0 + j_rel)
            if s is not None:
                return FlowSearchOutcome(
                    found=True,
                    reason="found",
                    s=s,
                    grid_index=j0 + j_rel,
                    grid_step=delta,
                    grid_count=grid_last + 1,
                    strategy="enumerate",
                    examined=examined,
                    windows_used=windows,
                )
        j0 += this_len
        window_len *= _WINDOW_GROWTH

    reason = "absent" if j0 > grid_last else "exhausted"
    return FlowSearchOutcome(
        found=False,
        reason=reason,
        s=None,
        grid_index=None,
        grid_step=delta,
        grid_count=grid_last + 1,
        strategy="enumerate",
        examined=examined,
        windows_used=windows,
    )


def _window_candidates(
    dv_coords: Sequence[mpf],
    target: Sequence[float],
    eps: mpf,
    window_len: int,
    node_budget: int,
    bits_eval: int,
) -> Tuple[List[int], int]:
    """Sorted relative grid indices in [0, window_len) whose flow point can
    lie within eps of the integer lattice, with safety margins.

    Builds the rank d+1 lattice spanned by one grid step and the unit
    translations, scaled so the admissible region is an O(1) box, reduces
    it exactly, and enumerates a covering ball around the window target.
    The integer embedding is computed from the exact step coordinates;
    rounding the step to a double first would drift by many eps over a
    long window and falsify the lattice itself.
    """
    d = len(dv_coords)
    n = d + 1
    eps_f = float(eps)

    # embedding scale keeping rounding error far below one eps-unit across
    # the whole window
    scale_bits = max(64, window_len.bit_length() + max(0, int(-math.log2(eps_f))) + 48)
    K = 1 << scale_bits

    with working_precision(max(bits_eval, scale_bits + 32)):
        big = mpf(K)
        step_row = [int(mpmath.nint(big * c / eps)) for c in dv_coords]
        step_row.append(int(mpmath.nint(2 * big / window_len)))
        trans_entry = int(mpmath.nint(big / eps))
    rows_int = [step_row]
    for c in range(d):
        tr = [0] * n
        tr[c] = trans_entry
        rows_int.append(tr)

    reduced_int, transform = lll_reduce(rows_int)
    reduced_f = np.array(reduced_int, dtype=np.float64) / float(K)

    mu, bstar_sq = _gso(reduced_f)
    if min(bstar_sq) <= 0:
        raise ArithmeticError("degenerate lattice in flow enumeration")

    radius = math.sqrt(n) * 1.01 + 0.05
    tau = np.array(
        [t * (1.0 / eps_f) for t in target] + [1.0], dtype=np.float64
    )

    coeffs, nodes = _enumerate_ball(
        reduced_f, mu, bstar_sq, tau, radius * radius, node_budget
    )

    box_tol = 1.0 + 0.02
    j_col = [int(row[0]) for row in transform]
    out = set()
    for u in coeffs:
        point = u @ reduced_f
        if np.max(np.abs(point - tau)[:d]) > box_tol:
            continue
        j_rel = sum(int(u[i]) * j_col[i] for i in range(n))
        if 0 <= j_rel < window_len:
            out.add(j_rel)
    return sorted(out), nodes


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
) -> Tuple[List[np.ndarray], int]:
    """All integer coefficient vectors u with |u*basis - tau| <= radius."""
    n = basis.shape[0]
    y = np.linalg.solve(basis.T, tau)

    results: List[np.ndarray] = []
    u = np.zeros(n, dtype=np.int64)
    diff = np.zeros(n)
    nodes = 0

    def descend(k: int, remaining: float) -> None:
        nonlocal nodes
        center = y[k]
        for i in range(k + 1, n):
            center -= diff[i] * mu[i, k]
        if bstar_sq[k] <= 0:
            return
        half = math.sqrt(max(remaining, 0.0) / bstar_sq[k])
        lo = math.ceil(center - half - 1e-12)
        hi = math.floor(center + half + 1e-12)
        for cand in range(lo, hi + 1):
            nodes += 1
            if nodes > node_budget:
                raise _BudgetExceeded
            step = cand - center
            used = step * step * bstar_sq[k]
            if used > remaining + 1e-12:
                continue
            u[k] = cand
            diff[k] = cand - y[k]
            if k == 0:
                results.append(u.copy())
            else:
                descend(k - 1, remaining - used)
        u[k] = 0
        diff[k] = 0.0

    descend(n - 1, radius_sq)
    return results, nodes
