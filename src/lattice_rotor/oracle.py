"""Brute-force machinery: isometry sweeps, sampling checks, covering times.

This module is the verification counterweight to the constructive
solver.  Nothing here shares code with the search path: sweeps and
samplers enumerate planar isometries directly, measure worst fractional
distances, and certify what a grid can certify.  Heavy loops run as
float64 numpy screens, but every number that ends up in a result is
re-evaluated in exact arbitrary-precision arithmetic; the float pass
only decides which candidates are worth that effort, with a screening
margin far above float error.

Reflections are swept and sampled alongside rotations because an
isometric embedding of a finite planar set includes orientation
reversing maps; restricting to rotations is the solver's privilege, not
the measurement's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import mpmath
import numpy as np
from mpmath import mpc, mpf

from .corelattice import ComplexVector, Rotation, frac_dist
from .precision import (
    DEFAULT_PRECISION,
    check_precision,
    format_decimal,
    parse_decimal,
    residual_tol,
    working_precision,
)

__all__ = [
    "PlanarIsometry",
    "TauEstimate",
    "PropSepCheck",
    "CoveringOutcome",
    "apply_isometry",
    "isometry_max_frac",
    "tau_estimate",
    "separated_probe",
    "check_prop_sep",
    "separation",
    "covering_time",
]

# float64 values screened within this much of the float minimum get the
# exact treatment; orders of magnitude above accumulated float error
_SCREEN_MARGIN = 1e-9

_COVERING_CELL_LIMIT = 1 << 27


@dataclass(frozen=True)
class PlanarIsometry:
    """Rotation, optional reflection, and a translation reduced mod 1.

    Translations beyond the unit square never change fractional
    distances, so the reduced pair is the honest parameterization.
    """

    theta: Rotation
    reflect: bool
    translation: Tuple[mpf, mpf]

    def __post_init__(self) -> None:
        bits = self.theta.bits
        with working_precision(bits):
            reduced = []
            for u in self.translation:
                u = mpf(u)
                if not mpmath.isfinite(u):
                    raise ValueError("translation must be finite")
                reduced.append(u - mpmath.floor(u))
        object.__setattr__(self, "translation", tuple(reduced))
        object.__setattr__(self, "reflect", bool(self.reflect))

    def to_json_dict(self) -> dict:
        b = self.theta.bits
        return {
            "theta": [
                format_decimal(self.theta.value.real, b),
                format_decimal(self.theta.value.imag, b),
            ],
            "reflect": self.reflect,
            "translation": [format_decimal(u, b) for u in self.translation],
            "bits": b,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PlanarIsometry":
        b = int(data["bits"])
        with working_precision(b):
            theta = Rotation(
                mpc(parse_decimal(data["theta"][0], b), parse_decimal(data["theta"][1], b)),
                b,
            )
        return cls(
            theta=theta,
            reflect=bool(data["reflect"]),
            translation=tuple(parse_decimal(u, b) for u in data["translation"]),
        )


def apply_isometry(g: PlanarIsometry, S) -> ComplexVector:
    """Image of the configuration under the isometry, entrywise
    z -> theta * (conj(z) if reflecting) + u."""
    vec = S if isinstance(S, ComplexVector) else ComplexVector(tuple(S), g.theta.bits)
    bits = max(g.theta.bits, vec.bits)
    with working_precision(bits):
        shift = mpc(g.translation[0], g.translation[1])
        entries = tuple(
            g.theta.value * (mpmath.conj(z) if g.reflect else z) + shift
            for z in vec.entries
        )
        return ComplexVector(entries, bits)


def isometry_max_frac(g: PlanarIsometry, S, bits: Optional[int] = None) -> mpf:
    """Worst fractional distance over the image of S under g."""
    vec = S if isinstance(S, ComplexVector) else ComplexVector(tuple(S), g.theta.bits)
    use = bits if bits is not None else max(g.theta.bits, vec.bits)
    image = apply_isometry(g, vec)
    with working_precision(use):
        return max(frac_dist(z, use) for z in image.entries)


@dataclass(frozen=True)
class TauEstimate:
    """Best sweep value with a one-sided certificate.

    upper is attained by the concrete isometry in argmin.  The
    certified lower bound subtracts a conservative Lipschitz allowance
    for everything between grid points; it can be vacuous (negative) on
    coarse grids and only its soundness matters.
    """

    upper: mpf
    certified_lower: mpf
    grid_spec: str
    argmin: PlanarIsometry
    bits: int = DEFAULT_PRECISION

    def to_json_dict(self) -> dict:
        return {
            "upper": format_decimal(self.upper, self.bits),
            "certified_lower": format_decimal(self.certified_lower, self.bits),
            "grid_spec": self.grid_spec,
            "argmin": self.argmin.to_json_dict(),
            "bits": self.bits,
        }


def _float_parts(vec: ComplexVector) -> Tuple[np.ndarray, np.ndarray]:
    re = np.array([float(z.real) for z in vec.entries], dtype=np.float64)
    im = np.array([float(z.imag) for z in vec.entries], dtype=np.float64)
    return re, im


def _frac_sq_tables(rw: np.ndarray, iw: np.ndarray, u: np.ndarray):
    # per-axis squared distances; the per-cell max over entries couples
    # the two axes but each axis table is separable, which turns the
    # translation sweep into a broadcast sum instead of a triple loop
    a = rw[:, None] + u[None, :]
    b = iw[:, None] + u[None, :]
    fa = a - np.rint(a)
    fb = b - np.rint(b)
    return fa * fa, fb * fb


def _cell_max(fa2: np.ndarray, fb2: np.ndarray) -> np.ndarray:
    comb = fa2[0][:, None] + fb2[0][None, :]
    for k in range(1, fa2.shape[0]):
        np.maximum(comb, fa2[k][:, None] + fb2[k][None, :], out=comb)
    return comb


def tau_estimate(
    S,
    grid_theta: int,
    grid_trans: int,
    with_reflection: bool = False,
    bits: int = DEFAULT_PRECISION,
) -> TauEstimate:
    """Sweep rotations x translations (x reflection) and report the best
    sampled worst-case fractional distance with a Lipschitz certificate.

    The sweep screens in float64 and exactly re-evaluates every cell
    within a fixed margin of the float minimum; ties resolve to the
    lowest grid index, reflection branch last among equals.
    """
    check_precision(bits)
    vec = S if isinstance(S, ComplexVector) else ComplexVector(tuple(S), bits)
    if grid_theta < 1 or grid_trans < 1:
        raise ValueError("grids must have at least one point")
    re, im = _float_parts(vec)
    n_t, n_u = int(grid_theta), int(grid_trans)
    u = np.arange(n_u, dtype=np.float64) / n_u
    angles = 2 * np.pi * np.arange(n_t, dtype=np.float64) / n_t
    branches = [False, True] if with_reflection else [False]

    # Sequential screen with a sound prune: a cell is at least as large
    # as each entry's own axis table, so translation columns whose worst
    # single-axis contribution already exceeds the running best (plus
    # cushion) cannot hold the minimizer.  Pruned cells provably exceed
    # the final screen threshold, so pass 2 never misses a candidate.
    margin = _SCREEN_MARGIN
    local_min = np.full((len(branches), n_t), np.inf, dtype=np.float64)
    vhat = np.inf
    for ri, refl in enumerate(branches):
        base_im = -im if refl else im
        for j in range(n_t):
            c, s = np.cos(angles[j]), np.sin(angles[j])
            rw = c * re - s * base_im
            iw = s * re + c * base_im
            fa2, fb2 = _frac_sq_tables(rw, iw, u)
            am = np.nonzero(fa2.max(axis=0) <= vhat)[0]
            if am.size == 0:
                continue
            bm = np.nonzero(fb2.max(axis=0) <= vhat)[0]
            if bm.size == 0:
                continue
            sub = _cell_max(fa2[:, am], fb2[:, bm])
            val = float(sub.min())
            local_min[ri, j] = val
            if val + 2 * margin < vhat:
                vhat = val + 2 * margin

    global_sq = float(local_min.min())

    best_val: Optional[mpf] = None
    best_key = None
    with working_precision(bits):
        two_pi = 2 * mpmath.pi
        for ri, refl in enumerate(branches):
            base_im = -im if refl else im
            for j in range(n_t):
                if local_min[ri, j] > global_sq + margin:
                    continue
                c, s = np.cos(angles[j]), np.sin(angles[j])
                rw = c * re - s * base_im
                iw = s * re + c * base_im
                fa2, fb2 = _frac_sq_tables(rw, iw, u)
                comb = _cell_max(fa2, fb2)
                for a_idx, b_idx in np.argwhere(comb <= global_sq + margin):
                    g = PlanarIsometry(
                        Rotation.from_angle(two_pi * j / n_t, bits),
                        refl,
                        (mpf(int(a_idx)) / n_u, mpf(int(b_idx)) / n_u),
                    )
                    val = isometry_max_frac(g, vec, bits)
                    if best_val is None or val < best_val:
                        best_val = val
                        best_key = g
        assert best_val is not None and best_key is not None
        lip = two_pi * vec.max_abs() + mpmath.sqrt(mpf(2))
        h = max(mpf(1) / n_t, mpf(1) / n_u)
        lower = best_val - lip * h

    spec = (
        f"rotation grid {n_t}, translation grid {n_u}x{n_u} on [0,1)^2, "
        f"reflection {'included' if with_reflection else 'excluded'}; "
        f"float64 screen, exact re-evaluation at {bits} bits"
    )
    return TauEstimate(
        upper=best_val,
        certified_lower=lower,
        grid_spec=spec,
        argmin=best_key,
        bits=bits,
    )


def separated_probe(t, bits: int = DEFAULT_PRECISION) -> ComplexVector:
    """Three points with pairwise separation exactly t whose every planar
    isometric embedding keeps at least one image an eighth away from the
    lattice: the origin, i*t, and t + 1/2."""
    t_v = parse_decimal(t, bits)
    if not t_v > 0:
        raise ValueError(f"t must be positive, got {t_v}")
    with working_precision(bits):
        return ComplexVector((mpc(0), mpc(0, t_v), mpc(t_v + mpf("0.5"), 0)), bits)


@dataclass(frozen=True)
class PropSepCheck:
    """Sampled lower-bound check over random isometries of the probe."""

    t: mpf
    samples: int
    seed: int
    minimum: mpf
    argmin_index: int
    violations: Tuple[Tuple[int, mpf], ...]
    threshold: mpf
    bits: int = DEFAULT_PRECISION

    def to_json_dict(self) -> dict:
        b = self.bits
        return {
            "t": format_decimal(self.t, b),
            "samples": self.samples,
            "seed": self.seed,
            "minimum": format_decimal(self.minimum, b),
            "argmin_index": self.argmin_index,
            "violations": [[i, format_decimal(v, b)] for i, v in self.violations],
            "threshold": format_decimal(self.threshold, b),
            "bits": b,
        }


def check_prop_sep(
    t, samples: int, seed: int, bits: int = DEFAULT_PRECISION
) -> PropSepCheck:
    """Throw `samples` random planar isometries at the separated probe
    and measure the worst fractional distance of each image.

    Every sample is a genuine isometric embedding, so each value should
    stay at or above 1/8; anything below 1/8 minus the certification
    slack is recorded as a violation.  Draw order per sample is fixed:
    rotation turn, reflection bit, two translation coordinates.
    """
    check_precision(bits)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    probe = separated_probe(t, bits)
    re, im = _float_parts(probe)

    rng = random.Random(seed)
    turns = np.empty(samples, dtype=np.float64)
    refls = np.empty(samples, dtype=bool)
    u1 = np.empty(samples, dtype=np.float64)
    u2 = np.empty(samples, dtype=np.float64)
    for i in range(samples):
        turns[i] = rng.random()
        refls[i] = rng.random() < 0.5
        u1[i] = rng.random()
        u2[i] = rng.random()

    c = np.cos(2 * np.pi * turns)
    s = np.sin(2 * np.pi * turns)
    sign = np.where(refls, -1.0, 1.0)
    worst = np.zeros(samples, dtype=np.float64)
    for k in range(len(probe)):
        ik = sign * im[k]
        x = c * re[k] - s * ik + u1
        y = s * re[k] + c * ik + u2
        fx = x - np.rint(x)
        fy = y - np.rint(y)
        np.maximum(worst, fx * fx + fy * fy, out=worst)

    with working_precision(bits):
        eighth = mpf(1) / 8
        threshold = eighth - residual_tol(bits)
        screen_sq = float((eighth + mpf("1e-6")) ** 2)
        float_min_sq = float(worst.min())

        def exact_value(i: int) -> mpf:
            g = PlanarIsometry(
                Rotation.from_angle(2 * mpmath.pi * mpf(turns[i]), bits),
                bool(refls[i]),
                (mpf(u1[i]), mpf(u2[i])),
            )
            return isometry_max_frac(g, probe, bits)

        candidates = np.nonzero(worst <= max(screen_sq, float_min_sq + _SCREEN_MARGIN))[0]
        minimum: Optional[mpf] = None
        argmin_index = -1
        violations = []
        for i in candidates:
            val = exact_value(int(i))
            if minimum is None or val < minimum:
                minimum = val
                argmin_index = int(i)
            if val < threshold:
                violations.append((int(i), val))
        assert minimum is not None

    return PropSepCheck(
        t=parse_decimal(t, bits),
        samples=samples,
        seed=seed,
        minimum=minimum,
        argmin_index=argmin_index,
        violations=tuple(violations),
        threshold=threshold,
        bits=bits,
    )


def separation(S, bits: Optional[int] = None) -> mpf:
    """Minimal positive pairwise distance in the configuration."""
    if hasattr(S, "points"):  # even-dimensional point set
        pts = [tuple(c for c in p) for p in S.points]
        use = bits if bits is not None else S.bits
        with working_precision(use):
            best: Optional[mpf] = None
            for a in range(len(pts)):
                for b in range(a + 1, len(pts)):
                    d = mpmath.sqrt(
                        sum((x - y) ** 2 for x, y in zip(pts[a], pts[b]))
                    )
                    if d > 0 and (best is None or d < best):
                        best = d
            if best is None:
                raise ValueError("all points coincide; separation is undefined")
            return best
    vec = S if isinstance(S, ComplexVector) else ComplexVector(tuple(S), bits or DEFAULT_PRECISION)
    use = bits if bits is not None else vec.bits
    with working_precision(use):
        best = None
        for a in range(len(vec)):
            for b in range(a + 1, len(vec)):
                d = abs(vec.entries[a] - vec.entries[b])
                if d > 0 and (best is None or d < best):
                    best = d
        if best is None:
            raise ValueError("all points coincide; separation is undefined")
        return best


@dataclass(frozen=True)
class CoveringOutcome:
    """First time the discretized orbit has touched every cell, if it did."""

    covered: bool
    L: Optional[float]
    cells_total: int
    cells_visited: int
    dim: int
    eps: float
    cell: float
    cap: float
    steps: int

    def to_json_dict(self) -> dict:
        return {
            "covered": self.covered,
            "L": None if self.L is None else repr(self.L),
            "cells_total": self.cells_total,
            "cells_visited": self.cells_visited,
            "dim": self.dim,
            "eps": repr(self.eps),
            "cell": repr(self.cell),
            "cap": repr(self.cap),
            "steps": self.steps,
        }


def covering_time(
    direction: Sequence, eps, L_cap, cell: Optional[float] = None
) -> CoveringOutcome:
    """Advance the torus orbit s -> s*direction mod 1 from the origin and
    report the first time every grid cell holds a sample.

    Consecutive samples move less than half a cell, so a covered grid
    means the orbit passed within a cell diagonal plus half a step of
    every torus point.  The simulation is float64: at the coarse cells
    this oracle exists for, double precision is far below the cell size
    over any reachable horizon.  Dimensions above 6 are refused, and so
    are grids that would not fit in memory; this is a desk-scale
    instrument, not an asymptotic one.
    """
    v = np.asarray([float(x) for x in direction], dtype=np.float64)
    dim = v.size
    if dim < 1:
        raise ValueError("direction needs at least one coordinate")
    if dim > 6:
        raise ValueError(
            "covering grids above dimension 6 are refused: the cell count "
            "is infeasible at any useful resolution"
        )
    eps_f = float(eps)
    if not (0 < eps_f < 0.5):
        raise ValueError(f"eps must lie in (0, 1/2), got {eps_f}")
    cell_f = eps_f / 2 if cell is None else float(cell)
    if not (0 < cell_f <= eps_f / 2):
        raise ValueError(f"cell must lie in (0, eps/2], got {cell_f}")
    cap_f = float(L_cap)
    if not cap_f > 0:
        raise ValueError("L_cap must be positive")
    norm = float(np.linalg.norm(v))
    if norm == 0:
        raise ValueError("degenerate direction: all coordinates are zero")

    G = int(np.ceil(1.0 / cell_f))
    total = G**dim
    if total > _COVERING_CELL_LIMIT:
        raise ValueError(
            f"covering grid of {total} cells exceeds the desk-scale limit "
            f"({_COVERING_CELL_LIMIT}); coarsen eps or reduce the dimension"
        )

    h = 0.999 * cell_f / (2 * norm)
    max_index = int(np.floor(cap_f / h))
    strides = np.array([G**k for k in range(dim)], dtype=np.int64)

    visited = np.zeros(total, dtype=bool)
    visited_count = 0
    chunk = 1 << 16
    start = 0
    while start <= max_index:
        stop = min(start + chunk, max_index + 1)
        js = np.arange(start, stop, dtype=np.float64)
        pos = (js[:, None] * h * v[None, :]) % 1.0
        idx = np.minimum((pos * G).astype(np.int64), G - 1)
        flat = idx @ strides
        uniq, first = np.unique(flat, return_index=True)
        new_mask = ~visited[uniq]
        if new_mask.any():
            visited[uniq[new_mask]] = True
            visited_count += int(new_mask.sum())
            if visited_count == total:
                j_done = start + int(first[new_mask].max())
                return CoveringOutcome(
                    covered=True,
                    L=j_done * h,
                    cells_total=total,
                    cells_visited=total,
                    dim=dim,
                    eps=eps_f,
                    cell=cell_f,
                    cap=cap_f,
                    steps=j_done + 1,
                )
        start = stop

    return CoveringOutcome(
        covered=False,
        L=None,
        cells_total=total,
        cells_visited=visited_count,
        dim=dim,
        eps=eps_f,
        cell=cell_f,
        cap=cap_f,
        steps=max_index + 1,
    )
