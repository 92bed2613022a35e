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
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import mpmath
import numpy as np
from mpmath import mpc, mpf

from .corelattice import ComplexVector, Rotation, frac_dist
from .precision import (
    DEFAULT_PRECISION,
    check_precision,
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

# float64 rotated coordinates of modulus r err by about r * 2^-51 (the
# rounded cosine and sine, then the products); past this modulus that
# error would come within a factor 32 of the margin, so the tau screen
# forms them at working precision and reduces them mod 1 first
_EXACT_ROTATION_MODULUS = _SCREEN_MARGIN * 2.0**46

# from 2^52 on a double has no fractional bits left, so a float64 screen
# of coordinates that large cannot tell any two cells apart
_SCREEN_MAGNITUDE_LIMIT = 2.0**52

# samples per chunk of the prop-sep screen: a chunk's float64
# temporaries take a few MB, and numpy calls stay long enough to amortize
_PROP_SEP_CHUNK = 1 << 16

_COVERING_CELL_LIMIT = 1 << 27
# about three minutes of simulation in two dimensions at 150 ns a step;
# seven times the steps of a golden-direction run at eps 0.005 to 1e5
_COVERING_STEP_LIMIT = 1 << 30


@dataclass(frozen=True)
class PlanarIsometry:
    """Rotation, optional reflection, and a translation reduced mod 1.

    Translations beyond the unit square never change fractional
    distances, so the reduced pair is the honest parameterization.
    bits is the rotation's precision and is not set by callers.
    """

    theta: Rotation
    reflect: bool
    translation: Tuple[mpf, mpf]
    bits: int = field(init=False)

    def __post_init__(self) -> None:
        bits = self.theta.bits
        object.__setattr__(self, "bits", bits)
        with working_precision(bits):
            reduced = []
            for u in self.translation:
                u = mpf(u)
                if not mpmath.isfinite(u):
                    raise ValueError("translation must be finite")
                reduced.append(u - mpmath.floor(u))
        object.__setattr__(self, "translation", tuple(reduced))
        object.__setattr__(self, "reflect", bool(self.reflect))


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


def _float_parts(vec: ComplexVector) -> Tuple[np.ndarray, np.ndarray]:
    re = np.array([float(z.real) for z in vec.entries], dtype=np.float64)
    im = np.array([float(z.imag) for z in vec.entries], dtype=np.float64)
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError("coordinates overflow the float64 screen")
    # an isometry keeps the modulus, so no image coordinate exceeds it by
    # more than the unit translation
    if float(vec.max_abs()) >= _SCREEN_MAGNITUDE_LIMIT:
        raise ValueError(
            "coordinates of modulus 2^52 or more leave the float64 screen "
            "no fractional part; reduce t"
        )
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


def _rotated_images(vec: ComplexVector, n_t: int, branches, bits: int):
    # image coordinates of every (branch, rotation) in grid order, a row
    # each; past _EXACT_ROTATION_MODULUS formed exactly and reduced mod 1
    re, im = _float_parts(vec)
    if float(vec.max_abs()) <= _EXACT_ROTATION_MODULUS:
        angles = 2 * np.pi * np.arange(n_t, dtype=np.float64) / n_t
        c, s = np.cos(angles)[:, None], np.sin(angles)[:, None]
        base = [-im if refl else im for refl in branches]
        return np.vstack([c * re - s * b for b in base]), np.vstack([s * re + c * b for b in base])
    rw, iw = [], []
    with working_precision(bits):
        rots = [Rotation.from_angle(2 * mpmath.pi * j / n_t, bits).value for j in range(n_t)]
        for refl in branches:
            for rot in rots:
                ws = [rot * (mpmath.conj(z) if refl else z) for z in vec.entries]
                rw.append([float(w.real - mpmath.nint(w.real)) for w in ws])
                iw.append([float(w.imag - mpmath.nint(w.imag)) for w in ws])
    return np.array(rw), np.array(iw)


def _rotation_bound(rw: np.ndarray, iw: np.ndarray) -> np.ndarray:
    # per row, the larger of two lower bounds on every cell:
    # - max over entry pairs of (d(rw_k - rw_l)^2 + d(iw_k - iw_l)^2) / 4,
    #   with d the distance to the nearest integer;
    # - per axis ((1 - g) / 2)^2, with g the widest cyclic gap between the
    #   coordinates mod 1: they fill an arc of length 1 - g whatever the
    #   translation, so one of them stays half that arc from the integers
    lb = np.zeros(len(rw), dtype=np.float64)
    for k in range(1, rw.shape[1]):
        da, db = rw[:, :k] - rw[:, k, None], iw[:, :k] - iw[:, k, None]
        da, db = da - np.rint(da), db - np.rint(db)
        lb = np.maximum(lb, (da * da + db * db).max(axis=1) / 4)
    for w in (rw, iw):
        f = np.sort(w - np.floor(w), axis=1)
        gap = np.maximum(np.diff(f, axis=1).max(axis=1, initial=0.0), f[:, 0] + 1 - f[:, -1])
        np.maximum(lb, ((1 - gap) / 2) ** 2, out=lb)
    return lb


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
    lowest grid index, reflection branch last among equals.  The screen
    skips rotations whose lower bound (_rotation_bound) exceeds the best
    cell found, which changes its cost only.  That bound is the larger
    of a pairwise one, from the image differences of two entries, and a
    per-axis one, from the widest cyclic gap between one axis's image
    coordinates mod 1.  Past modulus
    _EXACT_ROTATION_MODULUS (about 7e4) rotated coordinates are formed
    at working precision and reduced mod 1 first, because float64
    products would err by more than the margin.  An entry of modulus
    2^52 or more is refused with ValueError by the float64 guard that
    check_prop_sep shares.
    """
    check_precision(bits)
    vec = S if isinstance(S, ComplexVector) else ComplexVector(tuple(S), bits)
    if grid_theta < 1 or grid_trans < 1:
        raise ValueError("grids must have at least one point")
    n_t, n_u = int(grid_theta), int(grid_trans)
    u = np.arange(n_u, dtype=np.float64) / n_u
    branches = [False, True] if with_reflection else [False]
    rw, iw = _rotated_images(vec, n_t, branches, bits)

    # Branch and bound over rotations.  A cell is at least the mean of two
    # entries' values, so at least ((fa_k + fa_l)^2 + (fb_k + fb_l)^2) / 4,
    # and fa_k + fa_l >= d(rw_k - rw_l); it is also at least every fa_k^2,
    # and some fa_k is half the shortest arc that holds the rw mod 1 or more
    # (likewise on the other axis): no cell lies below _rotation_bound.
    # Rotations go in stable bound order until a bound passes vhat + margin;
    # as a cell is at least each entry's axis value, columns whose worst one
    # exceeds vhat are dropped.  vhat is a real cell (the first at the argmins
    # of the column maxima) plus twice the margin, so no prune loses a cell
    # within cut = float minimum + margin, whatever the order.  Pass 2 walks
    # (branch, rotation) in grid order and prunes at cut: kept cells are
    # computed as in the full grid and am, bm increase, so argwhere meets the
    # same cells in the same order.
    margin = _SCREEN_MARGIN
    lb = _rotation_bound(rw, iw)
    local_min = np.full(len(lb), np.inf, dtype=np.float64)
    vhat = np.inf
    for idx in np.argsort(lb, kind="stable").tolist():
        if lb[idx] > vhat + margin:
            break
        fa2, fb2 = _frac_sq_tables(rw[idx], iw[idx], u)
        fa_max, fb_max = fa2.max(axis=0), fb2.max(axis=0)
        if vhat == np.inf:
            vhat = float((fa2[:, fa_max.argmin()] + fb2[:, fb_max.argmin()]).max()) + 2 * margin
        sub = _cell_max(fa2[:, fa_max <= vhat], fb2[:, fb_max <= vhat])
        if sub.size:
            local_min[idx] = float(sub.min())
            vhat = min(vhat, local_min[idx] + 2 * margin)

    cut = float(local_min.min()) + margin

    best_val: Optional[mpf] = None
    best_key = None
    with working_precision(bits):
        two_pi = 2 * mpmath.pi
        for idx in np.nonzero(local_min <= cut)[0].tolist():
            refl, j = branches[idx // n_t], idx % n_t
            rot = Rotation.from_angle(two_pi * j / n_t, bits)
            fa2, fb2 = _frac_sq_tables(rw[idx], iw[idx], u)
            am = np.nonzero(fa2.max(axis=0) <= cut)[0]
            bm = np.nonzero(fb2.max(axis=0) <= cut)[0]
            for a, b in np.argwhere(_cell_max(fa2[:, am], fb2[:, bm]) <= cut):
                g = PlanarIsometry(rot, refl, (mpf(int(am[a])) / n_u, mpf(int(bm[b])) / n_u))
                val = isometry_max_frac(g, vec, bits)
                if best_val is None or val < best_val:
                    best_val, best_key = val, g
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


def _random_stream(seed: int):
    """draw(n): the next n values of random.Random(seed).random().

    numpy's MT19937 starts from the stdlib generator's state (624 key
    words and a position), and numpy's Generator.random joins each two
    32-bit words a, b as CPython's random() does:
    ((a >> 5) * 2^26 + (b >> 6)) / 2^53, exact in float64.  The values
    are the stdlib's bit for bit, drawn at C speed.
    """
    words = random.Random(seed).getstate()[1]
    gen = np.random.MT19937()
    gen.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(words[:624], dtype=np.uint32), "pos": words[624]},
    }
    return np.random.Generator(gen).random


def check_prop_sep(
    t, samples: int, seed: int, bits: int = DEFAULT_PRECISION
) -> PropSepCheck:
    """Throw `samples` random planar isometries at the separated probe
    and measure the worst fractional distance of each image.

    Every sample is a genuine isometric embedding, so each value should
    stay at or above 1/8; anything below 1/8 minus the certification
    slack is recorded as a violation.  The samples are the stream of
    random.Random(seed).random(), four draws each in a fixed order:
    rotation turn, reflection bit, two translation coordinates.  numpy's
    MT19937 takes over that generator's state and draws the same values
    bit for bit, so the stream is made in bulk, not one call at a time.

    A float64 screen, run over chunks of _PROP_SEP_CHUNK samples, picks
    the samples worth an exact re-evaluation; only those are kept.  From
    the second chunk on, a sample is first bounded by its translation
    alone, the image of the probe's origin; only the few whose bound
    stays within the cut of the chunks before have their rotation
    formed, which changes the screen's cost only.  Once
    t passes _EXACT_ROTATION_MODULUS (about 7e4) the float64 rotation
    errs by more than the screen's margin, so every sample is
    re-evaluated exactly, at about half a millisecond each.
    """
    check_precision(bits)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    probe = separated_probe(t, bits)
    re, im = _float_parts(probe)

    exact_all = float(probe.max_abs()) > _EXACT_ROTATION_MODULUS
    with working_precision(bits):
        eighth = mpf(1) / 8
        threshold = eighth - residual_tol(bits)
        screen_sq = float((eighth + mpf("1e-6")) ** 2)

    # Screen chunk by chunk, keeping the samples within the cut the float
    # minimum so far sets.  That cut only falls, so the kept samples hold
    # every one within the final cut.  The probe's first point is the
    # origin, whose image is the translation (t1, t2) bit for bit, so
    # d(t1)^2 + d(t2)^2 is the first term of a sample's worst value.  A
    # sample whose first term passes the cut of the chunks before it can
    # neither be kept nor lower the float minimum, and its rotation is
    # never formed; the first chunk meets an infinite cut and is screened
    # in full.  Past the rotation modulus the float64 rotation errs by
    # more than the margin, the screen cannot rank samples, and every one
    # is kept for exact re-evaluation.
    draw = _random_stream(seed)
    index, rows, screened = [], [], []
    float_min_sq = cut = np.inf
    for start in range(0, samples, _PROP_SEP_CHUNK):
        n = min(_PROP_SEP_CHUNK, samples - start)
        vals = draw(4 * n).reshape(n, 4)
        fx = vals[:, 2] - np.rint(vals[:, 2])
        fy = vals[:, 3] - np.rint(vals[:, 3])
        first = fx * fx + fy * fy
        live = np.nonzero(first <= cut)[0]
        worst = first[live]
        turn, coin, t1, t2 = vals[live].T
        c = np.cos(2 * np.pi * turn)
        s = np.sin(2 * np.pi * turn)
        sign = np.where(coin < 0.5, -1.0, 1.0)
        for k in range(1, len(probe)):
            ik = sign * im[k]
            x = c * re[k] - s * ik + t1
            y = s * re[k] + c * ik + t2
            fx = x - np.rint(x)
            fy = y - np.rint(y)
            np.maximum(worst, fx * fx + fy * fy, out=worst)
        float_min_sq = min(float_min_sq, float(worst.min(initial=np.inf)))
        cut = np.inf if exact_all else max(screen_sq, float_min_sq + _SCREEN_MARGIN)
        kept = worst <= cut
        index.append(start + live[kept])
        rows.append(vals[live[kept]])
        screened.append(worst[kept])
    # the last chunk's cut is the final one
    final = np.concatenate(screened) <= cut
    index, rows = np.concatenate(index)[final], np.concatenate(rows)[final]

    with working_precision(bits):
        minimum: Optional[mpf] = None
        argmin_index = -1
        violations = []
        for i, (turn, coin, t1, t2) in zip(index.tolist(), rows.tolist()):
            g = PlanarIsometry(
                Rotation.from_angle(2 * mpmath.pi * mpf(turn), bits),
                coin < 0.5,
                (mpf(t1), mpf(t2)),
            )
            val = isometry_max_frac(g, probe, bits)
            if minimum is None or val < minimum:
                minimum = val
                argmin_index = i
            if val < threshold:
                violations.append((i, val))
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
    vec = S if isinstance(S, ComplexVector) else ComplexVector(tuple(S), bits or DEFAULT_PRECISION)
    use = bits if bits is not None else vec.bits
    with working_precision(use):
        best: Optional[mpf] = None
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
    are grids that would not fit in memory and runs of more than
    _COVERING_STEP_LIMIT steps; this is a desk-scale instrument, not an
    asymptotic one.
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
    # a norm past float64 is inf, which the step check below refuses
    with np.errstate(over="ignore"):
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
    # an infinite direction or cap, or one whose step count overflows
    # float64, leaves no finite number of steps to simulate
    if not (h > 0 and np.isfinite(cap_f / h)):
        raise ValueError(
            "direction and L_cap must be finite, and L_cap / step must fit in float64"
        )
    max_index = int(np.floor(cap_f / h))
    if max_index >= _COVERING_STEP_LIMIT:
        raise ValueError(
            f"covering run of {max_index + 1} steps exceeds the desk-scale "
            f"limit ({_COVERING_STEP_LIMIT}); lower L_cap or coarsen eps"
        )
    strides = np.array([G**k for k in range(dim)], dtype=np.int64)

    visited = np.zeros(total, dtype=bool)
    visited_count = 0
    last = max_index  # the index of the last step simulated
    chunk = 1 << 16
    start = 0
    while start <= max_index and visited_count < total:
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
                last = start + int(first[new_mask].max())
        start = stop

    covered = visited_count == total
    return CoveringOutcome(
        covered=covered,
        L=last * h if covered else None,
        cells_total=total,
        cells_visited=visited_count,
        dim=dim,
        eps=eps_f,
        cell=cell_f,
        cap=cap_f,
        steps=last + 1,
    )
