"""Brute-force machinery: isometry sweeps, sampling checks, covering times.

This module is the verification counterweight to the constructive
solver.  Nothing here shares code with the search path: sweeps and
samplers enumerate planar isometries directly, measure worst fractional
distances, and certify what a grid can certify.  Heavy loops run as
float64 numpy screens, but every number that ends up in a result is
re-evaluated in exact arbitrary-precision arithmetic; the float pass
only decides which candidates are worth that effort, with a screening
margin far above float error.

An isometric embedding of a finite planar set may reverse orientation,
so the measurements cover reflections as well as rotations; restricting
to rotations is the solver's privilege, not the measurement's.
prop-sep draws reflections directly.  The tau sweep reaches them through
the lattice's own symmetry: Z^2 is fixed by the dihedral group of order
8 that quarter turns and conjugation generate, and each of those maps
keeps every distance to the lattice.  Conjugation takes each reflected
grid cell to an unreflected one of the same value, and a quarter turn
(half turn) takes rotation row j to row j + n_t/4 (j + n_t/2) when 4
(2) divides the rotation grid n_t, so tau sweeps only the unreflected
rows j < n_t / gcd(4, n_t), one row per orbit.

prop-sep draws its samples from SplitMix64 (Steele, Lea and Flood, OOPSLA
2014) read as a counter-based hash: output k of the stream seeded with s
is mix64(s + k * 0x9E3779B97F4A7C15 mod 2^64), so every output is one
hash of its index.  Sample i is outputs 2i + 1 (rotation) and 2i + 2
(translation); the check hashes them in bulk in numpy's uint64
arithmetic, and the CLI's recheck replays the argmin sample's two
outputs in pure Python, sharing no code with the check.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence, Tuple

import mpmath
import numpy as np
from mpmath import mpc, mpf

from .corelattice import ComplexVector, Rotation, frac_dist
from .precision import (
    DEFAULT_PRECISION,
    Frozen,
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

# samples per chunk of the prop-sep screen and steps per chunk of the
# covering walk: a float64 or uint64 array over a chunk takes 64 KB
# (prop-sep's translation words, one a sample, too), so the working set
# stays in cache and a call's traced peak under 2 MB (1.4 MB for 2M
# prop-sep samples, whose rotations wait for a quarter chunk of
# survivors, 0.7 MB for a 573,139-step walk), and numpy calls stay long
# enough to amortize their overhead; chunks of 2^16 peaked at 4 to 12 MB
# a call and were no faster
_CHUNK = 1 << 13

# the most float64 entries one table of the tau sweep may hold: the
# grid_trans^2 cells of a rotation, the points times grid_trans squared
# distances per axis, or the points times the swept rotations' images;
# 2^24 entries take 128 MB, and grid 1600, the largest in use, has 2.56M
_TAU_TABLE_LIMIT = 1 << 24

_COVERING_CELL_LIMIT = 1 << 27
# about 9 s of simulation in two dimensions at 8.2 to 8.6 ns a step (a
# walk that never covers, 2-core Xeon); seven times the steps of a
# golden-direction run at eps 0.005 to 1e5
_COVERING_STEP_LIMIT = 1 << 30

# the most prop-sep samples one call may draw.  Past the exact-rotation
# modulus every sample is kept and re-evaluated at the working precision,
# at 0.12 to 0.20 ms a sample, so 2^17 take about 16 to 26 s; below it
# the screen takes 17 to 29 ns a sample, so 2^30 take about 18 to 31 s
# (2-core Xeon)
_EXACT_SAMPLE_LIMIT = 1 << 17
_SCREEN_SAMPLE_LIMIT = 1 << 30


class PlanarIsometry(Frozen):
    """Rotation, optional reflection, and a translation reduced mod 1.

    Translations beyond the unit square never change fractional
    distances, so the reduced pair is the honest parameterization.
    bits is the rotation's precision and is not set by callers.
    """

    __slots__ = _fields = ("theta", "reflect", "translation", "bits")

    def __init__(self, theta: Rotation, reflect: bool, translation: Tuple[mpf, mpf]) -> None:
        bits = theta.bits
        with working_precision(bits):
            reduced = []
            for u in translation:
                u = mpf(u)
                if not mpmath.isfinite(u):
                    raise ValueError("translation must be finite")
                reduced.append(u - mpmath.floor(u))
        super().__init__(theta, bool(reflect), tuple(reduced), bits)


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


class TauEstimate(NamedTuple):
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


def _prune_columns(fa2: np.ndarray, fb2: np.ndarray, bound: float):
    # indices of the translation columns on each axis that can still hold
    # a cell <= bound, in increasing order.  Cell (a, b) is
    # max_k (fa2[k, a] + fb2[k, b]), so it is at least its column's worst
    # entry, and at least max_k (fa2[k, a] + min over kept b of fb2[k, b]).
    # The first prunes both axes; the second prunes a against the kept b,
    # then b against the kept a.  Repeating the second until neither side
    # changes took 3 to 14 rounds a rotation on the unit triangle at
    # t = 1 to 20, and the five sweeps at grid 1600 took 93 ms where one
    # round takes 68.
    am = np.nonzero(fa2.max(axis=0) <= bound)[0]
    bm = np.nonzero(fb2.max(axis=0) <= bound)[0]
    fa2, fb2 = fa2[:, am], fb2[:, bm]
    keep = (fa2 + fb2.min(axis=1, initial=np.inf)[:, None]).max(axis=0) <= bound
    am, fa2 = am[keep], fa2[:, keep]
    bm = bm[(fb2 + fa2.min(axis=1, initial=np.inf)[:, None]).max(axis=0) <= bound]
    return am, bm


def _rotated_images(vec: ComplexVector, n_t: int, n_rows: int, bits: int):
    # image coordinates of the rotations j < n_rows of the n_t grid, a row
    # each; past _EXACT_ROTATION_MODULUS formed exactly and reduced mod 1
    re, im = _float_parts(vec)
    if float(vec.max_abs()) <= _EXACT_ROTATION_MODULUS:
        angles = 2 * np.pi * np.arange(n_rows, dtype=np.float64) / n_t
        c, s = np.cos(angles)[:, None], np.sin(angles)[:, None]
        return c * re - s * im, s * re + c * im
    rw, iw = [], []
    with working_precision(bits):
        for j in range(n_rows):
            rot = Rotation.from_angle(2 * mpmath.pi * j / n_t, bits).value
            ws = [rot * z for z in vec.entries]
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


def _triple_bound(rw: np.ndarray, iw: np.ndarray) -> np.ndarray:
    # per row, a third lower bound on every cell: over the consecutive
    # entry triples k, k + 1, k + 2, the least over all translations of
    # the triple's worst squared distance to Z^2.  m - 2 triples keep the
    # cost linear in m; any set of triples would be sound.
    lb = np.zeros(len(rw), dtype=np.float64)
    for k in range(rw.shape[1] - 2):
        np.maximum(lb, _enclosing_sq(rw[:, k : k + 3], iw[:, k : k + 3]), out=lb)
    return lb


def _enclosing_sq(rw: np.ndarray, iw: np.ndarray) -> np.ndarray:
    # per row of three entries w_0, w_1, w_2: the least squared radius of
    # a circle holding w_0, w_1 + m_1 and w_2 + m_2 over integer shifts m,
    # which is the least over translations of the triple's worst squared
    # distance to Z^2.  Shifted by -w_0 the points are 0, A and B.  Per
    # axis the difference reduced to [-1/2, 1/2] and its other nearest
    # translate give 2 x 2 choices a point, 16 in all.  Per axis they hold
    # every cut of the circle between two of the three coordinates, so one
    # fits the points in a 2/3 x 2/3 box, of radius^2 at most 2/9; any
    # other shift puts two points 1 apart, radius^2 at least 1/4.  So the
    # least of the 16 is exact.
    def choices(j):
        da, db = rw[:, j] - rw[:, 0], iw[:, j] - iw[:, 0]
        da, db = da - np.rint(da), db - np.rint(db)
        x = np.stack([da, da - np.sign(da)], axis=1)
        y = np.stack([db, db - np.sign(db)], axis=1)
        return np.repeat(x, 2, axis=1), np.tile(y, 2)

    (ax, ay), (bx, by) = choices(1), choices(2)
    ax, ay, bx, by = ax[:, :, None], ay[:, :, None], bx[:, None, :], by[:, None, :]
    dx, dy = bx - ax, by - ay
    # squared sides opposite 0, A and B; each vertex's dot and cross
    # product is formed from its own two edges, so it is as accurate as
    # that vertex's angle allows
    sides = (dx * dx + dy * dy, bx * bx + by * by, ax * ax + ay * ay)
    acute = (ax * bx + ay * by > 0) & (ax * dx + ay * dy < 0) & (bx * dx + by * dy > 0)
    crosses = (ax * by - ay * bx, ax * dy - ay * dx, bx * dy - by * dx)
    # 4 r^2: a right or obtuse triangle's circle has its longest side as
    # diameter.  An acute one's is the circumcircle, 4 r^2 = P / cross^2
    # with P the product of the squared sides, or s / sin^2 at the angle
    # opposite side s.  At the largest angle, at least 60 degrees, that is
    # at most 4 s / 3 and the cross product is well conditioned; capping
    # every vertex's term at 4 s / 3 keeps the others at or below 4 r^2.
    four_r2 = np.maximum(np.maximum(sides[0], sides[1]), sides[2])
    prod = sides[0] * sides[1] * sides[2]
    for s, cross in zip(sides, crosses):
        cap, c2 = np.broadcast_to(4 * s / 3, prod.shape).copy(), cross * cross
        term = np.divide(prod, c2, out=cap, where=prod < cap * c2)
        np.maximum(four_r2, np.where(acute, term, 0.0), out=four_r2)
    return four_r2.min(axis=(1, 2)) / 4


def tau_estimate(
    S,
    grid_theta: int,
    grid_trans: int,
    with_reflection: bool = False,
    bits: int = DEFAULT_PRECISION,
) -> TauEstimate:
    """Sweep rotations x translations (x reflection) and report the best
    sampled worst-case fractional distance with a Lipschitz certificate.

    The sweep covers the grid through its lattice-symmetry orbits (see
    the module docstring): it visits the unreflected rotations
    j < grid_theta / gcd(4, grid_theta), which hold the lowest-index
    member of every orbit, so with_reflection only labels grid_spec.  It
    screens in float64 and exactly re-evaluates every cell within a
    fixed margin of the float minimum; ties resolve to the lowest grid
    index in (reflection, rotation, translation) order, unreflected
    first, including the ties the symmetry makes.  The screen
    skips rotations whose lower bound exceeds the best cell found, and
    translation columns that cannot hold a cell that good, which changes
    its cost only.  A rotation's bound is the largest of a pairwise one,
    from the image differences of two entries, a per-axis one, from the
    widest cyclic gap between one axis's image coordinates mod 1
    (_rotation_bound), and, on the rotations those two leave in play, a
    triple one: the smallest enclosing circle of three consecutive
    entries' images, up to integer shifts (_triple_bound).  Past modulus
    _EXACT_ROTATION_MODULUS (about 7e4) rotated coordinates are formed
    at working precision and reduced mod 1 first, because float64
    products would err by more than the margin.  An entry of modulus
    2^52 or more is refused with ValueError by the float64 guard that
    check_prop_sep shares.  Grids whose largest table would pass
    _TAU_TABLE_LIMIT entries are refused with ValueError before any
    array is made.
    """
    check_precision(bits)
    vec = S if isinstance(S, ComplexVector) else ComplexVector(tuple(S), bits)
    if grid_theta < 1 or grid_trans < 1:
        raise ValueError("grids must have at least one point")
    n_t, n_u = int(grid_theta), int(grid_trans)
    n_rows = n_t // math.gcd(4, n_t)
    table = max(n_u * n_u, len(vec) * max(n_u, n_rows))
    if table > _TAU_TABLE_LIMIT:
        raise ValueError(
            f"tau sweep table of {table} entries exceeds the desk-scale limit "
            f"({_TAU_TABLE_LIMIT}); coarsen grid_theta or grid_trans"
        )
    u = np.arange(n_u, dtype=np.float64) / n_u
    rw, iw = _rotated_images(vec, n_t, n_rows, bits)

    # Branch and bound over rotations.  A cell is at least the mean of two
    # entries' values, so at least ((fa_k + fa_l)^2 + (fb_k + fb_l)^2) / 4,
    # and fa_k + fa_l >= d(rw_k - rw_l); it is also at least every fa_k^2,
    # and some fa_k is half the shortest arc that holds the rw mod 1 or more
    # (likewise on the other axis); and it is at least the least over all
    # translations of any triple's worst value: no cell lies below lb.
    # vhat is a real cell plus twice the margin: first the seed's, the
    # first cell at the argmins of the column maxima of the rotation with
    # the lowest pairwise and gap bound, then the best local minimum so far.
    # Rows whose bound passes the seed's vhat + margin are never visited,
    # so only the rest pay for the triple term.  Rotations go in stable
    # bound order until a bound passes vhat + margin, and _prune_columns
    # drops only columns that hold no cell <= vhat, so no prune loses a
    # cell within cut = float minimum + margin, whatever the order.  Pass 2
    # walks the rotations in grid order and prunes at cut: kept cells
    # are computed as in the full grid and am, bm increase, so argwhere
    # meets the same cells in the same order.
    margin = _SCREEN_MARGIN
    lb = _rotation_bound(rw, iw)
    local_min = np.full(len(lb), np.inf, dtype=np.float64)

    def screen(idx: int, vhat: float) -> float:
        fa2, fb2 = _frac_sq_tables(rw[idx], iw[idx], u)
        if vhat == np.inf:
            a, b = fa2.max(axis=0).argmin(), fb2.max(axis=0).argmin()
            vhat = float((fa2[:, a] + fb2[:, b]).max()) + 2 * margin
        am, bm = _prune_columns(fa2, fb2, vhat)
        sub = _cell_max(fa2[:, am], fb2[:, bm])
        if sub.size:
            local_min[idx] = float(sub.min())
        return min(vhat, local_min[idx] + 2 * margin)

    seed = int(lb.argmin())
    vhat = screen(seed, np.inf)
    live = np.nonzero(lb <= vhat + margin)[0]
    lb[live] = np.maximum(lb[live], _triple_bound(rw[live], iw[live]))
    for idx in np.argsort(lb, kind="stable").tolist():
        if lb[idx] > vhat + margin:
            break
        if idx != seed:
            vhat = screen(idx, vhat)

    cut = float(local_min.min()) + margin

    best_val: Optional[mpf] = None
    best_key = None
    with working_precision(bits):
        two_pi = 2 * mpmath.pi
        for j in np.nonzero(local_min <= cut)[0].tolist():
            rot = Rotation.from_angle(two_pi * j / n_t, bits)
            fa2, fb2 = _frac_sq_tables(rw[j], iw[j], u)
            am, bm = _prune_columns(fa2, fb2, cut)
            for a, b in np.argwhere(_cell_max(fa2[:, am], fb2[:, bm]) <= cut):
                g = PlanarIsometry(rot, False, (mpf(int(am[a])) / n_u, mpf(int(bm[b])) / n_u))
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


class PropSepCheck(NamedTuple):
    """Sampled lower-bound check over random isometries of the probe."""

    t: mpf
    samples: int
    seed: int
    minimum: mpf
    argmin_index: int
    violations: Tuple[Tuple[int, mpf], ...]
    threshold: mpf
    bits: int = DEFAULT_PRECISION


# SplitMix64's increment (the golden gamma) and its finalizer's shift
# counts and multipliers.  Every constant and shift count is a np.uint64,
# so numpy 1.24's value-based casting and numpy 2's rules alike keep the
# arithmetic in uint64, wrapping mod 2^64 without a warning
_GOLDEN = 0x9E3779B97F4A7C15
_TWO_GOLDEN = np.uint64(2 * _GOLDEN % 2**64)
_MIX_SHIFTS = np.uint64(30), np.uint64(27), np.uint64(31)
_MIX_MULTIPLIERS = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_TURN_SHIFT, _HALF_SHIFT = np.uint64(11), np.uint64(32)
_LOW_BIT = np.uint64(1)


def _stream_words(seed: int, index: np.ndarray, first: int) -> np.ndarray:
    """The uint64 outputs first + 2 * index of the SplitMix64 stream
    seeded with seed, for a uint64 array index: each is mix64(seed +
    k * _GOLDEN mod 2^64) at its own k, so no output depends on another."""
    z = index * _TWO_GOLDEN
    z += np.uint64((seed + first * _GOLDEN) % 2**64)
    tmp = np.empty_like(z)
    z ^= np.right_shift(z, _MIX_SHIFTS[0], out=tmp)
    z *= _MIX_MULTIPLIERS[0]
    z ^= np.right_shift(z, _MIX_SHIFTS[1], out=tmp)
    z *= _MIX_MULTIPLIERS[1]
    z ^= np.right_shift(z, _MIX_SHIFTS[2], out=tmp)
    return z


def _translations(words: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    # a translation word's high and low 32-bit halves over 2^32; each half
    # is cast to uint32 first (a truncating cast, whatever the byte order),
    # which converts to float64 a little more cheaply than a uint64
    high = (words >> _HALF_SHIFT).astype(np.uint32)
    return high * 2.0**-32, words.astype(np.uint32) * 2.0**-32


def _rotations(words: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    # a rotation word's turn (w >> 11) / 2^53 and its reflection bit 0
    return (words >> _TURN_SHIFT) * 2.0**-53, (words & _LOW_BIT).astype(bool)


def _turn_table() -> Tuple[np.ndarray, np.ndarray]:
    # cos and sin of 2*pi*k/256 for k = 0 .. 256: numpy's at the first
    # octant's angles pi*k/128, k <= 32, which err by less than 2^-53, and
    # the rest by the octant and quarter-turn symmetries, so no entry
    # carries the rounding of an angle near 2*pi
    a = np.pi * np.arange(33, dtype=np.float64) / 128
    c8, s8 = np.cos(a), np.sin(a)
    cq, sq = np.concatenate([c8, s8[31::-1]]), np.concatenate([s8, c8[31::-1]])
    c = np.concatenate([cq[:64], -sq[:64], -cq[:64], sq[:64], [1.0]])
    s = np.concatenate([sq[:64], cq[:64], -sq[:64], -cq[:64], [0.0]])
    return c, s


_TURN_COS, _TURN_SIN = _turn_table()


def _turn_cos_sin(turn: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    # cos and sin of 2*pi*turn for turn in [0, 1), at about half libm's
    # cost on long rows (2.9 against 5.5 ms on 150k turns, 2-core Xeon):
    # the nearest knot k/256 from the table, turned on by
    # d = 2*pi*(turn - k/256), |d| <= pi/256, with cos d - 1 and sin d to
    # their degree-6 and degree-7 Taylor terms, whose remainders stay
    # below 2^-66.  turn * 256 and its distance to k are exact, and the
    # small corrections are added to the table entries last.
    x = turn * 256
    k = np.rint(x)
    d = x - k
    d *= 2 * np.pi / 256
    d2 = d * d
    # -(cos d - 1) and -sin d, by Horner's rule in place
    cm = d2 * (1 / 720)
    cm -= 1 / 24
    cm *= d2
    cm += 1 / 2
    cm *= d2
    sn = d2 * (1 / 5040)
    sn -= 1 / 120
    sn *= d2
    sn += 1 / 6
    sn *= d2
    sn -= 1
    sn *= d
    ki = k.astype(np.intp)
    ck, sk = _TURN_COS.take(ki), _TURN_SIN.take(ki)
    c = ck * cm
    c -= sk * sn
    s = sk * cm
    s += ck * sn
    return np.subtract(ck, c, out=c), np.subtract(sk, s, out=s)


def check_prop_sep(
    t, samples: int, seed: int, bits: int = DEFAULT_PRECISION
) -> PropSepCheck:
    """Throw `samples` random planar isometries at the separated probe
    and measure the worst fractional distance of each image.

    Every sample is a genuine isometric embedding, so each value should
    stay at or above 1/8; anything below 1/8 minus the certification
    slack is recorded as a violation.  Sample i is outputs 2i + 1 and
    2i + 2 of the SplitMix64 stream seeded with seed, which must lie in
    [0, 2^64), the generator's state range (_stream_words).  Output
    2i + 1 is the rotation word w: turn (w >> 11) / 2^53, reflection
    bit 0.  Output 2i + 2 is the translation word, whose high and low
    32-bit halves over 2^32 are the two translation coordinates.  All
    are exact dyadics, so the exact pass re-evaluates the very isometry
    the screen saw.  Each output is one hash of its index, so the CLI
    rechecks the argmin sample by hashing its two words in pure Python.
    Hashing 2M translation words takes about 7 ms of a 35 ms screen.

    A float64 screen, run over chunks of _CHUNK samples, picks the
    samples worth an exact re-evaluation; only their indices are kept,
    and their words are hashed again for the exact pass.  Every
    sample's translation word is hashed, and the sample is first
    bounded by its translation alone, the image of the probe's origin:
    d(t1)^2 + d(t2)^2, with d(u) = min(u, 1 - u).  From the second chunk
    on only the few whose bound stays within the cut of the batches
    before (about 7% at t = 2) have their rotation word hashed.  The
    rotations are formed once a quarter chunk of samples waits, and once
    more at the end, with cos and sin from a 256-knot turn table
    (_turn_cos_sin), which changes the screen's cost only: 2M samples at
    t = 2 rotate about 150k in some 60 batches.  Once t passes
    _EXACT_ROTATION_MODULUS (about 7e4) the float64 rotation errs by more
    than the screen's margin, so every sample is rotated and
    re-evaluated exactly, at 0.12 to 0.20 ms each.  Runs of
    more than _EXACT_SAMPLE_LIMIT samples there, and of more than
    _SCREEN_SAMPLE_LIMIT below it, are refused with ValueError before
    any word is hashed.
    """
    check_precision(bits)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not 0 <= seed < 2**64:
        raise ValueError("prop-sep seed must be in [0, 2^64), the SplitMix64 state range")
    probe = separated_probe(t, bits)
    re, im = _float_parts(probe)

    exact_all = float(probe.max_abs()) > _EXACT_ROTATION_MODULUS
    limit = _EXACT_SAMPLE_LIMIT if exact_all else _SCREEN_SAMPLE_LIMIT
    if samples > limit:
        where = "past" if exact_all else "below"
        raise ValueError(
            f"prop-sep run of {samples} samples exceeds the desk-scale limit "
            f"({limit} {where} the exact-rotation modulus); lower samples"
        )
    with working_precision(bits):
        eighth = mpf(1) / 8
        threshold = eighth - residual_tol(bits)
        screen_sq = float((eighth + mpf("1e-6")) ** 2)

    # Screen batch by batch, keeping the samples within the cut the float
    # minimum so far sets.  That cut only falls, so the kept samples hold
    # every one within the final cut.  The probe's first point is the
    # origin, whose image is the translation (t1, t2) bit for bit, so
    # d(t1)^2 + d(t2)^2 is the first term of a sample's worst value.  A
    # sample whose first term passes the cut of the batches before it can
    # neither be kept nor lower the float minimum, and its rotation word
    # is never hashed; the others queue until a quarter chunk waits, so a
    # rotation pass is long enough to amortize numpy's per-call cost.
    # The first chunk meets an infinite cut and is rotated whole.  Past
    # the rotation modulus the float64 rotation errs by more than the
    # margin, the screen cannot rank samples, and every one is kept for
    # exact re-evaluation.
    rows = np.arange(_CHUNK, dtype=np.uint64)
    index, screened = [], []
    queue, queued = [], 0
    float_min_sq = cut = np.inf
    for start in range(0, samples, _CHUNK):
        n = min(_CHUNK, samples - start)
        t1, t2 = _translations(_stream_words(seed, rows[:n], 2 * start + 2))
        fx = np.minimum(t1, 1 - t1)
        fy = np.minimum(t2, 1 - t2)
        first = fx * fx + fy * fy
        live = np.nonzero(first <= cut)[0]
        queue.append((rows[live] + np.uint64(start), t1[live], t2[live], first[live]))
        queued += live.size
        if queued < _CHUNK // 4 and start + n < samples:
            continue
        at, t1, t2, worst = (np.concatenate(parts) for parts in zip(*queue))
        queue, queued = [], 0
        turn, reflect = _rotations(_stream_words(seed, at, 1))
        c, s = _turn_cos_sin(turn)
        sign = np.where(reflect, -1.0, 1.0)
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
        index.append(at[kept])
        screened.append(worst[kept])
    # the last batch's cut is the final one
    index = np.concatenate(index)[np.concatenate(screened) <= cut]

    with working_precision(bits):
        minimum: Optional[mpf] = None
        argmin_index = -1
        violations = []
        # the kept samples' words are hashed again and turned into Python
        # numbers one chunk at a time: past the rotation modulus every
        # sample is kept, and whole-run lists of them would set the peak
        for start in range(0, index.size, _CHUNK):
            at = index[start : start + _CHUNK]
            draws = (
                *_rotations(_stream_words(seed, at, 1)),
                *_translations(_stream_words(seed, at, 2)),
            )
            for i, turn, reflect, t1, t2 in zip(at.tolist(), *(a.tolist() for a in draws)):
                g = PlanarIsometry(
                    Rotation.from_angle(2 * mpmath.pi * mpf(turn), bits),
                    reflect,
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


class CoveringOutcome(NamedTuple):
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


def _walk_cells(v: np.ndarray, G: int, h: float, start: int, n: int) -> np.ndarray:
    # flat cell index sum_k ik * G^k of steps start .. start + n - 1 of the
    # walk along v with step h on the G^dim grid, in Horner's form from the
    # last axis: step j sits at (j * h) * v_k mod 1, with j exact in float64
    # below 2^53.  x - floor(x) is x % 1.0 bit for bit, exact for x >= 0 and
    # one rounding of the same real for x < 0, and costs less than an fmod
    jh = np.arange(start, start + n, dtype=np.float64) * h
    flat = 0
    for k in range(v.size - 1, -1, -1):
        x = jh * v[k]
        x -= np.floor(x)
        x *= G
        ik = x.astype(np.int64)
        np.minimum(ik, G - 1, out=ik)
        flat = flat * G + ik
    return flat


def covering_time(
    direction: Sequence, eps, L_cap, cell: Optional[float] = None
) -> CoveringOutcome:
    """Advance the torus orbit s -> s*direction mod 1 from the origin and
    report the first time every grid cell holds a sample.

    Consecutive samples move less than half a cell, so a covered grid
    means the orbit passed within a cell diagonal plus half a step of
    every torus point.  The simulation is float64: at the coarse cells
    this oracle exists for, double precision is far below the cell size
    over any reachable horizon.  The orbit is walked _CHUNK steps at a
    time, each coordinate formed as (j * h) * v_k on its own
    (_walk_cells), so the chunking moves no sample.  Only the steps that
    enter an unvisited cell are sorted, and the neighbours that differ in
    that sort count the new cells; only the chunk that completes the grid
    pays for a stable sort, to find the step that entered its last cell.
    That keeps a walk under 1 MB of temporaries and at 9 to 10 ns a step
    in two dimensions on a 2-core Xeon (5.1 to 5.6 ms for the 573,139
    steps of the golden direction at eps 0.005).  Dimensions above 6 are
    refused, and so are grids that would not fit in memory and runs of
    more than _COVERING_STEP_LIMIT steps; this is a desk-scale
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
    # a norm past float64 is inf, which the step check below refuses
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if norm == 0:
        raise ValueError("degenerate direction: all coordinates are zero")

    # past the limit on one axis the grid is too large in any dimension,
    # and 1 / cell is inf for a subnormal cell, which int() cannot take
    if not 1.0 / cell_f <= _COVERING_CELL_LIMIT:
        raise ValueError(
            f"covering grid of more than {_COVERING_CELL_LIMIT} cells on one axis "
            f"(cell {cell_f}) exceeds the desk-scale limit; coarsen eps or cell"
        )
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
    visited = np.zeros(total, dtype=bool)
    visited_count = 0
    last = max_index  # the index of the last step simulated
    for start in range(0, max_index + 1, _CHUNK):
        flat = _walk_cells(v, G, h, start, min(_CHUNK, max_index + 1 - start))
        # only the steps that land in a cell unvisited before the chunk
        # are sorted, and the neighbours that differ count the new cells;
        # the chunk that completes the grid also needs the first step into
        # each new cell, its first occurrence, which takes a stable sort.
        # Cell indices stay below _COVERING_CELL_LIMIT = 2^27, so they sort
        # as int32, in half the time of int64.
        new = np.nonzero(~visited[flat])[0]
        if new.size:
            fresh = flat[new]
            visited[fresh] = True
            cells = np.sort(fresh.astype(np.int32))
            visited_count += 1 + int(np.count_nonzero(cells[1:] != cells[:-1]))
            if visited_count == total:
                first = np.unique(fresh, return_index=True)[1]
                last = start + int(new[first].max())
                break

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
