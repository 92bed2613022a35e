"""Block products: even-dimensional configurations from planar solves.

A point set in R^(2d) is handled two coordinates at a time.  Each
consecutive coordinate pair becomes a planar configuration, each plane
gets its own rotation from the general solver at a tolerance of
eps/sqrt(d), and the assembled map

    psi(x) = (theta_1 * t * pi_1(x), ..., theta_d * t * pi_d(x))

lands every image point within sqrt(sum of squared plane errors) of the
integer lattice.  The equal split makes that combined bound exactly eps
when every plane meets its share strictly.  As everywhere else in the
package, achieved is decided by re-measuring the assembled images
against Z^(2d) at doubled precision, not by trusting the per-plane
arithmetic.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Tuple

import mpmath
from mpmath import mpc, mpf

from .corelattice import ComplexVector
from .precision import (
    DEFAULT_PRECISION,
    parse_decimal,
    working_precision,
)
from .solver import (
    SolveReport,
    SolverConfig,
    certify,
    derive_seed,
    solve_general,
)

__all__ = [
    "BlockEmbeddingReport",
    "project_planes",
    "solve_even_dim",
]


def project_planes(points, bits: int = DEFAULT_PRECISION) -> Tuple[ComplexVector, ...]:
    """Split a point set in R^(2d) into d planar configurations.

    The one check of a point set: nonempty, one even dimension 2d >= 2,
    finite coordinates (decimal strings or numbers, read at bits).  Plane
    i carries coordinates (2i, 2i+1) of every point as real and imaginary
    parts, so the planes carry the coordinates exactly.
    """
    rows = [tuple(parse_decimal(c, bits) for c in p) for p in points]
    if not rows:
        raise ValueError("a point set needs at least one point")
    dims = {len(p) for p in rows}
    if len(dims) != 1:
        raise ValueError(f"points have mixed dimensions: {sorted(dims)}")
    dim = dims.pop()
    if dim < 2 or dim % 2 != 0:
        raise ValueError(f"points need an even dimension >= 2, got {dim}")
    with working_precision(bits):
        return tuple(
            ComplexVector(tuple(mpc(p[2 * i], p[2 * i + 1]) for p in rows), bits)
            for i in range(dim // 2)
        )


class BlockEmbeddingReport(NamedTuple):
    """Per-plane solves plus the verdict on the assembled embedding."""

    t: mpf
    per_plane: Tuple[SolveReport, ...]
    plane_eps: Tuple[mpf, ...]
    combined_per_point: Tuple[mpf, ...]
    combined_max_frac: mpf
    achieved: bool
    seed: int
    bits: int = DEFAULT_PRECISION
    eval_bits: int = DEFAULT_PRECISION


def embed_points(
    planes: Sequence[ComplexVector],
    report: "BlockEmbeddingReport",
) -> Tuple[Tuple[mpf, ...], ...]:
    """Images psi(x) of every point under the report's rotations, for the
    planes of project_planes."""
    with working_precision(report.eval_bits):
        t = mpf(report.t)
        out = []
        for entries in zip(*planes, strict=True):
            coords = []
            for plane_rep, z in zip(report.per_plane, entries):
                w = plane_rep.theta.value * t * z
                coords += [w.real, w.imag]
            out.append(tuple(coords))
        return tuple(out)


def solve_even_dim(
    planes: Sequence[ComplexVector],
    t,
    eps,
    seed: int = 0,
    config: Optional[SolverConfig] = None,
    cache: Optional[dict] = None,
) -> BlockEmbeddingReport:
    """Solve every coordinate plane, assemble, and verify the assembly.

    planes are project_planes' split of a point set in R^(2d).  Each
    gets the equal share eps/sqrt(d), so the Pythagorean combination
    certifies the target.  Plane i is solved with a child seed derived
    from the master seed and the plane index, so runs are reproducible
    regardless of how many planes there are.  cache is solve_general's
    run cache, forwarded to every plane's solve; its keys hold each
    plane's entries and seed, so the planes of a block run share one.
    """
    config = config or SolverConfig()
    bits = max([config.bits] + [plane.bits for plane in planes])
    d = len(planes)

    work = bits + 64
    eps_v = parse_decimal(eps, work)
    with working_precision(work):
        k = mpf(2 * d)
        if not (0 < eps_v < mpmath.sqrt(k) / 2):
            raise ValueError(
                f"eps must lie in (0, sqrt(dim)/2) = (0, {mpmath.nstr(mpmath.sqrt(k) / 2, 8)}), "
                f"got {eps_v}"
            )
        share = eps_v / mpmath.sqrt(mpf(d))

    reports = [
        solve_general(
            plane, t, share, seed=derive_seed(seed, i, "plane"), config=config, cache=cache
        )
        for i, plane in enumerate(planes)
    ]

    eval_bits = max(r.eval_bits for r in reports)
    t_v = parse_decimal(t, eval_bits)
    per_point, combined = certify([r.theta for r in reports], t_v, planes, eval_bits)
    eps_e = parse_decimal(eps, eval_bits)
    with working_precision(eval_bits):
        share_stored = mpf(share)
    achieved = bool(combined < eps_e)

    return BlockEmbeddingReport(
        t=t_v,
        per_plane=tuple(reports),
        plane_eps=(share_stored,) * d,
        combined_per_point=per_point,
        combined_max_frac=combined,
        achieved=achieved,
        seed=seed,
        bits=bits,
        eval_bits=eval_bits,
    )
