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

from dataclasses import dataclass
from typing import Optional, Tuple

import mpmath
from mpmath import mpc, mpf

from .corelattice import ComplexVector
from .precision import (
    DEFAULT_PRECISION,
    check_precision,
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
    "EvenDimPointSet",
    "BlockEmbeddingReport",
    "project_planes",
    "solve_even_dim",
]


@dataclass(frozen=True)
class EvenDimPointSet:
    """A nonempty tuple of real vectors sharing one even dimension."""

    points: tuple
    bits: int = DEFAULT_PRECISION

    def __post_init__(self) -> None:
        check_precision(self.bits)
        if not self.points:
            raise ValueError("a point set needs at least one point")
        dims = {len(p) for p in self.points}
        if len(dims) != 1:
            raise ValueError(f"points have mixed dimensions: {sorted(dims)}")
        dim = dims.pop()
        if dim < 2 or dim % 2 != 0:
            raise ValueError(f"dimension must be even and >= 2, got {dim}")
        with working_precision(self.bits):
            converted = tuple(tuple(mpf(c) for c in p) for p in self.points)
        for p in converted:
            for c in p:
                if not mpmath.isfinite(c):
                    raise ValueError("coordinates must be finite")
        object.__setattr__(self, "points", converted)

    @property
    def dim(self) -> int:
        return len(self.points[0])

    @property
    def num_planes(self) -> int:
        return self.dim // 2

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def project_planes(point_set: EvenDimPointSet) -> Tuple[ComplexVector, ...]:
    """Split a 2d-dimensional set into d planar configurations.

    Plane i carries coordinates (2i, 2i+1) of every point as real and
    imaginary parts.  Pure re-pairing, no arithmetic, so the planes carry
    the original coordinates exactly.
    """
    ps = point_set if isinstance(point_set, EvenDimPointSet) else EvenDimPointSet(tuple(point_set))
    with working_precision(ps.bits):
        return tuple(
            ComplexVector(
                tuple(mpc(p[2 * i], p[2 * i + 1]) for p in ps.points), ps.bits
            )
            for i in range(ps.num_planes)
        )


@dataclass(frozen=True)
class BlockEmbeddingReport:
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
    point_set: EvenDimPointSet,
    report: "BlockEmbeddingReport",
) -> Tuple[Tuple[mpf, ...], ...]:
    """Images psi(x) of every point under the report's rotations."""
    eval_bits = report.eval_bits
    with working_precision(eval_bits):
        t = mpf(report.t)
        out = []
        for p in point_set.points:
            coords = []
            for i, plane_rep in enumerate(report.per_plane):
                w = plane_rep.theta.value * t * mpc(p[2 * i], p[2 * i + 1])
                coords.append(w.real)
                coords.append(w.imag)
            out.append(tuple(coords))
        return tuple(out)


def solve_even_dim(
    point_set,
    t,
    eps,
    seed: int = 0,
    config: Optional[SolverConfig] = None,
) -> BlockEmbeddingReport:
    """Solve every coordinate plane, assemble, and verify the assembly.

    Each plane gets the equal share eps/sqrt(d), so the Pythagorean
    combination certifies the target.  Plane i is solved with a child seed
    derived from the master seed and the plane index, so runs are
    reproducible regardless of how many planes there are.
    """
    config = config or SolverConfig()
    ps = point_set if isinstance(point_set, EvenDimPointSet) else EvenDimPointSet(
        tuple(point_set), config.bits
    )
    bits = max(config.bits, ps.bits)
    d = ps.num_planes

    work = bits + 64
    eps_v = parse_decimal(eps, work)
    with working_precision(work):
        k = mpf(ps.dim)
        if not (0 < eps_v < mpmath.sqrt(k) / 2):
            raise ValueError(
                f"eps must lie in (0, sqrt(dim)/2) = (0, {mpmath.nstr(mpmath.sqrt(k) / 2, 8)}), "
                f"got {eps_v}"
            )
        share = eps_v / mpmath.sqrt(mpf(d))

    planes = project_planes(ps)
    reports = [
        solve_general(plane, t, share, seed=derive_seed(seed, i, "plane"), config=config)
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
