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
from typing import Optional, Sequence, Tuple

import mpmath
from mpmath import mpc, mpf

from .corelattice import ComplexVector
from .precision import (
    DEFAULT_PRECISION,
    check_precision,
    format_decimal,
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
    "stack_planes",
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
    imaginary parts.  Pure re-pairing, no arithmetic, so stacking the
    planes back reproduces the original coordinates exactly.
    """
    ps = point_set if isinstance(point_set, EvenDimPointSet) else EvenDimPointSet(tuple(point_set))
    with working_precision(ps.bits):
        return tuple(
            ComplexVector(
                tuple(mpc(p[2 * i], p[2 * i + 1]) for p in ps.points), ps.bits
            )
            for i in range(ps.num_planes)
        )


def stack_planes(planes: Sequence[ComplexVector], bits: Optional[int] = None) -> EvenDimPointSet:
    """Inverse of project_planes."""
    if not planes:
        raise ValueError("need at least one plane")
    n = len(planes[0])
    if any(len(pl) != n for pl in planes):
        raise ValueError("planes disagree on the number of points")
    use_bits = bits if bits is not None else max(pl.bits for pl in planes)
    points = tuple(
        tuple(c for pl in planes for c in (pl.entries[j].real, pl.entries[j].imag))
        for j in range(n)
    )
    return EvenDimPointSet(points, use_bits)


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
    diagnostics: Tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        b = self.eval_bits
        return {
            "t": format_decimal(self.t, b),
            "per_plane": [r.to_json_dict() for r in self.per_plane],
            "plane_eps": [format_decimal(v, b) for v in self.plane_eps],
            "combined_per_point": [format_decimal(v, b) for v in self.combined_per_point],
            "combined_max_frac": format_decimal(self.combined_max_frac, b),
            "achieved": self.achieved,
            "seed": self.seed,
            "bits": self.bits,
            "eval_bits": self.eval_bits,
            "diagnostics": list(self.diagnostics),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BlockEmbeddingReport":
        b = int(data["eval_bits"])
        return cls(
            t=parse_decimal(data["t"], b),
            per_plane=tuple(SolveReport.from_json_dict(r) for r in data["per_plane"]),
            plane_eps=tuple(parse_decimal(v, b) for v in data["plane_eps"]),
            combined_per_point=tuple(
                parse_decimal(v, b) for v in data["combined_per_point"]
            ),
            combined_max_frac=parse_decimal(data["combined_max_frac"], b),
            achieved=bool(data["achieved"]),
            seed=int(data["seed"]),
            bits=int(data["bits"]),
            eval_bits=b,
            diagnostics=tuple(data.get("diagnostics", ())),
        )


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
    plane_eps: Optional[Sequence] = None,
) -> BlockEmbeddingReport:
    """Solve every coordinate plane, assemble, and verify the assembly.

    plane_eps overrides the equal eps/sqrt(d) split; custom splits must
    keep the squared sum within eps^2 so the Pythagorean combination
    still certifies the target.  Plane i is solved with a child seed
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
        if plane_eps is None:
            split = tuple(eps_v / mpmath.sqrt(mpf(d)) for _ in range(d))
        else:
            if len(plane_eps) != d:
                raise ValueError(f"plane_eps needs {d} entries, got {len(plane_eps)}")
            split = tuple(parse_decimal(v, work) for v in plane_eps)
            if any(v <= 0 for v in split):
                raise ValueError("plane tolerances must be positive")
            budget = sum(v**2 for v in split)
            if budget > eps_v**2 * (1 + mpf(2) ** (-bits + 8)):
                raise ValueError(
                    "squared plane tolerances exceed eps^2; the combined "
                    "bound would not certify the target"
                )

    planes = project_planes(ps)
    reports = []
    diagnostics: list = []
    for i, plane in enumerate(planes):
        rep = solve_general(
            plane, t, split[i], seed=derive_seed(seed, i, "plane"), config=config
        )
        reports.append(rep)
        if not rep.achieved:
            diagnostics.append(f"plane {i} failed its share of the budget")

    eval_bits = max(r.eval_bits for r in reports)
    t_v = parse_decimal(t, eval_bits)
    per_point, combined = certify([r.theta for r in reports], t_v, planes, eval_bits)
    eps_e = parse_decimal(eps, eval_bits)
    with working_precision(eval_bits):
        split_stored = tuple(mpf(v) for v in split)
    achieved = bool(combined < eps_e)

    return BlockEmbeddingReport(
        t=t_v,
        per_plane=tuple(reports),
        plane_eps=split_stored,
        combined_per_point=per_point,
        combined_max_frac=combined,
        achieved=achieved,
        seed=seed,
        bits=bits,
        eval_bits=eval_bits,
        diagnostics=tuple(diagnostics),
    )
