"""Rotations that pull dilated planar configurations onto the Gaussian
integer lattice, with certified verification and brute-force oracles."""

from .corelattice import (
    ComplexVector,
    Rotation,
    frac_dist,
    nearest_gaussian,
    real_dist_to_lattice,
    vec_frac_dist,
)
from .flowsearch import FlowSearchOutcome, flow_search
from .oracle import (
    CoveringOutcome,
    PlanarIsometry,
    PropSepCheck,
    TauEstimate,
    apply_isometry,
    check_prop_sep,
    covering_time,
    isometry_max_frac,
    separated_probe,
    separation,
    tau_estimate,
)
from .products import (
    BlockEmbeddingReport,
    EvenDimPointSet,
    embed_points,
    project_planes,
    solve_even_dim,
)
from .relations import (
    RelationDecomposition,
    detect_relations,
    recommended_precision,
    select_M,
)
from .reporting import RunReport, canonical_json, covering_csv, tau_csv
from .solver import (
    InternalCheckError,
    SolveReport,
    SolverConfig,
    dilation_threshold,
    randomize_phase,
    solve_general,
    solve_plan,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ComplexVector",
    "Rotation",
    "frac_dist",
    "nearest_gaussian",
    "real_dist_to_lattice",
    "vec_frac_dist",
    "FlowSearchOutcome",
    "flow_search",
    "CoveringOutcome",
    "PlanarIsometry",
    "PropSepCheck",
    "TauEstimate",
    "apply_isometry",
    "check_prop_sep",
    "covering_time",
    "isometry_max_frac",
    "separated_probe",
    "separation",
    "tau_estimate",
    "BlockEmbeddingReport",
    "EvenDimPointSet",
    "embed_points",
    "project_planes",
    "solve_even_dim",
    "RelationDecomposition",
    "detect_relations",
    "recommended_precision",
    "select_M",
    "RunReport",
    "canonical_json",
    "covering_csv",
    "tau_csv",
    "InternalCheckError",
    "SolveReport",
    "SolverConfig",
    "dilation_threshold",
    "randomize_phase",
    "solve_general",
    "solve_plan",
]
