"""Rotation solver for dilated planar configurations.

Given a complex configuration V, a dilation t and a tolerance eps, the
solver produces a unit-modulus theta for which every entry of theta*t*V
lies within eps of the Gaussian integers.  The route is the linear one:
for s in a bounded range, e^(is/t)*t*z is within s^2*|z|/(2t) of
(t+is)*z, so it suffices to steer the linear flow s -> s*V - i*t*V onto
the lattice and pay a quadratic remainder that the dilation threshold
keeps below a quarter of the budget.

Entries that are rationally entangled over Q[i] pin the flow to a
subtorus and can make the direct search miss forever.  The general
driver therefore detects relations first, searches only a reduced
independent block at a tighter tolerance, applies a seeded random phase
to knock the reduced direction off any remaining rational wall, and
transfers the result back through the detected coefficients.  The final
verdict never trusts that chain: achieved is decided by re-evaluating
the delivered rotation against the original entries at doubled
precision.

Precision discipline: everything multiplied by t needs magnitude bits on
top of the resolution bits for eps, so each solve computes an evaluation
precision from t, the search horizon and eps, and carries the rotation
at that width.  A rotation stored at the base precision would already be
useless at threshold-scale dilations: t * 2^(-P) dwarfs eps long before
t reaches the regime the construction is built for.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import mpmath
from mpmath import mpc, mpf

from .corelattice import ComplexVector, Rotation, frac_dist
from .flowsearch import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_SCAN_LIMIT,
    DEFAULT_WINDOW_BUDGET,
    FlowSearchOutcome,
    flow_search,
)
from .precision import (
    DEFAULT_PRECISION,
    check_precision,
    format_decimal,
    identity_slack,
    parse_decimal,
    raise_for_magnitude,
    working_precision,
)
from .relations import RelationDecomposition, detect_relations

__all__ = [
    "InternalCheckError",
    "SolverConfig",
    "SolveReport",
    "GeneralPlan",
    "PhaseSample",
    "dilation_threshold",
    "initial_search_length",
    "derive_seed",
    "randomize_phase",
    "lattice_residuals",
    "certify",
    "solve_typical",
    "solve_plan",
    "solve_general",
]


class InternalCheckError(RuntimeError):
    """An a-posteriori self check failed; the result cannot be trusted."""


DEFAULT_HEIGHT_BOUND = 64
DEFAULT_MAX_PHASE_RETRIES = 3
DEFAULT_MAX_ESCALATIONS = 6


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by both solve entry points.

    bits is the declared precision of the problem data; evaluation
    precision is raised automatically and is not configurable.  l_start
    and l_cap override and cap the search-horizon ladder; both accept
    decimal strings.
    """

    bits: int = DEFAULT_PRECISION
    height_bound: int = DEFAULT_HEIGHT_BOUND
    max_phase_retries: int = DEFAULT_MAX_PHASE_RETRIES
    max_escalations: int = DEFAULT_MAX_ESCALATIONS
    l_start: Optional[str] = None
    l_cap: Optional[str] = None
    scan_limit: int = DEFAULT_SCAN_LIMIT
    window_budget: int = DEFAULT_WINDOW_BUDGET
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self) -> None:
        check_precision(self.bits)
        if self.max_phase_retries < 0:
            raise ValueError("max_phase_retries must be >= 0")
        if self.max_escalations < 0:
            raise ValueError("max_escalations must be >= 0")


@dataclass(frozen=True)
class SolveReport:
    """Everything one solve produced, verification included.

    per_point_frac comes from an independent re-evaluation of the
    delivered rotation at twice the evaluation precision; achieved is
    that check and nothing else.  search_steps is the flow search's
    examined count: scan grid points plus enumeration candidates, summed
    over horizons and retries for the general driver.
    """

    t: mpf
    theta: Rotation
    phi: mpf
    s_found: Optional[mpf]
    L_used: mpf
    T_threshold: mpf
    per_point_frac: Tuple[mpf, ...]
    max_frac: mpf
    achieved: bool
    search_steps: int
    seed: Optional[int]
    decomposition: Optional[RelationDecomposition]
    bits: int = DEFAULT_PRECISION
    eval_bits: int = DEFAULT_PRECISION
    diagnostics: Tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        b = self.eval_bits
        return {
            "t": format_decimal(self.t, b),
            "theta": [
                format_decimal(self.theta.value.real, b),
                format_decimal(self.theta.value.imag, b),
            ],
            "phi": format_decimal(self.phi, b),
            "s_found": None if self.s_found is None else format_decimal(self.s_found, b),
            "L_used": format_decimal(self.L_used, b),
            "T_threshold": format_decimal(self.T_threshold, b),
            "per_point_frac": [format_decimal(v, b) for v in self.per_point_frac],
            "max_frac": format_decimal(self.max_frac, b),
            "achieved": self.achieved,
            "search_steps": self.search_steps,
            "seed": self.seed,
            "decomposition": None
            if self.decomposition is None
            else self.decomposition.to_json_dict(),
            "bits": self.bits,
            "eval_bits": self.eval_bits,
            "diagnostics": list(self.diagnostics),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SolveReport":
        b = int(data["eval_bits"])
        with working_precision(b):
            theta = Rotation(
                mpc(parse_decimal(data["theta"][0], b), parse_decimal(data["theta"][1], b)),
                b,
            )
        return cls(
            t=parse_decimal(data["t"], b),
            theta=theta,
            phi=parse_decimal(data["phi"], b),
            s_found=None if data["s_found"] is None else parse_decimal(data["s_found"], b),
            L_used=parse_decimal(data["L_used"], b),
            T_threshold=parse_decimal(data["T_threshold"], b),
            per_point_frac=tuple(parse_decimal(v, b) for v in data["per_point_frac"]),
            max_frac=parse_decimal(data["max_frac"], b),
            achieved=bool(data["achieved"]),
            search_steps=int(data["search_steps"]),
            seed=None if data["seed"] is None else int(data["seed"]),
            decomposition=None
            if data["decomposition"] is None
            else RelationDecomposition.from_json_dict(data["decomposition"]),
            bits=int(data["bits"]),
            eval_bits=b,
            diagnostics=tuple(data.get("diagnostics", ())),
        )


def dilation_threshold(L, max_abs_z, eps, bits: int = DEFAULT_PRECISION) -> mpf:
    """Dilation beyond which the quadratic remainder of e^(is/t) stays
    under a quarter of eps for all s up to L: T = 2*L^2*max|z|/eps."""
    with working_precision(bits):
        L = mpf(L)
        max_abs_z = mpf(max_abs_z)
        eps = mpf(eps)
        if eps <= 0:
            raise ValueError("eps must be positive")
        if L < 0 or max_abs_z < 0:
            raise ValueError("L and max|z| must be nonnegative")
        return 2 * L**2 * max_abs_z / eps


def initial_search_length(eps, entries: int, bits: int = DEFAULT_PRECISION) -> mpf:
    """First search horizon for a flow over `entries` complex entries.

    The generic waiting time for all entries to drift within eps of the
    lattice scales like eps^(-2*entries); 8/eps^(2*entries) pads that by
    a comfortable constant so escalation is the exception.
    """
    if entries < 1:
        raise ValueError("entries must be >= 1")
    with working_precision(bits):
        e = mpf(eps)
        if not (0 < e < 1):
            raise ValueError("eps must lie in (0, 1)")
        return 8 / e ** (2 * entries)


def derive_seed(master: int, index: int, salt: str = "") -> int:
    """Deterministic child seed, stable across platforms and runs."""
    digest = hashlib.sha256(f"{salt}:{master}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class PhaseSample:
    """One seeded random phase and the configuration it was applied to."""

    phi: mpf
    rotation: Rotation
    rotated: ComplexVector
    seed: int


def randomize_phase(V, seed: int, bits: Optional[int] = None) -> PhaseSample:
    """Rotate every entry of V by a seeded uniform phase in [0, 2*pi).

    The draw is a single call into the stdlib Mersenne Twister, so the
    phase is reproducible across platforms for a fixed seed.  Moduli are
    preserved up to the rotation's own unit-circle tolerance.
    """
    vec = V if isinstance(V, ComplexVector) else ComplexVector(tuple(V), bits or DEFAULT_PRECISION)
    use_bits = bits if bits is not None else vec.bits
    check_precision(use_bits)
    unit = random.Random(seed).random()
    with working_precision(use_bits):
        phi = 2 * mpmath.pi * mpf(unit)
        rotation = Rotation.from_angle(phi, use_bits)
        rotated = ComplexVector(
            tuple(rotation.value * z for z in vec.entries), use_bits
        )
    return PhaseSample(phi=phi, rotation=rotation, rotated=rotated, seed=seed)


def lattice_residuals(theta: Rotation, t, V, bits: int) -> Tuple[mpf, ...]:
    """Distance of each entry of theta*t*V to the nearest Gaussian integer.

    Deliberately a direct loop over frac_dist with no shared state with
    the search: this is the second opinion every report is judged by.
    """
    vec = V if isinstance(V, ComplexVector) else ComplexVector(tuple(V), bits)
    with working_precision(bits):
        tt = parse_decimal(t, bits)
        return tuple(frac_dist(theta.value * tt * z, bits) for z in vec.entries)


def certify(
    thetas: Sequence[Rotation], t, planes: Sequence, eval_bits: int
) -> Tuple[Tuple[mpf, ...], mpf]:
    """Distance of every point's image to the integer lattice, and the worst.

    Point j is the entry j of every plane; plane i is turned by thetas[i]
    and dilated by t, so a planar configuration is the block of one
    plane.  The lattice_residuals of each plane are taken at twice
    eval_bits and combined as sqrt(sum of squares), then rounded to
    eval_bits so reports serialize at their own precision.  For one
    plane the combination is exact (sqrt(fl(h^2)) == h), and max
    commutes with the rounding because it is monotone.
    """
    hi = 2 * eval_bits
    per_plane = [lattice_residuals(th, t, pl, hi) for th, pl in zip(thetas, planes)]
    with working_precision(hi):
        combined = [mpmath.sqrt(sum(r * r for r in rs)) for rs in zip(*per_plane)]
    with working_precision(eval_bits):
        per_point = tuple(mpf(v) for v in combined)
        worst = max(per_point)
    return per_point, worst


def _identity_rotation(bits: int) -> Rotation:
    with working_precision(bits):
        return Rotation(mpc(1), bits)


def _trivial_report(
    vec: ComplexVector,
    t_in,
    eps: mpf,
    bits: int,
    seed: Optional[int],
    decomposition: Optional[RelationDecomposition],
    note: str,
) -> SolveReport:
    # an all-zero configuration is fixed by every rotation; report the
    # identity and let the verification pass say so
    eval_bits = raise_for_magnitude(bits, max(abs(parse_decimal(t_in, bits + 64)), mpf(1)), eps)
    t = parse_decimal(t_in, eval_bits)
    theta = _identity_rotation(eval_bits)
    per_point, max_frac = certify([theta], t, [vec], eval_bits)
    return SolveReport(
        t=t,
        theta=theta,
        phi=mpf(0),
        s_found=mpf(0),
        L_used=mpf(0),
        T_threshold=mpf(0),
        per_point_frac=per_point,
        max_frac=max_frac,
        achieved=bool(max_frac < eps),
        search_steps=0,
        seed=seed,
        decomposition=decomposition,
        bits=bits,
        eval_bits=eval_bits,
        diagnostics=(note,),
    )


def _check_linearization(
    theta: Rotation,
    t: mpf,
    s: mpf,
    vec: ComplexVector,
    L: mpf,
    max_abs: mpf,
    bits: int,
) -> None:
    """Quadratic-remainder self check for a successful direct solve."""
    with working_precision(bits):
        bound = L**2 * max_abs / (2 * t) + identity_slack(bits, t * max_abs)
        linear = mpc(t, s)
        for z in vec.entries:
            err = abs(theta.value * t * z - linear * z)
            if err > bound:
                raise InternalCheckError(
                    "linearization bound violated: "
                    f"|theta*t*z - (t+is)*z| = {mpmath.nstr(err, 10)} exceeds "
                    f"{mpmath.nstr(bound, 10)}"
                )


def solve_typical(V, t, eps, L_max, config: Optional[SolverConfig] = None) -> SolveReport:
    """Direct solve: steer the linear flow, exponentiate, verify.

    Searches the smallest s in [0, L_max] with every entry of
    s*V - i*t*V within eps/2 of the lattice, then delivers
    theta = e^(is/t).  The search can honestly come back empty when the
    horizon is too short or the direction is rationally entangled; the
    report then carries achieved=False and a density-horizon diagnostic
    rather than an error.
    """
    config = config or SolverConfig()
    bits = config.bits
    vec = V if isinstance(V, ComplexVector) else ComplexVector(tuple(V), bits)
    if vec.bits > bits:
        bits = vec.bits

    rough = bits + 64
    eps_r = parse_decimal(eps, rough)
    with working_precision(rough):
        if not (0 < eps_r < mpf(2) ** mpf("0.5") / 2):
            raise ValueError(f"eps must lie in (0, sqrt(2)/2), got {eps_r}")
    t_r = parse_decimal(t, rough)
    if not t_r > 0:
        raise ValueError(f"t must be positive, got {t_r}")
    L_r = parse_decimal(L_max, rough)
    if L_r < 0:
        raise ValueError(f"L_max must be nonnegative, got {L_r}")

    max_abs = vec.max_abs()
    if max_abs == 0:
        return _trivial_report(
            vec, t, eps_r, bits, None, None, "all entries zero; identity rotation suffices"
        )

    with working_precision(rough):
        largest = max_abs * max(t_r, L_r, mpf(1))
    eval_bits = raise_for_magnitude(bits, largest, eps_r)
    t_v = parse_decimal(t, eval_bits)
    eps_v = parse_decimal(eps, eval_bits)
    L_v = parse_decimal(L_max, eval_bits)
    vec_eval = ComplexVector(vec.entries, eval_bits)
    with working_precision(eval_bits):
        offset = ComplexVector(
            tuple(mpc(0, -1) * t_v * z for z in vec_eval.entries), eval_bits
        )
        flow_eps = eps_v / 2

    outcome = flow_search(
        vec_eval,
        offset,
        flow_eps,
        L_v,
        bits=eval_bits,
        scan_limit=config.scan_limit,
        window_budget=config.window_budget,
        node_budget=config.node_budget,
    )

    verify_bits = 2 * eval_bits
    T = dilation_threshold(L_v, max_abs, eps_v, eval_bits)
    diagnostics: list = []

    if outcome.found:
        with working_precision(eval_bits):
            theta = Rotation(mpmath.expj(outcome.s / t_v), eval_bits)
        per_point, max_frac = certify([theta], t_v, [vec_eval], eval_bits)
        achieved = bool(max_frac < eps_v)
        _check_linearization(theta, t_v, outcome.s, vec_eval, L_v, max_abs, verify_bits)
        diagnostics.append(
            f"flow search hit grid index {outcome.grid_index} "
            f"({outcome.strategy}, {outcome.windows_used} windows, "
            f"{outcome.examined} points examined)"
        )
        if not achieved:
            diagnostics.append(
                "verification failed after a flow hit; t is likely below the "
                "dilation threshold for this horizon"
            )
        s_found: Optional[mpf] = outcome.s
    else:
        theta = _identity_rotation(eval_bits)
        per_point, max_frac = certify([theta], t_v, [vec_eval], eval_bits)
        achieved = False
        s_found = None
        diagnostics.append(
            f"density horizon exceeded: flow search reason={outcome.reason}, "
            f"horizon L={mpmath.nstr(L_v, 8)}, {outcome.examined} points examined"
        )

    return SolveReport(
        t=t_v,
        theta=theta,
        phi=mpf(0),
        s_found=s_found,
        L_used=L_v,
        T_threshold=T,
        per_point_frac=per_point,
        max_frac=max_frac,
        achieved=achieved,
        search_steps=outcome.examined,
        seed=None,
        decomposition=None,
        bits=bits,
        eval_bits=eval_bits,
        diagnostics=tuple(diagnostics),
    )


@dataclass(frozen=True)
class GeneralPlan:
    """What the general driver would do for a configuration, before any
    searching: the detected decomposition, the reduced tolerance, the
    first search horizon and the dilation threshold they imply."""

    decomposition: RelationDecomposition
    eps_inner: mpf
    initial_L: mpf
    T_threshold: mpf
    reduced_max_abs: mpf
    bits: int


def solve_plan(V, eps, config: Optional[SolverConfig] = None) -> GeneralPlan:
    config = config or SolverConfig()
    bits = config.bits
    vec = V if isinstance(V, ComplexVector) else ComplexVector(tuple(V), bits)
    if vec.bits > bits:
        bits = vec.bits
    eps_v = parse_decimal(eps, bits + 64)
    with working_precision(bits + 64):
        if not (0 < eps_v < mpf(2) ** mpf("0.5") / 2):
            raise ValueError(f"eps must lie in (0, sqrt(2)/2), got {eps_v}")

    decomposition = detect_relations(vec, config.height_bound, bits)
    m = decomposition.num_basis
    M = decomposition.M
    work = bits + 64
    with working_precision(work):
        if m == 0:
            return GeneralPlan(decomposition, mpf(eps_v), mpf(0), mpf(0), mpf(0), bits)
        eps_inner = eps_v / (2 * m * M**2)
        reduced_max = max(abs(vec.entries[b]) for b in decomposition.basis_indices) / M
        if config.l_start is not None:
            L0 = parse_decimal(config.l_start, work)
        else:
            L0 = initial_search_length(eps_inner, m, work)
        if config.l_cap is not None:
            L0 = min(L0, parse_decimal(config.l_cap, work))
        T = dilation_threshold(L0, reduced_max, eps_inner, work)
    return GeneralPlan(decomposition, eps_inner, L0, T, reduced_max, bits)


def solve_general(
    V, t, eps, seed: int = 0, config: Optional[SolverConfig] = None
) -> SolveReport:
    """Full pipeline: relation detection, reduction, random phase, direct
    solve on the reduced block, transfer back, and final verification.

    The reduced block is searched at eps/(2*m*M^2) so the detected
    coefficients can only amplify the error back up to eps/2 across the
    original entries.  The phase is drawn from the seed; on a miss the
    driver escalates the search horizon geometrically, then retries with
    fresh derived phases up to config.max_phase_retries.  achieved
    reflects only the final re-evaluation over all entries.
    """
    config = config or SolverConfig()
    bits = config.bits
    vec = V if isinstance(V, ComplexVector) else ComplexVector(tuple(V), bits)
    if vec.bits > bits:
        bits = vec.bits

    plan = solve_plan(vec, eps, config)
    decomposition = plan.decomposition
    m = decomposition.num_basis
    M = decomposition.M
    eps_v = parse_decimal(eps, bits + 64)

    if m == 0:
        return _trivial_report(
            vec,
            t,
            eps_v,
            bits,
            seed,
            decomposition,
            "all entries zero; identity rotation suffices",
        )

    rough = bits + 64
    t_r = parse_decimal(t, rough)
    if not t_r > 0:
        raise ValueError(f"t must be positive, got {t_r}")

    with working_precision(rough):
        ladder = [plan.initial_L]
        for _ in range(config.max_escalations):
            nxt = ladder[-1] * 2
            if config.l_cap is not None and nxt > parse_decimal(config.l_cap, rough):
                break
            ladder.append(nxt)
        largest = max(t_r * vec.max_abs(), ladder[-1] * plan.reduced_max_abs, mpf(1))
    eval_bits = raise_for_magnitude(bits, largest, plan.eps_inner)
    t_v = parse_decimal(t, eval_bits)
    eps_full = parse_decimal(eps, eval_bits)

    with working_precision(eval_bits):
        vec_eval = ComplexVector(vec.entries, eval_bits)
        reduced = ComplexVector(
            tuple(vec_eval.entries[b] / M for b in decomposition.basis_indices),
            eval_bits,
        )
        eps_inner = eps_full / (2 * m * M**2)

    inner_config = replace(config, bits=eval_bits)
    verify_bits = 2 * eval_bits

    diagnostics: list = []
    for w in decomposition.warnings:
        diagnostics.append(f"relation-detection: {w}")
    total_steps = 0
    best: Optional[SolveReport] = None

    attempts = 1 + config.max_phase_retries
    for attempt in range(attempts):
        attempt_seed = seed if attempt == 0 else derive_seed(seed, attempt, "phase")
        phase = randomize_phase(reduced, attempt_seed, bits=eval_bits)
        if attempt > 0:
            diagnostics.append(
                f"phase-randomization: retry {attempt} with derived seed {attempt_seed}"
            )

        inner: Optional[SolveReport] = None
        for step, L in enumerate(ladder):
            inner = solve_typical(phase.rotated, t_v, eps_inner, L, config=inner_config)
            total_steps += inner.search_steps
            if inner.s_found is not None:
                break
            if step + 1 < len(ladder):
                diagnostics.append(
                    f"inner-solve: horizon L={mpmath.nstr(mpf(L), 6)} exhausted, "
                    f"escalating to {mpmath.nstr(mpf(ladder[step + 1]), 6)}"
                )

        if inner is None or inner.s_found is None:
            diagnostics.append(
                f"inner-solve: density horizon exceeded at phase attempt {attempt}"
            )
            continue

        theta = inner.theta * phase.rotation
        per_point, max_frac = certify([theta], t_v, [vec_eval], eval_bits)
        with working_precision(verify_bits):
            # what the coefficient chain predicts for the worst original
            # entry, recorded for comparison but never trusted
            inner_worst = max(inner.per_point_frac)
            predicted = M * m * inner_worst * M
        achieved = bool(max_frac < eps_full)
        diagnostics.append(
            f"chain-predicted bound {mpmath.nstr(predicted, 8)}, "
            f"verified max frac {mpmath.nstr(max_frac, 8)}"
        )
        if not achieved:
            diagnostics.append(
                f"final-verification: max frac {mpmath.nstr(max_frac, 8)} not "
                f"below eps at phase attempt {attempt}"
            )

        report = SolveReport(
            t=t_v,
            theta=theta,
            phi=phase.phi,
            s_found=inner.s_found,
            L_used=inner.L_used,
            T_threshold=dilation_threshold(
                inner.L_used, plan.reduced_max_abs, eps_inner, eval_bits
            ),
            per_point_frac=per_point,
            max_frac=max_frac,
            achieved=achieved,
            search_steps=total_steps,
            seed=seed,
            decomposition=decomposition,
            bits=bits,
            eval_bits=eval_bits,
            diagnostics=tuple(diagnostics),
        )
        if achieved:
            return report
        if best is None or report.max_frac < best.max_frac:
            best = report

    if best is not None:
        return best

    # every phase attempt died in the search; report the identity with
    # the full diagnostic trail
    theta = _identity_rotation(eval_bits)
    per_point, max_frac = certify([theta], t_v, [vec_eval], eval_bits)
    diagnostics.append("density horizon exceeded")
    return SolveReport(
        t=t_v,
        theta=theta,
        phi=mpf(0),
        s_found=None,
        L_used=ladder[-1],
        T_threshold=plan.T_threshold,
        per_point_frac=per_point,
        max_frac=max_frac,
        achieved=False,
        search_steps=total_steps,
        seed=seed,
        decomposition=decomposition,
        bits=bits,
        eval_bits=eval_bits,
        diagnostics=tuple(diagnostics),
    )
