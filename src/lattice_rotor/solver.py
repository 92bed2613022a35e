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

The exact evaluations every verdict rests on (lattice_residuals,
certify and the linearization self check), and the offset and tolerance
each flow walk starts from, call mpmath's libmp functions on raw values
at an explicit precision with round-to-nearest, mpmath's default,
which the package never changes.  They perform the operations
of the mpf/mpc expressions they replace, in the same order, and libmp
rounds each one correctly, so they give the same bits; they open no
precision context, so their results do not depend on the ambient
precision.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Optional, Sequence, Tuple

# CPython's built-in SHA-256: hashlib would load OpenSSL's libcrypto into
# every solve process for derive_seed alone (random.py takes its SHA-512
# the same way)
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

import mpmath
from mpmath import mpc, mpf
from mpmath.libmp import (
    fnone,
    from_int,
    fzero,
    mpc_abs,
    mpc_mul,
    mpc_mul_mpf,
    mpc_sub,
    mpf_add,
    mpf_div,
    mpf_gt,
    mpf_mul,
    mpf_mul_int,
    mpf_pos,
    mpf_sqrt,
)

from .corelattice import ComplexVector, Rotation, frac_dist
from .flowsearch import FlowSearchOutcome, flow_search
from .precision import (
    DEFAULT_PRECISION,
    NEAREST,
    Frozen,
    below_half_sqrt2,
    check_precision,
    identity_slack,
    make_mpc,
    make_mpf,
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
    "solve_plan",
    "solve_general",
]


class InternalCheckError(RuntimeError):
    """An a-posteriori self check failed; the result cannot be trusted."""


DEFAULT_HEIGHT_BOUND = 64
# fresh seeded phases solve_general tries after the first, read at call time
MAX_PHASE_RETRIES = 3
# the longest horizon a phase attempt walks, in units of the first one
HORIZON_SPAN = 64


class SolverConfig(Frozen):
    """Settings of solve_general and its plan, solve_plan.

    bits is the declared precision of the problem data; evaluation
    precision is raised automatically and is not configurable.
    height_bound caps the coefficients relation detection looks for.
    l_cap, a positive decimal string, caps the search horizon, which
    solve_general otherwise derives from t (see solve_general).
    The flow search derives its enumeration windows from the flow itself;
    its budgets are fixed constants (flowsearch.DEFAULT_*_BUDGET), as is
    the number of phase retries (MAX_PHASE_RETRIES).
    """

    __slots__ = _fields = ("bits", "height_bound", "l_cap")

    def __init__(
        self,
        bits: int = DEFAULT_PRECISION,
        height_bound: int = DEFAULT_HEIGHT_BOUND,
        l_cap: Optional[str] = None,
    ) -> None:
        check_precision(bits)
        if l_cap is not None and not parse_decimal(l_cap, 64) > 0:
            raise ValueError(f"l_cap must be positive, got {l_cap!r}")
        super().__init__(bits, height_bound, l_cap)


class SolveReport(NamedTuple):
    """Everything one solve_general call produced, verification included.

    per_point_frac comes from an independent re-evaluation of the
    delivered rotation at twice the evaluation precision; achieved is
    that check of a rotation the search found, and nothing else (a miss
    reports the identity, not achieved).  L_used is the horizon the
    search walked and T_threshold its dilation threshold; T_threshold <= t
    means every hit up to L_used is certified by the linearization.
    search_steps is the flow search's examined count, its enumeration
    candidates, summed over one walk per phase attempt.
    diagnostics names every attempt in order, including those after the
    one whose rotation is reported: a retry line with the derived seed
    for each attempt after the first, the flow search's hit line or its
    miss line ("density horizon exceeded" or "search budget exhausted"),
    and a final-verification line for a hit that does not verify.
    Relation detection's precision advisory is in decomposition.warnings
    (the CLI gathers it into the run's warnings), and a block result
    carries no diagnostics of its own, only its planes' reports.
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
    a comfortable constant.
    """
    if entries < 1:
        raise ValueError("entries must be >= 1")
    with working_precision(bits):
        e = mpf(eps)
        if not (0 < e < 1):
            raise ValueError("eps must lie in (0, 1)")
        return 8 / e ** (2 * entries)


def derive_seed(master: int, index: int, salt: str = "") -> int:
    """Deterministic child seed, stable across platforms and runs.

    The top 63 bits of the SHA-256 digest of "salt:master:index" (UTF-8).
    The digest comes from CPython's built-in SHA-256 module, which
    computes what hashlib.sha256 does without loading OpenSSL, a few MB
    of every solve process's peak memory; hashlib is the fallback where
    the interpreter has no such module.
    """
    digest = sha256(f"{salt}:{master}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class PhaseSample(NamedTuple):
    """One seeded random phase and the configuration it was applied to."""

    phi: mpf
    rotation: Rotation
    rotated: ComplexVector


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
    return PhaseSample(phi=phi, rotation=rotation, rotated=rotated)


def lattice_residuals(theta: Rotation, t, V, bits: int) -> Tuple[mpf, ...]:
    """Distance of each entry of theta*t*V to the nearest Gaussian integer.

    Deliberately a direct loop over frac_dist with no shared state with
    the search: this is the second opinion every report is judged by.
    """
    vec = V if isinstance(V, ComplexVector) else ComplexVector(tuple(V), bits)
    # (theta * t) * z, each product rounded at bits
    turn = mpc_mul_mpf(theta.value._mpc_, parse_decimal(t, bits)._mpf_, bits, NEAREST)
    return tuple(
        frac_dist(make_mpc(mpc_mul(turn, z._mpc_, bits, NEAREST)), bits) for z in vec.entries
    )


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
    per_point = []
    for rs in zip(*per_plane, strict=True):
        total = fzero
        for r in rs:
            total = mpf_add(total, mpf_mul(r._mpf_, r._mpf_, hi, NEAREST), hi, NEAREST)
        root = mpf_sqrt(total, hi, NEAREST)
        per_point.append(make_mpf(mpf_pos(root, eval_bits, NEAREST)))
    return tuple(per_point), max(per_point)


def _vector(V, config: SolverConfig) -> Tuple[ComplexVector, int]:
    """V as a ComplexVector, and the base precision: config.bits, or the
    vector's own precision if that is wider."""
    vec = V if isinstance(V, ComplexVector) else ComplexVector(tuple(V), config.bits)
    return vec, max(config.bits, vec.bits)


def _identity_rotation(bits: int) -> Rotation:
    with working_precision(bits):
        return Rotation(mpc(1), bits)


def _check_linearization(
    theta: Rotation,
    t: mpf,
    s: mpf,
    vec: ComplexVector,
    L: mpf,
    max_abs: mpf,
    bits: int,
) -> None:
    """Quadratic-remainder self check for a successful direct solve:
    |theta*t*z - (t+is)*z| <= L^2*max_abs/(2t) + slack for every entry z,
    every operation rounded at bits."""
    check_precision(bits)
    t_, L_, m_ = t._mpf_, L._mpf_, max_abs._mpf_
    remainder = mpf_div(
        mpf_mul(mpf_mul(L_, L_, bits, NEAREST), m_, bits, NEAREST),
        mpf_mul_int(t_, 2, bits, NEAREST),
        bits,
        NEAREST,
    )
    slack = identity_slack(bits, make_mpf(mpf_mul(t_, m_, bits, NEAREST)))
    bound = mpf_add(remainder, slack._mpf_, bits, NEAREST)
    linear = (mpf_pos(t_, bits, NEAREST), mpf_pos(s._mpf_, bits, NEAREST))
    turn = mpc_mul_mpf(theta.value._mpc_, t_, bits, NEAREST)
    for z in vec.entries:
        w = z._mpc_
        turned, linearized = mpc_mul(turn, w, bits, NEAREST), mpc_mul(linear, w, bits, NEAREST)
        err = mpc_abs(mpc_sub(turned, linearized, bits, NEAREST), bits, NEAREST)
        if mpf_gt(err, bound):
            raise InternalCheckError(
                "linearization bound violated: "
                f"|theta*t*z - (t+is)*z| = {mpmath.nstr(make_mpf(err), 10)} exceeds "
                f"{mpmath.nstr(make_mpf(bound), 10)}"
            )


def solve_typical(
    vec: ComplexVector, t: mpf, eps: mpf, L: mpf, eval_bits: int
) -> Tuple[FlowSearchOutcome, Optional[Rotation]]:
    """Walk one phase attempt's flow and exponentiate its hit.

    Searches the smallest s in [0, L] with every entry of s*vec - i*t*vec
    within eps/2 of the lattice; vec, t, eps and L are solve_general's
    values at eval_bits.  A hit becomes theta = e^(is/t), which must pass
    the linearization self check; a miss, which is honest when the
    horizon is too short or the direction is rationally entangled, comes
    back with theta None.
    """
    # the offset -i*t*vec, as (-i*t)*z, and eps/2, every operation rounded
    # at eval_bits
    turn = mpc_mul_mpf((fzero, fnone), t._mpf_, eval_bits, NEAREST)
    offset = ComplexVector(
        tuple(make_mpc(mpc_mul(turn, z._mpc_, eval_bits, NEAREST)) for z in vec.entries),
        eval_bits,
    )
    flow_eps = make_mpf(mpf_div(eps._mpf_, from_int(2), eval_bits, NEAREST))
    outcome = flow_search(vec, offset, flow_eps, L, bits=eval_bits)
    if not outcome.found:
        return outcome, None
    with working_precision(eval_bits):
        theta = Rotation(mpmath.expj(outcome.s / t), eval_bits)
    _check_linearization(theta, t, outcome.s, vec, L, vec.max_abs(), 2 * eval_bits)
    return outcome, theta


class GeneralPlan(NamedTuple):
    """What the general driver would do for a configuration, before any
    searching: the detected decomposition, the reduced tolerance, the
    first search horizon and the dilation threshold they imply.

    None of it depends on t, so a solve run over many dilations builds
    it once: solve_general keeps it in the run's cache and reads it
    back on every later call of that run.
    """

    decomposition: RelationDecomposition
    eps_inner: mpf
    initial_L: mpf
    T_threshold: mpf
    reduced_max_abs: mpf


def solve_plan(V, eps, config: Optional[SolverConfig] = None) -> GeneralPlan:
    config = config or SolverConfig()
    vec, bits = _vector(V, config)
    work = bits + 64
    eps_v = parse_decimal(eps, work)
    if not below_half_sqrt2(eps_v):
        raise ValueError(f"eps must lie in (0, sqrt(2)/2), got {eps_v}")

    decomposition = detect_relations(vec, config.height_bound, bits)
    m = decomposition.num_basis
    M = decomposition.M
    with working_precision(work):
        if m == 0:
            return GeneralPlan(decomposition, mpf(eps_v), mpf(0), mpf(0), mpf(0))
        eps_inner = eps_v / (2 * m * M**2)
        reduced_max = max(abs(vec.entries[b]) for b in decomposition.basis_indices) / M
        L0 = initial_search_length(eps_inner, m, work)
        if config.l_cap is not None:
            L0 = min(L0, parse_decimal(config.l_cap, work))
        T = dilation_threshold(L0, reduced_max, eps_inner, work)
    return GeneralPlan(decomposition, eps_inner, L0, T, reduced_max)


class _EvalBlock(NamedTuple):
    """What solve_general evaluates at eval_bits before any phase: the
    entries, the independent block scaled by 1/M (empty when every entry
    is zero), eps and the reduced tolerance eps/(2*m*M^2)."""

    vec: ComplexVector
    reduced: Tuple[mpc, ...]
    eps: mpf
    eps_inner: mpf


def _eval_block(
    vec: ComplexVector, eps, decomposition: RelationDecomposition, eval_bits: int
) -> _EvalBlock:
    m, M = decomposition.num_basis, decomposition.M
    eps_full = parse_decimal(eps, eval_bits)
    with working_precision(eval_bits):
        vec_eval = ComplexVector(vec.entries, eval_bits)
        reduced = tuple(vec_eval.entries[b] / M for b in decomposition.basis_indices)
        eps_inner = eps_full / (2 * m * M**2) if m else eps_full
    return _EvalBlock(vec_eval, reduced, eps_full, eps_inner)


def solve_general(
    V,
    t,
    eps,
    seed: int = 0,
    config: Optional[SolverConfig] = None,
    cache: Optional[dict] = None,
) -> SolveReport:
    """The solve entry point: relation detection, reduction, random phase,
    flow walk on the reduced block, transfer back, and final verification.

    The reduced block is searched at eps/(2*m*M^2) so the detected
    coefficients can only amplify the error back up to eps/2 across the
    original entries.  The phase is drawn from the seed, and each phase
    attempt walks the flow once to the horizon
    H = max(L0, min(L_t, HORIZON_SPAN*L0, l_cap)), where L0 is the plan's
    first horizon and L_t = sqrt(t*eps_inner/(2*max|z|)) the longest one
    whose threshold t clears; a hit past L_t would not be certified.  H
    is the reported horizon, and solve_typical walks it at the evaluation
    precision derived here once.  Until an attempt verifies, solve_general
    retries with fresh derived phases up to MAX_PHASE_RETRIES and
    reports the attempt that came closest.  achieved reflects only the final
    re-evaluation over all entries.

    Only t's own arithmetic, the walks and the verification depend on
    t.  cache, a dict that a solve run creates empty and passes to each
    of its calls, keeps the rest for the run, each value under a key
    holding every input of it: raw tuples (the entries' _mpc_ values,
    eps's _mpf_ value or eps as given), ints and the config, so a lookup
    hashes no mpmath object in Python:
    - the plan and max|V|, which eval_bits is read from, under the
      exact entries, their bits, eps and config;
    - the entries, the reduced block, eps and eps_inner at eval_bits,
      which moves with t, under the plan's key and eval_bits;
    - each phase under the plan's key, the attempt's seed and eval_bits.
    Later calls read them back instead of detecting relations, rounding
    the block and drawing phases again.  A cache shared by several
    point sets stays correct, and the report is the same with or
    without one.  Without it nothing outlives the call.
    """
    config = config or SolverConfig()
    vec, bits = _vector(V, config)
    rough = bits + 64
    t_r = parse_decimal(t, rough)
    if not t_r > 0:
        raise ValueError(f"t must be positive, got {t_r}")
    cache = {} if cache is None else cache
    plan_key = (tuple(z._mpc_ for z in vec.entries), vec.bits, getattr(eps, "_mpf_", eps), config)
    planned = cache.get(plan_key)
    if planned is None:
        planned = cache[plan_key] = (solve_plan(vec, eps, config), vec.max_abs())
    plan, max_abs = planned
    decomposition = plan.decomposition
    m = decomposition.num_basis

    with working_precision(rough):
        if m:
            # the horizon t certifies: the threshold of L_t is t itself
            L_t = mpmath.sqrt(t_r * plan.eps_inner / (2 * plan.reduced_max_abs))
            cap = L_t if config.l_cap is None else parse_decimal(config.l_cap, rough)
            H = max(plan.initial_L, min(L_t, HORIZON_SPAN * plan.initial_L, cap))
            largest = max(t_r * max_abs, H * plan.reduced_max_abs, mpf(1))
        else:
            # an all-zero configuration still reports t at full width
            H = L_t = mpf(0)
            largest = max(t_r, mpf(1))
    eval_bits = raise_for_magnitude(bits, largest, plan.eps_inner)
    t_v, H_v = parse_decimal(t, eval_bits), parse_decimal(H, eval_bits)
    block_key = (plan_key, eval_bits)
    block = cache.get(block_key)
    if block is None:
        block = cache[block_key] = _eval_block(vec, eps, decomposition, eval_bits)
    vec_eval, eps_full, eps_inner = block.vec, block.eps, block.eps_inner

    diagnostics = []
    total_steps = 0
    # (certify result, theta, phi, s) of the attempt that came closest
    best: Optional[tuple] = None

    for attempt in range(1 + MAX_PHASE_RETRIES if m else 0):
        attempt_seed = seed if attempt == 0 else derive_seed(seed, attempt, "phase")
        phase_key = (plan_key, attempt_seed, eval_bits)
        phase = cache.get(phase_key)
        if phase is None:
            phase = cache[phase_key] = randomize_phase(block.reduced, attempt_seed, bits=eval_bits)
        if attempt > 0:
            diagnostics.append(
                f"phase-randomization: retry {attempt} with derived seed {attempt_seed}"
            )

        outcome, inner_theta = solve_typical(phase.rotated, t_v, eps_inner, H_v, eval_bits)
        total_steps += outcome.examined
        if inner_theta is None:
            if outcome.reason == "exhausted":
                miss = f"search budget exhausted after {outcome.windows_used} windows"
            else:
                miss = "density horizon exceeded"
            diagnostics.append(f"inner-solve: {miss} at phase attempt {attempt}")
            continue

        diagnostics.append(
            f"inner-solve: flow search hit grid index {outcome.grid_index} "
            f"({outcome.windows_used} windows, {outcome.examined} points examined)"
        )
        theta = inner_theta * phase.rotation
        certified = certify([theta], t_v, [vec_eval], eval_bits)
        max_frac = certified[1]
        achieved = bool(max_frac < eps_full)
        if not achieved:
            diagnostics.append(
                f"final-verification: max frac {mpmath.nstr(max_frac, 8)} not "
                f"below eps at phase attempt {attempt}"
            )
        # an attempt that verifies is below every one that did not
        if best is None or max_frac < best[0][1]:
            best = (certified, theta, phase.phi, outcome.s)
        if achieved:
            break

    T = dilation_threshold(H, plan.reduced_max_abs, eps_inner, eval_bits)
    if m == 0:
        # every rotation fixes an all-zero configuration
        diagnostics.append("all entries zero; identity rotation suffices")
        best = (None, _identity_rotation(eval_bits), mpf(0), mpf(0))
    elif best is None:
        # every phase attempt died in the search: the identity
        best = (None, _identity_rotation(eval_bits), mpf(0), None)
    if H <= L_t:
        # t certifies every s up to H; evaluating the threshold back can
        # still round it a few units in the last place above t
        T = min(T, t_v)
    certified, theta, phi, s_found = best
    per_point, max_frac = certified or certify([theta], t_v, [vec_eval], eval_bits)
    return SolveReport(
        t=t_v, theta=theta, phi=phi, s_found=s_found, L_used=H, T_threshold=T,
        per_point_frac=per_point, max_frac=max_frac,
        achieved=s_found is not None and bool(max_frac < eps_full),
        search_steps=total_steps, seed=seed, decomposition=decomposition,
        bits=bits, eval_bits=eval_bits, diagnostics=tuple(diagnostics),
    )
