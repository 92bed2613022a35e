"""Detection of Gaussian-rational dependencies among complex entries.

Given a vector of complex numbers known to P bits, the detector walks the
entries in index order and keeps a growing basis of entries found to be
independent so far; each new entry is tested for membership in the
Gaussian-rational span of the current basis.  Membership candidates come
from lattice reduction on an integer embedding of the real and imaginary
parts of the sought relation; a candidate is accepted only if

  * its coefficients, in lowest terms, fit inside the height bound, and
  * re-evaluating the relation at twice the working precision leaves a
    residual below 2^(-P/2).

Independence is therefore one-sided: "no relation found up to this height
at this precision" is the only negative statement made.  The solver is
built to tolerate that (an undetected relation can only cause a failed
search later, never a wrong answer), and the documentation repeats it
wherever a caller might be tempted to read more into an empty result.

Each membership test against two or more basis entries carries the
transform of the last test whose candidate joined the basis.  That
test's lattice is this one's without the new candidate, so the carried
transform hands the reduction an already reduced basis plus two fresh
rows, as in incremental integer-relation search
(Hastad-Just-Lagarias-Schnorr).  A test that finds a dependent, and a
zero entry, leave the carried transform as it was; the first test, on a
one-entry basis, carries none.  Every test's one exact lll_reduce starts
from float_start's double-precision pre-reduction of its lattice from
the carried transform (from the rows alone in the first test), so the
exact integer reduction only finishes an almost reduced basis.  Where
doubles cannot carry the lattice (past about 527 bits of precision its
Gram entries leave the double range), it starts from the carried
transform itself.  A start changes only the work, not the lattice, and
against a basis independent over Q(i) a certified row's coefficients
-g_k/g_0 are unique, so no start changes a reported relation.

A solve that has no run cache detects the same entries again at every
dilation, so detect_relations remembers its last 32 decompositions,
keyed on the entries as the detection reads them, the height bound and
the precision; the key is the whole input, the precision advisory
included, and a remembered decomposition is frozen, so it is the answer.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import mpmath
from mpmath import mpc, mpf

from .corelattice import ComplexVector
from .gaussian import GaussianInteger, GaussianRational, lcm_int
from .lll import float_start, lll_reduce
from .precision import check_precision, residual_tol, working_precision

Transform = List[List[int]]

# margin between the working mantissa and the lattice scale; keeps the
# rounding rattle of the embedded forms well below the relation signal
_SCALE_GUARD_BITS = 16


def recommended_precision(r: int, height_bound: int) -> int:
    """Detection precision advised for r entries at the given height bound."""
    return 2 * r * max(1, int(height_bound).bit_length())


@dataclass(frozen=True)
class RelationDecomposition:
    """Partition of entry indices into an independent basis and dependents.

    coeffs[j] expresses the j-th dependent entry as a Gaussian-rational
    combination of the basis entries (aligned with basis_indices; a row of
    zeros marks an exactly-zero entry).  M is the scaling integer: the
    smallest positive multiple of the coefficient-denominator lcm that
    strictly exceeds the ell-1 over-estimate of the total coefficient
    mass, so M*coeff is always a Gaussian integer and M is certified
    larger than the true absolute sum.
    """

    basis_indices: Tuple[int, ...]
    dependent_indices: Tuple[int, ...]
    coeffs: Tuple[Tuple[GaussianRational, ...], ...]
    M: int
    warnings: Tuple[str, ...] = ()

    @property
    def num_basis(self) -> int:
        return len(self.basis_indices)

    @property
    def num_dependent(self) -> int:
        return len(self.dependent_indices)

    def validate(self) -> None:
        r = self.num_basis + self.num_dependent
        if sorted(self.basis_indices + self.dependent_indices) != list(range(r)):
            raise ValueError("indices do not partition the entry range")
        if len(self.coeffs) != self.num_dependent:
            raise ValueError("one coefficient row per dependent entry required")
        for row in self.coeffs:
            if len(row) != self.num_basis:
                raise ValueError("coefficient row width must match basis size")
            for f in row:
                if self.M % f.den != 0:
                    raise ValueError("M does not clear a coefficient denominator")
        total = _coefficient_mass(self.coeffs)
        if not Fraction(self.M) > total:
            raise ValueError("M must strictly exceed the coefficient mass bound")


def _coefficient_mass(coeffs) -> Fraction:
    # exact over-estimate sum(|re| + |im|) >= sum(|f|)
    total = Fraction(0)
    for row in coeffs:
        for f in row:
            total += f.abs_upper_fraction()
    return total


def select_M(coeffs: Sequence[Sequence[GaussianRational]]) -> int:
    """Smallest positive multiple of the denominator lcm that strictly
    exceeds the ell-1 over-estimate of the coefficient absolute sum.

    Comparing against sum(|re|) + sum(|im|) keeps the comparison in exact
    rational arithmetic while still certifying M > sum(|f|).
    """
    base = 1
    for row in coeffs:
        for f in row:
            base = lcm_int(base, f.den)
    total = _coefficient_mass(coeffs)
    multiples = total / base
    k = int(multiples) + 1 if multiples >= 0 else 1
    # int() truncates toward zero; total >= 0 always holds here, and a total
    # landing exactly on a multiple still needs the next one (strict >)
    while not Fraction(base * k) > total:
        k += 1
    return base * k


def detect_relations(
    entries,
    height_bound: int,
    bits: int,
) -> RelationDecomposition:
    """Greedy basis scan over the entries with certified relation rows.

    Accepts a ComplexVector or a sequence of complex numbers.  height_bound
    caps the numerator and denominator magnitudes of reported coefficients.
    Answers for the last 32 distinct inputs are remembered.
    """
    check_precision(bits)
    if not isinstance(height_bound, int) or isinstance(height_bound, bool) or height_bound < 1:
        raise ValueError(f"height_bound must be an integer >= 1, got {height_bound!r}")

    vec = entries if isinstance(entries, ComplexVector) else ComplexVector(tuple(entries), bits)
    with working_precision(bits):
        values = tuple(mpc(z) for z in vec)
    return _detect(values, height_bound, bits)


@functools.lru_cache(maxsize=32)
def _detect(values: Tuple[mpc, ...], height_bound: int, bits: int) -> RelationDecomposition:
    # the remembered body of detect_relations, on validated entries
    # rounded to the working precision
    r = len(values)
    warnings: List[str] = []
    advised = recommended_precision(r, height_bound)
    if bits < advised:
        warnings.append(
            f"precision {bits} below advised {advised} for r={r}, "
            f"height_bound={height_bound}; detection may miss relations"
        )

    basis_indices: List[int] = []
    dependent_indices: List[int] = []
    rows: List[Tuple[GaussianRational, ...]] = []

    # transform of the last membership test whose candidate joined the basis
    joined: Optional[Transform] = None
    for idx, z in enumerate(values):
        if z.real == 0 and z.imag == 0:
            dependent_indices.append(idx)
            rows.append(tuple(GaussianRational.zero() for _ in basis_indices))
            continue
        if not basis_indices:
            basis_indices.append(idx)
            continue
        found, transform = _find_relation(
            z, [values[b] for b in basis_indices], height_bound, bits, joined
        )
        if found is None:
            basis_indices.append(idx)
            joined = transform
        else:
            dependent_indices.append(idx)
            rows.append(found)

    # earlier dependents have rows shorter than the final basis; pad with zeros
    m = len(basis_indices)
    padded = tuple(
        row + tuple(GaussianRational.zero() for _ in range(m - len(row)))
        for row in rows
    )
    decomposition = RelationDecomposition(
        basis_indices=tuple(basis_indices),
        dependent_indices=tuple(dependent_indices),
        coeffs=padded,
        M=select_M(padded),
        warnings=tuple(warnings),
    )
    decomposition.validate()
    return decomposition


def _find_relation(
    candidate: mpc,
    basis_values: List[mpc],
    height_bound: int,
    bits: int,
    joined: Optional[Transform],
) -> Tuple[Optional[Tuple[GaussianRational, ...]], Transform]:
    """One membership test: candidate against the current basis.

    Builds the integer lattice whose short vectors encode Gaussian-integer
    combinations g0*candidate + sum gk*basis_k that nearly vanish, reduces
    it, and screens the reduced rows through the height and residual gates.
    joined is the transform of the test whose candidate became the last
    basis entry (None when there is none), which float_start carries into
    its pre-reduction.  Returns the coefficient row
    for the first certified candidate, or None, with the reduction's
    transform.
    """
    q = len(basis_values)
    unknowns = 2 * (q + 1)
    scale_bits = bits - _SCALE_GUARD_BITS

    with working_precision(bits + 8):
        scale = mpf(2) ** scale_bits
        cols: List[Tuple[int, int]] = []
        for z in [candidate] + basis_values:
            x = int(mpmath.nint(scale * z.real))
            y = int(mpmath.nint(scale * z.imag))
            # unknown a (real part of g): contributes (x, y); unknown b
            # (imag part): contributes (-y, x)
            cols.append((x, y))

    lattice_rows: List[List[int]] = []
    for u in range(unknowns):
        pair, is_imag = divmod(u, 2)
        x, y = cols[pair]
        f1, f2 = (-y, x) if is_imag else (x, y)
        lattice_rows.append(
            [1 if c == u else 0 for c in range(unknowns)] + [f1, f2]
        )

    start = None
    if joined is not None:
        # joined reduced the rows [last basis entry, b1..b(q-1)]; they
        # reappear here as rows 2.. in the order [b1..b(q-1), last basis
        # entry], with the same scaled columns, so start * rows is that
        # reduced basis (its unit columns moved along) followed by the
        # candidate's two rows, and only the candidate is left to reduce
        start = [[0, 0] + row[2:] + row[:2] for row in joined]
        start += [[1 if c == u else 0 for c in range(unknowns)] for u in range(2)]

    reduced, transform = lll_reduce(lattice_rows, float_start(lattice_rows, start))

    tol = residual_tol(bits)
    for row in reduced:
        g = [
            GaussianInteger(row[2 * p], row[2 * p + 1]) for p in range(q + 1)
        ]
        g0 = g[0]
        if g0.is_zero():
            continue
        g0_conj = g0.conjugate()
        g0_norm = g0.norm()
        coeffs = tuple(
            GaussianRational(-(gk * g0_conj), g0_norm) for gk in g[1:]
        )
        if any(f.height() > height_bound for f in coeffs):
            continue
        if _relation_residual(candidate, basis_values, coeffs, 2 * bits) < tol:
            return coeffs, transform
    return None, transform


def _relation_residual(candidate, basis_values, coeffs, bits: int) -> mpf:
    with working_precision(bits):
        acc = mpc(candidate)
        for f, z in zip(coeffs, basis_values):
            acc -= f.to_mpc(bits) * mpc(z)
        return abs(acc)
