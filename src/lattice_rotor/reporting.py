"""Report containers with deterministic serialization.

Identical inputs must produce identical bytes, so serialization here is
canonical: sorted keys, fixed separators, two-space indent, trailing
newline, and every number carried as a decimal string.  Wall-clock
timing is the one field that legitimately varies between runs; it is
opt-in and absent by default so that the default artifact is diffable.

Result dataclasses become JSON data through one encoder, to_json_data;
nothing in the package decodes a result back into a dataclass.  A real
(mpf or Rotation) is written with the digits of one precision: the
enclosing dataclass's eval_bits, else its bits, else the precision of
the dataclass that contains it.  A rotation therefore uses the report's
precision, not its own bits, which can be higher.  Gaussian rationals
use their exact "p/q+r/qi" text and floats their repr.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass
from typing import Optional, Sequence, Tuple

from mpmath import mpf

from .corelattice import Rotation
from .gaussian import GaussianRational
from .precision import format_complex_pair, format_decimal

__all__ = [
    "RunReport",
    "canonical_json",
    "to_json_data",
    "tau_csv",
    "covering_csv",
]


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def to_json_data(value, bits: Optional[int] = None):
    """JSON data for a result dataclass, every real as a decimal string."""
    if isinstance(value, Rotation):
        return format_complex_pair(value.value, bits)
    if isinstance(value, GaussianRational):
        return value.format()
    if isinstance(value, mpf):
        return format_decimal(value, bits)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return [to_json_data(v, bits) for v in value]
    if is_dataclass(value):
        own = getattr(value, "eval_bits", getattr(value, "bits", bits))
        return {f.name: to_json_data(getattr(value, f.name), own) for f in fields(value)}
    return value


@dataclass(frozen=True)
class RunReport:
    """One CLI run: the spec as parsed, ordered per-t results, summary."""

    spec_echo: dict
    mode: str
    results: Tuple[dict, ...]
    summary: dict
    tool_version: str
    warnings: Tuple[str, ...] = ()
    wall_clock_seconds: Optional[str] = None

    def to_json_dict(self) -> dict:
        data = {
            "spec": self.spec_echo,
            "mode": self.mode,
            "results": list(self.results),
            "summary": self.summary,
            "tool_version": self.tool_version,
            "warnings": list(self.warnings),
        }
        if self.wall_clock_seconds is not None:
            data["wall_clock_seconds"] = self.wall_clock_seconds
        return data

    def to_json(self) -> str:
        return canonical_json(self.to_json_dict())


def tau_csv(rows: Sequence[Tuple[str, str, str]]) -> str:
    """Rows of (t, upper, certified_lower) as decimal strings."""
    lines = ["t,upper,certified_lower"]
    lines.extend(f"{t},{u},{lo}" for t, u, lo in rows)
    return "\n".join(lines) + "\n"


def covering_csv(rows: Sequence[Tuple[str, str]]) -> str:
    """Rows of (eps, L) as decimal strings; L empty when not covered."""
    lines = ["eps,L"]
    lines.extend(f"{e},{l}" for e, l in rows)
    return "\n".join(lines) + "\n"
