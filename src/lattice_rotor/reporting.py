"""Report containers with deterministic serialization.

Identical inputs must produce identical bytes, so serialization here is
canonical: sorted keys, fixed separators, two-space indent, trailing
newline, and every number carried as a decimal string.  Wall-clock
timing is the one field that legitimately varies between runs; it is
opt-in and absent by default so that the default artifact is diffable.

Result records become JSON data through one encoder, to_json_data; a
record is a NamedTuple or a Frozen value (an isometry, say), and either
names its fields in _fields.  Nothing in the package decodes a result
back into a record.  A real (mpf or Rotation) is written with the digits
of one precision: the enclosing record's eval_bits, else its bits, else
the precision of the record that contains it.  A rotation therefore
uses the report's precision, not its own bits, which can be higher.
Gaussian rationals use their exact "p/q+r/qi" text and floats their
repr.
"""

from __future__ import annotations

import json
from typing import NamedTuple, Optional, Sequence, Tuple

from mpmath import mpf

from .corelattice import Rotation
from .precision import format_complex_pair, format_decimal
from .relations import GaussianRational

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
    """JSON data for a result record, every real as a decimal string.  A
    record (its class has _fields) becomes an object of its fields, and
    is recognised before the tuple branch, which would make a NamedTuple
    a list."""
    if isinstance(value, Rotation):
        return format_complex_pair(value.value, bits)
    if isinstance(value, GaussianRational):
        return value.format()
    if isinstance(value, mpf):
        return format_decimal(value, bits)
    if isinstance(value, float):
        return repr(value)
    names = getattr(type(value), "_fields", None)
    if names is not None:
        own = getattr(value, "eval_bits", getattr(value, "bits", bits))
        return {name: to_json_data(getattr(value, name), own) for name in names}
    if isinstance(value, tuple):
        return [to_json_data(v, bits) for v in value]
    return value


class RunReport(NamedTuple):
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
