"""Spans and counters recorded from outside the package.

Each layer is timed by replacing its public function at the name its
caller looks up, for example lll_reduce at lattice_rotor.flowsearch and
at lattice_rotor.relations separately.  Spans are kept in memory, each
with its parent's id, and written out when the run ends.  The leaf
helpers in corelattice, gaussian and precision are called millions of
times and are not wrapped: wrapping them would distort the timing.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Dict, List, Optional

# (module, attribute, span name): the caller of each looks the name up
# in that module at call time
SPANS = (
    ("lattice_rotor.cli", "run", "cli.run"),
    ("lattice_rotor.cli", "solve_general", "solver.solve_general"),
    ("lattice_rotor.products", "solve_general", "solver.solve_general"),
    ("lattice_rotor.cli", "solve_even_dim", "products.solve_even_dim"),
    ("lattice_rotor.products", "embed_points", "products.embed_points"),
    ("lattice_rotor.solver", "detect_relations", "relations"),
    ("lattice_rotor.solver", "flow_search", "flowsearch"),
    ("lattice_rotor.flowsearch", "lll_reduce", "lll.flowsearch"),
    ("lattice_rotor.relations", "lll_reduce", "lll.relations"),
    ("lattice_rotor.solver", "lattice_residuals", "solver.verify"),
    ("lattice_rotor.cli", "lattice_residuals", "solver.verify"),
    ("lattice_rotor.cli", "tau_estimate", "oracle.tau"),
    ("lattice_rotor.cli", "check_prop_sep", "oracle.prop_sep"),
    ("lattice_rotor.cli", "covering_time", "oracle.covering"),
    ("lattice_rotor.reporting", "canonical_json", "reporting.canonical_json"),
    ("lattice_rotor.cli", "emit_plot", "plotting.emit_plot"),
)

# (module, attribute, counter name): counted into the innermost open span
COUNTERS = (
    ("lattice_rotor.flowsearch", "frac_dist", "frac_dist"),
    ("lattice_rotor.solver", "solve_typical", "solve_typical"),
    ("lattice_rotor.solver", "randomize_phase", "randomize_phase"),
    ("lattice_rotor.oracle", "isometry_max_frac", "isometry_max_frac"),
)

# the CLI's per-item entry points; the first call ends set-up and each
# call starts an item
ITEM_ENTRIES = (
    ("lattice_rotor.cli", "solve_general"),
    ("lattice_rotor.cli", "solve_even_dim"),
    ("lattice_rotor.cli", "tau_estimate"),
    ("lattice_rotor.cli", "check_prop_sep"),
    ("lattice_rotor.cli", "covering_time"),
)


class BindingError(RuntimeError):
    """A name the benchmark wraps is gone; a layer would drop silently."""


def _lookup(module: str, attr: str):
    mod = importlib.import_module(module)
    fn = getattr(mod, attr, None)
    if not callable(fn):
        raise BindingError(f"{module}.{attr} is missing or not callable")
    return mod, fn


def _attrs(name: str, args, out) -> Dict:
    if name == "flowsearch":
        return {
            "entries": len(args[0]),
            "strategy": out.strategy,
            "found": bool(out.found),
            "examined": int(out.examined),
            "windows": int(out.windows_used),
        }
    if name.startswith("lll."):
        return {"dim": len(args[0])}
    if name == "oracle.covering":
        return {"steps": int(out.steps)}
    return {}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self.outside: Dict[str, int] = {}
        self._stack: List[int] = []

    def _count(self, name: str) -> None:
        counts = self.spans[self._stack[-1]]["counts"] if self._stack else self.outside
        counts[name] = counts.get(name, 0) + 1

    def span(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            rec = {
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "name": name,
                "counts": {},
            }
            self.spans.append(rec)
            self._stack.append(rec["id"])
            rec["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                self._stack.pop()
            rec.update(_attrs(name, args, out))
            return out

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            self._count(name)
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every binding; BindingError if any name is gone."""
        found = [(_lookup(m, a), a, n, self.span) for m, a, n in SPANS]
        found += [(_lookup(m, a), a, n, self.counter) for m, a, n in COUNTERS]
        for (mod, fn), attr, name, wrap in found:
            setattr(mod, attr, wrap(name, fn))


def calibrate() -> float:
    """Seconds this process takes for a fixed pure-Python loop.

    The loop shares no code with the program, so a change to the program
    cannot move it; it only measures how fast the machine runs Python
    bytecode right now.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(600_000):
        acc += i * i % 7
    return time.perf_counter() - start


class ItemClock:
    """Timestamps of the CLI's per-item entry calls.

    At each entry the previous item ends (`enters`), the calibration loop
    runs (`calib`), and then the item starts (`starts`), so no item's
    time includes a calibration.
    """

    def __init__(self) -> None:
        self.enters: List[float] = []
        self.calib: List[float] = []
        self.starts: List[float] = []
        self.on_first: Optional[Callable[[], None]] = None

    def install(self) -> None:
        for module, attr in ITEM_ENTRIES:
            mod, fn = _lookup(module, attr)
            setattr(mod, attr, self._wrap(fn))

    def _wrap(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            self.enters.append(time.monotonic())
            self.calib.append(calibrate())
            self.starts.append(time.monotonic())
            if len(self.starts) == 1 and self.on_first is not None:
                self.on_first()
            return fn(*args, **kwargs)

        return wrapper
