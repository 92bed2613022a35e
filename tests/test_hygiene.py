"""Design rules of the package, checked on its source without a linter.

Every module-level import is used or re-exported through __all__ (an
import line marked "# noqa: F401" is exempt), in the package, its tests
and its scripts, and no package module imports a _-prefixed name from
another module.  Every name the benchmark's tracer wraps still exists.
Every memo in the package states a finite bound, because the keys it
holds (exact integers, high-precision numbers) have no size limit of
their own.  solver.py and lll.py keep none: a solve run's plan lives in
a cache its caller passes in, and the callers of the reduction remember
their own units of work.  Every solver setting and flow-search keyword names the
caller that sets it, so a knob that nothing reads cannot slip in, and
the README's table of spec keys states the CLI's spec schema, and its
Layout table names every package module.  A solve
never loads numpy, which only the oracles need, and no other module
imports it at module level, and the CLI's prop-sep recheck replays its
sample with numpy blocked.  No package module imports a thread or
process module, nor dataclasses, and a solve loads neither dataclasses
nor inspect.
solver.py makes its SolveReports at one call site and derives its
evaluation precision at one, flowsearch.py reduces its windows at one
and ends its walk at one, and relations.py pre-reduces and reduces its
relation lattices at one each.
"""

import ast
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from lattice_rotor.cli import SPEC_SCHEMA
from lattice_rotor.flowsearch import flow_search
from lattice_rotor.solver import SolverConfig

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "lattice_rotor").glob("*.py"))
# the benchmark under perfbench/ keeps its own conventions
IMPORTERS = SOURCES + [p for d in ("tests", "scripts") for p in sorted((ROOT / d).glob("*.py"))]


def _id(path):
    return path.name if path in SOURCES else f"{path.parent.name}/{path.name}"


def _parse(path):
    text = path.read_text(encoding="utf-8")
    return text.splitlines(), ast.parse(text)


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        # quoted annotations hold names only as text
        for attr in ("annotation", "returns"):
            ann = getattr(node, attr, None)
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= {n.id for n in ast.walk(ast.parse(ann.value)) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", IMPORTERS, ids=_id)
def test_module_imports_are_used(path):
    lines, tree = _parse(path)
    keep = _used_names(tree) | _exported(tree)
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound in keep or "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            unused.append(bound)
    assert not unused, f"{path.name} imports unused names: {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_names_imported(path):
    _, tree = _parse(path)
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert not private, f"{path.name} imports private names: {private}"


def test_benchmark_bindings_resolve():
    """Every (module, attribute) that perfbench/tracer.py wraps is a callable,
    so a refactor that drops one fails here and not only in the benchmark."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    bindings = sorted({entry[:2] for entry in tracer.SPANS + tracer.COUNTERS + tracer.ITEM_ENTRIES})
    missing = [
        f"{module}.{attr}"
        for module, attr in bindings
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, f"names the benchmark wraps are gone: {missing}"


# a whole solve in a fresh interpreter, after looking up the CLI's oracle
# entry points as the benchmark's clock does; only the oracles need numpy
_NUMPY_FREE_SOLVE = """
import sys
import lattice_rotor
import lattice_rotor.cli as cli
entries = [cli.tau_estimate, cli.check_prop_sep, cli.covering_time]
code = cli.main(["solve", "--input", sys.argv[1], "--output", sys.argv[2]])
print(code, all(map(callable, entries)), "numpy" in sys.modules, "lattice_rotor.oracle" in sys.modules)
print(callable(lattice_rotor.tau_estimate), "numpy" in sys.modules)
"""


def test_a_solve_never_imports_numpy(tmp_path):
    """Importing the package and its CLI, looking up the CLI's oracle entry
    points and running a solve leave numpy and the oracle module unloaded,
    while the package's oracle names still resolve on first use."""
    spec = tmp_path / "spec.json"
    spec.write_text(
        '{"mode": "solve", "points": [["1", "0"], ["0.5", "0.25"]], "epsilon": "0.1", "t": "1e4"}',
        encoding="utf-8",
    )
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run(
        [sys.executable, "-c", _NUMPY_FREE_SOLVE, str(spec), str(tmp_path / "report.json")],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    assert out.split() == ["0", "True", "False", "False", "True", "True"]
    assert json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))["mode"] == "solve"


# the CLI's prop-sep recheck in a fresh interpreter where numpy cannot be
# imported; it prints the replayed sample of each (seed, index) argument
_NUMPY_BLOCKED_REPLAY = """
import sys
sys.modules["numpy"] = None
import lattice_rotor.cli as cli
pairs = [tuple(map(int, arg.split(":"))) for arg in sys.argv[1:]]
print(repr([cli._replay_draw(seed, index) for seed, index in pairs]))
"""


def test_the_recheck_replays_without_numpy():
    """cli._replay_draw shares no code with the numpy stream it rechecks:
    with numpy blocked it still gives the check's own samples."""
    from lattice_rotor.oracle import _random_stream

    pairs = [(0, 0), (6, 8192), (2**128 - 1, 1249)]
    want = []
    for seed, index in pairs:
        turn, coin, t1, t2 = _random_stream(seed)(4 * index + 4)[-4:].tolist()
        want.append((turn, coin < 0.5, t1, t2))
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run(
        [sys.executable, "-c", _NUMPY_BLOCKED_REPLAY, *(f"{s}:{i}" for s, i in pairs)],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    assert ast.literal_eval(out) == want


def _imported_modules(node):
    """The modules an import statement names; none for any other node."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""]
    return []


def test_only_the_oracle_imports_numpy():
    """No package module but oracle.py imports numpy at module level, and
    cli.py binds its oracle entry points as plain functions, not through a
    module __getattr__ whose first lookup would import the oracle."""
    importers = []
    for path in SOURCES:
        if path.name == "oracle.py":
            continue
        _, tree = _parse(path)
        for node in tree.body:
            if any(m.split(".")[0] == "numpy" for m in _imported_modules(node)):
                importers.append(f"{path.name}:{node.lineno}")
    assert not importers, f"module-level numpy imports: {importers}"
    _, tree = _parse(ROOT / "src" / "lattice_rotor" / "cli.py")
    functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "__getattr__" not in functions
    assert {"tau_estimate", "check_prop_sep", "covering_time"} <= functions


def test_no_module_imports_dataclasses():
    """The package's records are NamedTuples and its validated values
    precision.Frozen subclasses: dataclasses, with the inspect, ast and
    dis it loads, cost every CLI process about 13 ms of start-up."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(_parse(path)[1])
        if "dataclasses" in (m.split(".")[0] for m in _imported_modules(node))
    ]
    assert not found, f"dataclasses imports: {found}"


# the modules that importing the CLI and running one solve add to a fresh
# interpreter's, printed one a line
_SOLVE_IMPORTS = """
import sys
before = set(sys.modules)
import lattice_rotor.cli as cli
code = cli.main(["solve", "--input", sys.argv[1], "--output", sys.argv[2]])
print(code, *sorted(set(sys.modules) - before), sep="\\n")
"""


def test_a_solve_never_imports_dataclasses_or_inspect(tmp_path):
    """Neither the package nor its CLI loads dataclasses or inspect on the
    way to a solve report."""
    spec = tmp_path / "spec.json"
    spec.write_text(
        '{"mode": "solve", "points": [["1", "0"], ["0.5", "0.25"]], "epsilon": "0.1", "t": "1e4"}',
        encoding="utf-8",
    )
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run(
        [sys.executable, "-c", _SOLVE_IMPORTS, str(spec), str(tmp_path / "report.json")],
        capture_output=True, text=True, env=env, check=True,
    ).stdout.split()
    assert out[0] == "0" and "lattice_rotor.solver" in out
    assert {"dataclasses", "inspect"}.isdisjoint(out)


_CONCURRENCY_MODULES = {"threading", "queue", "multiprocessing", "concurrent", "_thread"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_threads_or_processes(path):
    """The package runs on one thread in one process.  mpmath's working
    precision is process-global, so a second thread that called it would
    race the first; and the CLI keeps one lane, a run's items in order,
    so the same spec gives the same report.  An import of a thread or
    process module anywhere in a package module, local ones included,
    fails here."""
    _, tree = _parse(path)
    found = [
        f"{node.lineno}: {', '.join(_imported_modules(node))}"
        for node in ast.walk(tree)
        if any(m.split(".")[0] in _CONCURRENCY_MODULES for m in _imported_modules(node))
    ]
    assert not found, f"{path.name} imports thread or process modules: {found}"


def _call_sites(module, name):
    """Line numbers where the package module `module` calls the bare name
    `name`."""
    _, tree = _parse(ROOT / "src" / "lattice_rotor" / module)
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
    ]


def test_one_solve_report_site():
    """solve_general makes the only report, so a second report path (with
    its own verification or trail) cannot creep back in."""
    sites = _call_sites("solver.py", "SolveReport")
    assert len(sites) == 1, f"solver.py calls SolveReport( at lines {sites}"


def test_one_precision_site():
    """solve_general derives the evaluation precision once and every
    phase attempt walks at it, so a second, inner precision (with its own
    rounding of t, eps and the horizon) cannot creep back in."""
    sites = _call_sites("solver.py", "raise_for_magnitude")
    assert len(sites) == 1, f"solver.py calls raise_for_magnitude( at lines {sites}"


def test_one_flow_reduction_site():
    """flow_search reduces every window through one lll_reduce call, and
    pre-reduces a walk's first window through one float_start call, so
    the tests that patch the flow search's seam see every reduction, and
    no second reduction path can slip out of the benchmark's
    lll.flowsearch span."""
    for name in ("lll_reduce", "float_start"):
        sites = _call_sites("flowsearch.py", name)
        assert len(sites) == 1, f"flowsearch.py calls {name}( at lines {sites}"


def test_one_walk_exit():
    """flow_search builds its one outcome after the window loop, so every
    way the walk ends, and every count a later change adds to a window
    decision, passes through one exit."""
    _, tree = _parse(ROOT / "src" / "lattice_rotor" / "flowsearch.py")
    (walk,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "flow_search"]
    returns = []
    todo = list(walk.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Return):
            returns.append(node.lineno)
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))
    assert len(returns) == 1, f"flow_search returns at lines {sorted(returns)}"
    sites = _call_sites("flowsearch.py", "FlowSearchOutcome")
    assert len(sites) == 1, f"flowsearch.py calls FlowSearchOutcome( at lines {sites}"


@pytest.mark.parametrize("name", ["lll_reduce", "gaussian_start"])
def test_one_relation_reduction_site(name):
    """Every membership test pre-reduces its lattice through one
    gaussian_start call and reduces it through one lll_reduce call, so
    the tests that patch relations' seam see every reduction, and no
    second reduction path can slip out of the benchmark's lll.relations
    span."""
    sites = _call_sites("relations.py", name)
    assert len(sites) == 1, f"relations.py calls {name}( at lines {sites}"


def _unbounded_memos(tree):
    """Line numbers of functools.lru_cache / functools.cache uses that do
    not spell out a finite positive integer maxsize, whether used as a
    decorator, with or without arguments, or called directly; lru_cache's
    implicit default counts as not spelled out, so the bound is visible
    where the memo is."""
    def name(node):
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and name(node.func) in ("lru_cache", "cache"):
            size = [kw.value for kw in node.keywords if kw.arg == "maxsize"] + node.args[:1]
            bounded = (
                name(node.func) == "lru_cache"
                and size
                and isinstance(size[0], ast.Constant)
                and type(size[0].value) is int
                and size[0].value > 0
            )
            if not bounded:
                lines.append(node.lineno)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # a bare @cache is unbounded and a bare @lru_cache hides its bound
            lines += [d.lineno for d in node.decorator_list if name(d) in ("lru_cache", "cache")]
    return sorted(lines)


@pytest.mark.parametrize(
    "source, unbounded",
    [
        ("@functools.lru_cache(maxsize=32)\ndef f(x): pass", []),
        ("@lru_cache(8)\ndef f(x): pass", []),
        ("g = functools.lru_cache(maxsize=4)(len)", []),
        ("@functools.lru_cache\ndef f(x): pass", [1]),
        ("@lru_cache()\ndef f(x): pass", [1]),
        ("@functools.lru_cache(maxsize=None)\ndef f(x): pass", [1]),
        ("@functools.cache\ndef f(x): pass", [1]),
        ("g = cache(len)", [1]),
        ("g = lru_cache(len)", [1]),
    ],
)
def test_memo_guard_recognises_each_form(source, unbounded):
    assert _unbounded_memos(ast.parse(source)) == unbounded


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_memos_are_bounded(path):
    _, tree = _parse(path)
    lines = _unbounded_memos(tree)
    assert not lines, f"{path.name} memoizes without a finite integer maxsize at lines {lines}"


def test_solver_memoizes_nothing():
    """solver.py and lll.py hold no memo and no module-level container.
    In solver.py, a plan or phase kept past one solve run would outlive
    the settings it was made under, as a memoized plan once walked a
    horizon that a monkeypatched initial_search_length no longer gave; a
    run's cache is a dict its caller creates and passes in.  lll.py is
    arithmetic only: the flow search and relation detection each remember
    their own unit of work, a reduced window or a detection, so its
    answers need no fresh-copy wrapping."""

    def name(node):
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    memo_names = {"functools", "lru_cache", "cache"}
    containers = {"dict", "set", "OrderedDict", "defaultdict"}
    for module in ("solver.py", "lll.py"):
        _, tree = _parse(ROOT / "src" / "lattice_rotor" / module)
        sites = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and name(node.func) in memo_names
            or isinstance(node, ast.Import) and memo_names & {a.name for a in node.names}
            or isinstance(node, ast.ImportFrom)
            and memo_names & {node.module, *(a.name for a in node.names)}
            or isinstance(node, ast.FunctionDef)
            and any(name(getattr(d, "func", d)) in memo_names for d in node.decorator_list)
        ]
        sites += [
            node.lineno
            for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            and (
                isinstance(node.value, (ast.Dict, ast.Set, ast.DictComp, ast.SetComp))
                or isinstance(node.value, ast.Call) and name(node.value.func) in containers
            )
        ]
        assert not sites, f"{module} memoizes at lines {sites}"


# each settable option, and the caller that sets it
KNOBS = {
    "SolverConfig.bits": "CLI spec key precision_bits",
    "SolverConfig.height_bound": "CLI spec key height_bound",
    "SolverConfig.l_cap": "CLI spec key L_cap",
}


def test_every_knob_has_a_caller():
    """A new SolverConfig field or flow_search keyword fails here until it
    is listed in KNOBS with the caller that sets it."""
    fields = {f"SolverConfig.{name}" for name in inspect.signature(SolverConfig).parameters}
    keywords = {
        f"flow_search.{p.name}"
        for p in inspect.signature(flow_search).parameters.values()
        if p.default is not p.empty or p.kind is p.KEYWORD_ONLY
    }
    assert fields | keywords == set(KNOBS)
    spec_keys = {r.rsplit(" ", 1)[1] for r in KNOBS.values() if r.startswith("CLI spec key")}
    required, optional = SPEC_SCHEMA["solve"]
    assert spec_keys <= {*required, *optional}


def _readme_schema():
    """The README's table of the keys each spec mode reads, as SPEC_SCHEMA
    states it: required keys ("t" for "t or t_range") and optional keys
    with their defaults ("none" for None)."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text[text.index("The keys each spec mode reads") :].split("\n\n")[1]
    schema = {}
    for row in table.splitlines()[2:]:
        mode, required, optional = [c.strip() for c in row.strip("|").split("|")][:3]
        schema[mode.strip("`").replace("-", "_")] = (
            tuple(k for k in re.findall(r"`(\w+)`", required) if k != "t_range"),
            {k: None if v == "none" else int(v) for k, v in re.findall(r"`(\w+)` (\w+)", optional)},
        )
    return schema


def test_readme_states_the_spec_schema():
    assert _readme_schema() == SPEC_SCHEMA


def test_readme_layout_lists_every_module():
    """The README's Layout table names each package module once, so a
    merge or split of modules has to update it."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text[text.index("## Layout") :].split("\n\n")[1]
    listed = [
        name
        for row in table.splitlines()[2:]
        for name in re.findall(r"`(\w+)`", row.strip("|").split("|")[0])
    ]
    modules = [p.stem for p in SOURCES if p.stem != "__init__"]
    assert sorted(listed) == modules
