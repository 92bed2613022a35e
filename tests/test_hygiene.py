"""Design rules of the package, checked on its source without a linter.

Every module-level import is used or re-exported through __all__ (an
import line marked "# noqa: F401" is exempt), in the package, its tests
and its scripts, and no package module imports a _-prefixed name from
another module.  Every name the benchmark's tracer wraps still exists.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

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
