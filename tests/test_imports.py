"""An import lint on the standard library's `ast`, over every module
under src/, tests/ and scripts/.

A module fails if it imports a name that it never reads and that its
`__all__` does not export, or if an annotation names a `typing` name that
the module never binds.  Within the package, the relative imports, at
module level and inside functions, form a graph without a cycle,
`lie_engine` imports `weyl_core` alone, so that no closure loads `igusa`,
and no module holds an `assert`."""

import ast
import graphlib
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(str(p.relative_to(ROOT)) for d in ("src", "tests", "scripts")
                 for p in (ROOT / d).rglob("*.py"))

#: (module, name) imported but never read, each with the reason it stays
KEPT = {
    ("src/skewweyl/cli.py", "bracket"):
        "perfbench/tests reads `cli.bracket` to trace brackets made by cli",
}

TYPING_NAMES = frozenset(typing.__all__)


def _imports(tree: ast.Module) -> dict:
    """Name bound by an import -> the line of the import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                out[a.asname or a.name] = node.lineno
    return out


def _annotation_names(node) -> set:
    """Names an annotation reads, string annotations included."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            try:
                out |= _annotation_names(ast.parse(n.value, mode="eval"))
            except SyntaxError:
                pass
    return out


def _annotations(tree: ast.Module) -> list:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            out.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            out.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            out.append(node.annotation)
    return out


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def problems(path: str) -> list:
    tree = ast.parse((ROOT / path).read_text(), path)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    annotated = set().union(*map(_annotation_names, _annotations(tree)))
    read |= annotated
    imported = _imports(tree)
    out = [f"line {line}: `{name}` is imported and never read"
           for name, line in sorted(imported.items(), key=lambda kv: kv[1])
           if name not in read and name not in _exported(tree)
           and (path, name) not in KEPT]
    bound = set(imported) | {
        n.id for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)} | {
        n.name for n in ast.walk(tree)
        if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    out += [f"`{name}` is used in an annotation and never imported"
            for name in sorted(annotated & TYPING_NAMES - bound)]
    return out


@pytest.mark.parametrize("path", MODULES)
def test_imports_are_read_and_annotations_are_bound(path):
    assert problems(path) == []


def test_kept_imports_are_still_imported_and_unread():
    # a kept name that the module reads again, or no longer imports, is
    # dropped from KEPT rather than left to excuse a later import
    for (path, name), reason in KEPT.items():
        assert reason
        tree = ast.parse((ROOT / path).read_text(), path)
        assert name in _imports(tree)
        assert not any(isinstance(n, ast.Name) and n.id == name
                       and not isinstance(n.ctx, ast.Store)
                       for n in ast.walk(tree))


# ---------------------------------------------------------------------------
# Import direction inside the package
# ---------------------------------------------------------------------------

PACKAGE = ROOT / "src" / "skewweyl"


def package_imports() -> dict:
    """Module -> the package modules it imports with `from .x import` or
    `from . import x`, anywhere in its source."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        targets = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    targets.add(node.module.split(".")[0])
                else:
                    targets.update(a.name for a in node.names)
        graph[path.stem] = targets
    return graph


def test_package_imports_form_no_cycle():
    graph = package_imports()
    assert {"lie_engine", "igusa", "cli"} <= set(graph)
    # raises CycleError, naming the cycle, if there is one
    graphlib.TopologicalSorter(graph).prepare()


def test_lie_engine_imports_only_weyl_core():
    assert package_imports()["lie_engine"] == {"weyl_core"}


def test_numerical_modules_read_their_tables_through_weyl_core():
    # the Fock band table and the adjoint matrices come from the skew keys
    # and the monomial brackets of `weyl_core`, not from classify's
    # structure constants, a `LieSpan` or a `GaussianRational` sum
    graph = package_imports()

    def names(module):
        return set(_imports(ast.parse((PACKAGE / f"{module}.py").read_text())))

    for module in ("wei_norman", "fock_oracle"):
        assert "classify" not in graph[module]
        assert "LieSpan" not in names(module)
    assert not names("fock_oracle") & {"GaussianRational", "GR_ZERO",
                                       "_weyl_terms"}


def test_package_has_no_assert():
    # `python -O` strips an assert, and where one holds it answers a user's
    # input with a bare AssertionError: the package raises named errors
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_closures_leave_igusa_unimported():
    # a fresh interpreter runs `skewweyl closure` on every closure input in
    # turn and reports, after each, whether skewweyl.igusa was loaded
    inputs = sorted(str(p) for p in (ROOT / "tests" / "data")
                    .glob("closure_*.json"))
    assert len(inputs) >= 12
    script = (
        "import contextlib, io, sys\n"
        "from skewweyl.cli import run\n"
        "for path in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = run(['closure', '--gens', path])\n"
        "    print(code, 'skewweyl.igusa' in sys.modules, path)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, *inputs], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"0 False {p}" for p in inputs]
