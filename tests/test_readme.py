"""README's "What's inside" table names only what `src/skewweyl` has.

Every backticked identifier in the table, dotted or not, must resolve: to
a module of the package, to a name that a module there defines, assigns,
takes as a parameter, sets on `self` or imports, to an attribute name
that the package calls, to a builtin or to a CLI subcommand.  A dotted
`Class.attr` must be an attribute of that class, `module.name` a name of
that module, and a dotted name under an import of the package an
attribute of the imported module.  A call `f(x, y)` counts as `f`; other
tokens (paths, expressions) are skipped."""

import ast
import builtins
import importlib
import re
from pathlib import Path

from skewweyl import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "skewweyl"
IDENTIFIER = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def table_identifiers(readme: str) -> list:
    table = readme.split("## What's inside", 1)[1].split("\n## ", 1)[0]
    out = []
    for token in re.findall(r"`([^`]+)`", table):
        m = IDENTIFIER.match(token)
        rest = token[m.end():] if m else None
        if m and (not rest or rest.startswith("(") and rest.endswith(")")):
            out.append(m.group())
    return out


def _bound(stmt) -> set:
    """The names a statement of a module or class body binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return {a.asname or a.name for a in stmt.names}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else \
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _class_attributes(node: ast.ClassDef) -> set:
    """What its body binds, its `__slots__` entries and the attributes its
    methods set on `self`."""
    out = set().union(*map(_bound, node.body))
    for stmt in node.body:
        if "__slots__" in _bound(stmt):
            out |= {c.value for c in ast.walk(stmt.value)
                    if isinstance(c, ast.Constant)}
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store) \
                and isinstance(n.value, ast.Name) and n.value.id == "self":
            out.add(n.attr)
    return out


class PackageNames:
    def __init__(self):
        trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
        self.names = set(trees) | {"skewweyl"}
        self.imports = set()
        self.module_names = {m: set().union(*map(_bound, tree.body))
                             for m, tree in trees.items()}
        self.classes = {}
        for tree in trees.values():
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self.names.add(node.name)
                elif isinstance(node, ast.ClassDef):
                    self.names.add(node.name)
                    self.classes.setdefault(node.name, set()).update(
                        _class_attributes(node))
                elif isinstance(node, ast.arg):
                    self.names.add(node.arg)
                elif isinstance(node, ast.Name) \
                        and isinstance(node.ctx, ast.Store):
                    self.names.add(node.id)
                elif isinstance(node, ast.Import):
                    self.imports |= {a.asname or a.name.split(".")[0]
                                     for a in node.names}
                elif isinstance(node, ast.ImportFrom):
                    self.names |= {a.asname or a.name for a in node.names}
                    if node.module and not node.level:
                        self.imports.add(node.module.split(".")[0])
                elif isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute):
                    self.names.add(node.func.attr)
        self.names |= self.imports | set().union(*self.classes.values())
        self.subcommands = set(cli._build_parser()[1])

    def resolves(self, token: str) -> bool:
        head, *rest = token.split(".")
        if head in self.module_names and rest:
            if rest[0] not in self.module_names[head]:
                return False
            head, *rest = rest
        if not rest:
            return (head in self.names or head in self.subcommands
                    or hasattr(builtins, head))
        if head in self.classes:
            return len(rest) == 1 and rest[0] in self.classes[head]
        if head in self.imports:
            try:
                importlib.import_module(token)
                return True
            except ImportError:
                module, _, attr = token.rpartition(".")
                return hasattr(importlib.import_module(module), attr)
        return False

    def unresolved(self, readme: str) -> list:
        return [t for t in table_identifiers(readme) if not self.resolves(t)]


README = (ROOT / "README.md").read_text()


def test_every_table_identifier_is_in_the_package():
    assert table_identifiers(README)
    assert PackageNames().unresolved(README) == []


def test_names_the_package_lacks_are_reported():
    # a removed function and a removed attribute of a class that still
    # exists, each added to the table
    names = PackageNames()
    for token in ("weyl_from_json", "Rref.rows", "fock_matrix",
                  "annihilator"):
        mutated = README.replace(
            "| `cli` |", f"| `cli` | `{token}` holds nothing;", 1)
        assert mutated != README
        assert names.unresolved(mutated) == [token]


def _row(module: str) -> str:
    return next(line for line in README.splitlines()
                if line.startswith(f"| `{module}` |"))


def test_fock_rows_describe_the_skew_key_table():
    # the oracle's one table is read from the skew keys and the dense
    # generators are written out from it; `WeylPoly` serves no Fock matrix
    fock = _row("fock_oracle")
    assert "`_band_table`" in fock and "read straight from the skew keys" \
        in fock
    assert "`hermitian_generators` writes the dense H_j out from it" in fock
    assert "fock_matrix" not in _row("weyl_core")
