"""The configuration surface: settings are arguments, not environment variables.

``src/repro`` may read exactly one environment variable, ``REPRO_CACHE_DIR``
(where artifacts live), and may write none.  Every other setting travels as
an argument, so a call's behaviour is visible at the call site.  This walks
the package's source with :mod:`ast` and lists every environment access.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

ALLOWED_READS = {"REPRO_CACHE_DIR"}

#: ``os.environ`` methods that change the environment.
_WRITE_METHODS = {
    "setdefault", "update", "pop", "popitem", "clear", "__setitem__", "__delitem__",
}


def _constants(tree: ast.Module) -> dict[str, str]:
    """Module-level ``NAME = "literal"`` string constants."""
    out = {}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out[target.id] = node.value.value
    return out


def _name(node: ast.AST | None, constants: dict[str, str]) -> str:
    """The variable name an access uses, or a marker when it is not a literal."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name) and node.id in constants:
        return constants[node.id]
    return "<computed name>"


def _is_os_attr(node: ast.AST, attr: str) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    )


def scan(source: str) -> tuple[list[str], list[str]]:
    """``(reads, writes)``: the variable names a module's code reads and writes.

    An access that touches the whole environment (iterating it, copying it,
    passing it on) reads ``<every variable>``.
    """
    tree = ast.parse(source)
    constants = _constants(tree)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    reads: list[str] = []
    writes: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in ("environ", "getenv", "putenv", "unsetenv"):
                    writes.append(f"<from os import {alias.name}>")
        if isinstance(node, ast.Call) and _is_os_attr(node.func, "getenv"):
            reads.append(_name(node.args[0] if node.args else None, constants))
        if isinstance(node, ast.Call) and (
            _is_os_attr(node.func, "putenv") or _is_os_attr(node.func, "unsetenv")
        ):
            writes.append(_name(node.args[0] if node.args else None, constants))
        if not _is_os_attr(node, "environ"):
            continue
        parent = parents.get(node)
        if isinstance(parent, ast.Subscript):
            target = writes if isinstance(parent.ctx, (ast.Store, ast.Del)) else reads
            target.append(_name(parent.slice, constants))
        elif isinstance(parent, ast.Attribute) and parent.attr == "get":
            call = parents.get(parent)
            reads.append(_name(call.args[0] if call.args else None, constants))
        elif isinstance(parent, ast.Attribute) and parent.attr in _WRITE_METHODS:
            call = parents.get(parent)
            args = call.args if isinstance(call, ast.Call) else []
            writes.append(_name(args[0] if args else None, constants))
        elif isinstance(parent, ast.Compare) and node in parent.comparators:
            reads.append(_name(parent.left, constants))
        else:
            reads.append("<every variable>")
    return reads, writes


def _package_accesses() -> dict[str, tuple[list[str], list[str]]]:
    root = Path(repro.__file__).parent
    return {
        str(path.relative_to(root.parent)): scan(path.read_text())
        for path in sorted(root.rglob("*.py"))
    }


class TestScanner:
    @pytest.mark.parametrize(
        "source, reads, writes",
        [
            ('import os\nos.environ.get("A")', ["A"], []),
            ('import os\nos.environ.get("A", "x")', ["A"], []),
            ('import os\nos.environ["A"]', ["A"], []),
            ('import os\n"A" in os.environ', ["A"], []),
            ('import os\nos.getenv("A")', ["A"], []),
            ('import os\nK = "A"\nos.environ.get(K)', ["A"], []),
            ("import os\nos.environ.get(make())", ["<computed name>"], []),
            ("import os\nfor k in os.environ.items(): pass", ["<every variable>"], []),
            ('import os\nos.environ["A"] = "1"', [], ["A"]),
            ('import os\ndel os.environ["A"]', [], ["A"]),
            ('import os\nos.environ.setdefault("A", "1")', [], ["A"]),
            ('import os\nos.environ.update(A="1")', [], ["<computed name>"]),
            ('import os\nos.putenv("A", "1")', [], ["A"]),
            ("from os import environ", [], ["<from os import environ>"]),
        ],
        ids=[
            "get", "get_default", "subscript", "in", "getenv", "named_constant",
            "computed_name", "iterate", "set_item", "del_item", "setdefault", "update",
            "putenv", "import_environ",
        ],
    )
    def test_finds_each_access_form(self, source, reads, writes):
        assert scan(source) == (reads, writes)


class TestPackage:
    def test_reads_only_the_cache_dir(self):
        accesses = _package_accesses()
        read = {name for reads, _ in accesses.values() for name in reads}
        offenders = {
            path: sorted(set(reads) - ALLOWED_READS)
            for path, (reads, _) in accesses.items()
            if set(reads) - ALLOWED_READS
        }
        assert offenders == {}
        assert read == ALLOWED_READS  # the cache directory is still configurable

    def test_writes_no_environment_variable(self):
        offenders = {path: writes for path, (_, writes) in _package_accesses().items() if writes}
        assert offenders == {}
