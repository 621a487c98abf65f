"""Every public top-level function and class in ``src/repro`` has a caller
outside the tests.

A name counts as reached when a module under ``src/``, ``benchmarks/``,
``scripts/``, ``examples/`` or ``perfbench/`` mentions it, as a name, an
attribute or an import alias, outside the name's own definition.
``__init__`` re-exports do not count: they keep a name importable, not
used.  There is no allowlist; a name that only tests reach is deleted.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path
from typing import Iterator, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "benchmarks", "scripts", "examples", "perfbench")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _public_definitions() -> Iterator[Tuple[Path, ast.AST]]:
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                yield path, node


def _mentions(tree: ast.AST) -> Counter:
    found: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rpartition(".")[2]] += 1
    return found


def _caller_files() -> Iterator[Path]:
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            if path.name != "__init__.py":
                yield path


def test_every_public_name_has_a_non_test_caller():
    mentions = {path: _mentions(_parse(path)) for path in _caller_files()}
    unreached = []
    for path, definition in _public_definitions():
        name = definition.name
        # The definition's own body (recursion, a classmethod naming its
        # class) is not a caller.
        own = _mentions(definition)[name]
        if not any(found[name] - (own if caller == path else 0) > 0
                   for caller, found in mentions.items()):
            unreached.append(f"{path.relative_to(ROOT)}:{definition.lineno} {name}")
    assert not unreached, "only tests reach:\n" + "\n".join(unreached)
