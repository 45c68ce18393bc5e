"""Layout gate: every function and class in the package is used or public.

A definition in src/crossguard passes when some name, attribute or import in
src/ refers to it (an override's super() call counts), when crossguard.__all__
lists it, or when README names it in backticks, inline or in a fenced block.
Dunder methods are called by protocol, not by name, and are not checked.
Code that only tests call belongs in tests/.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import crossguard

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "crossguard"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def referenced_names(tree: ast.AST) -> set[str]:
    """Every name a Name, an Attribute or an import in tree refers to."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
    return names


def readme_names() -> set[str]:
    """Every identifier inside README's backticks: fenced blocks and inline spans."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    spans = []
    for index, part in enumerate(text.split("```")):
        spans.extend([part] if index % 2 else re.findall(r"`([^`\n]+)`", part))
    return {name for span in spans for name in re.findall(r"[A-Za-z_]\w*", span)}


def unreferenced_definitions() -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    everywhere = set().union(*map(referenced_names, trees.values()))
    public = set(crossguard.__all__) | readme_names()
    found = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, DEFINITIONS) or node.name in public:
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if node.name not in everywhere:
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}")
    return found


def test_every_definition_is_used_or_public():
    assert unreferenced_definitions() == []


def test_the_gate_sees_a_definition_nothing_uses(tmp_path, monkeypatch):
    """A definition nothing names is flagged; one README names is not."""
    package = tmp_path / "src" / "crossguard"
    package.mkdir(parents=True)
    (package / "alone.py").write_text(
        "def lonely():\n    return 0\n\n\ndef named():\n    return 1\n", encoding="utf-8"
    )
    (tmp_path / "README.md").write_text("Call `alone.named()`.\n", encoding="utf-8")
    monkeypatch.setattr(sys.modules[__name__], "ROOT", tmp_path)
    monkeypatch.setattr(sys.modules[__name__], "PACKAGE", package)
    assert unreferenced_definitions() == ["src/crossguard/alone.py:1: lonely"]
