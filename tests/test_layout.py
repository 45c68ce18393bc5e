"""Layout gate: every function, class and attribute in the package is used or public.

A definition in src/crossguard passes when some name, attribute or import in
src/ refers to it (an override's super() call counts), when crossguard.__all__
lists it, or when README names it in backticks, inline or in a fenced block.
Dunder methods are called by protocol, not by name, and are not checked.
An attribute that a method stores on self (`+=` is a store too) passes when
some attribute read in src/ has its name, or when README names it after a
dot in backticks, as in `network.seed`. A name a module assigns at its top
level passes when src/ reads or imports it, when README or __all__ names it,
or when a string constant in src/ (a docstring aside) holds it as a whole
word, as model's compiled predicate texts hold _REAL. Code and state that
only tests read belong in tests/.
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
    """Every name a Name that is not stored to, an Attribute or an import in tree refers to."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
    return names


def read_attributes(tree: ast.AST) -> set[str]:
    """Every attribute name tree reads."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def code_strings(tree: ast.AST) -> str:
    """Every string constant in tree but a docstring or other bare string statement, one a line."""
    bare = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    return "\n".join(
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in bare
    )


def readme_names(pattern: str = r"[A-Za-z_]\w*") -> set[str]:
    """Every match of pattern (of its group, if it has one) inside README's
    backticks: fenced blocks and inline spans."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    spans = []
    for index, part in enumerate(text.split("```")):
        spans.extend([part] if index % 2 else re.findall(r"`([^`\n]+)`", part))
    return {name for span in spans for name in re.findall(pattern, span)}


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
    strings = "\n".join(map(code_strings, trees.values()))
    for path, tree in trees.items():
        for statement in tree.body:
            if not isinstance(statement, (ast.Assign, ast.AnnAssign)):
                continue
            targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
            for target in targets:
                for node in ast.walk(target):
                    if not isinstance(node, ast.Name) or node.id in everywhere or node.id in public:
                        continue
                    if node.id.startswith("__") or re.search(rf"\b{node.id}\b", strings):
                        continue
                    found.append(f"{path.relative_to(ROOT)}:{node.lineno}: {node.id}")
    read = set().union(*map(read_attributes, trees.values())) | readme_names(r"\.([A-Za-z_]\w*)")
    for path, tree in trees.items():
        stores = {}
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr not in read
            ):
                stores[node.attr] = min(node.lineno, stores.get(node.attr, node.lineno))
        found.extend(f"{path.relative_to(ROOT)}:{line}: self.{name}" for name, line in sorted(stores.items()))
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


def test_the_gate_sees_an_attribute_nothing_reads(tmp_path, monkeypatch):
    """An attribute only stored, if only by +=, is flagged at its first store;
    one that src/ reads or that README names after a dot is not."""
    package = tmp_path / "src" / "crossguard"
    package.mkdir(parents=True)
    (package / "tally.py").write_text(
        "class Tally:\n"
        "    def __init__(self):\n"
        "        self.kept = self.named = self.lost = 0\n"
        "\n"
        "    def add(self, n):\n"
        "        self.lost += n\n"
        "        self.named += n\n"
        "        return self.kept\n",
        encoding="utf-8",
    )
    (tmp_path / "README.md").write_text("Call `Tally().add(n)`, then read `tally.named`; not `lost`.\n", encoding="utf-8")
    monkeypatch.setattr(sys.modules[__name__], "ROOT", tmp_path)
    monkeypatch.setattr(sys.modules[__name__], "PACKAGE", package)
    assert unreferenced_definitions() == ["src/crossguard/tally.py:3: self.lost"]


def test_the_gate_sees_a_module_name_nothing_reads(tmp_path, monkeypatch):
    """A name a module assigns at its top, in a tuple target too, is flagged
    when nothing reads it; one that src/ reads, README names or a code string
    holds as a whole word is not. A docstring naming it does not count, nor
    a string holding it only inside a longer word."""
    package = tmp_path / "src" / "crossguard"
    package.mkdir(parents=True)
    (package / "table.py").write_text(
        '"""Sums _USED and _IN_TEXT; _LOST is named only here."""\n'
        "_USED, _LOST = 1, 2\n"
        "_NAMED = 3\n"
        "_IN_TEXT = 4\n"
        "_IN = 5\n"
        "\n"
        "\n"
        "def total():\n"
        '    return _USED + eval("_IN_TEXT + 1")\n',
        encoding="utf-8",
    )
    (tmp_path / "README.md").write_text("Call `table.total()`; read `table._NAMED`.\n", encoding="utf-8")
    monkeypatch.setattr(sys.modules[__name__], "ROOT", tmp_path)
    monkeypatch.setattr(sys.modules[__name__], "PACKAGE", package)
    assert unreferenced_definitions() == ["src/crossguard/table.py:2: _LOST", "src/crossguard/table.py:5: _IN"]
