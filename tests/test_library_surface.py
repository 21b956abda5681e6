"""The library ships only what it runs: every public function or class that a
module of ``vfvacuum`` defines is referenced somewhere in the package or is
exported in ``vfvacuum.__all__``. Code that only tests call belongs in
``tests/oracles.py``."""

import ast
from pathlib import Path

import vfvacuum


def test_every_public_definition_has_a_caller_or_is_exported():
    paths = sorted(Path(vfvacuum.__file__).parent.glob("*.py"))
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in paths]
    defined = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    referenced = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    assert sorted(defined - referenced - set(vfvacuum.__all__)) == []
