"""Package-level guards on what ``src/cransim`` contains."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cransim"


def _module_level_names(tree):
    """Names bound by a module's top-level ``def``, ``class`` and assignments."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def _loaded_names(tree):
    """Names read as a variable or as an attribute; imports do not count."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_src_defines_only_what_src_uses():
    # code that only tests call belongs in tests/ (see tests/oracles.py);
    # an export from __init__ is not a use
    trees = {p.name: ast.parse(p.read_text())
             for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    loaded = {name for tree in trees.values() for name in _loaded_names(tree)}
    unused = [f"{module}:{name}" for module, tree in trees.items()
              for name in _module_level_names(tree) if name not in loaded]
    assert not unused, f"defined in src/cransim but never used there: {unused}"
