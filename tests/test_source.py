"""What the source of `mfmkit` itself must hold."""
from __future__ import annotations

import ast
from pathlib import Path

import mfmkit

SRC = Path(mfmkit.__file__).resolve().parent


def _dataclasses(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                if getattr(target, "id", getattr(target, "attr", None)) in ("dataclass", "record"):
                    yield node


def test_every_dataclass_has_a_docstring():
    # Without one, dataclass() builds an inspect.signature of the class at
    # import time only to write a __doc__, which every command pays for.
    missing = [f"{path.name}: {node.name}" for path in sorted(SRC.glob("*.py"))
               for node in _dataclasses(ast.parse(path.read_text("utf-8")))
               if ast.get_docstring(node) is None]
    assert missing == []
