"""Checks on the library source itself."""

import ast
from pathlib import Path

import vlink

SRC = Path(vlink.__file__).parent


def test_no_bare_assert_in_src():
    # python -O strips assert statements, so correctness checks in the
    # library must raise explicitly
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert list(SRC.glob("*.py"))
    assert found == []
