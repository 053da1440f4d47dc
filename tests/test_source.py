import ast
from pathlib import Path

import heavecast

SOURCES = sorted(Path(heavecast.__file__).resolve().parent.glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"cli.py", "io.py", "model.py", "sampler.py"}


def test_no_assert_statements():
    # `python -O` strips assert statements, so an invariant checked by one
    # silently stops holding; checks raise exceptions instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
