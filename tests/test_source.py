import ast
import importlib
from pathlib import Path

import heavecast

SOURCES = sorted(Path(heavecast.__file__).resolve().parent.glob("*.py"))
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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


def _modules():
    return [importlib.import_module(f"heavecast.{p.stem}") for p in SOURCES if p.stem != "__init__"]


def test_exported_names_resolve():
    # a name deleted from a module but left in its __all__ breaks `import *`
    missing = [f"{m.__name__}.{name}" for m in _modules() for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert missing == []


def test_bench_tracer_targets_resolve():
    # bench/tracer.py wraps each Target("heavecast.<module>", "<func>") by
    # getattr, so a deleted function would stop the traced benchmark run;
    # the targets are read from its source, which is not imported here
    targets = [
        tuple(arg.value for arg in node.args[:2])
        for node in ast.walk(ast.parse(TRACER.read_text(), filename=str(TRACER)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Target"
    ]
    assert len(targets) > 20
    missing = [f"{m}.{f}" for m, f in targets if not hasattr(importlib.import_module(m), f)]
    assert missing == []
