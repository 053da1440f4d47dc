import ast
import importlib
import re
import sys
from importlib import metadata
from pathlib import Path

import pytest

import heavecast

SOURCES = sorted(Path(heavecast.__file__).resolve().parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


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


def _imported_packages(path: Path) -> set[str]:
    """Top-level names of every absolute import in path, at any depth of the code."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_no_module_imports_click():
    # the command layer is argparse; click cost about 30 ms of every start
    assert [p.name for p in SOURCES if "click" in _imported_packages(p)] == []


def _distribution(name: str) -> str:
    """A distribution name as pip compares them (PEP 503)."""
    return re.sub(r"[-_.]+", "-", name).lower()


def test_third_party_imports_are_the_declared_dependencies():
    # every package the source imports is declared, and every declared one is
    # imported somewhere (scipy only inside motion.highpass_filter)
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    declared = {_distribution(re.match(r"[A-Za-z0-9_.-]+", r).group()) for r in requirements}
    packages = set().union(*map(_imported_packages, SOURCES)) - set(sys.stdlib_module_names) - {"heavecast"}
    providers = metadata.packages_distributions()
    imported = {_distribution(dist) for name in packages for dist in providers.get(name, [name])}
    assert imported == declared
