import ast
import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import numpy as np
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


def _kind_reads(path: Path, within: str | None = None) -> list[str]:
    """file:line of each `.kind` attribute read in path, or only in its function within."""
    tree = ast.parse(path.read_text(), filename=str(path))
    if within:
        tree = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == within)
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "kind"
    ]


def test_only_model_and_sampler_branch_on_the_model_kind():
    # the basic and hybrid mean and scale are written in model.conditional_moments
    # and the sampler's conditionals; every other module passes the ModelSpec on
    found = [line for path in SOURCES if path.name not in ("model.py", "sampler.py") for line in _kind_reads(path)]
    assert found == []
    model = next(path for path in SOURCES if path.name == "model.py")
    assert _kind_reads(model, within="posterior_predictive") == []


def _callers(path: Path, name: str) -> list[str]:
    """file:function of each call of name (as a name or an attribute) in path,
    by the outermost function it is made in."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                found.append(f"{path.name}:{getattr(top, 'name', '<module>')}")
    return found


def test_tables_are_written_by_the_one_table_writer():
    # every delimited-text table goes through io._write_table, which spells
    # the header and row layout once; atomic_write_text is left to it, to the
    # samples sidecar, to the free-text scores.txt and to the issue texts
    # campaign._issue_texts builds by column
    found = sorted(caller for path in SOURCES for caller in _callers(path, "atomic_write_text"))
    assert found == [
        "campaign.py:write_forecast_issue",
        "cli.py:score",
        "io.py:_write_table",
        "io.py:write_posterior_samples",
    ]


def _modules():
    return [importlib.import_module(f"heavecast.{p.stem}") for p in SOURCES if p.stem != "__init__"]


def test_exported_names_resolve():
    # a name deleted from a module but left in its __all__ breaks `import *`
    missing = [f"{m.__name__}.{name}" for m in _modules() for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert missing == []


# the assignments whose strings list public names rather than use them
_NAME_LISTS = {"__all__", "_CAMPAIGN_NAMES"}


def _source_words(path: Path) -> set[str]:
    """Every identifier path's code uses, and every word of its strings but
    those of the name lists; a def or class statement does not use its own
    name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    listed = {
        id(node)
        for stmt in tree.body
        if isinstance(stmt, ast.Assign) and any(isinstance(t, ast.Name) and t.id in _NAME_LISTS for t in stmt.targets)
        for node in ast.walk(stmt.value)
    }
    words = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            words.add(node.id)
        elif isinstance(node, ast.Attribute):
            words.add(node.attr)
        elif isinstance(node, ast.alias):
            words.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in listed:
            words.update(re.findall(r"\w+", node.value))
    return words


def test_every_exported_name_has_a_caller():
    # a public name that no stage, no acceptance criterion and no bench file
    # uses is code that only its own unit tests run
    used = set().union(*map(_source_words, SOURCES))
    for path in [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "bench").rglob("*.py"))]:
        used.update(re.findall(r"\w+", path.read_text()))
    exported = [(m.__name__, name) for m in _modules() for name in getattr(m, "__all__", ())]
    assert [f"{module}.{name}" for module, name in exported if name not in used] == []


def _tracer_targets() -> list[tuple[str, str]]:
    """(module, function) of each Target in bench/tracer.py, read from its
    source, which is not imported here."""
    return [
        tuple(arg.value for arg in node.args[:2])
        for node in ast.walk(ast.parse(TRACER.read_text(), filename=str(TRACER)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Target"
    ]


def _reexported(path: Path) -> set[str]:
    """The names a heavecast module binds by a module-level `from .x import`,
    constants included."""
    return {
        alias.asname or alias.name
        for node in _nodes(path, module_level=True)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    }


def _spellings(path: Path) -> set[tuple[str, str]]:
    """(module, name) of each name path takes from a heavecast module:
    `from heavecast.m import name` or `from .m import name`, and `m.name`
    after `from heavecast import m` or `from . import m`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            # "" is the package itself
            if node.level:
                module = node.module or ""
            elif node.module == "heavecast" or node.module.startswith("heavecast."):
                module = node.module.removeprefix("heavecast").lstrip(".")
            else:
                continue
            if module:
                found.update((module, alias.name) for alias in node.names)
            else:
                modules.update((alias.asname or alias.name, alias.name) for alias in node.names)
    found.update(
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    )
    return found


def test_every_reexported_name_is_imported_under_that_spelling():
    # a name that a module's __all__ takes from another module by
    # `from .x import` is a second spelling of it; it stays only where the
    # acceptance test, a bench file (a tracer Target counts) or another
    # module imports it under that spelling
    used = {(m.removeprefix("heavecast."), f) for m, f in _tracer_targets()}
    for path in [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "bench").rglob("*.py"))]:
        used |= _spellings(path)
    for path in SOURCES:
        used |= {(m, name) for m, name in _spellings(path) if m != path.stem}
    unused = [
        f"{path.stem}.{name}"
        for path in SOURCES
        if path.stem != "__init__"
        for name in _reexported(path) & set(getattr(importlib.import_module(f"heavecast.{path.stem}"), "__all__", ()))
        if (path.stem, name) not in used
    ]
    assert unused == []


def test_bench_tracer_targets_resolve():
    # bench/tracer.py wraps each Target("heavecast.<module>", "<func>") by
    # getattr, so a deleted function would stop the traced benchmark run
    targets = _tracer_targets()
    assert len(targets) > 20
    missing = [f"{m}.{f}" for m, f in targets if not hasattr(importlib.import_module(m), f)]
    assert missing == []


def test_bench_tracer_io_and_datasets_targets_resolve_in_a_fresh_process():
    # io resolves the campaign readers and writers on first use, and datasets
    # re-exports the horizon names: in a process that has resolved none of
    # them yet, getattr must still find each, as the function its defining
    # module holds
    targets = [(m, f) for m, f in _tracer_targets() if m in ("heavecast.io", "heavecast.datasets")]
    assert len(targets) > 10
    code = (
        "import importlib, json, sys\n"
        "found = [getattr(importlib.import_module(m), f) for m, f in json.loads(sys.argv[1])]\n"
        "print(json.dumps([[v.__module__, v.__name__, getattr(sys.modules[v.__module__], v.__name__) is v]\n"
        "                  for v in found]))"
    )
    src = str(Path(heavecast.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(targets)], env=env, capture_output=True, text=True, check=True
    ).stdout
    defined = json.loads(out)
    assert [(f, held) for _, f, held in defined] == [(f, True) for _, f in targets]
    modules = {m for m, _, _ in defined}
    assert modules == {"heavecast.io", "heavecast.campaign", "heavecast.datasets", "heavecast.horizon"}


def _array_records() -> dict[str, type]:
    """module.Class of every dataclass src/heavecast defines with a field
    whose annotation names np.ndarray."""
    return {
        f"{m.__name__}.{name}": cls
        for m in _modules()
        for name, cls in vars(m).items()
        if isinstance(cls, type) and cls.__module__ == m.__name__ and dataclasses.is_dataclass(cls)
        and any("ndarray" in str(f.type) for f in dataclasses.fields(cls))
    }


def test_no_record_with_array_fields_defines_equality():
    # a generated __eq__ compares fields as tuples, so two distinct arrays of
    # two or more elements raise "truth value ... is ambiguous", and a frozen
    # one's generated __hash__ raises TypeError; such records compare by identity
    records = _array_records()
    assert len(records) >= 13
    assert sorted(name for name, cls in records.items() if "__eq__" in vars(cls)) == []


def _record_instances() -> dict[str, tuple[object, object]]:
    """Two equal-valued, distinct instances of each record with array fields."""
    from heavecast.datasets import ForecastIssue, HorizonSeries, IssueSet
    from heavecast.diagnostics import PacfResult
    from heavecast.horizon import HorizonDataset
    from heavecast.model import PosteriorSamples, PredictiveDistribution, PredictiveDraws
    from heavecast.motion import RawMotionSeries
    from heavecast.spectral import DirectionalWaveSpectrum, MorisonRaoParams, RaoCurve, SpectrumSeries

    t0 = np.datetime64("2024-01-01T00:00:00")
    times = t0 + np.arange(3) * np.timedelta64(1, "h")
    freqs, dirs = np.array([0.5, 1.0, 1.5]), np.array([0.5, 2.0])
    builders = {
        "HorizonDataset": lambda: HorizonDataset(
            horizon=0, valid_times=times, x=np.ones(3), y=np.ones(3), issue_times=times
        ),
        "ForecastIssue": lambda: ForecastIssue(issue_time=t0, horizon_hours=np.arange(3), values=np.ones(3)),
        "IssueSet": lambda: IssueSet(issue_times=[t0], bounds=[0, 3], leads=np.arange(3), values=np.ones(3)),
        "HorizonSeries": lambda: HorizonSeries(valid_times=times, values=np.ones(3), issue_times=times),
        "PosteriorSamples": lambda: PosteriorSamples(
            draws=np.ones((3, 2)), param_names=("a", "b"), chain_ids=np.zeros(3), diagnostics={}, acceptance_rate=1.0
        ),
        "PredictiveDistribution": lambda: PredictiveDistribution(valid_time=t0, draws=np.ones(3)),
        "PredictiveDraws": lambda: PredictiveDraws(valid_times=times, draws=np.ones((2, 3))),
        "RaoCurve": lambda: RaoCurve(freqs=freqs, amplitudes=np.ones(3)),
        "MorisonRaoParams": lambda: MorisonRaoParams(
            omega_r=1.0, damping_ratio_term=0.5, excitation_ratio=(freqs, np.ones(3))
        ),
        "DirectionalWaveSpectrum": lambda: DirectionalWaveSpectrum(
            timestamp=t0, freqs=freqs, dirs=dirs, density=np.ones((3, 2))
        ),
        "SpectrumSeries": lambda: SpectrumSeries(times=times, freqs=freqs, dirs=dirs, density=np.ones((3, 3, 2))),
        "RawMotionSeries": lambda: RawMotionSeries(start=t0, sample_rate=1.0, values=np.ones(3)),
        "PacfResult": lambda: PacfResult(lags=np.arange(1, 4), coefficients=np.zeros(3), confidence_band=0.5),
    }
    return {name: (build(), build()) for name, build in builders.items()}


def test_records_with_array_fields_compare_and_hash_by_identity():
    instances = _record_instances()
    assert {type(a).__name__ for a, _ in instances.values()} == {
        name.rsplit(".", 1)[1] for name in _array_records()
    }
    for name, (a, b) in instances.items():
        assert a == a and a != b, name
        assert hash(a) == hash(a) and len({a, b, a}) == 2, name


def _nodes(path: Path, module_level: bool = False):
    """Every node of path's code, or with module_level only those outside
    every function body, which run when the module is imported."""
    nodes = [ast.parse(path.read_text(), filename=str(path))]
    while nodes:
        node = nodes.pop()
        if module_level and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        nodes.extend(ast.iter_child_nodes(node))


def _imported_packages(path: Path, module_level: bool = False) -> set[str]:
    """Top-level names of every absolute import in path, at any depth of the
    code, or with module_level only those run when the module is imported."""
    names = set()
    for node in _nodes(path, module_level):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_no_module_imports_click():
    # the command layer is argparse; click cost about 30 ms of every start
    assert [p.name for p in SOURCES if "click" in _imported_packages(p)] == []


def test_no_module_imports_yaml_on_import():
    # PyYAML costs about 6 ms of every start; only a manifest that is not JSON
    # needs it, and io.RunManifest.load imports it then
    assert [p.name for p in SOURCES if "yaml" in _imported_packages(p, module_level=True)] == []
    assert [p.name for p in SOURCES if "yaml" in _imported_packages(p)] == ["io.py"]


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
