import ast
import dataclasses
import importlib
import importlib.util
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


def test_no_module_calls_a_numpy_function_that_loads_numpy_ma():
    # each of these imports numpy.ma when called, several milliseconds of a
    # stage child; model._sorted_quantiles reads quantiles instead
    loaders = {"quantile", "percentile", "median", "nanquantile", "unique"}
    found = [
        f"{path.name}:{node.lineno} np.{node.func.attr}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id in ("np", "numpy")
        and node.func.attr in loaders
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


def _kind_names(path: Path) -> list[str]:
    """file:line of each comparison with a model kind's name, and of each
    literal that lists two or more kinds, in path's code outside the table
    heavecast.MODEL_KINDS."""
    tree = ast.parse(path.read_text(), filename=str(path))
    table = {
        id(node)
        for stmt in tree.body
        if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "MODEL_KINDS" for t in stmt.targets)
        for node in ast.walk(stmt.value)
    }

    def named(node) -> bool:
        return isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in heavecast.MODEL_KINDS

    def listed(node) -> int:
        elts = node.keys if isinstance(node, ast.Dict) else getattr(node, "elts", ())
        return sum(map(named, elts))

    found = set()
    for node in ast.walk(tree):
        if id(node) in table:
            continue
        if isinstance(node, ast.Compare):
            hit = any(named(o) or listed(o) for o in [node.left, *node.comparators])
        elif isinstance(node, ast.MatchValue):
            hit = named(node.value)
        else:
            hit = listed(node) >= 2
        if hit:
            found.add(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(found)]


def test_kind_names_outside_the_table_are_caught(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "MODEL_KINDS = {'basic': (), 'hybrid': ()}\n"
        "a = spec.kind == 'hybrid'\nb = kind not in ('basic', 'hybrid')\nc = ['basic', 'hybrid']\n"
        "match kind:\n    case 'basic':\n        pass\n"
        "d = MODEL_KINDS['basic']\ne = kind == 'other'\n"
    )
    assert _kind_names(path) == ["m.py:2", "m.py:3", "m.py:4", "m.py:6"]


def test_each_model_kind_is_named_in_one_table():
    # heavecast.MODEL_KINDS maps each kind to its parameter names; the CLI's
    # --model, the manifest and ModelSpec check a kind against it, and every
    # other site reads ModelSpec.param_names or ModelSpec.ar2, so adding a
    # kind edits the table and the blocks it has, not a branch on its name
    assert [line for path in SOURCES for line in _kind_names(path)] == []
    # a kind's name is spelled in the table, and once more as the kind a
    # manifest without model_kind runs
    spelled = sorted(f"{path.name}: {text}" for path in SOURCES for text in _code_strings(path)
                     if text in heavecast.MODEL_KINDS)
    assert spelled == ["__init__.py: basic", "__init__.py: hybrid", "io.py: hybrid"]


def _floor_names(path: Path) -> list[str]:
    """file:line of each name X_FLOOR in path's code: a load, an attribute or an import."""
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Name) and node.id == "X_FLOOR")
        or (isinstance(node, ast.Attribute) and node.attr == "X_FLOOR")
        or (isinstance(node, ast.alias) and "X_FLOOR" in (node.name, node.asname))
    ]


def test_floor_names_are_caught(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .model import X_FLOOR\nfrom . import model\nw = model.X_FLOOR\nv = max(1, X_FLOOR)\n")
    assert _floor_names(probe) == ["probe.py:1", "probe.py:3", "probe.py:4"]


def test_the_noise_floor_is_applied_in_model_alone():
    # model.noise_weights is the one definition of the scaled noise's weight
    # max(x, X_FLOOR): the likelihood, the sampler's Gram matrix and the
    # synthetic generator read it, and no other module names the floor
    assert [name for path in SOURCES if path.name != "model.py" for name in _floor_names(path)] == []


def _seed_arithmetic(path: Path) -> list[str]:
    """file:line of each arithmetic on a seed (a name seed or an attribute
    .seed: `seed + 17`, `m.seed + h`, `seed += 1`) in path's code outside
    the table io.STREAMS."""
    tree = ast.parse(path.read_text(), filename=str(path))
    table = {
        id(node)
        for stmt in tree.body
        if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "STREAMS" for t in stmt.targets)
        for node in ast.walk(stmt.value)
    }

    def seed(node) -> bool:
        return (node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)) == "seed"

    found = {
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in table and (
            isinstance(node, ast.BinOp) and (seed(node.left) or seed(node.right))
            or isinstance(node, ast.AugAssign) and seed(node.target)
        )
    }
    return [f"{path.name}:{line}" for line in sorted(found)]


def test_seed_arithmetic_outside_the_table_is_caught(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "STREAMS = {'a': lambda seed: seed + 17, 'b': lambda seed, h: (seed, 1, h)}\n"
        "a = seed + 1\nb = m.seed + 1000 + h\nc = 29 * self.seed\nseed += 2\n"
        "d = f(seed)\ne = seeds + 1\nf = m.stream('fit', h + 1)\n"
    )
    assert _seed_arithmetic(path) == ["m.py:2", "m.py:3", "m.py:4", "m.py:5"]


def test_each_random_stream_is_derived_in_one_table():
    # io.STREAMS maps the manifest seed to the seed of each stage's stream,
    # and every stage reads it through RunManifest.stream; a seed offset
    # written at a call site makes a stream the table does not list, which
    # may replay another's numbers, as fit seeded with seed + h replayed the
    # issue noise of cycle slots 0-2 at h = 17. The library's own spawns
    # (sampler.fit per chain, synthetic per cycle slot) are no arithmetic
    assert [line for path in SOURCES for line in _seed_arithmetic(path)] == []


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
    # every delimited-text table goes through io._write_table, and its text,
    # the header and row layout, comes from io._table_text, which the issue
    # files' texts also come from; atomic_write_text is left to the table
    # writer, to the samples sidecar, to the free-text scores.txt and to the
    # one-file issue writer
    found = sorted(caller for path in SOURCES for caller in _callers(path, "atomic_write_text"))
    assert found == [
        "cli.py:score",
        "datasets.py:write_forecast_issue",
        "io.py:_write_table",
        "io.py:write_posterior_samples",
    ]
    found = sorted(caller for path in SOURCES for caller in _callers(path, "_table_text"))
    assert found == ["datasets.py:_issue_texts", "io.py:_write_table"]


def test_main_alone_loads_the_manifest_and_sets_the_floating_point_policy():
    # cli._run loads every command's manifest and runs the command under one
    # np.errstate; simulate alone overrides it, to name the manifest section
    # whose values overflow its campaign
    found = {name: sorted(c for path in SOURCES for c in _callers(path, name)) for name in ("_load", "errstate")}
    assert found == {"_load": ["cli.py:_run"], "errstate": ["cli.py:_run", "cli.py:simulate"]}


def test_readme_layout_lists_the_modules():
    # the README's Layout table against the modules src/heavecast holds
    section = (ROOT / "README.md").read_text().split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `heavecast\.(\w+)` \|", section, flags=re.M)
    assert sorted(listed) == sorted(p.stem for p in SOURCES if p.stem != "__init__")


# each out_dir name pattern, as a regular expression over a string of the code
OUT_DIR_PATTERNS = {
    **{name: rf"\b{name}" for name in ("dataset_h", "samples_", "predictions_", "pacf_", "hetero_")},
    **{name: re.escape(name) for name in ("scores.csv", "scores.txt", "rao.csv", "measurements.csv", "spectra.csv",
                                          "response.csv")},
    "the issues directory": r"^issues$|\bissues/",
    "the issue files": r"\bissue_(?![a-z])",  # not issue_files or issue_time_utc
    "the samples sidecar": re.escape(".diag.json"),
}


def _code_strings(path: Path) -> list[str]:
    """The string constants of path's code, f-strings' literal parts
    included, but those that stand alone as a statement: the docstrings."""
    tree = ast.parse(path.read_text(), filename=str(path))
    alone = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    return [
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in alone
    ]


def test_each_out_dir_name_is_spelled_once():
    # cli.STAGE_FILES holds the layout of out_dir; every command, build's
    # defaults and score's staleness check take their paths from it
    strings = [text for path in SOURCES for text in _code_strings(path)]
    spelled = {name: [text for text in strings if re.search(regex, text)] for name, regex in OUT_DIR_PATTERNS.items()}
    assert {name: len(texts) for name, texts in spelled.items()} == dict.fromkeys(OUT_DIR_PATTERNS, 1), spelled
    from heavecast import cli

    templates = {name for files in cli.STAGE_FILES.values() for names in files for name in names}
    # the sidecar's suffix is spelled where the table adds it to the samples template
    (suffix,) = spelled.pop("the samples sidecar")
    assert cli.SAMPLES + suffix in templates
    assert [name for name, (text,) in spelled.items() if text not in templates] == []
    assert [name for name in ("_dataset_path", "_samples_path", "_predictions_path") if hasattr(cli, name)] == []


def _fstring_shapes(path: Path) -> list[str]:
    """Each f-string of path's code as its literal text with {} for each field."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        "".join(part.value if isinstance(part, ast.Constant) else "{}" for part in node.values)
        for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
    ]


def test_a_bad_table_cell_is_refused_in_one_spelling():
    # every reader refuses a cell through io._refuse_cell, which names the
    # file, the data row, the header's column, the rule and the cell
    found = [
        f"{path.name}: {shape}"
        for path in SOURCES for shape in _fstring_shapes(path) if re.search(r"row \{\}: .*must be", shape)
    ]
    assert found == ["io.py: {}, row {}: {} must be {}, found {}"]


def _readme_name(template: str) -> str:
    """A template of cli.STAGE_FILES as README spells it: dataset_hHHH.csv."""
    fields = {"h": "HHH", "model": "<model>", "i": "NNNN"}
    return re.sub(r"\{+(\w+)[^}]*\}+", lambda field: fields[field[1]], template)


def test_readme_file_formats_name_the_stage_files():
    # README's "File formats" names every file a command reads or writes
    # in out_dir, and no other
    from heavecast import cli

    section = (ROOT / "README.md").read_text().split("\n## File formats\n", 1)[1].split("\n## ", 1)[0]
    named = {name for name in re.findall(r"`([\w<>/.*]+)`", section) if re.search(r"\.(csv|txt|json)$|\*", name)}
    declared = {_readme_name(name) for files in cli.STAGE_FILES.values() for names in files for name in names}
    assert sorted(named) == sorted(declared)


def test_manifest_settings_and_horizon_datasets_live_in_io():
    # the run manifest with its settings, and the horizon dataset with its
    # file format, are each one module: io
    from heavecast import io

    assert importlib.util.find_spec("heavecast.config") is None
    assert importlib.util.find_spec("heavecast.horizon") is None
    names = [
        "SamplerConfig", "SwellEvent", "SwellScenario", "ErrorInjection", "FORECAST_FREQS_HZ", "FORECAST_DIRS_RAD",
        "_check_finite", "_TP_MIN", "_TP_MAX", "HorizonDataset", "chrono_split", "HOUR", "DEFAULT_HORIZONS",
    ]
    assert [name for name in names if name not in vars(io)] == []
    assert {getattr(io, name).__module__ for name in ("SamplerConfig", "HorizonDataset", "chrono_split")} == {
        "heavecast.io"
    }


def test_campaign_inputs_live_in_datasets():
    # the campaign's input files and the heave record are one module with
    # the issue sets and align: datasets; io and motion keep a second spelling
    from heavecast import datasets, io, motion

    assert importlib.util.find_spec("heavecast.campaign") is None
    names = [
        *io._CAMPAIGN_NAMES, "HeaveRecord", "TWO_PI", "_RAO_HEADER", "_SPECTRA_HEADER", "_HEAVE_HEADER",
        "_ISSUE_HEADER", "_ISSUE_BATCH", "_read_issue_batch", "_parse_issue_files", "_issue_texts",
    ]
    assert [name for name in names if name not in vars(datasets)] == []
    assert len(io._CAMPAIGN_NAMES) == 5
    assert [name for name in io._CAMPAIGN_NAMES if getattr(io, name) is not getattr(datasets, name)] == []
    assert motion.HeaveRecord is datasets.HeaveRecord
    assert datasets.HeaveRecord.__module__ == "heavecast.datasets"


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


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The names an import statement binds: `import a.b` binds a."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def _used_names(scope: ast.AST) -> set[str]:
    """Every name scope's code reads, the names of its string annotations
    and the strings of its __all__."""
    used = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
        # a def's return annotation, or an argument's or a variable's
        annotation = getattr(node, "returns", None) or getattr(node, "annotation", None)
        for text in ast.walk(annotation) if annotation else ():
            if isinstance(text, ast.Constant) and isinstance(text.value, str):
                used.update(n.id for n in ast.walk(ast.parse(text.value, mode="eval")) if isinstance(n, ast.Name))
    return used


def _unused_imports(path: Path) -> list[str]:
    """file:line name of each name an import binds that the module (for an
    import outside every function) or the function it is made in, by the
    outermost one, never uses."""
    tree = ast.parse(path.read_text(), filename=str(path))
    module_used = _used_names(tree)
    found = []
    for top in tree.body:
        local = isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef))
        used = _used_names(top) if local else module_used
        found += [
            (node.lineno, name)
            for node in ast.walk(top)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for name in _bound_names(node)
            if name not in used
        ]
    return [f"{path.name}:{line} {name}" for line, name in sorted(found)]


def test_unused_imports_are_caught(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import functools\nimport os.path\nfrom typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n    from . import io\n"
        "__all__ = ['sep']\nfrom os import sep\n"
        "def f(m: 'io.RunManifest'):\n    import numpy as np\n    return os.path\n"
        "def g():\n    return np\n"
    )
    assert _unused_imports(path) == ["m.py:2 functools", "m.py:10 np"]


def test_every_import_is_used():
    # a name imported and never used is a leftover of a deleted caller; a use
    # in code, in __all__, under TYPE_CHECKING or in a string annotation counts
    assert [line for path in SOURCES for line in _unused_imports(path)] == []


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
    # io resolves the datasets readers and writers on first use, and datasets
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
    assert modules == {"heavecast.io", "heavecast.datasets"}


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
    from heavecast.io import HorizonDataset
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


@pytest.mark.parametrize(
    "name, walk",
    [
        ("IssueSet", lambda issues: issues[0]),
        ("IssueSet", iter),
        ("SpectrumSeries", lambda series: series[0]),
        ("SpectrumSeries", iter),
    ],
)
def test_array_records_build_no_per_row_records(name, walk):
    # an issue set and a spectrum series are tables of arrays, not lists of
    # ForecastIssue or DirectionalWaveSpectrum records built one row at a time
    record, _ = _record_instances()[name]
    with pytest.raises(TypeError):
        walk(record)


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
