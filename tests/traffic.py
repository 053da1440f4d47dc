"""The heavecast functions that no workload, no bench check and no acceptance criterion runs.

    python tests/traffic.py > unrun.txt

Under the standard library's line tracer (trace), in this process, it runs:
the six stages of the readme-hybrid and year-hybrid workloads at seed 1
through heavecast.cli.main, with the bench's measurement outages flagged
after simulate; `response` on the first 24 hours of the readme campaign's
spectra; `bench/probe.py check` on both workloads' outputs; and
tests/test_acceptance.py. It then prints one `file:line name` line for each
function of src/heavecast none of them ran a line of. What the runs print
goes to stderr, so stdout holds only that list. It takes about 10 s on
two cores.
"""

from __future__ import annotations

import ast
import json
import sys
import tempfile
import trace
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "heavecast"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]


def stage(*args: str) -> None:
    from heavecast.cli import main

    try:
        main(list(args))
    except SystemExit as exc:
        if exc.code:
            raise SystemExit(f"heavecast {' '.join(args)} exited {exc.code}") from None


def exercise(work: Path) -> None:
    import probe
    import pytest
    import workloads

    for name in ("readme-hybrid", "year-hybrid"):
        inputs = workloads.WORKLOADS[name](1)
        run = work / name
        run.mkdir()
        manifest = str(inputs.write(run))
        out_dir = run / inputs.manifest["out_dir"]
        for step in workloads.STAGES:
            stage(step, "-m", manifest, *(["--spectra-hours", "24"] if step == "simulate" else []))
            if step == "simulate":
                workloads.apply_outages(out_dir / "measurements.csv", inputs.outage_hours)
        probe.check(manifest)
    response = work / "response.json"
    files = {"rao_file": "readme-hybrid/out/rao.csv", "spectra_file": "readme-hybrid/out/spectra.csv"}
    response.write_text(json.dumps({"out_dir": "response", **files}))
    stage("response", "-m", str(response))
    if pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests" / "test_acceptance.py")]):
        raise SystemExit("tests/test_acceptance.py failed")


def functions(path: Path):
    """(line, qualified name, first line, last line) of each function
    defined in path; the lines span its body after any docstring."""

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = child.body[1:] if ast.get_docstring(child) is not None and len(child.body) > 1 else child.body
                yield child.lineno, prefix + child.name, body[0].lineno, child.end_lineno
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from walk(child, f"{prefix}{child.name}.")

    yield from walk(ast.parse(path.read_text()), "")


def main() -> None:
    # no ignoredirs: trace caches what it ignores by bare module name, so ignoring
    # the standard library's io.py would also ignore heavecast's io.py
    tracer = trace.Trace(count=1, trace=0)
    with tempfile.TemporaryDirectory(prefix="traffic-") as tmp, redirect_stdout(sys.stderr):
        tracer.runfunc(exercise, Path(tmp))
    ran = {(Path(f).resolve(), line) for f, line in tracer.results().counts}
    for path in sorted(SRC.glob("*.py")):
        for line, name, first, last in functions(path):
            if not any((path, k) in ran for k in range(first, last + 1)):
                print(f"{path.relative_to(ROOT)}:{line} {name}")


if __name__ == "__main__":
    main()
