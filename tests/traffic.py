"""The heavecast functions that no workload, no bench check and no acceptance criterion runs.

    python tests/traffic.py > unrun.txt

Under the standard library's line tracer (trace), in this process, it runs:
the six stages of the readme-hybrid and year-hybrid workloads at seed 1
through heavecast.cli.main, with the bench's measurement outages flagged
after simulate; `response` on the first 24 hours of the readme campaign's
spectra; `bench/probe.py check` on both workloads' outputs; and
tests/test_acceptance.py. It then prints one `file:line name` line for each
function of src/heavecast none of them ran a line of, and one
`file:line name: 12, 15-17` line for each function they entered but did
not run in full: the first line, or first-last, of each statement none of
them ran a line of, `raise` statements left out. A statement listed covers
the blocks inside it. What the runs print goes to stderr, so stdout holds
only that list. It takes about 40-55 s on a two-core x86-64 host (Python
3.11, numpy 2.4).
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


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def functions(path: Path):
    """(line, qualified name, body) of each function defined in path; the
    body leaves out any docstring."""

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = child.body[1:] if ast.get_docstring(child) is not None and len(child.body) > 1 else child.body
                yield child.lineno, prefix + child.name, body
            if isinstance(child, DEFINITIONS):
                yield from walk(child, f"{prefix}{child.name}.")

    yield from walk(ast.parse(path.read_text()), "")


def unreached(body: list[ast.stmt], ran: set[int]):
    """(first, last) line of each statement of body that ran no line, and
    so on down the blocks of those that ran. A raise is left out, and so is
    a nested function or class, which functions lists on its own."""
    for stmt in body:
        if isinstance(stmt, (ast.Raise, *DEFINITIONS)):
            continue
        if ran.isdisjoint(range(stmt.lineno, stmt.end_lineno + 1)):
            yield stmt.lineno, stmt.end_lineno
            continue
        for name in ("body", "orelse", "finalbody"):
            yield from unreached(getattr(stmt, name, []), ran)
        for handler in getattr(stmt, "handlers", []):
            yield from unreached(handler.body, ran)


def main() -> None:
    # no ignoredirs: trace caches what it ignores by bare module name, so ignoring
    # the standard library's io.py would also ignore heavecast's io.py
    tracer = trace.Trace(count=1, trace=0)
    with tempfile.TemporaryDirectory(prefix="traffic-") as tmp, redirect_stdout(sys.stderr):
        tracer.runfunc(exercise, Path(tmp))
    ran = {}
    for f, line in tracer.results().counts:
        ran.setdefault(Path(f).resolve(), set()).add(line)
    for path in sorted(SRC.glob("*.py")):
        lines = ran.get(path, set())
        for line, name, body in functions(path):
            where = f"{path.relative_to(ROOT)}:{line} {name}"
            if lines.isdisjoint(range(body[0].lineno, body[-1].end_lineno + 1)):
                print(where)
            elif spans := [str(a) if a == b else f"{a}-{b}" for a, b in unreached(body, lines)]:
                print(f"{where}: {', '.join(spans)}")


if __name__ == "__main__":
    main()
