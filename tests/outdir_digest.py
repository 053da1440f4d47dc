"""Digest of every file one pipeline run leaves in out_dir.

    python tests/outdir_digest.py SRC WORKLOAD SEED > digests.txt

Runs the six stages of a benchmark workload on the heavecast source tree
SRC (the directory that holds the heavecast package, such as src/), each as
a `python -m heavecast.cli` child in a temporary directory. The inputs come
from bench/workloads.py, which is imported and not changed, and the
workload's measurement outages are flagged after simulate, as bench/run.py
does. No bytecode cache is written into SRC.

It prints one `sha256  path` line per file under out_dir, sorted by path,
so two source trees write byte-identical outputs when

    diff <(python tests/outdir_digest.py a/src year-hybrid 1) \\
         <(python tests/outdir_digest.py b/src year-hybrid 1)

prints nothing. A stage that fails stops the run with its exit code and
output on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402


def digests(src: Path, workload: str, seed: int) -> list[str]:
    """`sha256  path` of each out_dir file after the workload's six stages."""
    inputs = workloads.WORKLOADS[workload](seed)
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory(prefix="outdir-digest-") as tmp:
        work = Path(tmp)
        manifest = inputs.write(work)
        out_dir = work / inputs.manifest["out_dir"]
        for stage in workloads.STAGES:
            run = subprocess.run(
                [sys.executable, "-m", "heavecast.cli", stage, "-m", str(manifest)],
                cwd=work, env=env, capture_output=True, text=True,
            )
            if run.returncode:
                sys.stderr.write(run.stdout + run.stderr)
                raise SystemExit(f"{stage} exited {run.returncode}")
            if stage == "simulate":
                workloads.apply_outages(out_dir / "measurements.csv", inputs.outage_hours)
        return [
            f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out_dir)}"
            for path in sorted(p for p in out_dir.rglob("*") if p.is_file())
        ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("src", type=Path, help="directory holding the heavecast package")
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", type=int)
    args = parser.parse_args(argv)
    print("\n".join(digests(args.src, args.workload, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
