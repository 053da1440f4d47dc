"""Digest of every file one pipeline run leaves in out_dir.

    python tests/outdir_digest.py SRC WORKLOAD SEED [--spectra-hours N] [--against OTHER] > digests.txt

Runs the six stages of a benchmark workload on the heavecast source tree
SRC (the directory that holds the heavecast package, such as src/), each as
a `python -m heavecast.cli` child in a temporary directory. The inputs come
from bench/workloads.py, which is imported and not changed, and the
workload's measurement outages are flagged after simulate, as bench/run.py
does. No bytecode cache is written into SRC.

With --spectra-hours N, simulate also writes the first N hours of spectra,
and after the six stages `response` runs through a copy of the manifest
that names the RAO and spectra files simulate wrote, so its response.csv
is digested with the other files.

It prints one `sha256  mode  path` line per file under out_dir, sorted by
path, the mode being the file's permission bits in octal, so two source
trees write byte-identical outputs with the same modes when

    diff <(python tests/outdir_digest.py a/src year-hybrid 1) \\
         <(python tests/outdir_digest.py b/src year-hybrid 1)

prints nothing. With --against OTHER, a second source tree, the workload
also runs on OTHER, and only the out_dir files whose digests or modes
differ, or that one tree alone wrote, are printed, one path per line; the
exit code is 1 when any differ and 0 when none does. A stage that fails
stops the run with its exit code and output on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402


def digests(src: Path, workload: str, seed: int, spectra_hours: int = 0) -> list[str]:
    """`sha256  mode  path` of each out_dir file after the workload's six
    stages, and after response when spectra_hours is positive."""
    inputs = workloads.WORKLOADS[workload](seed)
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory(prefix="outdir-digest-") as tmp:
        work = Path(tmp)

        def stage(name: str, manifest: Path, *flags: str) -> None:
            run = subprocess.run(
                [sys.executable, "-m", "heavecast.cli", name, "-m", str(manifest), *flags],
                cwd=work, env=env, capture_output=True, text=True,
            )
            if run.returncode:
                sys.stderr.write(run.stdout + run.stderr)
                raise SystemExit(f"{name} exited {run.returncode}")

        manifest = inputs.write(work)
        out_name = inputs.manifest["out_dir"]
        out_dir = work / out_name
        for name in workloads.STAGES:
            stage(name, manifest, *(["--spectra-hours", str(spectra_hours)] if name == "simulate" else []))
            if name == "simulate":
                workloads.apply_outages(out_dir / "measurements.csv", inputs.outage_hours)
        if spectra_hours:
            files = {"rao_file": f"{out_name}/rao.csv", "spectra_file": f"{out_name}/spectra.csv"}
            response = work / "response.json"
            response.write_text(json.dumps({**inputs.manifest, **files}, indent=2, sort_keys=True) + "\n")
            stage("response", response)
        return [
            f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {stat.S_IMODE(path.stat().st_mode):04o}"
            f"  {path.relative_to(out_dir)}"
            for path in sorted(p for p in out_dir.rglob("*") if p.is_file())
        ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("src", type=Path, help="directory holding the heavecast package")
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--spectra-hours", type=int, default=0, metavar="N",
                        help="also write N hours of spectra and digest response.csv [default: 0]")
    parser.add_argument("--against", type=Path, metavar="OTHER",
                        help="a second source tree: print only the files whose digests differ, and exit 1 if any do")
    args = parser.parse_args(argv)
    lines = digests(args.src, args.workload, args.seed, args.spectra_hours)
    if args.against is None:
        print("\n".join(lines))
        return 0
    other = digests(args.against, args.workload, args.seed, args.spectra_hours)
    # a line present on one side only is a file one tree alone wrote or whose digest or mode differs
    differing = sorted({line.split("  ", 2)[2] for line in set(lines) ^ set(other)})
    if differing:
        print("\n".join(differing))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
