"""Every out_dir file of three benchmark workloads, readme-basic and
readme-hybrid at seed 1 and year-hybrid at seeds 1-3, byte for byte and
with its mode, against the digests checked in under tests/golden/.

Each golden file holds the `sha256  mode  path` lines tests/outdir_digest.py
prints, after a first line naming the numpy version and the platform they
were made with; on another numpy or platform the test fails and says so, as
numpy's arithmetic may differ there. A change meant to alter the outputs
regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

which prints, per golden file, the paths whose digest or mode differ from
the file it replaces, or `unchanged`. Files are written under a umask of 022, so their modes are 0644 whatever
the umask of the process that runs the tests. readme-hybrid's run is made a
second time with the time zone, the thread counts, the locale and the hash
seed changed together, which must leave every digest as it is.
"""

import os
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

import heavecast
import outdir_digest

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(heavecast.__file__).resolve().parents[1]
# golden file -> (workload, seed, --spectra-hours)
CASES = {
    "readme-basic-1.sha256": ("readme-basic", 1, 24),
    "readme-hybrid-1.sha256": ("readme-hybrid", 1, 24),
    "year-hybrid-1.sha256": ("year-hybrid", 1, 0),
    "year-hybrid-2.sha256": ("year-hybrid", 2, 0),
    "year-hybrid-3.sha256": ("year-hybrid", 3, 0),
}


def made_with() -> str:
    return f"# numpy {np.__version__}, {sys.platform} {platform.machine()}"


def digests(workload: str, seed: int, spectra_hours: int) -> list[str]:
    previous = os.umask(0o022)
    try:
        return outdir_digest.digests(SRC, workload, seed, spectra_hours)
    finally:
        os.umask(previous)


def differing(got: list[str], expected: list[str]) -> list[str]:
    """The paths of the digest lines on one side only: a file one run alone
    wrote, or whose digest or mode differs."""
    return sorted({line.split("  ", 2)[2] for line in set(got) ^ set(expected)})


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_the_golden_digests(name):
    header, *expected = (GOLDEN / name).read_text().splitlines()
    assert header == made_with(), f"{name} was made with {header[2:]}, and this run has {made_with()[2:]}"
    assert differing(digests(*CASES[name]), expected) == []


# what a run must not read: the time zone, the BLAS and OpenMP thread counts, the locale and the hash seed
ENVIRONMENT = {"TZ": "Asia/Kolkata", "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2", "LC_ALL": "C.UTF-8",
               "PYTHONHASHSEED": "123"}


def test_the_environment_leaves_every_byte_alone(monkeypatch):
    # the stage children inherit this environment, all five set at once
    for name, value in ENVIRONMENT.items():
        monkeypatch.setenv(name, value)
    header, *expected = (GOLDEN / "readme-hybrid-1.sha256").read_text().splitlines()
    assert header == made_with()
    assert differing(digests(*CASES["readme-hybrid-1.sha256"]), expected) == []


if __name__ == "__main__":
    for name, case in CASES.items():
        path, got = GOLDEN / name, digests(*case)
        expected = path.read_text().splitlines()[1:] if path.exists() else []
        path.write_text("\n".join([made_with(), *got]) + "\n")
        print(f"{name}: {', '.join(differing(got, expected)) or 'unchanged'}")
