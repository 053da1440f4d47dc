"""predict, score and diagnose on garbled dataset, samples and sidecar files,
score on garbled predictions files, and response on garbled RAO and spectra
files.

Whatever a stage reads, it must exit 0, 2 or 3 and never raise: clirun.invoke
passes on any exception other than SystemExit, so an uncaught one fails the test.
No stage reads the sidecar, so with it garbled each must write what it writes
with the sidecar intact.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heavecast.datasets import HorizonDataset, write_spectra
from heavecast.io import SwellEvent, SwellScenario, write_horizon_dataset, write_posterior_samples, write_rao
from heavecast.model import ModelSpec, PosteriorSamples
from heavecast.synthetic import generate_spectra, reference_rao
from clirun import invoke
from layout import reads, writes

# the files of a hybrid campaign at horizon 0
(DATASET,), (SAMPLES, SIDECAR) = reads("fit"), writes("fit")
(PREDICTIONS,) = writes("predict")
STAGES = ("predict", "score", "diagnose")
# the files of the campaign each stage reads: score reads the predictions
# predict wrote, so a samples file predict refused leaves score none to read
READS = {stage: set(reads(stage)) for stage in STAGES}


@pytest.fixture(scope="module")
def texts():
    """The text of a small, valid hybrid campaign's dataset, samples and sidecar files."""
    rng = np.random.default_rng(5)
    n_rows, n_draws = 80, 200
    times = np.datetime64("2024-06-01T00:00:00", "s") + np.arange(n_rows) * np.timedelta64(1, "h")
    x = rng.gamma(2.0, 0.5, n_rows) + 0.1
    ds = HorizonDataset(horizon=0, valid_times=times, x=x, y=1.1 * x + 0.05 * rng.standard_normal(n_rows),
                        issue_times=times)
    samples = PosteriorSamples(
        draws=np.array([0.05, 1.1, 0.5, -0.2, 0.1]) + 0.01 * rng.standard_normal((n_draws, 5)),
        param_names=ModelSpec(kind="hybrid").param_names,
        chain_ids=np.repeat([0, 1], n_draws // 2),
        diagnostics={"sigma": {"rhat": 1.001, "ess": 150.0}},
        acceptance_rate=0.8,
    )
    with tempfile.TemporaryDirectory() as tmp:
        write_horizon_dataset(Path(tmp) / DATASET, ds)
        write_posterior_samples(Path(tmp) / SAMPLES, samples, Path(tmp) / SIDECAR)
        return {name: (Path(tmp) / name).read_text() for name in (DATASET, SAMPLES, SIDECAR)}


def write_campaign(tmp: str, files: dict[str, str]) -> Path:
    """The manifest of a campaign of files (name -> text) in out/ under tmp."""
    out = Path(tmp) / "out"
    out.mkdir()
    for name, text in files.items():
        (out / name).write_text(text)
    manifest = Path(tmp) / "run.yaml"
    manifest.write_text(yaml.safe_dump(
        {"out_dir": "out", "horizons": [0], "model_kind": "hybrid", "train_fraction": 0.75}
    ))
    return manifest


def stage_results(files: dict[str, str], stages=STAGES) -> list[tuple[str, int, str]]:
    """(stage, exit code, output) of each of stages run in order on a campaign of files (name -> text)."""
    with tempfile.TemporaryDirectory() as tmp:
        manifest = write_campaign(tmp, files)
        results = [(stage, invoke([stage, "--manifest", str(manifest)])) for stage in stages]
    return [(stage, r.exit_code, r.output) for stage, r in results]


def run_stages(texts: dict[str, str], name: str, garbled: str, codes=(0, 2, 3), stages=STAGES, refused=None) -> None:
    """Each of stages, with file `name` replaced by `garbled`, exits with one of codes and its message,
    which names that file if the stage reads it and else the predictions predict did not write. A
    stage that reads the file and exits 2 also names refused, a (data row, column) pair, if given."""
    for stage, code, output in stage_results({**texts, name: garbled}, stages):
        assert code in codes, (stage, code, output)
        assert "Traceback" not in output
        if code == 2:
            assert output.startswith("error: "), output
            assert (name if name in READS[stage] else PREDICTIONS) in output, output
            if refused and name in READS[stage]:
                assert f"{name}, row {refused[0]}: {refused[1]} must be " in output, output


def test_campaign_as_written_is_accepted(texts):
    assert [code for _, code, _ in stage_results(texts)] == [0, 0, 0]


CSV_GARBLES = ("truncated row", "truncated file", "non-numeric cell", "non-finite cell", "duplicate column",
               "repeated header", "swapped rows")
CELL_GARBLES = ("non-numeric cell", "non-finite cell")
NON_FINITE = ("nan", "NaN", "inf", "-inf", "1e999")
FLAG_COLUMN = 4  # the dataset's post_gap_flag, which must read 0 or 1


def garbled_cell(text: str, row: int, col: int) -> tuple[int, str]:
    """The data row, counted from 1, and the header's column of the cell garble_csv garbles at row, col."""
    lines = text.splitlines()
    header = lines[0].split(", ")
    return 1 + row % (len(lines) - 1), header[col % len(header)]


def swapped_row(text: str, row: int) -> int:
    """The data row, counted from 1, that garble_csv's swapped rows swaps with the row before it."""
    return 2 + row % (len(text.splitlines()) - 2)


def garble_csv(text: str, kind: str, row: int, col: int, junk: str) -> str:
    lines = text.splitlines()
    k = 1 + row % (len(lines) - 1)  # a data row
    cells = lines[k].split(", ")
    j = col % len(cells)
    if kind == "truncated row":
        lines[k] = lines[k][: row % len(lines[k])]
    elif kind == "truncated file":
        return text[: row % len(text)]
    elif kind == "non-numeric cell":
        cells[j] = junk or "x"
        lines[k] = ", ".join(cells)
    elif kind == "non-finite cell":
        cells[j] = NON_FINITE[row % len(NON_FINITE)]
        lines[k] = ", ".join(cells)
    elif kind == "swapped rows":
        k = swapped_row(text, row)
        lines[k - 1], lines[k] = lines[k], lines[k - 1]
    elif kind == "duplicate column":
        header = lines[0].split(", ")
        header[j] = header[(j + 1) % len(header)]
        lines[0] = ", ".join(header)
    else:
        lines.insert(k, lines[0])
    return "\n".join(lines) + "\n"


@given(
    name=st.sampled_from([DATASET, SAMPLES]),
    kind=st.sampled_from(CSV_GARBLES),
    row=st.integers(0, 10_000),
    col=st.integers(0, 10),
    junk=st.text(alphabet="abc ;:_", max_size=5),
)
@example(name=DATASET, kind="non-finite cell", row=0, col=1, junk="")
@example(name=DATASET, kind="swapped rows", row=3, col=0, junk="")
@settings(max_examples=80, deadline=None)
def test_garbled_table(texts, name, kind, row, col, junk):
    # no cell other than 0 or 1 is a post_gap_flag, no non-finite cell is a number, time or flag
    # that either file accepts, and no valid time may come before the row above it
    swapped = name == DATASET and kind == "swapped rows"
    must_refuse = swapped or kind == "non-finite cell" or (
        name == DATASET and kind == "non-numeric cell" and col % 5 == FLAG_COLUMN)
    # a refused cell, or the valid time of the later row swapped, is named by its row and column
    refused = garbled_cell(texts[name], row, col) if kind in CELL_GARBLES else None
    if swapped:
        refused = (swapped_row(texts[name], row), "valid_time_utc")
    run_stages(texts, name, garble_csv(texts[name], kind, row, col, junk), codes=(2,) if must_refuse else (0, 2, 3),
               refused=refused)


@pytest.fixture(scope="module")
def predicted(texts):
    """The campaign's files and the predictions file predict writes from them."""
    with tempfile.TemporaryDirectory() as tmp:
        manifest = write_campaign(tmp, texts)
        assert invoke(["predict", "--manifest", str(manifest)]).exit_code == 0
        return {**texts, PREDICTIONS: (manifest.parent / "out" / PREDICTIONS).read_text()}


@given(
    kind=st.sampled_from(CSV_GARBLES),
    row=st.integers(0, 10_000),
    col=st.integers(0, 10),
    junk=st.text(alphabet="abc ;:_", max_size=5),
)
@settings(max_examples=60, deadline=None)
def test_garbled_predictions(predicted, kind, row, col, junk):
    # score reads no samples, so the predictions file is the one input it trusts predict for
    garbled = garble_csv(predicted[PREDICTIONS], kind, row, col, junk)
    refused = garbled_cell(predicted[PREDICTIONS], row, col) if kind in CELL_GARBLES else None
    run_stages(predicted, PREDICTIONS, garbled, codes=(0, 2), stages=("score",), refused=refused)


NOT_OBJECTS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=5), st.lists(st.integers(), max_size=3)
)


def stage_outputs(files: dict[str, str]) -> tuple[list[int], dict[str, bytes]]:
    """The exit codes of predict, score and diagnose run in order on a campaign
    of files (name -> text), and the bytes of every file in out/ after them."""
    with tempfile.TemporaryDirectory() as tmp:
        manifest = write_campaign(tmp, files)
        codes = [invoke([stage, "--manifest", str(manifest)]).exit_code for stage in STAGES]
        return codes, {p.name: p.read_bytes() for p in (manifest.parent / "out").iterdir()}


@pytest.fixture(scope="module")
def intact_outputs(texts):
    codes, outputs = stage_outputs(texts)
    assert codes == [0, 0, 0]
    return outputs


@given(
    kind=st.sampled_from(["invalid JSON", "not an object", "fields of the wrong type", "nested too deeply"]),
    cut=st.integers(0, 10_000),
    value=NOT_OBJECTS,
)
@example(kind="nested too deeply", cut=0, value=None)  # json's decoder raised RecursionError
@example(kind="not an object", cut=0, value=[])
@example(kind="invalid JSON", cut=10_000, value=None)
@settings(max_examples=40, deadline=None)
def test_garbled_sidecar(texts, intact_outputs, kind, cut, value):
    if kind == "invalid JSON":
        text = texts[SIDECAR]
        garbled = text[: cut % len(text.rstrip())]  # every proper prefix of the object is invalid
    elif kind == "not an object":
        garbled = json.dumps(value)
    elif kind == "nested too deeply":
        garbled = "[" * 100_000 + "]" * 100_000
    else:
        garbled = json.dumps({"acceptance_rate": value, "parameters": value, "sampler": value})
    codes, outputs = stage_outputs({**texts, SIDECAR: garbled})
    assert codes == [0, 0, 0]
    assert outputs == {**intact_outputs, SIDECAR: garbled.encode()}


RAO, SPECTRA = reads("response")


@pytest.fixture(scope="module")
def response_texts():
    """The text of a valid RAO file and of three hours of spectra."""
    start = np.datetime64("2024-06-01T00:00:00", "s")
    scenario = SwellScenario(start=start, duration_h=3, events=(SwellEvent(arrival_h=1, hs=2.0, tp=14.0),))
    with tempfile.TemporaryDirectory() as tmp:
        write_rao(Path(tmp) / RAO, reference_rao())
        write_spectra(Path(tmp) / SPECTRA, generate_spectra(scenario))
        return {name: (Path(tmp) / name).read_text() for name in (RAO, SPECTRA)}


def response_result(files: dict[str, str]) -> tuple[int, str]:
    """(exit code, output) of response run on an RAO and a spectra file (name -> text)."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            (Path(tmp) / name).write_text(text)
        manifest = Path(tmp) / "run.json"
        manifest.write_text(json.dumps({"out_dir": "out", "rao_file": RAO, "spectra_file": SPECTRA}))
        result = invoke(["response", "--manifest", str(manifest)])
    return result.exit_code, result.output


def test_response_inputs_as_written_are_accepted(response_texts):
    assert response_result(response_texts)[0] == 0


@given(
    name=st.sampled_from([RAO, SPECTRA]),
    kind=st.sampled_from(CSV_GARBLES),
    row=st.integers(0, 100_000),
    col=st.integers(0, 10),
    junk=st.text(alphabet="abc ;:_", max_size=5),
)
@settings(max_examples=80, deadline=None)
def test_garbled_response_input(response_texts, name, kind, row, col, junk):
    garbled = garble_csv(response_texts[name], kind, row, col, junk)
    code, output = response_result({**response_texts, name: garbled})
    assert code in (0, 2, 3), (code, output)
    assert "Traceback" not in output
    if code == 2:
        assert output.startswith("error: "), output
        assert name in output, output
