"""Stage-by-stage benchmark of the heavecast pipeline.

    python3 bench/run.py --workload readme-hybrid --seed 1 --seconds 10 --trace 0

Run it from the repository root. For one workload it generates the inputs
from the seed, then runs the six CLI stages (simulate, build, fit, predict,
score, diagnose) one after another, each as a child process of this script:
a closed loop with one client and no concurrency. The program is run from
`src/` through PYTHONPATH, so nothing needs installing.

--trace 0 repeats the pipeline (plus `heavecast --help`, STARTUPS times)
until --seconds have passed, at least once, and reports the end-to-end
metrics: the median time of the whole pipeline, of fit and of the other five
stages together, start-up, set-up, peak RSS, R-hat and the forecast scores
relative to the raw physics forecast. --trace 1 runs the pipeline once
untraced and once with every stage wrapped by tracer.py, and reports the
per-layer metrics.

The end-to-end times are wall times scaled to a reference host speed: the
driver pins itself and its children to one CPU and samples a calibration
kernel on that CPU while each child runs (see speed.py). The raw wall times
and each child's speed factor are printed and kept in result.json.

Every run checks the outputs (exit codes, artifact set, scores recomputed
at full precision, R-hat against the manifest limit, out_dir identical
across runs of one seed); each failed check counts in `failed`, and the run
still reports. The last stdout line is the JSON result; the lines before it
give every metric with its unit, fail_ratio, the machine and the inputs.
Metric names and units come from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
import speed
import workloads
from workloads import STAGES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_DEADLINE_S = 170.0  # the whole run must exit within 180 s
SETUPS = 3
STARTUPS = 3


@dataclasses.dataclass(frozen=True)
class Child:
    wall_s: float
    cpu_s: float
    code: int
    maxrss_mb: float
    stderr: str
    start: float = 0.0  # perf_counter when the child was started
    speed: float = 1.0  # host speed factor over the child's run (speed.py)

    @property
    def scaled_s(self) -> float:
        """Wall time at the reference host speed."""
        return self.wall_s * self.speed


def run_child(argv: list[str], log: Path, env: dict, cwd: Path, timeout: float) -> Child:
    """Run argv to completion, timing it and reading its peak RSS via wait4."""
    log.parent.mkdir(parents=True, exist_ok=True)
    err_path = log.with_name(log.name + ".err")
    with open(log.with_name(log.name + ".out"), "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        watchdog = threading.Timer(max(timeout, 0.1), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return Child(wall, cpu, proc.returncode, usage.ru_maxrss / 1024.0, err_path.read_text(errors="replace"), start)


class Ledger:
    """Attempted and failed stage runs and output checks of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {detail}".rstrip(": "))
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


class Runner:
    """Starts the children of one run against a shared deadline."""

    def __init__(self, work: Path, ledger: Ledger, deadline: float, speedometer: speed.Speedometer | None = None):
        self.work = work
        self.ledger = ledger
        self.deadline = deadline
        self.speedometer = speedometer
        self.python = sys.executable
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)

    def child(self, tag: str, argv: list[str]) -> Child | None:
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            self.ledger.check(tag, False, "run deadline reached before start")
            return None
        result = run_child(argv, self.work / "logs" / tag, self.env, self.work, remaining)
        if self.speedometer is not None:
            factor = self.speedometer.speed_factor(result.start, result.start + result.wall_s)
            result = dataclasses.replace(result, speed=factor)
        tail = result.stderr.strip().splitlines()[-1:] or [""]
        self.ledger.check(tag, result.code == 0, f"exit {result.code} {tail[0]}")
        return result

    def stage_argv(self, stage: str, manifest: Path, trace_to: Path | None = None) -> list[str]:
        if stage == "startup":
            return [self.python, "-m", "heavecast.cli", "--help"]
        if trace_to is None:
            return [self.python, "-m", "heavecast.cli", stage, "-m", str(manifest)]
        run_id = f"{self.work.name}-{os.getpid()}"
        return [self.python, str(BENCH / "tracer.py"), str(trace_to), run_id, stage, "-m", str(manifest)]

    def startups(self, tag: str, manifest: Path) -> list[Child]:
        """`heavecast --help` STARTUPS times; the children that ran."""
        runs = (self.child(f"{tag}.startup{i}", self.stage_argv("startup", manifest)) for i in range(STARTUPS))
        return [c for c in runs if c is not None]

    def pipeline(self, inputs, manifest: Path, tag: str, trace_dir: Path | None = None):
        """One pass over the stages; returns {stage: Child} for those that ran."""
        out_dir = manifest.parent / inputs.manifest["out_dir"]
        shutil.rmtree(out_dir, ignore_errors=True)
        ran = {}
        for stage in STAGES:
            trace_to = trace_dir / f"{stage}.json" if trace_dir else None
            child = self.child(f"{tag}.{stage}", self.stage_argv(stage, manifest, trace_to))
            if child is not None:
                ran[stage] = child
            if stage == "simulate" and (out_dir / "measurements.csv").exists():
                workloads.apply_outages(out_dir / "measurements.csv", inputs.outage_hours)
        missing = [n for n in workloads.expected_artifacts(inputs) if not (out_dir / n).is_file()]
        issues = len(list((out_dir / "issues").glob("issue_*.csv")))
        expected = workloads.expected_issue_files(inputs)
        self.ledger.check(f"{tag}.artifacts", not missing and issues == expected,
                          f"missing {missing[:3]}, {issues}/{expected} issue files")
        return ran


def tree_digest(path: Path, pattern: str = "*") -> str:
    """Digest of the names and contents of the files under path."""
    digest = hashlib.sha256()
    for f in sorted(p for p in path.rglob(pattern) if p.is_file()):
        digest.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes() + b"\0")
    return digest.hexdigest()


def machine_info(versions: dict) -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True).stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        **versions,
        "git_commit": commit,
        "src_sha256": tree_digest(ROOT / "src", "*.py"),
    }


def read_scores_csv(path: Path) -> dict:
    """{(model label, horizon): (rmse, crps)} as printed, 3 decimals; {} if unreadable."""
    try:
        header, *lines = path.read_text().splitlines()
        col = {name.strip(): i for i, name in enumerate(header.split(","))}
        rows = {}
        for line in lines:
            cells = [c.strip() for c in line.split(",")]
            key = (cells[col["model"]], int(cells[col["horizon_h"]]))
            rows[key] = (float(cells[col["rmse_m"]]), float(cells[col["crps_m"]]))
        return rows
    except (OSError, ValueError, KeyError, IndexError):
        return {}


def last_json_line(path: Path) -> dict | None:
    """The JSON object a child printed last, or None if it printed none."""
    lines = path.read_text(errors="replace").splitlines() if path.is_file() else []
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def check_outputs(ledger: Ledger, inputs, manifest: Path, check_doc: dict | None) -> dict:
    """Quality figures from the artifacts, each compared against its limit.

    heavecast's fit itself refuses to write samples whose R-hat exceeds the
    manifest's rhat_limit: it exits 3 with "chains not converged", which the
    stage's exit check records with that message. The max_rhat check here
    therefore only fails if that gate is ever taken out of the program.
    """
    out_dir = manifest.parent / inputs.manifest["out_dir"]
    kind = inputs.model_kind
    quality: dict = {}
    rhats, min_ess, sidecars = [], [], {}
    for h in inputs.horizons:
        try:
            params = json.loads((out_dir / f"samples_{kind}_h{h:03d}.csv.diag.json").read_text())["parameters"]
            worst, fewest = max(p["rhat"] for p in params.values()), min(p["ess"] for p in params.values())
        except (OSError, ValueError, KeyError):
            continue  # counted below as missing quality figures
        rhats.append(worst)
        min_ess.append(fewest)
        sidecars[str(h)] = params
    if check_doc is None or len(rhats) != len(inputs.horizons):
        ledger.check("quality", False, "artifacts missing; scores not recomputed")
        return quality
    quality["max_rhat"] = max(rhats)
    quality["sum_min_ess"] = sum(min_ess)
    ledger.check("max_rhat within rhat_limit", quality["max_rhat"] <= check_doc["rhat_limit"],
                 f"{quality['max_rhat']} > {check_doc['rhat_limit']}")
    printed = read_scores_csv(out_dir / "scores.csv")
    label = f"{kind} adjustment"
    for h_key, per_h in check_doc["horizons"].items():
        for model in (label, "raw physics"):
            full = per_h[model]
            shown = printed.get((model, int(h_key)))
            for i, name in enumerate(("rmse", "crps")):
                ok = shown is not None and abs(full[name] - shown[i]) <= 0.0005 + 1e-9
                ledger.check(f"scores.csv {model} h={h_key} {name}", ok, f"full {full[name]} vs printed {shown}")
    per_h = check_doc["horizons"].values()
    for name in ("crps", "rmse"):
        quality[f"{name}_m"] = statistics.fmean(v[label][name] for v in per_h)
        quality[f"{name}_ratio"] = statistics.fmean(v[label][name] / v["raw physics"][name] for v in per_h)
    quality["rows"] = {h: {"train": v["train_rows"], "test": v["test_rows"]} for h, v in check_doc["horizons"].items()}
    quality["horizons"] = {h: {**v, "diagnostics": sidecars[h]} for h, v in check_doc["horizons"].items()}
    return quality


def check_determinism(ledger: Ledger, key: str, digests: list[str], store: Path) -> None:
    """out_dir must hash the same in every pass of a run and in every run of one seed, inputs and code.

    The first clean run of a key stores its digest; later runs compare to it.
    """
    if len(digests) > 1:
        ledger.check("out_dir identical across passes", len(set(digests)) == 1, f"{len(set(digests))} digests")
    known = json.loads(store.read_text()) if store.is_file() else {}
    if key in known:
        ledger.check("out_dir identical to an earlier run", known[key] == digests[0])
    elif ledger.failed == 0:
        known[key] = digests[0]
        store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


NONFIT = tuple(st for st in STAGES if st != "fit")


def end_to_end_metrics(reps: list[dict], startups: list[Child], setup_s: list[float], quality: dict) -> dict:
    """Medians over the passes of one run, of times at the reference host speed.

    Stages other than fit last 2-7 s each, and on a shared 2-core host their
    single walls spread by up to a third between runs; their sum
    (nonfit_stages_s) spreads about as little as fit_s. Each stage's own wall
    is a per-layer metric (cli.<stage>.wall_s).
    """

    def median_of(times):
        times = list(times)
        return statistics.median(times) if times else None

    full = [r for r in reps if all(st in r for st in STAGES)]
    m = {
        "pipeline_s": median_of(sum(r[st].scaled_s for st in STAGES) for r in full),
        "fit_s": median_of(r["fit"].scaled_s for r in reps if "fit" in r),
        "nonfit_stages_s": median_of(sum(r[st].scaled_s for st in NONFIT) for r in full),
        "startup_s": median_of(c.scaled_s for c in startups),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": max((r[st].maxrss_mb for r in reps for st in STAGES if st in r), default=None),
    }
    for key in ("max_rhat", "crps_ratio", "rmse_ratio"):
        m[key] = quality.get(key)
    return m


def result_line(ledger: Ledger, metrics: dict, units: dict) -> dict:
    return {
        "correct": ledger.failed == 0,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics.get(name), "unit": unit} for name, unit in units.items()},
    }


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Pin to one CPU, then measure with the speedometer sampling that CPU."""
    nproc = len(os.sched_getaffinity(0))
    cpu = speed.pin_to_one_cpu()
    with speed.Speedometer() as meter:
        record = measure(workload, seed, seconds, trace, meter)
    record["machine"].update(nproc=nproc, pinned_cpu=cpu)
    record["machine"]["kernel_s"] = {"reference": speed.REF_KERNEL_S, "samples": len(meter.samples),
                                     "mean": meter.kernel_s(0.0, math.inf)}
    (ROOT / ".bench_work" / workload / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def child_record(c: Child) -> dict:
    return {"wall_s": c.wall_s, "scaled_s": c.scaled_s, "speed": c.speed, "cpu_s": c.cpu_s,
            "maxrss_mb": c.maxrss_mb, "code": c.code}


def measure(workload: str, seed: int, seconds: float, trace: int, meter: speed.Speedometer) -> dict:
    t_start = time.perf_counter()
    units = load_spec()[trace]
    make_inputs = workloads.WORKLOADS[workload]
    bench_root = ROOT / ".bench_work"
    work = bench_root / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ledger = Ledger()
    runner = Runner(work, ledger, t_start + RUN_DEADLINE_S, meter)

    # set-up, several times from cold: drop heavecast's bytecode cache, write
    # the inputs, and import heavecast.cli once untimed by the stages, which
    # refills the cache; each set-up does what the first one in a fresh
    # checkout does
    setup_s = []
    for i in range(SETUPS):
        t0 = time.perf_counter()
        shutil.rmtree(ROOT / "src" / "heavecast" / "__pycache__", ignore_errors=True)
        inputs = make_inputs(seed)
        manifest = inputs.write(work)
        runner.child(f"setup{i}", [runner.python, "-c", "import heavecast.cli"])
        t1 = time.perf_counter()
        setup_s.append((t1 - t0) * meter.speed_factor(t0, t1))
    runner.child("env", [runner.python, str(BENCH / "probe.py"), "env"])
    versions = last_json_line(work / "logs" / "env.out") or {}

    out_dir = work / inputs.manifest["out_dir"]
    reps, startups, digests = [], [], []
    if trace:
        reps.append(runner.pipeline(inputs, manifest, "untraced"))
        digests.append(tree_digest(out_dir))
        trace_dir = work / "trace"
        trace_dir.mkdir()
        traced = runner.pipeline(inputs, manifest, "traced", trace_dir=trace_dir)
        digests.append(tree_digest(out_dir))
    else:
        loop_start = time.perf_counter()
        while not reps or time.perf_counter() - loop_start < seconds:
            rep_start = time.perf_counter()
            startups += runner.startups(f"pass{len(reps)}", manifest)
            reps.append(runner.pipeline(inputs, manifest, f"pass{len(reps)}"))
            digests.append(tree_digest(out_dir))
            now = time.perf_counter()
            if now + (now - rep_start) + 10.0 > runner.deadline:  # leave time for the checks
                break

    runner.child("check", [runner.python, str(BENCH / "probe.py"), "check", str(manifest)])
    check_doc = last_json_line(work / "logs" / "check.out")
    quality = check_outputs(ledger, inputs, manifest, check_doc)
    inputs_digest = hashlib.sha256(json.dumps([inputs.manifest, inputs.outage_hours], sort_keys=True).encode())
    digest_key = f"{workload}/{seed}/{platform.python_version()}/{inputs_digest.hexdigest()[:16]}/" + tree_digest(
        ROOT / "src", "*.py")
    check_determinism(ledger, digest_key, digests, bench_root / "out_dir_digests.json")

    if trace:
        docs = {}
        for stage in STAGES:
            doc = last_json_line(trace_dir / f"{stage}.json")
            if ledger.check(f"trace document {stage}", doc is not None, "missing or unreadable"):
                docs[stage] = doc
        interp = [runner.child(f"interpreter{i}", [runner.python, "-c", "pass"]) for i in range(3)]
        importtime = runner.child("importtime", [runner.python, "-X", "importtime", "-c", "import heavecast.cli"])
        metrics = {}
        if ledger.failed == 0:  # per-layer figures need every stage, probe and check
            metrics = layers.layer_metrics(
                docs,
                statistics.median(c.wall_s for c in interp),
                importtime.stderr,
                {st: c.scaled_s for st, c in traced.items()},
                {st: c.scaled_s for st, c in reps[0].items()},
                quality,
            )
    else:
        metrics = end_to_end_metrics(reps, startups, setup_s, quality)

    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "passes": len(reps),
        "children": [{st: child_record(c) for st, c in rep.items()} for rep in reps],
        "startups": [child_record(c) for c in startups],
        "setup_s": setup_s,
        "machine": machine_info(versions),
        "inputs": {
            "hours": inputs.manifest["scenario"]["duration_h"],
            "horizons": inputs.horizons,
            "model_kind": inputs.model_kind,
            "sampler": inputs.manifest["sampler"],
            "swell_events": len(inputs.manifest["scenario"]["events"]),
            "outage_hours": len(inputs.outage_hours),
            "rows_per_horizon": quality.get("rows"),
        },
        "quality": quality.get("horizons"),
        "fail_ratio": ledger.failed / max(ledger.attempted, 1),
        "failures": ledger.failures,
        "result": result_line(ledger, metrics, units),
    }
    return record


def report(record: dict) -> None:
    print(f"machine: {json.dumps(record['machine'], sort_keys=True)}")
    print(f"inputs: {json.dumps(record['inputs'], sort_keys=True)}")
    print(f"{record['workload']} seed {record['seed']}, trace {record['trace']}, {record['passes']} pass(es)")
    for name, m in record["result"]["metrics"].items():
        print(f"  {name:<40} {m['value']!s:>24} {m['unit']}")
    for i, rep in enumerate(record["children"]):
        walls = ", ".join(f"{st} {c['wall_s']:.3f} s x {c['speed']:.3f}" for st, c in rep.items())
        print(f"  pass {i} raw wall x speed factor: {walls}")
    res = record["result"]
    print(f"  {'fail_ratio':<40} {record['fail_ratio']:>24} ratio ({res['failed']}/{res['attempted']})")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    print("note: heavecast.motion has no workload; no CLI command reaches it until `heavecast reduce` exists")
    print(json.dumps(res))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    missing = [p for p in ("src/heavecast/cli.py", "BENCHMARK.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}; nothing to measure", file=sys.stderr)
        return 2
    # a terminated driver unwinds like an interrupted one: the running child
    # is killed and reaped (run_child) and the speedometer thread is joined
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    report(run(args.workload, args.seed, args.seconds, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
