"""Child-side helpers of the benchmark; each prints one JSON object.

    python3 bench/probe.py env
        The library versions and BLAS thread count the measured stages run
        with. It runs outside every timed span.

    python3 bench/probe.py check MANIFEST
        Recompute, at full precision and with heavecast's own functions, the
        per-horizon CRPS and RMSE that `heavecast score` rounds into
        scores.csv, from the artifacts the pipeline left in out_dir.
"""

from __future__ import annotations

import ctypes
import json
import platform
import sys
from importlib import metadata
from pathlib import Path


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, when it can be asked."""
    import numpy  # noqa: F401  (loads the BLAS library)

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def env() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "click": metadata.version("click"),
        "blas_threads": blas_threads(),
    }


def check(manifest: str) -> dict:
    """Rebuild score's inputs as `heavecast score` does and score them with score_table."""
    import numpy as np

    from heavecast import datasets, io, model, sampler, scoring

    m = io.RunManifest.load(Path(manifest))
    label = f"{m.model_kind} adjustment"
    models: dict = {label: {}, "raw physics": {}}
    obs, rows = {}, {}
    for h in m.horizons:
        ds = io.read_horizon_dataset(m.out_dir / f"dataset_h{h:03d}.csv", h)
        train, test = datasets.chrono_split(ds, m.train_fraction)
        samples = io.read_posterior_samples(m.out_dir / f"samples_{m.model_kind}_h{h:03d}.csv")
        spec = model.ModelSpec(kind=m.model_kind, horizon=h)
        dists = model.posterior_predictive(samples, test, spec, seed=m.seed + 1000 + h, context=train)
        models[label][h] = np.stack([d.draws for d in dists])
        models["raw physics"][h] = test.x
        obs[h] = test.y
        rows[str(h)] = {"train_rows": len(train), "test_rows": len(test)}
    for r in scoring.score_table(models, obs, list(m.horizons)):
        rows[str(r.horizon)][r.model_label] = {"crps": r.crps_mean, "rmse": r.rmse}
    return {"rhat_limit": sampler.SamplerConfig(**m.sampler).rhat_limit, "horizons": rows}


if __name__ == "__main__":
    command, *rest = sys.argv[1:]
    print(json.dumps(env() if command == "env" else check(*rest)))
