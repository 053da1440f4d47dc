"""One horizon's aligned (forecast, measurement) rows and their chronological split.

fit, predict, score and diagnose read a horizon dataset and split it, and
need nothing else of datasets, so these names live in this small module,
which those stages load without datasets. datasets exports HorizonDataset
and chrono_split as well; DEFAULT_HORIZONS, the manifest's default, is
exported only here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["HorizonDataset", "DEFAULT_HORIZONS", "chrono_split"]

HOUR = np.timedelta64(1, "h")

DEFAULT_HORIZONS: tuple[int, ...] = (0, 6, 12, 24, 48, 72, 96)


@dataclass(frozen=True, eq=False)
class HorizonDataset:
    """Time-aligned (forecast, measurement) pairs for one horizon.

    post_gap is worked out from the valid times: it marks the rows whose
    hourly predecessor is absent (the first row, and each row more than an
    hour after the row before), so lagged-residual terms must be reset there.
    """

    horizon: int
    valid_times: np.ndarray  # datetime64[s]
    x: np.ndarray  # forecast sig-heave (m)
    y: np.ndarray  # measured sig-heave (m)
    issue_times: np.ndarray
    post_gap: np.ndarray = field(init=False)

    def __post_init__(self):
        vt = np.asarray(self.valid_times, dtype="datetime64[s]")
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        it = np.asarray(self.issue_times, dtype="datetime64[s]")
        if not (vt.shape == x.shape == y.shape == it.shape):
            raise ValueError("all row arrays must have equal length")
        if vt.size and np.any(np.diff(vt) <= np.timedelta64(0, "s")):
            raise ValueError("valid_times must be strictly increasing")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("x and y must be finite in every row")
        post_gap = np.ones(vt.size, dtype=bool)
        if vt.size:
            post_gap[1:] = np.diff(vt) != HOUR
        object.__setattr__(self, "valid_times", vt)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "issue_times", it)
        object.__setattr__(self, "post_gap", post_gap)

    def __len__(self) -> int:
        return self.valid_times.size

    def rows(self, sl: slice) -> "HorizonDataset":
        return HorizonDataset(
            horizon=self.horizon,
            valid_times=self.valid_times[sl],
            x=self.x[sl],
            y=self.y[sl],
            issue_times=self.issue_times[sl],
        )


def chrono_split(
    ds: HorizonDataset, train_fraction: float = 0.8
) -> tuple[HorizonDataset, HorizonDataset]:
    """Chronological train/test split: first ceil(fraction*N) rows train.

    Both parts must keep at least one row.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly inside (0, 1)")
    n = len(ds)
    if n < 10:
        raise ValueError(f"too few rows to split: {n} rows at horizon {ds.horizon}, at least 10 needed")
    k = int(np.ceil(train_fraction * n))
    if k >= n:
        raise ValueError(
            f"train_fraction {train_fraction} leaves no test row of the {n} rows at horizon {ds.horizon}"
        )
    return ds.rows(slice(0, k)), ds.rows(slice(k, n))
