"""Direction-of-change labelling from exponential moving averages.

The raw series is smoothed by a fast and a slow EMA; their difference
(MACD) tracks the local slope, and subtracting the MACD's own short EMA
yields the indicator used here: positive means the level is accelerating
upward. The interval form sums the indicator over a short window after a
change point, which is more robust than the single-point value.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .timeseries import SeriesLike, as_matrix

__all__ = [
    "MacdParams",
    "Direction",
    "TrendMode",
    "TrendVerdict",
    "ema",
    "macd",
    "trend_series",
    "trend_point",
    "trend_interval",
]


class Direction(str, Enum):
    UP = "up"
    DOWN = "down"


class TrendMode(str, Enum):
    POINT = "point"
    INTERVAL = "interval"


@dataclass(frozen=True)
class MacdParams:
    """EMA lags p1 < p2 < p3 and interval half-window h.

    p2/p3 are the fast/slow MACD lags, p1 smooths the MACD itself. p1 = 1
    would make the indicator identically zero and is rejected.
    """

    p1: int = 9
    p2: int = 12
    p3: int = 26
    h: int = 10

    def __post_init__(self) -> None:
        if self.p1 < 2:
            raise ValueError("p1 must be at least 2 (p1 = 1 collapses the indicator to zero)")
        if not self.p1 < self.p2 < self.p3:
            raise ValueError(f"lags must satisfy p1 < p2 < p3, got {self.p1}, {self.p2}, {self.p3}")
        if self.h < 0:
            raise ValueError("interval window h must be non-negative")


@dataclass(frozen=True)
class TrendVerdict:
    """Indicator value at (or summed after) an index, with its sign mapped to a direction."""

    value: float
    direction: Direction
    mode: TrendMode
    at_index: int

    def __post_init__(self) -> None:
        expected = Direction.UP if self.value > 0 else Direction.DOWN
        if self.direction is not expected:
            raise ValueError("direction must follow the strict ti > 0 rule")


def _as_1d(s: SeriesLike, dim: int) -> np.ndarray:
    mat = as_matrix(s)
    if not 1 <= dim <= mat.shape[1]:
        raise ValueError(f"dimension {dim} out of range 1..{mat.shape[1]}")
    return mat[:, dim - 1]


def ema(s: SeriesLike, p: int, dim: int = 1) -> np.ndarray:
    """Exponential moving average with lag p, seeded with the first sample.

    EMA(1) = X_1 and EMA(n) = (2 / (p+1)) X_n + ((p-1) / (p+1)) EMA(n-1);
    p = 1 reproduces the series unchanged.
    """
    if p < 1:
        raise ValueError("lag p must be at least 1")
    x = _as_1d(s, dim)
    gain = 2.0 / (p + 1)
    keep = (p - 1.0) / (p + 1)
    # over Python floats: the same IEEE operations as over numpy scalars,
    # without the cost of indexing one numpy scalar per step
    values = x.tolist()
    out = [values[0]]
    for v in values[1:]:
        out.append(gain * v + keep * out[-1])
    return np.array(out)


def macd(s: SeriesLike, p2: int, p3: int, dim: int = 1) -> np.ndarray:
    """Fast-minus-slow EMA difference; requires p2 < p3."""
    if not p2 < p3:
        raise ValueError(f"fast lag must be shorter than slow lag, got p2={p2}, p3={p3}")
    x = _as_1d(s, dim)
    return ema(x, p2) - ema(x, p3)


def trend_series(s: SeriesLike, params: MacdParams, dim: int = 1) -> np.ndarray:
    """Indicator series: MACD minus its own p1-lag EMA."""
    line = macd(s, params.p2, params.p3, dim)
    return line - ema(line, params.p1)


def trend_point(s: SeriesLike, n: int, params: MacdParams, dim: int = 1) -> TrendVerdict:
    """Direction verdict from the indicator value at index n (1-based)."""
    ti = trend_series(s, params, dim)
    if not 1 <= n <= ti.shape[0]:
        raise ValueError(f"index {n} out of range 1..{ti.shape[0]}")
    value = float(ti[n - 1])
    return TrendVerdict(
        value=value,
        direction=Direction.UP if value > 0 else Direction.DOWN,
        mode=TrendMode.POINT,
        at_index=n,
    )


def trend_interval(s: SeriesLike, cp_index: int, params: MacdParams, dim: int = 1) -> TrendVerdict:
    """Direction verdict from the indicator summed over [cp_index, cp_index + h].

    The window must fit inside the series; h = 0 reduces to the point form.
    """
    ti = trend_series(s, params, dim)
    n = ti.shape[0]
    if not 1 <= cp_index <= n:
        raise ValueError(f"index {cp_index} out of range 1..{n}")
    if cp_index + params.h > n:
        raise ValueError(
            f"interval [{cp_index}, {cp_index + params.h}] runs past the series end {n}"
        )
    value = float(np.sum(ti[cp_index - 1 : cp_index + params.h]))
    return TrendVerdict(
        value=value,
        direction=Direction.UP if value > 0 else Direction.DOWN,
        mode=TrendMode.INTERVAL,
        at_index=cp_index,
    )
