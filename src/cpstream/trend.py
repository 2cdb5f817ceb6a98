"""Direction-of-change labelling from exponential moving averages.

The raw series is smoothed by a fast and a slow EMA; their difference
(MACD) tracks the local slope, and subtracting the MACD's own short EMA
yields the indicator used here: positive means the level is accelerating
upward. The interval form sums the indicator over a short window after a
change point, which is more robust than the single-point value.

The indicator is computed by one fused recursion (:class:`TrendMemo`), the
same IEEE operations as ``ema(x, p2) - ema(x, p3)`` followed by
``line - ema(line, p1)``. A :class:`TrendMemo` passed to
:func:`trend_interval` keeps the indicator of the prefix seen so far, so a
caller labelling the growing prefixes of one stream computes each sample's
value once.
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
    "TrendMemo",
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


def _ema_weights(p: int) -> tuple[float, float]:
    """Weights of the new sample and of the previous EMA value, for lag p."""
    return 2.0 / (p + 1), (p - 1.0) / (p + 1)


def ema(s: SeriesLike, p: int, dim: int = 1) -> np.ndarray:
    """Exponential moving average with lag p, seeded with the first sample.

    EMA(1) = X_1 and EMA(n) = (2 / (p+1)) X_n + ((p-1) / (p+1)) EMA(n-1);
    p = 1 reproduces the series unchanged.
    """
    if p < 1:
        raise ValueError("lag p must be at least 1")
    x = _as_1d(s, dim)
    gain, keep = _ema_weights(p)
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


def _lags(params: MacdParams) -> tuple[int, int, int]:
    return (params.p1, params.p2, params.p3)


class TrendMemo:
    """The indicator of a stream's prefix, and the three EMA values after it.

    It is bound to the lags of ``params`` and to ``dim``: :func:`trend_interval`
    raises ``ValueError`` for a memo of other lags or another dimension. The
    interval half-window ``params.h`` only picks which values are summed, so
    it is not part of the binding. Share one memo only between series that hold the same samples
    at the same indices, such as the growing prefixes of one stream. It
    stores 8 bytes per sample it has seen, in one float64 buffer that
    doubles when it fills, and lives as long as the caller keeps it.
    """

    def __init__(self, params: MacdParams, dim: int = 1) -> None:
        self.lags = _lags(params)
        self.dim = dim
        self.size = 0  # samples whose indicator is known
        self._ti = np.empty(64)  # ti of sample n is entry n - 1; entries from size on are unfilled
        self._emas = (0.0, 0.0, 0.0)  # fast, slow and signal EMA after sample `size`

    def indicator(self, x: np.ndarray, stop: int) -> np.ndarray:
        """Indicator values of samples 1..stop, a view into the memo.

        ``x`` is the stream's column ``dim`` (1-D). The memo is extended over
        its samples past the memo's end, up to ``stop``; the samples it
        already holds are not read again.
        """
        if stop > self.size:
            self._extend(x[self.size : stop].tolist())
        return self._ti[:stop]

    def _extend(self, values: list[float]) -> None:
        (g1, k1), (g2, k2), (g3, k3) = map(_ema_weights, self.lags)
        out = []
        if self.size == 0:
            # sample 1 seeds every EMA: the fast and slow ones with x_1, the
            # signal with the first MACD value, so its indicator is 0
            fast = slow = values[0]
            line = fast - slow
            signal = line
            out.append(line - signal)
            values = values[1:]
        else:
            fast, slow, signal = self._emas
        # over Python floats, the operations of ema() on each of the three series
        for v in values:
            fast = g2 * v + k2 * fast
            slow = g3 * v + k3 * slow
            line = fast - slow
            signal = g1 * line + k1 * signal
            out.append(line - signal)
        start, stop = self.size, self.size + len(out)
        if stop > len(self._ti):
            grown = np.empty(max(stop, 2 * len(self._ti)))
            grown[:start] = self._ti[:start]
            self._ti = grown
        self._ti[start:stop] = out
        self._emas = (fast, slow, signal)
        self.size = stop


def trend_series(s: SeriesLike, params: MacdParams, dim: int = 1) -> np.ndarray:
    """Indicator series: MACD minus its own p1-lag EMA."""
    x = _as_1d(s, dim)
    return TrendMemo(params, dim).indicator(x, x.shape[0]).copy()


def trend_point(s: SeriesLike, n: int, params: MacdParams, dim: int = 1) -> TrendVerdict:
    """Direction verdict from the indicator value at index n (1-based)."""
    x = _as_1d(s, dim)
    if not 1 <= n <= x.shape[0]:
        raise ValueError(f"index {n} out of range 1..{x.shape[0]}")
    value = float(TrendMemo(params, dim).indicator(x, n)[n - 1])
    return TrendVerdict(
        value=value,
        direction=Direction.UP if value > 0 else Direction.DOWN,
        mode=TrendMode.POINT,
        at_index=n,
    )


def trend_interval(
    s: SeriesLike,
    cp_index: int,
    params: MacdParams,
    dim: int = 1,
    memo: TrendMemo | None = None,
) -> TrendVerdict:
    """Direction verdict from the indicator summed over [cp_index, cp_index + h].

    The window must fit inside the series; h = 0 reduces to the point form.
    Only samples up to cp_index + h are read. ``memo`` keeps the indicator
    between calls (see :class:`TrendMemo`); without one the call uses a
    fresh memo.
    """
    x = _as_1d(s, dim)
    n = x.shape[0]
    if not 1 <= cp_index <= n:
        raise ValueError(f"index {cp_index} out of range 1..{n}")
    stop = cp_index + params.h
    if stop > n:
        raise ValueError(f"interval [{cp_index}, {stop}] runs past the series end {n}")
    if memo is None:
        memo = TrendMemo(params, dim)
    elif (memo.lags, memo.dim) != (_lags(params), dim):
        raise ValueError(
            f"memo holds the indicator for lags {memo.lags} of dimension {memo.dim}, "
            f"asked for lags {_lags(params)} of dimension {dim}"
        )
    ti = memo.indicator(x, stop)
    value = float(np.sum(ti[cp_index - 1 : stop]))
    return TrendVerdict(
        value=value,
        direction=Direction.UP if value > 0 else Direction.DOWN,
        mode=TrendMode.INTERVAL,
        at_index=cp_index,
    )
