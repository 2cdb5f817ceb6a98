"""Direction-of-change labelling from exponential moving averages.

The raw series is smoothed by a fast and a slow EMA; their difference
(MACD) tracks the local slope, and subtracting the MACD's own short EMA
yields the indicator used here: positive means the level is accelerating
upward. The interval form sums the indicator over a short window after a
change point, which is more robust than the single-point value.

An EMA with lag p is seeded with its first input y_1 and then follows
E_n = (2 / (p + 1)) y_n + ((p - 1) / (p + 1)) E_(n-1). One recursion
(:class:`TrendMemo`) carries three of them over the samples x_n, for lags
p1 < p2 < p3:

    line_n = EMA_p2(x)_n - EMA_p3(x)_n,   ti_n = line_n - EMA_p1(line)_n,

so ti_1 = 0. A :class:`TrendMemo` passed to :func:`trend_interval` is that
recursion's cursor: it moves forward only and holds three floats, the EMA
values after the last sample it read, so a caller labelling windows that
follow one another along a stream computes each sample's value once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .timeseries import SeriesLike, as_matrix

__all__ = [
    "MacdParams",
    "Direction",
    "TrendVerdict",
    "TrendMemo",
    "trend_series",
    "trend_point",
    "trend_interval",
]

# samples trend_interval turns into Python floats at a time
_CHUNK = 4096


class Direction(str, Enum):
    UP = "up"
    DOWN = "down"


@dataclass(frozen=True)
class MacdParams:
    """EMA lags p1 < p2 < p3 and interval half-window h.

    p2/p3 are the fast/slow MACD lags, p1 smooths the MACD itself. p1 = 1
    would make the indicator identically zero and is rejected. The monitor
    takes h as an upper bound, cutting each label's window at its alarm;
    the ``trend`` command sums over the full interval.
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
    """Indicator value summed over a window from ``at_index``; its sign gives the direction.

    The direction is up exactly when the value is strictly positive, so a
    zero (or NaN) value reads down.
    """

    value: float
    at_index: int

    @property
    def direction(self) -> Direction:
        return Direction.UP if self.value > 0 else Direction.DOWN


def _as_1d(s: SeriesLike, dim: int) -> np.ndarray:
    mat = as_matrix(s)
    if not 1 <= dim <= mat.shape[1]:
        raise ValueError(f"dimension {dim} out of range 1..{mat.shape[1]}")
    return mat[:, dim - 1]


def _ema_weights(p: int) -> tuple[float, float]:
    """Weights of the new sample and of the previous EMA value, for lag p."""
    return 2.0 / (p + 1), (p - 1.0) / (p + 1)


def _lags(params: MacdParams) -> tuple[int, int, int]:
    return (params.p1, params.p2, params.p3)


class TrendMemo:
    """The EMA values after a stream's first ``size`` samples: three floats.

    A cursor that moves forward only: :func:`trend_interval` reads on from
    sample ``size + 1`` and raises ``ValueError`` for a window that starts
    at or before it, or for a memo of other lags or another ``dim`` (the
    half-window ``params.h`` is not bound). Share one memo only between
    series that hold the same samples at the same indices, such as the
    growing prefixes of one stream.
    """

    def __init__(self, params: MacdParams, dim: int = 1) -> None:
        self.lags = _lags(params)
        self.dim = dim
        self.size = 0  # samples read
        self._emas = (0.0, 0.0, 0.0)  # fast, slow and signal EMA after sample `size`

    def _extend(self, values: list[float]) -> list[float]:
        """The indicator of the next ``len(values)`` samples; the EMAs move past them."""
        (g1, k1), (g2, k2), (g3, k3) = map(_ema_weights, self.lags)
        out = []
        if self.size == 0 and values:
            # sample 1 seeds every EMA: the fast and slow ones with x_1, the
            # signal with the first MACD value, so its indicator is 0
            fast = slow = values[0]
            line = fast - slow
            signal = line
            out.append(line - signal)
            values = values[1:]
        else:
            fast, slow, signal = self._emas
        # one step of each EMA, over Python floats: the same IEEE operations
        # as over numpy scalars, without indexing one numpy scalar per step
        for v in values:
            fast = g2 * v + k2 * fast
            slow = g3 * v + k3 * slow
            line = fast - slow
            signal = g1 * line + k1 * signal
            out.append(line - signal)
        self._emas = (fast, slow, signal)
        self.size += len(out)
        return out


def trend_series(s: SeriesLike, params: MacdParams, dim: int = 1) -> np.ndarray:
    """Indicator series: MACD minus its own p1-lag EMA."""
    return np.array(TrendMemo(params, dim)._extend(_as_1d(s, dim).tolist()))


def trend_point(s: SeriesLike, n: int, params: MacdParams, dim: int = 1) -> TrendVerdict:
    """Direction verdict from the indicator value at index n (1-based).

    The interval form with h = 0: a sum over one element is that element.
    """
    return trend_interval(s, n, replace(params, h=0), dim)


def trend_interval(
    s: SeriesLike,
    cp_index: int,
    params: MacdParams,
    dim: int = 1,
    memo: TrendMemo | None = None,
) -> TrendVerdict:
    """Direction verdict from the indicator summed over [cp_index, cp_index + h].

    The window must fit inside the series; h = 0 reduces to the point form.
    Only samples up to cp_index + h are read, at most 4 096 at a time, so a
    label's memory does not grow with its distance from the memo's last
    sample. ``memo`` carries the EMAs from the last call's window end (see
    :class:`TrendMemo`), so its window must start after that end; without
    one the call uses a fresh memo.
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
    start = memo.size
    if cp_index <= start:
        raise ValueError(f"window starts at {cp_index}, not after the memo's {start} samples read")
    # the indicators of the window, out of each chunk of the gap
    window: list[float] = []
    for lo in range(start, stop, _CHUNK):
        ti = memo._extend(x[lo : min(lo + _CHUNK, stop)].tolist())
        window += ti[max(cp_index - 1 - lo, 0) :]
    return TrendVerdict(float(np.sum(window)), cp_index)
