"""Integrated monitoring loop: pick a clean training window, watch, label, restart.

Each round works on the stream history up to the current origin m_s:

1. segment the history and take the stretch after the last change point as
   the training sample (the whole history when no change is found);
2. train the sequential detector on it and monitor the next ``window_k``
   samples;
3. on an alarm at stream index a, label the change direction with the
   interval trend indicator at a, emit a scale-up/scale-down event, and
   restart monitoring at a + quiet_gap_d;
4. on a quiet window, advance the origin to the window end and continue.

The history is one (capacity, d) float64 buffer with a fill count: each
sample is written into it once, as it is read, and the capacity doubles when
the buffer fills. A round copies the first m_s rows into the series it
segments, and a label reads the rows it needs from the buffer itself. The
buffer is not trimmed, so it grows with the stream. A NaN or infinite
sample is refused when it is read. On a one-column stream a float sample
(``np.float64`` included) is checked with ``math.isfinite`` and written
straight into the buffer, and the detector is fed each sample as a float;
every other sample goes through ``np.asarray``.

The rounds share one :func:`~cpstream.offline.segment` window memo, so no
window is tested twice in a stream; it grows by one entry per distinct
window and is dropped when the loop returns. The labels share one
:class:`~cpstream.trend.TrendMemo`, so each sample's MACD indicator is
computed once, up to the last labelled index + h; it holds 8 bytes per
sample and is dropped with the window memo. Both memos index the buffer
from sample 1: a loop that trims the buffer must drop or shift the windows
of the one and trim the indicator of the other to match, and a label at an
index before the alarm reads the indicator values the memo already holds.
The detector's critical value is asked for once per stream, at the first
round that trains.

The loop ends when the stream does. Replaying a recorded stream with the
same configuration reproduces the identical event list.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterable

import numpy as np

from .critvals import CritValProvider
from .errors import InsufficientTrainingError, NonFiniteSampleError
from .offline import DEFAULT_MIN_SEG, OfflineTestResult, segment
from .online import DetectorKind, step, train
from .timeseries import SeriesSegment, TimeSeries
from .trend import Direction, MacdParams, TrendMemo, TrendVerdict, trend_interval

__all__ = [
    "Action",
    "MonitorConfig",
    "ChangeEvent",
    "select_training",
    "run_monitor",
]

logger = logging.getLogger(__name__)

# rows of the first sample buffer; it doubles whenever it fills
_FIRST_CAPACITY = 1024


class Action(str, Enum):
    SCALE_UP = "scale-up"
    SCALE_DOWN = "scale-down"


@dataclass(frozen=True)
class MonitorConfig:
    """Knobs of the monitoring loop; ``critvals`` supplies critical values."""

    critvals: CritValProvider
    alpha: float = 0.05
    gamma: float = 0.0
    detector: DetectorKind = DetectorKind.STANDARD
    window_k: int = 200
    quiet_gap_d: int = 25
    macd: MacdParams = MacdParams()
    min_seg: int = DEFAULT_MIN_SEG
    m_min: int = 200
    trend_dim: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "detector", DetectorKind(self.detector))
        if self.window_k < 1:
            raise ValueError("window_k must be at least 1")
        if self.quiet_gap_d < 0:
            raise ValueError("quiet_gap_d must be non-negative")
        if self.m_min < 4:
            raise ValueError("m_min must be at least 4")
        if self.trend_dim < 1:
            raise ValueError(f"trend_dim must be at least 1, got {self.trend_dim}")


@dataclass(frozen=True)
class ChangeEvent:
    """A detected change: where, which direction, and the action it maps to."""

    detected_at: int
    direction: Direction
    action: Action
    trend: TrendVerdict
    training_used: tuple[int, int]

    def __post_init__(self) -> None:
        expected = Action.SCALE_UP if self.direction is Direction.UP else Action.SCALE_DOWN
        if self.action is not expected:
            raise ValueError("action must follow the change direction")


def select_training(
    history: TimeSeries,
    config: MonitorConfig,
    memo: dict[tuple[int, int], OfflineTestResult] | None = None,
) -> SeriesSegment:
    """Longest change-free suffix of the history, as the training window.

    Segments the whole history (histories shorter than one segmentable
    window count as change-free). With no change point the training window
    is the full history; otherwise it starts right after the last change
    point. A window shorter than ``m_min`` is extended leftward only when
    that crosses no change point; otherwise training is impossible here.
    ``memo`` is passed to :func:`~cpstream.offline.segment`; share one only
    between histories that hold the same samples at the same indices.
    """
    n = history.n_samples
    if n < config.m_min:
        raise ValueError(f"history of length {n} shorter than minimal training {config.m_min}")
    if n >= 2 * config.min_seg:
        cps = segment(history, config.alpha, config.critvals, config.min_seg, memo).cps
    else:
        cps = ()
    if not cps:
        return history.segment(1, n)
    lo = cps[-1] + 1
    if n - lo + 1 >= config.m_min:
        return history.segment(lo, n)
    extended_lo = n - config.m_min + 1
    if extended_lo >= 1 and all(cp < extended_lo for cp in cps):
        return history.segment(extended_lo, n)
    raise InsufficientTrainingError(
        f"only {n - lo + 1} samples after the last change point at {cps[-1]}, "
        f"need {config.m_min}"
    )


def run_monitor(
    stream: Iterable,
    config: MonitorConfig,
    on_event: Callable[[ChangeEvent], None] | None = None,
) -> list[ChangeEvent]:
    """Run the monitoring loop over a sample stream until it is exhausted.

    ``stream`` yields finite scalars or d-vectors, each as wide as the
    first. A sample of another width raises ``ValueError`` and a NaN or
    infinite one :class:`NonFiniteSampleError`, both naming the sample's
    1-based stream index, as soon as it is read; a ``trend_dim`` beyond
    the stream's width raises ``ValueError`` when sample 1 is read. At
    least ``m_min`` samples must arrive before the first window, and a
    shorter stream is logged and yields no events. Events are returned in
    stream order (and pushed to ``on_event`` as they happen). A window
    whose training selection fails is logged and skipped, advancing the
    origin by one window.
    """
    iterator = iter(stream)
    buf = np.empty((0, 0))  # sample n is row n - 1; rows from size on are unfilled
    size = 0

    def ensure(count: int) -> bool:
        nonlocal buf, size
        while size < count:
            try:
                x = next(iterator)
            except StopIteration:
                return False
            if isinstance(x, float) and size < len(buf) and buf.shape[1] == 1:
                # a float on a one-column stream skips the array round trip
                if not math.isfinite(x):
                    raise NonFiniteSampleError(f"sample {size + 1} is not finite: {[float(x)]}")
                buf[size, 0] = x
                size += 1
                continue
            row = np.asarray(x, dtype=float).reshape(-1)
            if size == 0:
                if config.trend_dim > row.shape[0]:
                    raise ValueError(
                        f"trend_dim {config.trend_dim} exceeds the stream's width "
                        f"{row.shape[0]} (set by sample 1)"
                    )
                buf = np.empty((_FIRST_CAPACITY, row.shape[0]))
            elif row.shape[0] != buf.shape[1]:
                raise ValueError(
                    f"sample {size + 1} has width {row.shape[0]}, "
                    f"but the stream's width is {buf.shape[1]} (set by sample 1)"
                )
            elif size == buf.shape[0]:
                buf = np.concatenate((buf, np.empty_like(buf)))
            # math.isfinite over a list costs a fraction of one numpy call
            if not all(map(math.isfinite, row.tolist())):
                raise NonFiniteSampleError(f"sample {size + 1} is not finite: {row.tolist()}")
            buf[size] = row
            size += 1
        return True

    if not ensure(config.m_min):
        logger.warning(
            "stream ended after %d samples, before the %d needed to train (m_min): "
            "nothing was monitored",
            size,
            config.m_min,
        )
        return []

    events: list[ChangeEvent] = []
    one_column = buf.shape[1] == 1
    # every round segments a prefix of the same buffer from sample 1, so a
    # window (w_lo, w_hi) names the same samples in every round
    memo: dict[tuple[int, int], OfflineTestResult] = {}
    trend_memo = TrendMemo(config.macd, config.trend_dim)
    online_cv = None  # the same request every round: asked for once
    origin = config.m_min
    while True:
        if not ensure(origin):
            break
        past = TimeSeries(buf[:origin].copy())
        try:
            training = select_training(past, config, memo)
        except InsufficientTrainingError as exc:
            logger.warning("skipping window at origin %d: %s", origin, exc)
            origin += config.window_k
            continue
        if online_cv is None:
            online_cv = config.critvals(
                config.detector.critval_kind, past.dim, config.alpha, config.gamma
            )
        state = train(training, config.detector, config.gamma, online_cv)

        alarm_at: int | None = None
        consumed = 0
        while consumed < config.window_k:
            if not ensure(origin + consumed + 1):
                break
            at = origin + consumed
            verdict = step(state, buf.item(at, 0) if one_column else buf[at])
            consumed += 1
            if verdict.alarm:
                alarm_at = origin + consumed
                break

        if alarm_at is None:
            if consumed < config.window_k:
                break  # stream ended inside the window
            origin += config.window_k
            continue

        # pull up to h post-alarm samples for the interval label; the stream
        # end clamps the window instead of blocking the loop
        ensure(alarm_at + config.macd.h)
        reachable_h = min(config.macd.h, size - alarm_at)
        # through the imported name, which the benchmark tracer rebinds
        verdict_trend = trend_interval(
            buf[:size],
            alarm_at,
            replace(config.macd, h=reachable_h),
            dim=config.trend_dim,
            memo=trend_memo,
        )
        event = ChangeEvent(
            detected_at=alarm_at,
            direction=verdict_trend.direction,
            action=Action.SCALE_UP if verdict_trend.direction is Direction.UP else Action.SCALE_DOWN,
            trend=verdict_trend,
            training_used=(training.lo, training.hi),
        )
        events.append(event)
        if on_event is not None:
            on_event(event)
        origin = alarm_at + config.quiet_gap_d
    return events
