"""Sequential change detectors: standard and ratio-type weighted CUSUM.

A detector is trained once on a change-free prefix of length m and then fed
one sample at a time. After k monitored samples the standard detector
compares

    value = || Omega_m^(-1/2) (sum_{i=m+1..m+k} X_i - (k/m) sum_{i=1..m} X_i) ||_1

against c * g(m, k) with boundary weight g(m, k) = sqrt(m) (1 + k/m)
(k / (k + m))^gamma. The ratio detector replaces the long-run covariance by
a self-normalising denominator built from training partial means,

    value = (k^2 / m) * D_post^T Q^(-1) D_post,
    Q     = (1 / m^2) sum_{j=1..m} j^2 D_j D_j^T,

where D_j is the mean of the first j training samples minus the training
mean and D_post the mean of the monitored samples minus the training mean.
Its threshold is c * g(m, k)^2 / m: the statistic is scale-free in m, so the
boundary must be as well (the critical value is simulated against exactly
this normalisation). The first alarm freezes the detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator

import numpy as np

from .critvals import CritVal, CritValKind
from .errors import DetectorStoppedError, NonFiniteSampleError
from .longrun import bartlett_bandwidth, bartlett_lrv, inverse, inverse_sqrt
from .timeseries import SeriesLike, as_matrix

__all__ = [
    "DetectorKind",
    "OnlineDetectorState",
    "Verdict",
    "boundary_weight",
    "ratio_boundary_weight",
    "train",
    "step",
    "run_window",
    "run_batch",
]


class DetectorKind(str, Enum):
    STANDARD = "standard"
    RATIO = "ratio"

    @property
    def critval_kind(self) -> CritValKind:
        if self is DetectorKind.STANDARD:
            return CritValKind.ONLINE_STANDARD
        return CritValKind.ONLINE_RATIO


@dataclass(frozen=True)
class Verdict:
    """One detector evaluation: alarm holds exactly when value >= threshold."""

    alarm: bool
    detector_value: float
    threshold: float
    k_at_eval: int

    def __post_init__(self) -> None:
        if self.alarm != (self.detector_value >= self.threshold):
            raise ValueError("alarm flag inconsistent with value and threshold")


@dataclass(eq=False)
class OnlineDetectorState:
    """Frozen training statistics plus the running state of one monitored stream.

    Training fields never change after :func:`train`; ``cum_sum_post``, ``k``
    and ``stopped_at`` advance with :func:`step`. One state belongs to one
    logical stream (single writer); distinct states are fully independent.
    """

    kind: DetectorKind
    m: int
    gamma: float
    critval: CritVal
    training_mean: np.ndarray
    training_sum: np.ndarray
    omega_inv_sqrt: np.ndarray | None
    ratio_denominator: np.ndarray | None
    ratio_denominator_inv: np.ndarray | None = field(repr=False, default=None)
    cum_sum_post: np.ndarray = field(default=None)  # type: ignore[assignment]
    k: int = 0
    stopped_at: int | None = None

    def __post_init__(self) -> None:
        if self.cum_sum_post is None:
            self.cum_sum_post = np.zeros_like(self.training_mean)
        for arr in (self.training_mean, self.training_sum, self.omega_inv_sqrt,
                    self.ratio_denominator, self.ratio_denominator_inv):
            if arr is not None:
                arr.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.training_mean.shape[0]

    @property
    def stopped(self) -> bool:
        return self.stopped_at is not None


def boundary_weight(m: int, k: int | np.ndarray, gamma: float) -> float | np.ndarray:
    """Threshold weight g(m, k) = sqrt(m) (1 + k/m) (k / (k + m))^gamma."""
    if m < 1:
        raise ValueError("training length m must be at least 1")
    if np.any(np.asarray(k) < 1):
        raise ValueError("monitored count k must be at least 1")
    if not 0.0 <= gamma < 0.5:
        raise ValueError(f"gamma must lie in [0, 0.5), got {gamma}")
    k = np.asarray(k, dtype=float)
    out = np.sqrt(m) * (1.0 + k / m) * (k / (k + m)) ** gamma
    return float(out) if out.ndim == 0 else out


def ratio_boundary_weight(m: int, k: int | np.ndarray, gamma: float) -> float | np.ndarray:
    """Threshold weight for the ratio detector: g(m, k)^2 / m.

    The ratio statistic is self-normalised and does not grow with m, so the
    sqrt(m) factor of the standard weight drops out of its boundary.
    """
    g = boundary_weight(m, k, gamma)
    return g * g / m


def train(
    prefix: SeriesLike,
    kind: DetectorKind | str = DetectorKind.STANDARD,
    gamma: float = 0.0,
    critval: CritVal | None = None,
) -> OnlineDetectorState:
    """Freeze training statistics from a change-free prefix of length m >= 4.

    The standard detector stores the regularized inverse square root of the
    Bartlett long-run covariance of the prefix; the ratio detector stores its
    partial-mean denominator matrix (regularized when singular, so an
    all-constant prefix still trains). ``critval`` must match the detector
    kind, dimension and gamma.
    """
    kind = DetectorKind(kind)
    mat = as_matrix(prefix)
    m, d = mat.shape
    if m < 4:
        raise ValueError("training prefix needs at least 4 samples")
    if critval is None:
        raise ValueError("a critical value matching the detector is required")
    req = critval.request
    if req.kind is not kind.critval_kind:
        raise ValueError(f"critical value kind {req.kind.value} does not match detector {kind.value}")
    if req.d != d:
        raise ValueError(f"critical value simulated for d={req.d}, series has d={d}")
    if req.gamma != gamma:
        raise ValueError(f"critical value simulated for gamma={req.gamma}, requested {gamma}")
    if not 0.0 <= gamma < 0.5:
        raise ValueError(f"gamma must lie in [0, 0.5), got {gamma}")

    training_sum = mat.sum(axis=0)
    training_mean = training_sum / m
    omega_inv_sqrt = None
    denom = None
    denom_inv = None
    if kind is DetectorKind.STANDARD:
        omega_inv_sqrt = inverse_sqrt(bartlett_lrv(mat, bartlett_bandwidth(m)))
    else:
        counts = np.arange(1, m + 1, dtype=float).reshape(-1, 1)
        partial_dev = np.cumsum(mat, axis=0) / counts - training_mean
        denom = (partial_dev.T * counts.ravel() ** 2) @ partial_dev / m**2
        denom = (denom + denom.T) / 2.0
        denom_inv = inverse(denom)
    return OnlineDetectorState(
        kind=kind,
        m=m,
        gamma=gamma,
        critval=critval,
        training_mean=training_mean,
        training_sum=training_sum,
        omega_inv_sqrt=omega_inv_sqrt,
        ratio_denominator=denom,
        ratio_denominator_inv=denom_inv,
    )


def _as_sample(state: OnlineDetectorState, x) -> np.ndarray:
    arr = np.asarray(x, dtype=float).reshape(-1)
    if arr.shape[0] != state.dim:
        raise ValueError(f"sample has dimension {arr.shape[0]}, detector expects {state.dim}")
    return arr


def step(state: OnlineDetectorState, x) -> Verdict:
    """Consume one sample and evaluate the detector; absorbing on alarm.

    A NaN or infinite sample raises :class:`NonFiniteSampleError` and leaves
    the state unchanged.
    """
    if state.stopped:
        raise DetectorStoppedError(f"detector already alarmed at k={state.stopped_at}")
    sample = _as_sample(state, x)
    # math.isfinite over a list costs a fraction of one numpy call
    if not all(map(math.isfinite, sample.tolist())):
        raise NonFiniteSampleError(f"non-finite sample {sample.tolist()} at k={state.k + 1}")
    state.k += 1
    state.cum_sum_post = state.cum_sum_post + sample
    k, m = state.k, state.m
    if state.kind is DetectorKind.STANDARD:
        # (k * sum) / m rather than (k / m) * sum: cancels exactly when the
        # monitored stream sits at the training mean
        numerator = state.cum_sum_post - (k * state.training_sum) / m
        value = float(np.sum(np.abs(state.omega_inv_sqrt @ numerator)))
        threshold = state.critval.value * boundary_weight(m, k, state.gamma)
    else:
        deviation = state.cum_sum_post / k - state.training_mean
        value = float(k**2 / m * (deviation @ state.ratio_denominator_inv @ deviation))
        threshold = state.critval.value * ratio_boundary_weight(m, k, state.gamma)
    alarm = value >= threshold
    if alarm:
        state.stopped_at = k
    return Verdict(alarm=alarm, detector_value=value, threshold=threshold, k_at_eval=k)


def run_window(
    state: OnlineDetectorState,
    stream: Iterable,
    window_k: int | None,
) -> tuple[Verdict, int]:
    """Drive :func:`step` over at most window_k samples, stopping on alarm.

    ``window_k = None`` monitors until the stream ends. Returns the last
    verdict and the number of samples consumed; a stream that yields nothing
    is an error.
    """
    if window_k is not None and window_k < 1:
        raise ValueError("window_k must be positive")
    verdict: Verdict | None = None
    consumed = 0
    iterator: Iterator = iter(stream)
    while window_k is None or consumed < window_k:
        try:
            x = next(iterator)
        except StopIteration:
            break
        verdict = step(state, x)
        consumed += 1
        if verdict.alarm:
            break
    if verdict is None:
        raise ValueError("stream yielded no samples")
    return verdict, consumed


def run_batch(
    state: OnlineDetectorState,
    samples: np.ndarray,
    window_k: int | None = None,
) -> tuple[Verdict, int]:
    """Vectorised equivalent of :func:`run_window` over a sample block.

    Consumes samples up to the first alarm (or the window bound) and leaves
    the state exactly as the equivalent sequence of :func:`step` calls would.
    A block holding a NaN or infinite sample raises
    :class:`NonFiniteSampleError` and leaves the state unchanged.
    """
    if state.stopped:
        raise DetectorStoppedError(f"detector already alarmed at k={state.stopped_at}")
    block = np.asarray(samples, dtype=float)
    if block.ndim == 1:
        block = block.reshape(-1, 1)
    if block.shape[0] == 0:
        raise ValueError("stream yielded no samples")
    if block.shape[1] != state.dim:
        raise ValueError(f"samples have dimension {block.shape[1]}, detector expects {state.dim}")
    if window_k is not None:
        if window_k < 1:
            raise ValueError("window_k must be positive")
        block = block[:window_k]
    if not np.isfinite(block).all():
        row = int(np.argmin(np.isfinite(block).all(axis=1)))
        raise NonFiniteSampleError(
            f"non-finite sample {block[row].tolist()} at k={state.k + row + 1}"
        )

    m = state.m
    ks = np.arange(state.k + 1, state.k + block.shape[0] + 1, dtype=float)
    # prepend the running sum so the cumulative addition order matches step
    running = np.cumsum(np.vstack([state.cum_sum_post, block]), axis=0)[1:]
    if state.kind is DetectorKind.STANDARD:
        numerators = running - np.outer(ks, state.training_sum) / m
        values = np.sum(np.abs(numerators @ state.omega_inv_sqrt), axis=1)
        thresholds = state.critval.value * boundary_weight(m, ks, state.gamma)
    else:
        deviations = running / ks.reshape(-1, 1) - state.training_mean
        quad = np.einsum("ij,jk,ik->i", deviations, state.ratio_denominator_inv, deviations)
        values = ks**2 / m * quad
        thresholds = state.critval.value * ratio_boundary_weight(m, ks, state.gamma)

    alarms = values >= thresholds
    hit = int(np.argmax(alarms)) if alarms.any() else None
    consumed = hit + 1 if hit is not None else block.shape[0]
    state.k += consumed
    state.cum_sum_post = running[consumed - 1]
    if hit is not None:
        state.stopped_at = state.k
    verdict = Verdict(
        alarm=hit is not None,
        detector_value=float(values[consumed - 1]),
        threshold=float(thresholds[consumed - 1]),
        k_at_eval=state.k,
    )
    return verdict, consumed
