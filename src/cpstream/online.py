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


def _boundary(kind: DetectorKind, m: int, k, gamma: float):
    """Unchecked boundary at count(s) k: g(m, k), or g(m, k)^2 / m for the ratio detector."""
    # np.power rather than **: a scalar k then rounds exactly like one
    # element of an array of ks
    g = math.sqrt(m) * (1.0 + k / m) * np.power(k / (k + m), gamma)
    return g if kind is DetectorKind.STANDARD else g * g / m


def _checked_boundary(kind: DetectorKind, m: int, k, gamma: float) -> float | np.ndarray:
    if m < 1:
        raise ValueError("training length m must be at least 1")
    if np.any(np.asarray(k) < 1):
        raise ValueError("monitored count k must be at least 1")
    if not 0.0 <= gamma < 0.5:
        raise ValueError(f"gamma must lie in [0, 0.5), got {gamma}")
    out = _boundary(kind, m, np.asarray(k, dtype=float), gamma)
    return float(out) if np.ndim(out) == 0 else out


def boundary_weight(m: int, k: int | np.ndarray, gamma: float) -> float | np.ndarray:
    """Threshold weight g(m, k) = sqrt(m) (1 + k/m) (k / (k + m))^gamma."""
    return _checked_boundary(DetectorKind.STANDARD, m, k, gamma)


def ratio_boundary_weight(m: int, k: int | np.ndarray, gamma: float) -> float | np.ndarray:
    """Threshold weight for the ratio detector: g(m, k)^2 / m.

    The ratio statistic is self-normalised and does not grow with m, so the
    sqrt(m) factor of the standard weight drops out of its boundary.
    """
    return _checked_boundary(DetectorKind.RATIO, m, k, gamma)


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


def _apply(matrix: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """matrix @ v for every v along the last axis of ``vectors``."""
    # products and one reduction, not matmul: BLAS sums one vector and a
    # block of them in different orders, and step and run_batch must agree
    return (vectors[..., None, :] * matrix).sum(axis=-1)


def _evaluate(state: OnlineDetectorState, ks, running: np.ndarray):
    """Detector values and thresholds after ``ks`` monitored samples summing to ``running``.

    The one place both statistics are written. A count k with a (d,) running
    sum gives scalars; an (n,) vector of counts with an (n, d) block of
    running sums gives (n,) arrays. Training already validated m and gamma.
    """
    m = state.m
    thresholds = state.critval.value * _boundary(state.kind, m, ks, state.gamma)
    if state.kind is DetectorKind.STANDARD:
        # (k * sum) / m rather than (k / m) * sum: cancels exactly when the
        # monitored stream sits at the training mean
        numerators = running - np.multiply.outer(ks, state.training_sum) / m
        values = np.abs(_apply(state.omega_inv_sqrt, numerators)).sum(axis=-1)
    else:
        deviations = running / np.asarray(ks)[..., None] - state.training_mean
        quad = (_apply(state.ratio_denominator_inv, deviations) * deviations).sum(axis=-1)
        values = ks**2 / m * quad
    return values, thresholds


def _verdict(state: OnlineDetectorState, value, threshold) -> Verdict:
    """The verdict at the state's current k; an alarm stops the detector."""
    alarm = bool(value >= threshold)
    if alarm:
        state.stopped_at = state.k
    return Verdict(
        alarm=alarm, detector_value=float(value), threshold=float(threshold), k_at_eval=state.k
    )


def step(state: OnlineDetectorState, x) -> Verdict:
    """Consume one sample and evaluate the detector; absorbing on alarm.

    A NaN or infinite sample raises :class:`NonFiniteSampleError` and leaves
    the state unchanged.
    """
    if state.stopped:
        raise DetectorStoppedError(f"detector already alarmed at k={state.stopped_at}")
    sample = np.asarray(x, dtype=float).reshape(-1)
    if sample.shape[0] != state.dim:
        raise ValueError(f"sample has dimension {sample.shape[0]}, detector expects {state.dim}")
    # math.isfinite over a list costs a fraction of one numpy call
    if not all(map(math.isfinite, sample.tolist())):
        raise NonFiniteSampleError(f"non-finite sample {sample.tolist()} at k={state.k + 1}")
    state.k += 1
    state.cum_sum_post = state.cum_sum_post + sample
    return _verdict(state, *_evaluate(state, state.k, state.cum_sum_post))


def run_batch(state: OnlineDetectorState, samples: np.ndarray) -> tuple[Verdict, int]:
    """Feed a block of samples to the detector, stopping at the first alarm.

    Consumes samples up to the first alarm, or the whole block, and returns
    the last verdict with the number consumed. The state ends exactly as the
    same sequence of :func:`step` calls would leave it. An empty block is an
    error; a block holding a NaN or infinite sample raises
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
    if not np.isfinite(block).all():
        row = int(np.argmin(np.isfinite(block).all(axis=1)))
        raise NonFiniteSampleError(
            f"non-finite sample {block[row].tolist()} at k={state.k + row + 1}"
        )

    ks = np.arange(state.k + 1, state.k + block.shape[0] + 1, dtype=float)
    # prepend the running sum so the cumulative addition order matches step
    running = np.cumsum(np.vstack([state.cum_sum_post, block]), axis=0)[1:]
    values, thresholds = _evaluate(state, ks, running)
    alarms = values >= thresholds
    consumed = int(np.argmax(alarms)) + 1 if alarms.any() else block.shape[0]
    state.k += consumed
    state.cum_sum_post = running[consumed - 1]
    return _verdict(state, values[consumed - 1], thresholds[consumed - 1]), consumed
