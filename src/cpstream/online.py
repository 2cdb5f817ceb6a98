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
this normalisation). The first alarm freezes the detector. A trained state
keeps the training sum and takes the training mean as ``training_sum / m``.

Many streams of equal training length can share one state: :func:`train` on
an (S, m, d) stack and :func:`run_batch` on (S, b, d) blocks run every stream
through the same evaluation at once, and stream i of every result equals the
single-stream call on stream i bit for bit.

A one-dimensional detector fed exact Python floats one at a time, which
the monitor hands it on a one-column stream, takes a float route in
:func:`step`: the same formula in Python floats, in the same operation
order; any other sample, an ``np.float64`` included, takes the numpy
evaluation. A single-stream d = 1 state reads its trained scalars (the
training sum, the inverse square root or ratio inverse, the critical value
and sqrt(m)) into floats once, when it is made; :func:`step` reads the
running sum from ``cum_sum_post`` and writes it back in place. An exact
float sample then passes only the stop and finiteness checks on its way to
the arithmetic, with no array made and no helper call, and its verdict is
made by ``tuple.__new__``, not by the named tuple's slower ``__new__``.
With d = 1 every reduction of the numpy evaluation runs over one element
and so is exact, which makes the two routes agree bit for bit. At
gamma != 0 the boundary keeps ``np.power`` on that route: ``math.pow`` and
``**`` round some powers differently in the last bit.

Each evaluation returns a :class:`Verdict`, an immutable named tuple of the
detector value, the threshold and the count, whose alarm is derived from
the first two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .critvals import CritVal, CritValKind
from .errors import DetectorStoppedError, NonFiniteSampleError
from .longrun import bartlett_bandwidth, bartlett_lrv, inverse, inverse_sqrt
from .timeseries import SeriesLike, as_matrix

__all__ = [
    "DetectorKind",
    "OnlineDetectorState",
    "Verdict",
    "Verdicts",
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


# _new_tuple(Verdict, fields) is Verdict(*fields) without the named tuple's
# generated Python-level __new__, which costs about twice as much
_new_tuple = tuple.__new__


class Verdict(NamedTuple):
    """One detector evaluation; it alarms exactly when value >= threshold.

    An immutable named tuple of what the evaluation measured, so it also
    iterates, unpacks and equals the plain tuple of those fields. ``alarm``
    is derived from them, so no verdict can contradict its own numbers.
    """

    detector_value: float
    threshold: float
    k_at_eval: int

    @property
    def alarm(self) -> bool:
        return self.detector_value >= self.threshold


@dataclass(frozen=True, eq=False)
class Verdicts:
    """The verdicts of a stacked :func:`run_batch`, one (S,) array per field.

    Entry i is stream i's :class:`Verdict`, which ``verdicts[i]`` returns;
    ``alarm`` is the (S,) array of their alarms.
    """

    detector_value: np.ndarray
    threshold: np.ndarray
    k_at_eval: np.ndarray

    @property
    def alarm(self) -> np.ndarray:
        return self.detector_value >= self.threshold

    def __getitem__(self, i: int) -> Verdict:
        value, threshold, k = self.detector_value[i], self.threshold[i], self.k_at_eval[i]
        return Verdict(float(value), float(threshold), int(k))


@dataclass(eq=False)
class OnlineDetectorState:
    """Frozen training statistics plus the running state of one monitored stream.

    Training fields never change after :func:`train`; ``cum_sum_post``, ``k``
    and ``stopped_at`` advance with :func:`step`. One state belongs to one
    logical stream (single writer); distinct states are fully independent.
    Every state owns its ``cum_sum_post``, which :func:`step` updates in
    place: take ``.copy()`` to keep a value across steps. A copy made with
    ``dataclasses.replace`` gets its own array and stays independent of the
    original; a shallow ``copy.copy`` shares it.

    A stacked state, trained on an (S, m, d) stack, holds S streams: every
    array field gains a leading S axis, ``k`` is an (S,) int array and
    ``stopped_at`` an (S,) object array of each stream's ``int | None``.
    """

    kind: DetectorKind
    m: int
    gamma: float
    critval: CritVal
    training_sum: np.ndarray
    omega_inv_sqrt: np.ndarray | None
    ratio_denominator_inv: np.ndarray | None
    cum_sum_post: np.ndarray = field(default=None)  # type: ignore[assignment]
    k: int | np.ndarray = 0
    stopped_at: int | None | np.ndarray = None
    stacked: bool = field(init=False, repr=False)
    # step's d = 1 float route: the trained scalars; None for a stack or a
    # wider detector
    _scalars: tuple | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.stacked = self.training_sum.ndim == 2
        if self.cum_sum_post is None:
            self.cum_sum_post = np.zeros_like(self.training_sum)
        else:
            self.cum_sum_post = np.array(self.cum_sum_post, dtype=float)
        for arr in (self.training_sum, self.omega_inv_sqrt, self.ratio_denominator_inv):
            if arr is not None:
                arr.flags.writeable = False
        self._scalars = None
        if self.training_sum.shape == (1,):
            standard = self.kind is DetectorKind.STANDARD
            weight = self.omega_inv_sqrt if standard else self.ratio_denominator_inv
            self._scalars = (standard, self.training_sum.item(), weight.item(),
                             self.critval.value, math.sqrt(self.m), self.m, self.gamma)

    @property
    def dim(self) -> int:
        return self.training_sum.shape[-1]

    @property
    def stopped(self) -> bool:
        """Whether the stream has alarmed; for a stack, whether any stream has."""
        if self.stacked:
            return any(at is not None for at in self.stopped_at)
        return self.stopped_at is not None


def _boundary(kind: DetectorKind, m: int, k, gamma: float):
    """Threshold weight at count(s) k >= 1: g(m, k) = sqrt(m) (1 + k/m) (k / (k + m))^gamma.

    The ratio detector's weight is g(m, k)^2 / m: its statistic is
    self-normalised and does not grow with m, so the sqrt(m) factor drops
    out. Unchecked: :func:`train` validates m and gamma.
    """
    g = math.sqrt(m) * (1.0 + k / m)
    # x**0 is exactly 1 for every ratio in (0, 1], so gamma 0 skips the power;
    # np.power rather than **: a scalar k then rounds exactly like one
    # element of an array of ks
    if gamma != 0.0:
        g = g * np.power(k / (k + m), gamma)
    return g if kind is DetectorKind.STANDARD else g * g / m


def train(
    prefix: SeriesLike,
    kind: DetectorKind | str = DetectorKind.STANDARD,
    gamma: float = 0.0,
    critval: CritVal | None = None,
) -> OnlineDetectorState:
    """Freeze training statistics from a change-free prefix of length m >= 4.

    The standard detector stores the regularized inverse square root of the
    Bartlett long-run covariance of the prefix; the ratio detector stores the
    regularized inverse of its partial-mean denominator matrix (so an
    all-constant prefix still trains). ``critval`` must match the detector
    kind, dimension and gamma.

    ``prefix`` is one (m, d) series or an (S, m, d) stack of S series. A stack
    gives one stacked state whose training arrays carry the leading S axis;
    slice i of each equals, bit for bit, what training on series i alone
    stores.
    """
    kind = DetectorKind(kind)
    mat = as_matrix(prefix)
    if mat.ndim not in (2, 3):
        raise ValueError(f"training prefix must be (m, d) or (S, m, d), got shape {mat.shape}")
    m, d = mat.shape[-2:]
    if m < 4:
        raise ValueError("training prefix needs at least 4 samples")
    if critval is None:
        raise ValueError("a critical value matching the detector is required")
    req = critval.request
    if req.kind is not kind.critval_kind:
        raise ValueError(f"critical value kind {req.kind.value} does not match detector {kind.value}")
    if req.d != d:
        raise ValueError(f"critical value simulated for d={req.d}, series has d={d}")
    # CritValRequest keeps gamma in [0, 0.5), so a matching gamma is in range
    if req.gamma != gamma:
        raise ValueError(f"critical value simulated for gamma={req.gamma}, requested {gamma}")

    training_sum = mat.sum(axis=-2)
    omega_inv_sqrt = None
    denom_inv = None
    if kind is DetectorKind.STANDARD:
        omega_inv_sqrt = inverse_sqrt(bartlett_lrv(mat, bartlett_bandwidth(m)))
    else:
        counts = np.arange(1, m + 1, dtype=float).reshape(-1, 1)
        partial_dev = np.cumsum(mat, axis=-2) / counts - (training_sum / m)[..., None, :]
        weighted = partial_dev.swapaxes(-1, -2) * counts.ravel() ** 2
        denom = np.matmul(weighted, partial_dev) / m**2
        denom = (denom + denom.swapaxes(-1, -2)) / 2.0
        denom_inv = inverse(denom)
    per_stream = {}
    if mat.ndim == 3:
        # every stream of a stack counts its own samples and its own alarm
        streams = mat.shape[0]
        per_stream = {"k": np.zeros(streams, dtype=int),
                      "stopped_at": np.full(streams, None, dtype=object)}
    return OnlineDetectorState(
        kind=kind,
        m=m,
        gamma=gamma,
        critval=critval,
        training_sum=training_sum,
        omega_inv_sqrt=omega_inv_sqrt,
        ratio_denominator_inv=denom_inv,
        **per_stream,
    )


def _apply(matrix: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """matrix @ v for every v along the last axis of ``vectors``."""
    # products and one reduction, not matmul: BLAS sums one vector and a
    # block of them in different orders, and step and run_batch must agree
    return (vectors[..., None, :] * matrix).sum(axis=-1)


def _evaluate(state: OnlineDetectorState, ks, running: np.ndarray):
    """Detector values and thresholds after ``ks`` monitored samples summing to ``running``.

    The one place both statistics are written in numpy. A count k with a
    (d,) running sum gives scalars (step); (b, S) counts with (b, S, d)
    running sums give (b, S) arrays (run_batch, one stream being S = 1),
    against which a stack's (S, ...) training arrays broadcast as they are.
    :func:`step`'s d = 1 float route repeats the statistics and the boundary
    in the same operation order, so a change here must be made there too.
    Training already validated m and gamma.
    """
    m = state.m
    thresholds = state.critval.value * _boundary(state.kind, m, ks, state.gamma)
    if state.kind is DetectorKind.STANDARD:
        # (k * sum) / m rather than (k / m) * sum: cancels exactly when the
        # monitored stream sits at the training mean
        numerators = running - np.asarray(ks)[..., None] * state.training_sum / m
        values = np.abs(_apply(state.omega_inv_sqrt, numerators)).sum(axis=-1)
    else:
        deviations = running / np.asarray(ks)[..., None] - state.training_sum / m
        quad = (_apply(state.ratio_denominator_inv, deviations) * deviations).sum(axis=-1)
        values = ks**2 / m * quad
    return values, thresholds


def _verdict(state: OnlineDetectorState, value, threshold) -> Verdict:
    """The verdict at the state's current k; an alarm stops the detector."""
    verdict = Verdict(float(value), float(threshold), state.k)
    if verdict.alarm:
        state.stopped_at = state.k
    return verdict


def step(state: OnlineDetectorState, x) -> Verdict:
    """Consume one sample and evaluate the detector; absorbing on alarm.

    A NaN or infinite sample raises :class:`NonFiniteSampleError` and leaves
    the state unchanged. A stacked state is refused: feed it with
    :func:`run_batch`. The new running sum is written into the state's
    ``cum_sum_post`` in place, so an array taken from it before the call
    changes with it; take ``.copy()`` to keep a value.

    One rule picks the route: a d = 1 detector fed an exact Python
    ``float`` evaluates in Python floats from the scalars its state read
    when it was made; every other sample, an ``np.float64``, a (1,) array
    or a one-item list at d = 1 included, is checked and evaluated in numpy.
    The two agree with :func:`run_batch` bit for bit, because at d = 1 every
    numpy reduction runs over one element and the float route repeats
    :func:`_boundary`'s formula in the same operation order.
    """
    scalars = state._scalars
    if scalars is not None and type(x) is float:
        # the float route: only a single-stream d = 1 state has scalars
        if state.stopped_at is not None:
            raise DetectorStoppedError(f"detector already alarmed at k={state.stopped_at}")
    else:
        if state.stacked:
            raise ValueError("step takes a single-stream state; feed a stacked state with run_batch")
        if state.stopped_at is not None:
            raise DetectorStoppedError(f"detector already alarmed at k={state.stopped_at}")
        sample = np.asarray(x, dtype=float).reshape(-1)
        d = state.dim
        if sample.shape[0] != d:
            raise ValueError(f"sample has dimension {sample.shape[0]}, detector expects {d}")
        # math.isfinite over a list costs a fraction of one numpy call
        values = sample.tolist()
        if not all(map(math.isfinite, values)):
            raise NonFiniteSampleError(f"non-finite sample {values} at k={state.k + 1}")
        state.k += 1
        state.cum_sum_post += sample
        return _verdict(state, *_evaluate(state, state.k, state.cum_sum_post))
    if not math.isfinite(x):
        raise NonFiniteSampleError(f"non-finite sample {[x]} at k={state.k + 1}")

    # d = 1: _evaluate's formula in Python floats, in the same operation order
    standard, training_sum, weight, critval, sqrt_m, m, gamma = scalars
    state.k = k = state.k + 1
    running = state.cum_sum_post.item() + x
    state.cum_sum_post[0] = running
    # _boundary's weight; x**0 is exactly 1, so gamma 0 skips the power
    g = sqrt_m * (1.0 + k / m)
    if gamma != 0.0:
        g = g * float(np.power(k / (k + m), gamma))
    if standard:
        threshold = critval * g
        value = abs((running - k * training_sum / m) * weight)
    else:
        threshold = critval * (g * g / m)
        deviation = running / k - training_sum / m
        value = k**2 / m * (deviation * weight * deviation)
    # _verdict's rule, inline
    if value >= threshold:
        state.stopped_at = k
    return _new_tuple(Verdict, (value, threshold, k))


def run_batch(
    state: OnlineDetectorState, samples: np.ndarray
) -> tuple[Verdict, int] | tuple[Verdicts, np.ndarray]:
    """Feed a block of samples to the detector, stopping at the first alarm.

    Consumes samples up to the first alarm, or the whole block, and returns
    the last verdict with the number consumed. The state ends exactly as the
    same sequence of :func:`step` calls would leave it. An empty block is an
    error; a block holding a NaN or infinite sample raises
    :class:`NonFiniteSampleError` and leaves the state unchanged.

    A single-stream state takes a (b, d) block, or (b,) when d = 1. A stacked
    state takes an (S, b, d) block, evaluates all S streams in one pass and
    returns :class:`Verdicts` with an (S,) array of consumed counts; each
    stream stops at its own first alarm. Stream i of the result and of the
    state afterwards equals the single-stream call on stream i bit for bit.
    A stack with any stopped stream is refused whole, and a non-finite
    sample error names the stream it sits in.
    """
    if state.stopped:
        at = state.stopped_at
        if state.stacked:
            stream = next(i for i, s in enumerate(at) if s is not None)
            raise DetectorStoppedError(f"stream {stream} already alarmed at k={at[stream]}")
        raise DetectorStoppedError(f"detector already alarmed at k={at}")
    block = np.asarray(samples, dtype=float)
    if not state.stacked:
        block = (block.reshape(-1, 1) if block.ndim == 1 else block)[None]
    ks_before = np.reshape(state.k, -1)
    if block.ndim != 3 or block.shape[0] != ks_before.size:
        expected = f"({ks_before.size}, b, d)" if state.stacked else "(b, d)"
        raise ValueError(f"block of shape {np.shape(samples)} is not {expected}")
    streams, b, d = block.shape
    if b == 0:
        raise ValueError("stream yielded no samples")
    if d != state.dim:
        raise ValueError(f"samples have dimension {d}, detector expects {state.dim}")
    finite = np.isfinite(block).all(axis=-1)
    if not finite.all():
        stream, row = divmod(int(np.argmin(finite)), b)
        where = f" in stream {stream}" if state.stacked else ""
        raise NonFiniteSampleError(
            f"non-finite sample {block[stream, row].tolist()}{where}"
            f" at k={ks_before[stream] + row + 1}"
        )

    # samples lead, streams follow: (b, S, d); prepending the running sums
    # makes the cumulative addition order match step
    start = np.reshape(state.cum_sum_post, (1, streams, d))
    running = np.cumsum(np.concatenate([start, block.swapaxes(0, 1)]), axis=0)[1:]
    ks = np.add.outer(np.arange(1, b + 1), ks_before).astype(float)
    values, thresholds = _evaluate(state, ks, running)
    alarms = values >= thresholds
    fired = alarms.any(axis=0)
    consumed = np.where(fired, alarms.argmax(axis=0) + 1, b)
    last, every = consumed - 1, np.arange(streams)
    ks_after = ks_before + consumed
    if not state.stacked:
        state.k = int(ks_after[0])
        state.cum_sum_post = running[last[0], 0]
        return _verdict(state, values[last[0], 0], thresholds[last[0], 0]), int(consumed[0])
    state.k = ks_after
    state.cum_sum_post = running[last, every]
    state.stopped_at = np.where(fired, ks_after, None)
    verdicts = Verdicts(
        detector_value=values[last, every], threshold=thresholds[last, every], k_at_eval=ks_after
    )
    return verdicts, consumed
