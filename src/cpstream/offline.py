"""Retrospective change-point detection: single-CP max test and multi-CP segmentation.

The single test compares M = max_n C_n^T Omega^-1 C_n against a simulated
critical value, where C_n is the CUSUM path of the series. Multiple change
points are found by binary segmentation (recursive splitting at each
rejection) followed by pairwise re-validation: each candidate is re-tested
on the window bounded by its neighbouring candidates and dropped or moved
until the set is stable. Each window's statistic is computed once and every
later request for the window is decided from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .critvals import CritVal, CritValKind, CritValProvider
from .longrun import bartlett_bandwidth, bartlett_lrv, inverse
from .timeseries import SeriesLike, SeriesSegment, TimeSeries, as_matrix

__all__ = [
    "OfflineTestResult",
    "ChangePointSet",
    "cusum_path",
    "offline_test",
    "segment",
    "DEFAULT_MIN_SEG",
    "MAX_VALIDATION_ROUNDS",
]

DEFAULT_MIN_SEG = 20
MAX_VALIDATION_ROUNDS = 10


@dataclass(frozen=True)
class OfflineTestResult:
    """Outcome of the single change-point test on one window.

    ``argmax`` is the 1-based argmax of the quadratic form (first index on
    ties), recorded whether or not the test rejects. ``cp_index`` is that
    argmax, present exactly when the test rejects. ``cp_fraction`` rescales
    it to (0, 1] by the window length.
    """

    statistic_m: float
    cp_index: int | None
    reject: bool
    critval_used: float
    n: int
    argmax: int

    def __post_init__(self) -> None:
        if self.reject != (self.statistic_m >= self.critval_used):
            raise ValueError("reject flag inconsistent with statistic and critical value")
        if self.cp_index != (self.argmax if self.reject else None):
            raise ValueError("cp_index must be the argmax, present exactly when the test rejects")

    @property
    def cp_fraction(self) -> float | None:
        if self.cp_index is None:
            return None
        return self.cp_index / self.n


@dataclass(frozen=True)
class ChangePointSet:
    """Validated change points from segmentation, in increasing index order."""

    cps: tuple[int, ...]
    per_cp_stats: tuple[OfflineTestResult, ...]
    alpha: float
    hit_round_cap: bool = False

    def __post_init__(self) -> None:
        if list(self.cps) != sorted(set(self.cps)):
            raise ValueError("change points must be strictly increasing")
        if len(self.cps) != len(self.per_cp_stats):
            raise ValueError("one test result required per change point")

    def __len__(self) -> int:
        return len(self.cps)


def cusum_path(s: SeriesLike) -> np.ndarray:
    """CUSUM process of a series: (N, d) array of C_1..C_N.

    C_n = (sum_{i<=n} X_i - (n / N) sum_{i<=N} X_i) / sqrt(N). Evaluated in
    the equivalent centered form cumsum(X - mean) / sqrt(N), which cancels
    exactly on constant input. C_N is zero by construction, and the path is
    invariant under adding a constant vector to every sample.
    """
    mat = as_matrix(s)
    n = mat.shape[0]
    if n < 2:
        raise ValueError("CUSUM path needs at least 2 samples")
    # sum / n is how ndarray.mean computes the mean, without its call overhead
    return np.cumsum(mat - mat.sum(axis=0) / n, axis=0) / math.sqrt(n)


def offline_test(s: SeriesLike, alpha: float, critval: CritVal) -> OfflineTestResult:
    """Test a window for a single mean change at significance alpha.

    The long-run covariance is re-estimated on the window with the default
    bandwidth and regularized if degenerate, so constant input yields M = 0
    and no rejection rather than a division by zero.
    """
    mat = as_matrix(s)
    n, d = mat.shape
    if n < 4:
        raise ValueError("offline test needs at least 4 samples")
    req = critval.request
    if req.kind is not CritValKind.OFFLINE_MAX:
        raise ValueError("critical value is not for the offline max statistic")
    if req.d != d:
        raise ValueError(f"critical value simulated for d={req.d}, series has d={d}")
    if req.alpha != alpha:
        raise ValueError(f"critical value simulated for alpha={req.alpha}, requested {alpha}")

    path = cusum_path(mat)
    omega_inv = inverse(bartlett_lrv(mat, bartlett_bandwidth(n)))
    if d == 1:
        # einsum's product over one term, in its order: (C_n * Omega^-1) * C_n
        col = path[:, 0]
        quad = (col * omega_inv[0, 0]) * col
    else:
        quad = np.einsum("nj,jk,nk->n", path, omega_inv, path)
    best = int(np.argmax(quad))
    return _decide(float(quad[best]), best + 1, n, critval)


def _decide(statistic: float, argmax: int, n: int, critval: CritVal) -> OfflineTestResult:
    """The test's verdict on a window from its statistic and 1-based argmax."""
    reject = statistic >= critval.value
    return OfflineTestResult(
        statistic_m=statistic,
        cp_index=argmax if reject else None,
        reject=reject,
        critval_used=critval.value,
        n=n,
        argmax=argmax,
    )


def segment(
    s: TimeSeries | SeriesSegment,
    alpha: float,
    critvals: CritValProvider,
    min_seg: int = DEFAULT_MIN_SEG,
    memo: dict[tuple[int, int], OfflineTestResult] | None = None,
) -> ChangePointSet:
    """Find every mean change in a series.

    Phase 1 recursively applies :func:`offline_test` at level ``alpha``,
    splitting at each rejection, and stops on windows shorter than
    2 * min_seg. Phase 2 re-tests every candidate on the window bounded by
    its neighbouring candidates: unconfirmed candidates are dropped, and a
    candidate whose window argmax moved by more than min_seg is replaced by
    that argmax. Phase 2 repeats until the candidate set is stable or
    ``MAX_VALIDATION_ROUNDS`` is hit (reported via ``hit_round_cap``).

    Validation re-tests run at the familywise level alpha / B, where B is
    the largest number of disjoint testable windows (series length over
    2 * min_seg). Discovery alone re-confirms a chance split on exactly the
    window that produced it, so with per-window level alpha the spurious-CP
    rate would grow with the number of segments instead of staying near
    alpha; the divided level caps the chance of ANY spurious split across
    the whole series.

    ``critvals`` resolves both levels as
    ``critvals(CritValKind.OFFLINE_MAX, d, level)``.

    Each window [w_lo, w_hi] (1-based indices into the series behind ``s``)
    is tested by :func:`offline_test` at most once: ``memo`` maps a window
    to its result, and every later request for that window, at either
    level, is decided from the stored statistic and argmax. Without a memo
    the call uses a fresh one. A memo may be shared only by calls on series
    that hold the same samples at the same indices, such as the growing
    prefixes of one stream; it grows by one entry per distinct window.
    """
    if min_seg < 2:
        raise ValueError("min_seg must be at least 2")
    if isinstance(s, TimeSeries):
        s = s.segment(1, s.n_samples)
    parent, lo, hi = s.parent, s.lo, s.hi
    if s.n_samples < 2 * min_seg:
        raise ValueError(f"series of length {s.n_samples} too short to segment (need {2 * min_seg})")
    max_windows = max(1, s.n_samples // (2 * min_seg))
    search_cv = critvals(CritValKind.OFFLINE_MAX, s.dim, alpha)
    validation_cv = critvals(CritValKind.OFFLINE_MAX, s.dim, alpha / max_windows)

    if memo is None:
        memo = {}

    def test(w_lo: int, w_hi: int, critval: CritVal) -> OfflineTestResult:
        known = memo.get((w_lo, w_hi))
        if known is None:
            window = parent.segment(w_lo, w_hi)
            known = memo[w_lo, w_hi] = offline_test(window, critval.request.alpha, critval)
        return _decide(known.statistic_m, known.argmax, known.n, critval)

    candidates: list[int] = []

    def search(w_lo: int, w_hi: int) -> None:
        if w_hi - w_lo + 1 < 2 * min_seg:
            return
        result = test(w_lo, w_hi, search_cv)
        if not result.reject:
            return
        cp = w_lo + result.cp_index - 1
        candidates.append(cp)
        search(w_lo, cp)
        search(cp + 1, w_hi)

    search(lo, hi)
    candidates.sort()

    hit_cap = False
    if candidates:
        for _ in range(MAX_VALIDATION_ROUNDS):
            bounds = [lo - 1] + candidates + [hi]
            survivors: set[int] = set()
            for i, cp in enumerate(candidates):
                w_lo, w_hi = bounds[i] + 1, bounds[i + 2]
                if w_hi - w_lo + 1 < 4:
                    continue
                result = test(w_lo, w_hi, validation_cv)
                if not result.reject:
                    continue
                moved = w_lo + result.cp_index - 1
                survivors.add(moved if abs(moved - cp) > min_seg else cp)
            updated = sorted(survivors)
            if updated == candidates:
                break
            candidates = updated
            if not candidates:
                break
        else:
            hit_cap = True

    stats = []
    bounds = [lo - 1] + candidates + [hi]
    for i, cp in enumerate(candidates):
        stats.append(test(bounds[i] + 1, bounds[i + 2], validation_cv))

    return ChangePointSet(
        cps=tuple(candidates),
        per_cp_stats=tuple(stats),
        alpha=alpha,
        hit_round_cap=hit_cap,
    )
