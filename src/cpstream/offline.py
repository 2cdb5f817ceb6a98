"""Retrospective change-point detection: single-CP max test and multi-CP segmentation.

The single test compares M = max_n C_n^T Omega^-1 C_n against a simulated
critical value, where C_n is the CUSUM path of the series. Multiple change
points are found by binary segmentation (recursive splitting at each
rejection) followed by pairwise re-validation: each candidate is re-tested
on the window bounded by its neighbouring candidates and dropped or moved
until the set is stable. Each window's statistic is computed once and every
later request for the window is decided from it.

The CUSUM path is scaled in place. A one-column window, the monitor's case,
works on the 1-D column: it centres the column for the CUSUM path, and
:func:`~cpstream.longrun.bartlett_lrv` centres it alike on its own d = 1
route; the quadratic form takes the inverse long-run variance as a float,
in einsum's product order and in place. The statistic and the argmax equal
the d x d route bit for bit. Segmentation decides a window it has already
tested from the stored statistic and argmax alone, and builds an
:class:`OfflineTestResult` only for the change points it reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .critvals import CritVal, CritValKind, CritValProvider
from .longrun import bartlett_bandwidth, bartlett_lrv, inverse
from .timeseries import SeriesLike, as_matrix

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
    ties), recorded whether or not the test rejects. The test rejects when
    the statistic reaches ``critval_used``; ``cp_index`` is then the argmax,
    and None otherwise. ``cp_fraction`` rescales it to (0, 1] by the window
    length.
    """

    statistic_m: float
    critval_used: float
    n: int
    argmax: int

    @property
    def reject(self) -> bool:
        return self.statistic_m >= self.critval_used

    @property
    def cp_index(self) -> int | None:
        return self.argmax if self.reject else None

    @property
    def cp_fraction(self) -> float | None:
        if not self.reject:
            return None
        return self.argmax / self.n


@dataclass(frozen=True)
class ChangePointSet:
    """Validated change points from segmentation, in increasing index order.

    :func:`segment` also records the statistic of the whole series
    (``statistic_m``) and the critical values it applied at its search and
    validation levels.
    """

    cps: tuple[int, ...]
    per_cp_stats: tuple[OfflineTestResult, ...]
    alpha: float
    hit_round_cap: bool = False
    statistic_m: float | None = None
    search_critval: CritVal | None = None
    validation_critval: CritVal | None = None

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
    # sum / n is how ndarray.mean computes the mean, without its call overhead;
    # dividing in place rounds as a division into a new array does
    path = np.cumsum(mat - mat.sum(axis=0) / n, axis=0)
    path /= math.sqrt(n)
    return path


def offline_test(s: SeriesLike, critval: CritVal) -> OfflineTestResult:
    """Test a window for a single mean change at the critical value's level.

    The level is ``critval.request.alpha``. The long-run covariance is
    re-estimated on the window with the default bandwidth and regularized if
    degenerate, so constant input yields M = 0 and no rejection rather than a
    division by zero.
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

    if d == 1:
        # cusum_path's centring, on the 1-D column
        col = mat[:, 0]
        centred = col - col.sum() / n
        omega_inv = inverse(bartlett_lrv(mat, bartlett_bandwidth(n))).item()
        # the method: np.cumsum's dispatch to it costs as much as its sum
        path = centred.cumsum()
        path /= math.sqrt(n)
        # einsum's product over one term, in its order: (C_n * Omega^-1) * C_n;
        # the second product in place, which rounds alike
        quad = path * omega_inv
        quad *= path
    else:
        path = cusum_path(mat)
        omega_inv = inverse(bartlett_lrv(mat, bartlett_bandwidth(n)))
        quad = np.einsum("nj,jk,nk->n", path, omega_inv, path)
    best = int(quad.argmax())
    return OfflineTestResult(quad.item(best), critval.value, n, best + 1)


def _check_min_seg(min_seg: int) -> None:
    if min_seg < 2:
        raise ValueError("min_seg must be at least 2")


def segment(
    s: SeriesLike,
    alpha: float,
    critvals: CritValProvider,
    min_seg: int = DEFAULT_MIN_SEG,
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

    Each window [w_lo, w_hi] (1-based indices into ``s``) is tested by
    :func:`offline_test` on the row view ``mat[w_lo - 1 : w_hi]`` of the
    sample matrix, at most once per call: every later request for that
    window, at either level, is decided from the stored statistic and
    argmax. The change points are 1-based indices into ``s`` too.
    """
    _check_min_seg(min_seg)
    mat = as_matrix(s)
    n, d = mat.shape
    if n < 2 * min_seg:
        raise ValueError(f"series of length {n} too short to segment (need {2 * min_seg})")
    max_windows = max(1, n // (2 * min_seg))
    search_cv = critvals(CritValKind.OFFLINE_MAX, d, alpha)
    validation_cv = critvals(CritValKind.OFFLINE_MAX, d, alpha / max_windows)

    memo: dict[tuple[int, int], OfflineTestResult] = {}

    def tested(w_lo: int, w_hi: int, critval: CritVal) -> OfflineTestResult:
        """The window's stored result, testing it at ``critval`` on a miss."""
        known = memo.get((w_lo, w_hi))
        if known is None:
            known = memo[w_lo, w_hi] = offline_test(mat[w_lo - 1 : w_hi], critval)
        return known

    def test(w_lo: int, w_hi: int, critval: CritVal) -> int | None:
        """The window's change point at ``critval``'s level, or None if it does not reject."""
        known = tested(w_lo, w_hi, critval)
        # OfflineTestResult's rejection rule, on the stored statistic and argmax
        if known.statistic_m >= critval.value:
            return w_lo + known.argmax - 1
        return None

    candidates: list[int] = []

    def search(w_lo: int, w_hi: int) -> None:
        if w_hi - w_lo + 1 < 2 * min_seg:
            return
        cp = test(w_lo, w_hi, search_cv)
        if cp is None:
            return
        candidates.append(cp)
        search(w_lo, cp)
        search(cp + 1, w_hi)

    search(1, n)
    candidates.sort()

    hit_cap = False
    if candidates:
        for _ in range(MAX_VALIDATION_ROUNDS):
            bounds = [0] + candidates + [n]
            survivors: set[int] = set()
            for i, cp in enumerate(candidates):
                w_lo, w_hi = bounds[i] + 1, bounds[i + 2]
                if w_hi - w_lo + 1 < 4:
                    continue
                moved = test(w_lo, w_hi, validation_cv)
                if moved is None:
                    continue
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
    bounds = [0] + candidates + [n]
    for i in range(len(candidates)):
        known = tested(bounds[i] + 1, bounds[i + 2], validation_cv)
        stats.append(OfflineTestResult(known.statistic_m, validation_cv.value, known.n, known.argmax))

    return ChangePointSet(
        cps=tuple(candidates),
        per_cp_stats=tuple(stats),
        alpha=alpha,
        hit_round_cap=hit_cap,
        # the search tested the whole series first
        statistic_m=memo[1, n].statistic_m,
        search_critval=search_cv,
        validation_critval=validation_cv,
    )
