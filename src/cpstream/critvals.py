"""Monte-Carlo critical values for the offline and sequential CUSUM tests.

Each test statistic converges, under the no-change hypothesis, to the
supremum of a functional of Brownian motion. The (1 - alpha) quantiles of
those suprema have no closed form in general, so they are estimated by
simulating paths on a fine grid:

* offline max statistic      -> sup_t sum_j B_j(t)^2 over t in [0, 1],
  with B_j(t) = W_j(t) - t W_j(1) independent standard Brownian bridges;
* sequential standard CUSUM  -> sup_t ||W(t)||_1 / t^gamma over t in (0, 1],
  the two-sided limit of the l1-aggregated stopping rule;
* sequential ratio CUSUM     -> sup_t D(t) over t in (0, T], where
  D(t) = B(1+t)^T (integral_0^1 B B^T dr)^(-1) B(1+t) / eta(t)^2 and
  eta(t) = (1 + t) * (t / (1 + t))^gamma.

Replication r of a run with seed s draws from the counter-based Philox
stream keyed by (s, r), so results are bit-identical no matter how the
replications are scheduled or parallelised. :func:`compute_critval` derives
every replication's substream key in one vectorised pass and splits the
replications into contiguous ranges of whole blocks, one range per CPU in the
process's affinity mask, or a single range when a path row is too short to
repay a thread; ``cpstream.rng._in_ranges`` holds that rule and runs the
ranges, for :func:`~cpstream.rng.standard_normal_rows` too. Every
worker keeps one Philox generator, re-keyed per row, and one block buffer:
each block, a (rows, d, steps) array of Wiener paths, is drawn into it, and
the statistic's formula runs along the block's last axis, with its grid
constants built once per simulation. Every row equals its one-replication value,
:func:`replication_stat`, bit for bit, so the sample is the same at any
number of CPUs.

Replication r draws the same paths for the offline and the standard kinds at
the same grid, seed and d. So at d = 1 one offline draw also yields the
gamma-0 standard statistic, sup_t |W(t)| = max(max_t W, -min_t W), and one
simulation fills both samples of a store: the two critical values that a
default monitor run needs cost one draw (common random numbers).
"""

from __future__ import annotations

import csv
import math
from dataclasses import InitVar, dataclass, field, replace
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import CsvFormatError
from .longrun import inverse as _reg_inverse
from .rng import _in_ranges, _philox_keys, _row_drawer, standard_normal_rows
from .timeseries import _text_lines

__all__ = [
    "CritValKind",
    "CritValRequest",
    "CritVal",
    "CritValProvider",
    "replication_stat",
    "compute_critval",
    "build_table",
    "MonteCarloProvider",
    "DEFAULT_GRID_STEPS",
    "DEFAULT_REPLICATIONS",
    "DEFAULT_HORIZON_T",
]

DEFAULT_GRID_STEPS = 10_000
DEFAULT_REPLICATIONS = 100_000
DEFAULT_HORIZON_T = 10.0

TABLE_ALPHAS = (0.01, 0.05, 0.10)
TABLE_GAMMAS = (0.0, 0.15, 0.25, 0.45)
TABLE_DIMS = (1, 2, 3)


class CritValKind(str, Enum):
    OFFLINE_MAX = "offline-max"
    ONLINE_STANDARD = "online-standard"
    ONLINE_RATIO = "online-ratio"

    @property
    def is_online(self) -> bool:
        return self is not CritValKind.OFFLINE_MAX


def _tail_steps(grid_steps: int, horizon_T: float) -> int:
    """Grid points of the ratio kind's path after t = 1: grid_steps * T, rounded."""
    return int(round(grid_steps * float(horizon_T)))


@dataclass(frozen=True)
class CritValRequest:
    """Everything that pins down one simulated quantile.

    ``grid_steps`` counts grid points per unit of simulated time, so the
    ratio statistic with horizon T uses grid_steps * (1 + T) points in total.
    ``gamma`` applies to the online kinds only and ``horizon_T`` to the ratio
    kind only.
    """

    kind: CritValKind
    alpha: float
    d: int = 1
    gamma: float = 0.0
    grid_steps: int = DEFAULT_GRID_STEPS
    replications: int = DEFAULT_REPLICATIONS
    horizon_T: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", CritValKind(self.kind))
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.d < 1:
            raise ValueError("dimension must be at least 1")
        if not 0.0 <= self.gamma < 0.5:
            raise ValueError(f"gamma must lie in [0, 0.5), got {self.gamma}")
        if self.kind is CritValKind.OFFLINE_MAX and self.gamma != 0.0:
            raise ValueError("gamma does not apply to the offline statistic")
        if self.grid_steps < 100:
            raise ValueError("grid_steps must be at least 100")
        if self.replications < 1000:
            raise ValueError("replications must be at least 1000")
        if self.replications > 2**32:
            raise ValueError(f"replications must be at most 2**32, got {self.replications}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.kind is CritValKind.ONLINE_RATIO:
            if self.horizon_T is None:
                object.__setattr__(self, "horizon_T", DEFAULT_HORIZON_T)
            tail = self.grid_steps * float(self.horizon_T)
            if not (math.isfinite(tail) and _tail_steps(self.grid_steps, self.horizon_T) >= 1):
                raise ValueError(
                    f"horizon_T must be finite and add a grid step after t = 1 "
                    f"(grid_steps * horizon_T above 0.5), got {self.horizon_T}"
                )
        elif self.horizon_T is not None:
            raise ValueError("horizon_T applies to the ratio statistic only")
        limit = np.iinfo(np.intp).max // 8
        if self.d * _path_steps(self) > limit:
            sizes = f"d={self.d}, grid_steps={self.grid_steps}"
            if self.horizon_T is not None:
                sizes += f", horizon_T={self.horizon_T}"
            raise ValueError(f"the path row of {sizes} exceeds the {limit} floats numpy can address")


@dataclass(frozen=True)
class CritVal:
    """A simulated critical value plus the request that produced it.

    ``tail_count`` is how many simulated statistics lie above ``value``; it
    is ``None`` for a value loaded from a table, which keeps no sample.
    """

    value: float
    request: CritValRequest
    mc_stderr: float
    tail_count: int | None = None

    def __post_init__(self) -> None:
        if not self.value > 0:
            raise ValueError("critical value must be positive")


# A provider maps (kind, d, alpha, gamma) to a critical value;
# MonteCarloProvider below is the package's one implementation.
CritValProvider = Callable[..., CritVal]


def _wiener_paths(normals: np.ndarray, step_var: float) -> np.ndarray:
    """W(t_1)..W(t_steps) along the last axis, made in place from standard normal increments.

    The implicit W(0) = 0 is omitted.
    """
    normals *= np.sqrt(step_var)
    return np.cumsum(normals, axis=-1, out=normals)


# Each kernel maps a (rows, d, steps) block of Wiener paths, which it may
# overwrite, to the rows' suprema. Its grid constants are arguments, which
# :func:`_kernel` builds once per simulation: t = (1..grid_steps) / grid_steps,
# and for the ratio kind the path's u and the trapezoid weights and eta(t)^2.


def _offline_stats(w: np.ndarray, t: np.ndarray) -> np.ndarray:
    bridge = np.subtract(w, t * w[..., -1:], out=w)
    return np.max(np.sum(np.square(bridge, out=bridge), axis=-2), axis=-1)


def _sup_abs(w: np.ndarray) -> np.ndarray:
    """sup_t |W(t)| of a (rows, 1, steps) block as max(max_t W, -min_t W); reads w only."""
    path = w[:, 0]
    return np.maximum(np.max(path, axis=-1), -np.min(path, axis=-1))


def _online_standard_stats(w: np.ndarray, t_gamma: np.ndarray | None) -> np.ndarray:
    """``t_gamma`` is t**gamma, or None at gamma 0, where it would be all ones."""
    if t_gamma is None and w.shape[-2] == 1:
        return _sup_abs(w)
    path = np.sum(np.abs(w, out=w), axis=-2)
    if t_gamma is not None:
        path /= t_gamma
    return np.max(path, axis=-1)


def _online_ratio_stats(
    w: np.ndarray, u: np.ndarray, weights: np.ndarray, eta_sq: np.ndarray
) -> np.ndarray:
    grid_steps = weights.size
    stats = np.empty(len(w))
    # row by row: a stacked matmul and einsum need not round like the 2-D ones
    for row, path in enumerate(w):
        # the bridge B(u) = W(u) - u W(1) in place, one coordinate at a time:
        # a block-long temporary per block made glibc trim and re-fault its
        # heap every block (about 90 page faults each in a table build)
        for coord in path:
            coord -= u * coord[grid_steps - 1]
        unit = path[:, :grid_steps]
        denom_inv = _reg_inverse((unit * weights) @ unit.T)
        tail = path[:, grid_steps:]
        quad = np.einsum("ji,jk,ki->i", tail, denom_inv, tail)
        stats[row] = np.max(np.divide(quad, eta_sq, out=quad))
    return stats


# Floats in one simulated block (or one row, where a row alone is larger):
# enough rows to amortise the per-block work, few enough that the block's
# temporaries leave peak memory flat. Each worker of :func:`compute_critval`
# allocates one such block and draws every block of its range into it.
_BLOCK_FLOATS = 2**15

def _path_steps(request: CritValRequest) -> int:
    """Grid points of one replication's path: [0, 1], or [0, 1 + T] for the ratio kind."""
    steps = request.grid_steps
    if request.kind is CritValKind.ONLINE_RATIO:
        steps += _tail_steps(request.grid_steps, request.horizon_T)
    return steps


class _Worker(NamedTuple):
    """What one thread of a simulation reuses for every block it draws."""

    keys: np.ndarray  # the Philox keys of every replication of the simulation
    block: np.ndarray  # (rows, d, steps) buffer that each block is drawn into
    draw: Callable[[np.ndarray, np.ndarray], np.ndarray]  # this thread's re-keyed generator


def _paths(request: CritValRequest, lo: int, hi: int, worker: _Worker | None = None) -> np.ndarray:
    """The (hi - lo, d, steps) block of Wiener paths of replications lo..hi-1.

    Replication r draws its (d, steps) increments from substream (seed, r).
    Each row is pure in (request, r), so any split of the replications into
    blocks, and of the blocks over threads, gives the same paths. Without a
    ``worker`` the block is a fresh array drawn by
    :func:`~cpstream.rng.standard_normal_rows`; with one, it is the leading
    rows of the worker's buffer, drawn under its precomputed keys.
    """
    if worker is None:
        normals = np.empty((hi - lo, request.d, _path_steps(request)))
        standard_normal_rows(normals, request.seed, start=lo)
    else:
        normals = worker.draw(worker.block[: hi - lo], worker.keys[lo:hi])
    return _wiener_paths(normals, 1.0 / request.grid_steps)


def _kernel(request: CritValRequest) -> Callable[[np.ndarray], np.ndarray]:
    """The request's statistic of each row of a block from :func:`_paths`, which it may overwrite.

    The kind's grid constants are built here, once for every block of a
    simulation, and only read by the kernel, so every worker shares them.
    """
    steps = request.grid_steps
    t = np.arange(1, steps + 1) / steps
    if request.kind is CritValKind.OFFLINE_MAX:
        return partial(_offline_stats, t=t)
    gamma = request.gamma
    if request.kind is CritValKind.ONLINE_STANDARD:
        return partial(_online_standard_stats, t_gamma=None if gamma == 0.0 else t**gamma)
    u = np.arange(1, _path_steps(request) + 1) / steps
    # trapezoid rule for integral_0^1 B B^T dr; B(0) = 0 drops out of the sum
    weights = np.full(steps, 1.0 / steps)
    weights[-1] /= 2.0
    after = u[steps:] - 1.0
    eta_sq = ((1.0 + after) * (after / (1.0 + after)) ** gamma) ** 2
    return partial(_online_ratio_stats, u=u, weights=weights, eta_sq=eta_sq)


def replication_stat(request: CritValRequest, rep: int) -> float:
    """The simulated supremum for one replication.

    Pure in (request, rep): evaluation order is irrelevant, which is what
    makes parallel table builds reproducible.
    """
    return float(_kernel(request)(_paths(request, rep, rep + 1))[0])


def _quantile_and_stderr(ordered: np.ndarray, p: float) -> tuple[float, float]:
    """Empirical p-quantile of a sorted sample and its order-statistic standard error."""
    n = ordered.size
    quantile = float(np.quantile(ordered, p))
    half_width = np.sqrt(n * p * (1.0 - p))
    lo = int(np.clip(np.floor(n * p - half_width), 0, n - 1))
    hi = int(np.clip(np.ceil(n * p + half_width), 0, n - 1))
    return quantile, float((ordered[hi] - ordered[lo]) / 2.0)


def _sample_key(request: CritValRequest) -> tuple:
    """The request with alpha factored out: everything its simulated sample depends on."""
    return (
        request.kind,
        request.d,
        request.gamma,
        request.grid_steps,
        request.replications,
        request.horizon_T,
        request.seed,
    )


def _sorted(stats: np.ndarray) -> np.ndarray:
    ordered = np.sort(stats)
    ordered.flags.writeable = False
    return ordered


def compute_critval(request: CritValRequest, samples: dict | None = None) -> CritVal:
    """Simulate the limiting functional and return its (1 - alpha) quantile.

    ``samples`` stores sorted simulated statistics by alpha-free request
    (see :func:`_sample_key`). Replication r always draws substream
    (seed, r) and never reads alpha, so every level of one request is a
    quantile of the same sample: a stored sample is reused, and a missing
    one is simulated and stored.

    At d = 1 the offline and the gamma-0 standard statistics are functionals
    of the same paths, so an offline simulation that has a store to fill
    also stores the standard sample, sup_t |W(t)|, if it is missing. That
    costs two reductions per block, taken before the offline kernel
    overwrites the paths.

    A simulation runs on up to one thread per CPU the process may use (see
    the module docstring); its sample does not depend on how many.
    """
    key = _sample_key(request)
    ordered = None if samples is None else samples.get(key)
    if ordered is None:
        reps = request.replications
        steps = _path_steps(request)
        row_floats = request.d * steps
        rows = max(1, _BLOCK_FLOATS // row_floats)
        keys = _philox_keys(request.seed, (), 0, reps)
        kernel = _kernel(request)
        stats = np.empty(reps)
        sup_abs = companion_key = None
        if samples is not None and request.kind is CritValKind.OFFLINE_MAX and request.d == 1:
            companion_key = _sample_key(replace(request, kind=CritValKind.ONLINE_STANDARD))
            if companion_key not in samples:
                sup_abs = np.empty(reps)

        def simulate(lo: int, hi: int) -> Iterator[None]:
            worker = _Worker(keys, np.empty((rows, request.d, steps)), _row_drawer())
            for start in range(lo, hi, rows):
                stop = min(start + rows, hi)
                w = _paths(request, start, stop, worker)
                if sup_abs is not None:
                    sup_abs[start:stop] = _sup_abs(w)
                stats[start:stop] = kernel(w)
                yield

        _in_ranges(simulate, reps, row_floats, unit=rows)
        ordered = _sorted(stats)
        if samples is not None:
            samples[key] = ordered
            if sup_abs is not None:
                samples[companion_key] = _sorted(sup_abs)
    value, stderr = _quantile_and_stderr(ordered, 1.0 - request.alpha)
    tail_count = ordered.size - int(np.searchsorted(ordered, value, side="right"))
    return CritVal(value=value, request=request, mc_stderr=stderr, tail_count=tail_count)


def _key(kind: CritValKind, d: int, alpha: float, gamma: float) -> tuple:
    return (kind.value, int(d), float(gamma), float(alpha))


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise ValueError("critical value must be positive")
    return value


# a table file's columns in file order, each with the parser of its cells
_TABLE_COLUMNS = {
    "kind": CritValKind,
    "d": int,
    "gamma": lambda text: float(text) if text else 0.0,
    "alpha": float,
    "grid_steps": int,
    "replications": int,
    "horizon_T": lambda text: float(text) if text else None,
    "seed": int,
    "value": _positive,
    "mc_stderr": float,
}


def _read_table(path: str | Path) -> Iterator[CritVal]:
    """The critical values stored in a table file, one per row.

    Raises:
        CsvFormatError: a missing column or a cell that does not parse; the
            message names the file, the row (the physical line number) and
            the column.
    """
    with Path(path).open(newline="") as fh:
        reader = csv.DictReader(_text_lines(fh))
        if reader.fieldnames is None:
            raise CsvFormatError(f"{path}: empty table file")
        for name in _TABLE_COLUMNS:
            if name not in reader.fieldnames:
                raise CsvFormatError(f"{path}: row {reader.line_num} has no column {name!r}")
        for row in reader:
            line = reader.line_num
            cells = {}
            for name, parse in _TABLE_COLUMNS.items():
                if row[name] is None:
                    raise CsvFormatError(f"{path}: row {line} has no column {name!r}")
                try:
                    cells[name] = parse(row[name])
                except ValueError as exc:
                    raise CsvFormatError(f"{path}: row {line}, column {name!r}: {exc}") from None
            value, stderr = cells.pop("value"), cells.pop("mc_stderr")
            try:
                request = CritValRequest(**cells)
            except ValueError as exc:
                raise CsvFormatError(f"{path}: row {line}: {exc}") from None
            yield CritVal(value, request, stderr)


@dataclass
class MonteCarloProvider:
    """Critical values computed on demand and memoised for the process lifetime.

    The memo ``_cache`` holds one critical value per (kind, d, gamma, alpha)
    key, and a table file is that memo on disk: :meth:`save` writes it, and
    ``table`` loads such a file into it before anything is simulated. A key
    found there is served as stored, at the budget and seed it was built
    with; every other key is simulated at this provider's budget. Each
    (kind, d, gamma) is simulated once; every alpha asked for at it is
    answered from that one stored sample. The offline d = 1 simulation also
    fills the gamma-0 standard d = 1 sample, so a detector asked for after
    segmentation at the defaults draws nothing.
    """

    seed: int = 0
    grid_steps: int = DEFAULT_GRID_STEPS
    replications: int = DEFAULT_REPLICATIONS
    horizon_T: float = DEFAULT_HORIZON_T
    table: InitVar[str | Path | None] = None
    _cache: dict = field(default_factory=dict, repr=False)
    _samples: dict = field(default_factory=dict, repr=False)

    def __post_init__(self, table: str | Path | None) -> None:
        if table is not None:
            for cv in _read_table(table):
                req = cv.request
                self._cache[_key(req.kind, req.d, req.alpha, req.gamma)] = cv

    def __call__(
        self, kind: CritValKind | str, d: int, alpha: float, gamma: float = 0.0
    ) -> CritVal:
        kind = CritValKind(kind)
        key = _key(kind, d, alpha, gamma)
        cv = self._cache.get(key)
        if cv is None:
            request = CritValRequest(
                kind=kind,
                alpha=alpha,
                d=d,
                gamma=gamma,
                grid_steps=self.grid_steps,
                replications=self.replications,
                horizon_T=self.horizon_T if kind is CritValKind.ONLINE_RATIO else None,
                seed=self.seed,
            )
            cv = self._cache[key] = compute_critval(request, self._samples)
        return cv

    def save(self, path: str | Path) -> None:
        """Write the memo as a table file, one row per key in key order."""
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_TABLE_COLUMNS)
            for _, cv in sorted(self._cache.items()):
                req = cv.request
                writer.writerow(
                    [
                        req.kind.value,
                        req.d,
                        repr(req.gamma) if req.kind.is_online else "",
                        repr(req.alpha),
                        req.grid_steps,
                        req.replications,
                        "" if req.horizon_T is None else repr(req.horizon_T),
                        req.seed,
                        repr(cv.value),
                        repr(cv.mc_stderr),
                    ]
                )


def build_table(
    path: str | Path | None = None,
    kinds: Iterable[CritValKind | str] = tuple(CritValKind),
    dims: Sequence[int] = TABLE_DIMS,
    alphas: Sequence[float] = TABLE_ALPHAS,
    gammas: Sequence[float] = TABLE_GAMMAS,
    grid_steps: int = DEFAULT_GRID_STEPS,
    replications: int = DEFAULT_REPLICATIONS,
    horizon_T: float = DEFAULT_HORIZON_T,
    seed: int = 0,
    progress: Callable[[CritVal], None] | None = None,
) -> MonteCarloProvider:
    """Fill one provider with every (kind, d, gamma, alpha) cell and optionally save it.

    Cells that differ only in alpha share one simulated sample, so the
    tabulated quantiles are monotone in alpha by construction. A sample is
    dropped once its alphas are served. The offline d = 1 simulation also
    fills the gamma-0 standard d = 1 sample (see :func:`compute_critval`),
    which stays until its own cells are served, so at most two samples are
    alive at a time. Rebuilding with the same arguments writes a
    byte-identical file.
    """
    provider = MonteCarloProvider(
        seed=seed, grid_steps=grid_steps, replications=replications, horizon_T=horizon_T
    )
    for kind in (CritValKind(k) for k in kinds):
        for d in dims:
            for gamma in gammas if kind.is_online else (0.0,):
                for alpha in alphas:
                    cv = provider(kind, d, alpha, gamma)
                    if progress is not None:
                        progress(cv)
                if alphas:
                    provider._samples.pop(_sample_key(cv.request), None)
    if path is not None:
        provider.save(path)
    return provider
