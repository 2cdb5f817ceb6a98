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
replications are scheduled or parallelised.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NotTabulatedError
from .longrun import inverse as _reg_inverse
from .rng import substream

__all__ = [
    "CritValKind",
    "CritValRequest",
    "CritVal",
    "CritValProvider",
    "simulate_brownian_motion",
    "replication_stat",
    "compute_critval",
    "build_table",
    "CritValTable",
    "MonteCarloProvider",
    "TableProvider",
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
        if self.kind is CritValKind.ONLINE_RATIO:
            if self.horizon_T is None:
                object.__setattr__(self, "horizon_T", DEFAULT_HORIZON_T)
            if not self.horizon_T > 0:
                raise ValueError("horizon_T must be positive")
        elif self.horizon_T is not None:
            raise ValueError("horizon_T applies to the ratio statistic only")


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


# A provider maps (kind, d, alpha, gamma) to a critical value; both the
# Monte-Carlo and the table-backed implementations below satisfy it.
CritValProvider = Callable[..., CritVal]


def simulate_brownian_motion(grid_steps: int, seed: int) -> np.ndarray:
    """One standard Brownian-motion path on [0, 1].

    Returns grid_steps + 1 values starting at W(0) = 0, with i.i.d. Gaussian
    increments of variance 1 / grid_steps. The same seed always yields the
    same path.
    """
    if grid_steps < 1:
        raise ValueError("grid_steps must be at least 1")
    rng = substream(seed, 0)
    path = np.empty(grid_steps + 1)
    path[0] = 0.0
    np.cumsum(rng.standard_normal(grid_steps) / np.sqrt(grid_steps), out=path[1:])
    return path


def _wiener_paths(rng: np.random.Generator, d: int, steps: int, step_var: float) -> np.ndarray:
    """(d, steps) matrix of W(t_1)..W(t_steps); the implicit W(0) = 0 is omitted."""
    increments = rng.standard_normal((d, steps)) * np.sqrt(step_var)
    return np.cumsum(increments, axis=1)


def _offline_stat(rng: np.random.Generator, d: int, grid_steps: int) -> float:
    w = _wiener_paths(rng, d, grid_steps, 1.0 / grid_steps)
    t = np.arange(1, grid_steps + 1) / grid_steps
    bridge = w - t * w[:, -1:]
    return float(np.max(np.sum(bridge * bridge, axis=0)))


def _online_standard_stat(rng: np.random.Generator, d: int, grid_steps: int, gamma: float) -> float:
    w = _wiener_paths(rng, d, grid_steps, 1.0 / grid_steps)
    path = np.sum(np.abs(w), axis=0)
    if gamma != 0.0:
        t = np.arange(1, grid_steps + 1) / grid_steps
        path = path / t**gamma
    return float(np.max(path))


def _online_ratio_stat(
    rng: np.random.Generator, d: int, grid_steps: int, gamma: float, horizon: float
) -> float:
    total = grid_steps + int(round(grid_steps * horizon))
    w = _wiener_paths(rng, d, total, 1.0 / grid_steps)
    u = np.arange(1, total + 1) / grid_steps
    bridge = w - u * w[:, grid_steps - 1 : grid_steps]

    # trapezoid rule for integral_0^1 B B^T dr; B(0) = 0 drops out of the sum
    weights = np.full(grid_steps, 1.0 / grid_steps)
    weights[-1] /= 2.0
    unit = bridge[:, :grid_steps]
    denom_inv = _reg_inverse((unit * weights) @ unit.T)

    tail = bridge[:, grid_steps:]
    t = u[grid_steps:] - 1.0
    quad = np.einsum("ji,jk,ki->i", tail, denom_inv, tail)
    eta = (1.0 + t) * (t / (1.0 + t)) ** gamma
    return float(np.max(quad / eta**2))


def replication_stat(request: CritValRequest, rep: int) -> float:
    """The simulated supremum for one replication.

    Pure in (request, rep): evaluation order is irrelevant, which is what
    makes parallel table builds reproducible.
    """
    rng = substream(request.seed, rep)
    if request.kind is CritValKind.OFFLINE_MAX:
        return _offline_stat(rng, request.d, request.grid_steps)
    if request.kind is CritValKind.ONLINE_STANDARD:
        return _online_standard_stat(rng, request.d, request.grid_steps, request.gamma)
    return _online_ratio_stat(
        rng, request.d, request.grid_steps, request.gamma, float(request.horizon_T)
    )


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


def compute_critval(request: CritValRequest, samples: dict | None = None) -> CritVal:
    """Simulate the limiting functional and return its (1 - alpha) quantile.

    ``samples`` stores sorted simulated statistics by alpha-free request
    (see :func:`_sample_key`). Replication r always draws substream
    (seed, r) and never reads alpha, so every level of one request is a
    quantile of the same sample: a stored sample is reused, and a missing
    one is simulated and stored.
    """
    key = _sample_key(request)
    ordered = None if samples is None else samples.get(key)
    if ordered is None:
        stats = np.empty(request.replications)
        for rep in range(request.replications):
            stats[rep] = replication_stat(request, rep)
        ordered = np.sort(stats)
        ordered.flags.writeable = False
        if samples is not None:
            samples[key] = ordered
    value, stderr = _quantile_and_stderr(ordered, 1.0 - request.alpha)
    tail_count = ordered.size - int(np.searchsorted(ordered, value, side="right"))
    return CritVal(value=value, request=request, mc_stderr=stderr, tail_count=tail_count)


def _key(kind: CritValKind, d: int, alpha: float, gamma: float) -> tuple:
    # gamma is meaningless for the offline statistic; collapse it in the key
    g = None if kind is CritValKind.OFFLINE_MAX else float(gamma)
    return (CritValKind(kind).value, int(d), g, float(alpha))


class CritValTable:
    """Exact-key store of precomputed critical values.

    Lookups never interpolate: a key that was not simulated raises
    :class:`NotTabulatedError`.
    """

    _COLUMNS = (
        "kind",
        "d",
        "gamma",
        "alpha",
        "grid_steps",
        "replications",
        "horizon_T",
        "seed",
        "value",
        "mc_stderr",
    )

    def __init__(self) -> None:
        self._entries: dict[tuple, CritVal] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, critval: CritVal) -> None:
        req = critval.request
        self._entries[_key(req.kind, req.d, req.alpha, req.gamma)] = critval

    def lookup(self, kind: CritValKind | str, d: int, alpha: float, gamma: float = 0.0) -> CritVal:
        key = _key(CritValKind(kind), d, alpha, gamma)
        try:
            return self._entries[key]
        except KeyError:
            raise NotTabulatedError(
                f"critical value not tabulated for kind={key[0]} d={d} "
                f"alpha={alpha} gamma={gamma}"
            ) from None

    def save(self, path: str | Path) -> None:
        rows = sorted(self._entries.items())
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self._COLUMNS)
            for _, cv in rows:
                req = cv.request
                offline = req.kind is CritValKind.OFFLINE_MAX
                writer.writerow(
                    [
                        req.kind.value,
                        req.d,
                        "" if offline else repr(req.gamma),
                        repr(req.alpha),
                        req.grid_steps,
                        req.replications,
                        "" if req.horizon_T is None else repr(req.horizon_T),
                        req.seed,
                        repr(cv.value),
                        repr(cv.mc_stderr),
                    ]
                )

    @classmethod
    def load(cls, path: str | Path) -> "CritValTable":
        table = cls()
        with Path(path).open(newline="") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                kind = CritValKind(row["kind"])
                request = CritValRequest(
                    kind=kind,
                    alpha=float(row["alpha"]),
                    d=int(row["d"]),
                    gamma=float(row["gamma"]) if row["gamma"] else 0.0,
                    grid_steps=int(row["grid_steps"]),
                    replications=int(row["replications"]),
                    horizon_T=float(row["horizon_T"]) if row["horizon_T"] else None,
                    seed=int(row["seed"]),
                )
                table.add(CritVal(float(row["value"]), request, float(row["mc_stderr"])))
        return table


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
) -> CritValTable:
    """Simulate every (kind, d, gamma, alpha) cell and optionally persist the table.

    Cells that differ only in alpha share the same simulated sample, so the
    tabulated quantiles are monotone in alpha by construction. Rebuilding
    with the same arguments writes a byte-identical file.
    """
    table = CritValTable()
    for kind in (CritValKind(k) for k in kinds):
        kind_gammas = gammas if kind.is_online else (0.0,)
        for d in dims:
            for gamma in kind_gammas:
                base = CritValRequest(
                    kind=kind,
                    alpha=alphas[0],
                    d=d,
                    gamma=gamma,
                    grid_steps=grid_steps,
                    replications=replications,
                    horizon_T=horizon_T if kind is CritValKind.ONLINE_RATIO else None,
                    seed=seed,
                )
                samples: dict = {}
                for alpha in alphas:
                    cv = compute_critval(replace(base, alpha=alpha), samples)
                    table.add(cv)
                    if progress is not None:
                        progress(cv)
    if path is not None:
        table.save(path)
    return table


@dataclass
class MonteCarloProvider:
    """Critical values computed on demand and memoised for the process lifetime.

    Each (kind, d, gamma) is simulated once; every alpha asked for at it is
    answered from that one stored sample.
    """

    seed: int = 0
    grid_steps: int = DEFAULT_GRID_STEPS
    replications: int = DEFAULT_REPLICATIONS
    horizon_T: float = DEFAULT_HORIZON_T
    _cache: dict = field(default_factory=dict, repr=False)
    _samples: dict = field(default_factory=dict, repr=False)

    def __call__(
        self, kind: CritValKind | str, d: int, alpha: float, gamma: float = 0.0
    ) -> CritVal:
        kind = CritValKind(kind)
        key = _key(kind, d, alpha, gamma)
        if key not in self._cache:
            request = CritValRequest(
                kind=kind,
                alpha=alpha,
                d=d,
                gamma=gamma if kind.is_online else 0.0,
                grid_steps=self.grid_steps,
                replications=self.replications,
                horizon_T=self.horizon_T if kind is CritValKind.ONLINE_RATIO else None,
                seed=self.seed,
            )
            self._cache[key] = compute_critval(request, self._samples)
        return self._cache[key]


@dataclass
class TableProvider:
    """Critical values served from a precomputed table; never simulates."""

    table: CritValTable

    @classmethod
    def from_file(cls, path: str | Path) -> "TableProvider":
        return cls(CritValTable.load(path))

    def __call__(
        self, kind: CritValKind | str, d: int, alpha: float, gamma: float = 0.0
    ) -> CritVal:
        return self.table.lookup(kind, d, alpha, gamma)
