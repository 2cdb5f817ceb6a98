import math
import sys
import threading

import numpy as np
import pytest
from scipy import optimize

from cpstream import critvals, rng
from cpstream.critvals import (
    CritVal,
    CritValKind,
    CritValRequest,
    MonteCarloProvider,
    _online_standard_stats,
    _paths,
    _sample_key,
    _sup_abs,
    _wiener_paths,
    build_table,
    compute_critval,
    replication_stat,
)
from cpstream.rng import standard_normal_rows, substream


def sup_abs_bridge_sf(x):
    """P(sup |B(t)| > x) from the Kolmogorov series 2 sum (-1)^(k-1) exp(-2 k^2 x^2)."""
    k = np.arange(1, 200)
    return 2.0 * np.sum((-1.0) ** (k + 1) * np.exp(-2.0 * k**2 * x**2))


def sup_abs_bridge_quantile(p):
    """Analytic p-quantile of sup |B(t)| from its alternating series."""
    return optimize.brentq(lambda v: sup_abs_bridge_sf(v) - (1.0 - p), 0.2, 4.0, xtol=1e-12)


def sup_abs_wiener_quantile(p):
    """Analytic p-quantile of sup |W(t)| on [0, 1] from its theta series."""

    def cdf(a):
        k = np.arange(0, 200)
        return (4.0 / np.pi) * np.sum(
            (-1.0) ** k / (2 * k + 1) * np.exp(-np.pi**2 * (2 * k + 1) ** 2 / (8.0 * a**2))
        )

    return optimize.brentq(lambda v: cdf(v) - p, 0.3, 5.0, xtol=1e-12)


def brownian_paths(rows, grid_steps, seed):
    """W(1/grid_steps)..W(1) of replications 0..rows-1, as replication_stats draws them."""
    normals = standard_normal_rows(np.empty((rows, grid_steps)), seed)
    return _wiener_paths(normals, 1.0 / grid_steps)


class TestBrownianMotion:
    def test_starts_at_zero(self):
        # W(0) = 0 is implicit: the first point is the first increment alone
        normals = substream(5, 0).standard_normal(100)
        path = _wiener_paths(normals.copy(), 1.0 / 100)
        assert path[0] == normals[0] * np.sqrt(1.0 / 100)
        assert np.array_equal(path, np.cumsum(normals * np.sqrt(1.0 / 100)))

    def test_deterministic_per_seed(self):
        a = brownian_paths(3, 500, seed=9)
        b = brownian_paths(3, 500, seed=9)
        assert np.array_equal(a, b)
        c = brownian_paths(3, 500, seed=10)
        assert not np.array_equal(a, c)
        # replication r is substream (seed, r), whatever block it is drawn in
        single = _wiener_paths(substream(9, 2).standard_normal(500), 1.0 / 500)
        assert np.array_equal(a[2], single)

    def test_endpoint_variance(self):
        # grid_steps=1 makes W(1) a single standard normal draw per replication
        draws = brownian_paths(100_000, 1, seed=0)[:, -1]
        assert 0.98 <= draws.var() <= 1.02


class TestRequestValidation:
    def test_alpha_range(self):
        for alpha in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                CritValRequest(kind=CritValKind.OFFLINE_MAX, alpha=alpha)

    def test_gamma_range(self):
        with pytest.raises(ValueError):
            CritValRequest(kind=CritValKind.ONLINE_STANDARD, alpha=0.05, gamma=0.5)

    def test_gamma_rejected_for_offline(self):
        with pytest.raises(ValueError):
            CritValRequest(kind=CritValKind.OFFLINE_MAX, alpha=0.05, gamma=0.1)

    def test_budget_floors(self):
        with pytest.raises(ValueError):
            CritValRequest(kind=CritValKind.OFFLINE_MAX, alpha=0.05, grid_steps=50)
        with pytest.raises(ValueError):
            CritValRequest(kind=CritValKind.OFFLINE_MAX, alpha=0.05, replications=10)

    def test_horizon_only_for_ratio(self):
        with pytest.raises(ValueError):
            CritValRequest(kind=CritValKind.ONLINE_STANDARD, alpha=0.05, horizon_T=5.0)
        req = CritValRequest(kind=CritValKind.ONLINE_RATIO, alpha=0.05)
        assert req.horizon_T == 10.0

    @pytest.mark.parametrize("horizon", [math.inf, math.nan, 1e307, 1e-9, 0.005, 0.0, -1.0])
    def test_ratio_horizon_must_add_a_finite_grid_step(self, horizon):
        # at 100 grid steps, T = 1e307 overflows the step count and T = 0.005
        # rounds to no step after t = 1
        with pytest.raises(ValueError, match=r"^horizon_T must be finite and add a grid step"):
            CritValRequest(kind=CritValKind.ONLINE_RATIO, alpha=0.05, grid_steps=100, horizon_T=horizon)
        # a horizon of one grid step adds one step after t = 1
        req = CritValRequest(kind=CritValKind.ONLINE_RATIO, alpha=0.05, grid_steps=100, horizon_T=0.01)
        assert critvals._path_steps(req) == 101

    def test_replications_fit_below_the_substream_index_bound(self):
        with pytest.raises(ValueError, match=r"^replications must be at most 2\*\*32, got 4294967297$"):
            CritValRequest(kind=CritValKind.OFFLINE_MAX, alpha=0.05, replications=2**32 + 1)
        assert CritValRequest(kind=CritValKind.OFFLINE_MAX, alpha=0.05, replications=2**32)

    LIMIT = np.iinfo(np.intp).max // 8

    @pytest.mark.parametrize(
        "fields, sizes",
        [
            (dict(kind=CritValKind.ONLINE_RATIO, grid_steps=100, horizon_T=1e306),
             "d=1, grid_steps=100, horizon_T=1e+306"),
            (dict(kind=CritValKind.ONLINE_RATIO, grid_steps=100, horizon_T=1e17),
             "d=1, grid_steps=100, horizon_T=1e+17"),
            (dict(kind=CritValKind.OFFLINE_MAX, grid_steps=10**20), f"d=1, grid_steps={10**20}"),
            (dict(kind=CritValKind.ONLINE_STANDARD, d=10**20, grid_steps=100),
             f"d={10**20}, grid_steps=100"),
            (dict(kind=CritValKind.OFFLINE_MAX, grid_steps=LIMIT + 1), f"d=1, grid_steps={LIMIT + 1}"),
            (dict(kind=CritValKind.OFFLINE_MAX, d=2, grid_steps=LIMIT // 2 + 1),
             f"d=2, grid_steps={LIMIT // 2 + 1}"),
        ],
        ids=["ratio-1e306", "ratio-1e17", "grid-1e20", "d-1e20", "grid-limit+1", "d2-half-limit+1"],
    )
    def test_path_row_must_be_addressable(self, fields, sizes):
        # numpy's own errors name no field: "Maximum allowed size exceeded"
        with pytest.raises(ValueError) as info:
            CritValRequest(alpha=0.05, replications=1000, **fields)
        assert str(info.value) == (
            f"the path row of {sizes} exceeds the {self.LIMIT} floats numpy can address"
        )

    def test_path_row_at_the_address_bound_accepted(self):
        request = CritValRequest(kind=CritValKind.OFFLINE_MAX, alpha=0.05, grid_steps=self.LIMIT)
        assert critvals._path_steps(request) == self.LIMIT

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            CritValRequest(kind=CritValKind.OFFLINE_MAX, alpha=0.05, seed=-1)
        assert CritValRequest(kind=CritValKind.OFFLINE_MAX, alpha=0.05, seed=0).seed == 0


class TestOfflineQuantile:
    def test_matches_analytic_bridge_quantile(self, cv_offline_d1):
        target = sup_abs_bridge_quantile(0.95) ** 2
        assert target == pytest.approx(1.8444, abs=5e-4)
        # grid discretisation biases the simulated sup slightly low
        assert abs(cv_offline_d1.value - target) <= 3 * cv_offline_d1.mc_stderr + 0.015

    def test_monotone_in_alpha_and_analytic_at_each_level(self):
        table = build_table(
            kinds=[CritValKind.OFFLINE_MAX],
            dims=(1,),
            alphas=(0.01, 0.05, 0.10),
            grid_steps=1000,
            replications=20_000,
            seed=1,
        )
        values = []
        for alpha in (0.01, 0.05, 0.10):
            cv = table(CritValKind.OFFLINE_MAX, 1, alpha)
            values.append(cv.value)
            target = sup_abs_bridge_quantile(1.0 - alpha) ** 2
            assert abs(cv.value - target) <= 3 * cv.mc_stderr + 0.03
        assert values[0] > values[1] > values[2]

    def test_d2_larger_than_d1(self, cv_offline_d1, cv_offline_d2):
        assert cv_offline_d2.value > cv_offline_d1.value


class TestOnlineStandardQuantile:
    def test_matches_analytic_wiener_quantile(self, cv_standard_d1):
        target = sup_abs_wiener_quantile(0.95)
        assert target == pytest.approx(2.2414, abs=5e-4)
        assert abs(cv_standard_d1.value - target) <= 3 * cv_standard_d1.mc_stderr + 0.03

    def test_gamma_inflates_quantile(self):
        base = dict(
            kind=CritValKind.ONLINE_STANDARD,
            alpha=0.05,
            d=1,
            grid_steps=1000,
            replications=10_000,
            seed=2,
        )
        v0 = compute_critval(CritValRequest(gamma=0.0, **base)).value
        v45 = compute_critval(CritValRequest(gamma=0.45, **base)).value
        assert v45 > v0

    def test_deterministic(self):
        req = CritValRequest(
            kind=CritValKind.ONLINE_STANDARD,
            alpha=0.05,
            grid_steps=300,
            replications=2000,
            seed=7,
        )
        assert compute_critval(req) == compute_critval(req)


class TestOnlineRatioQuantile:
    def test_reproducible_across_seeds(self):
        base = dict(
            kind=CritValKind.ONLINE_RATIO,
            alpha=0.05,
            d=1,
            gamma=0.0,
            grid_steps=300,
            replications=4000,
            horizon_T=10.0,
        )
        a = compute_critval(CritValRequest(seed=1, **base))
        b = compute_critval(CritValRequest(seed=2, **base))
        assert a.value > 0
        assert abs(a.value - b.value) <= 2 * (a.mc_stderr + b.mc_stderr)

    def test_sup_saturates_in_horizon(self):
        base = dict(
            kind=CritValKind.ONLINE_RATIO,
            alpha=0.05,
            d=1,
            gamma=0.0,
            grid_steps=300,
            replications=4000,
            seed=5,
        )
        t10 = compute_critval(CritValRequest(horizon_T=10.0, **base))
        t20 = compute_critval(CritValRequest(horizon_T=20.0, **base))
        assert abs(t20.value - t10.value) < 4 * t10.mc_stderr

    def test_alpha_ordering(self):
        base = dict(
            kind=CritValKind.ONLINE_RATIO,
            d=1,
            gamma=0.0,
            grid_steps=200,
            replications=3000,
            horizon_T=5.0,
            seed=6,
        )
        v01 = compute_critval(CritValRequest(alpha=0.01, **base)).value
        v05 = compute_critval(CritValRequest(alpha=0.05, **base)).value
        assert v01 > v05


class TestDeterminism:
    def test_replication_order_irrelevant(self):
        req = CritValRequest(
            kind=CritValKind.OFFLINE_MAX,
            alpha=0.05,
            grid_steps=200,
            replications=2000,
            seed=4,
        )
        reference = compute_critval(req)
        order = np.random.default_rng(0).permutation(req.replications)
        shuffled = np.empty(req.replications)
        for rep in order:
            shuffled[rep] = replication_stat(req, int(rep))
        assert float(np.quantile(np.sort(shuffled), 0.95)) == reference.value

    def test_stderr_shrinks_with_replications(self):
        base = dict(kind=CritValKind.OFFLINE_MAX, alpha=0.05, grid_steps=200, seed=8)
        small = compute_critval(CritValRequest(replications=50_000, **base))
        large = compute_critval(CritValRequest(replications=100_000, **base))
        ratio = small.mc_stderr / large.mc_stderr
        assert np.sqrt(2) * 0.75 <= ratio <= np.sqrt(2) * 1.25


class TestCpuCount:
    """Replications split over CPUs give the serial sample, bit for bit."""

    # 1000 reps at grid 1000 are 32-row blocks, the last one 8 rows (16-row
    # blocks and a last of 8 at d = 2 or the ratio's 2 000-step path); every
    # row is long enough to be split
    BUDGET = dict(alpha=0.05, grid_steps=1000, replications=1000, seed=9)
    REQUESTS = {
        "offline-d1-with-companion": dict(kind=CritValKind.OFFLINE_MAX, d=1),
        "offline-d2": dict(kind=CritValKind.OFFLINE_MAX, d=2),
        "standard-d2-gamma0.25": dict(kind=CritValKind.ONLINE_STANDARD, d=2, gamma=0.25),
        "ratio-d1": dict(kind=CritValKind.ONLINE_RATIO, d=1, horizon_T=1.0),
    }

    @pytest.mark.parametrize("fields", REQUESTS.values(), ids=REQUESTS.keys())
    def test_same_bits_at_any_cpu_count(self, monkeypatch, fields):
        request = CritValRequest(**fields, **self.BUDGET)
        stored = {}
        for cpus in (1, 2, 3):
            monkeypatch.setattr(rng, "_cpus", lambda cpus=cpus: cpus)
            threads = set()

            def traced(request, lo, hi, worker=None):
                threads.add(threading.get_ident())
                return _paths(request, lo, hi, worker)

            monkeypatch.setattr(critvals, "_paths", traced)
            samples = {}
            compute_critval(request, samples)
            assert len(threads) == cpus
            stored[cpus] = {key: sample.tobytes() for key, sample in samples.items()}
        assert len(stored[1]) == (2 if fields == self.REQUESTS["offline-d1-with-companion"] else 1)
        assert stored[1] == stored[2] == stored[3]

    def test_table_bytes_at_one_and_three_cpus(self, tmp_path, monkeypatch):
        params = dict(
            dims=(1, 2), alphas=(0.05, 0.10), gammas=(0.0, 0.25), grid_steps=1000,
            replications=1000, horizon_T=1.0, seed=2,
        )
        for cpus in (1, 3):
            monkeypatch.setattr(rng, "_cpus", lambda cpus=cpus: cpus)
            build_table(tmp_path / f"{cpus}.csv", **params)
        assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "3.csv").read_bytes()

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_failure_is_reraised_and_every_thread_joined(self, monkeypatch, failing):
        caller = threading.current_thread()
        real = critvals._kernel

        class Failure(Exception):
            pass

        def failing_kernel(request):
            kernel = real(request)

            def stats(w):
                if (threading.current_thread() is caller) == (failing == "caller"):
                    raise Failure
                return kernel(w)

            return stats

        monkeypatch.setattr(rng, "_cpus", lambda: 2)
        monkeypatch.setattr(critvals, "_kernel", failing_kernel)
        before = threading.active_count()
        samples = {}
        with pytest.raises(Failure):
            compute_critval(CritValRequest(kind=CritValKind.OFFLINE_MAX, **self.BUDGET), samples)
        assert samples == {}
        assert threading.active_count() == before

    def test_more_workers_than_cpus_with_frequent_switches(self, monkeypatch):
        request = CritValRequest(kind=CritValKind.OFFLINE_MAX, **self.BUDGET)
        serial = {}
        monkeypatch.setattr(rng, "_cpus", lambda: 1)
        compute_critval(request, serial)
        monkeypatch.setattr(rng, "_cpus", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            split = {}
            compute_critval(request, split)
        finally:
            sys.setswitchinterval(interval)
        assert {k: v.tobytes() for k, v in split.items()} == {k: v.tobytes() for k, v in serial.items()}

    @pytest.mark.parametrize("cpus, grid_steps", [(1, 1000), (3, 100)], ids=["one-cpu", "short-rows"])
    def test_no_thread_on_one_cpu_or_below_the_crossover(self, monkeypatch, cpus, grid_steps):
        def refused(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(rng, "_cpus", lambda: cpus)
        monkeypatch.setattr(threading, "Thread", refused)
        request = CritValRequest(kind=CritValKind.OFFLINE_MAX, alpha=0.05, grid_steps=grid_steps,
                                 replications=1000, seed=9)
        assert compute_critval(request).value > 0


class TestTable:
    SMALL = dict(
        kinds=[CritValKind.OFFLINE_MAX, CritValKind.ONLINE_STANDARD],
        dims=(1, 2),
        alphas=(0.05, 0.10),
        gammas=(0.0, 0.25),
        grid_steps=200,
        replications=2000,
        seed=11,
    )

    def test_rebuild_is_byte_identical(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        build_table(first, **self.SMALL)
        build_table(second, **self.SMALL)
        assert first.read_bytes() == second.read_bytes()

    def test_lookup_matches_direct_computation(self, tmp_path):
        path = tmp_path / "table.csv"
        table = build_table(path, **self.SMALL)
        direct = compute_critval(
            CritValRequest(
                kind=CritValKind.OFFLINE_MAX,
                alpha=0.05,
                d=1,
                grid_steps=200,
                replications=2000,
                seed=11,
            )
        )
        assert table(CritValKind.OFFLINE_MAX, 1, 0.05).value == direct.value
        loaded = MonteCarloProvider(grid_steps=100, replications=1000, table=path)
        assert loaded(CritValKind.OFFLINE_MAX, 1, 0.05).value == direct.value

    def test_quantiles_monotone_in_alpha_across_table(self, tmp_path):
        table = build_table(tmp_path / "t.csv", **self.SMALL)
        for kind in (CritValKind.OFFLINE_MAX, CritValKind.ONLINE_STANDARD):
            gammas = (0.0, 0.25) if kind.is_online else (0.0,)
            for d in (1, 2):
                for gamma in gammas:
                    v5 = table(kind, d, 0.05, gamma).value
                    v10 = table(kind, d, 0.10, gamma).value
                    assert v5 > v10


class TestProviders:
    def test_monte_carlo_provider_caches(self):
        provider = MonteCarloProvider(seed=0, grid_steps=200, replications=2000)
        a = provider(CritValKind.OFFLINE_MAX, 1, 0.05)
        b = provider(CritValKind.OFFLINE_MAX, 1, 0.05)
        assert a is b
        assert isinstance(a, CritVal)

    def test_table_with_byte_order_mark_loads_the_same_memo(self, tmp_path):
        path = tmp_path / "t.csv"
        build_table(
            path, kinds=[CritValKind.OFFLINE_MAX, CritValKind.ONLINE_RATIO], dims=(1, 2),
            alphas=(0.05, 0.1), gammas=(0.0,), grid_steps=100, replications=1000, seed=0,
        )
        marked = tmp_path / "marked.csv"
        marked.write_text("\ufeff" + path.read_text(), encoding="utf-8")
        plain = MonteCarloProvider(table=path)._cache
        assert len(plain) == 8
        assert MonteCarloProvider(table=marked)._cache == plain

    def test_table_serves_stored_keys_and_simulates_the_rest(self, tmp_path, monkeypatch):
        path = tmp_path / "t.csv"
        built = build_table(
            path,
            kinds=[CritValKind.OFFLINE_MAX],
            dims=(1,),
            alphas=(0.05,),
            grid_steps=200,
            replications=2000,
            seed=0,
        )
        stored = built(CritValKind.OFFLINE_MAX, 1, 0.05)
        reps = []

        def counted(request, lo, hi, worker=None):
            reps.extend(range(lo, hi))
            return _paths(request, lo, hi, worker)

        monkeypatch.setattr("cpstream.critvals._paths", counted)
        provider = MonteCarloProvider(seed=4, grid_steps=150, replications=1000, table=path)

        # a tabulated key: the stored value at the file's budget, no replication
        tabulated = provider(CritValKind.OFFLINE_MAX, 1, 0.05)
        assert reps == []
        assert (tabulated.value, tabulated.mc_stderr) == (stored.value, stored.mc_stderr)
        assert tabulated.request == stored.request
        assert (tabulated.request.grid_steps, tabulated.request.replications) == (200, 2000)
        assert tabulated.tail_count is None

        # an untabulated alpha: simulated once at the provider's own budget
        simulated = provider(CritValKind.OFFLINE_MAX, 1, 0.01)
        assert len(reps) == 1000
        assert (simulated.request.grid_steps, simulated.request.replications) == (150, 1000)
        assert simulated.request.seed == 4
        assert provider(CritValKind.OFFLINE_MAX, 1, 0.01) is simulated
        assert len(reps) == 1000


class TestSampleStore:
    """One simulated sample per alpha-free request serves every level."""

    ALPHAS = (0.10, 0.05, 0.01)

    def test_one_simulation_serves_every_alpha(self, monkeypatch):
        calls = []

        def counted(request, lo, hi, worker=None):
            calls.extend(range(lo, hi))
            return _paths(request, lo, hi, worker)

        monkeypatch.setattr("cpstream.critvals._paths", counted)
        provider = MonteCarloProvider(seed=5, grid_steps=200, replications=2000)
        answers = [provider(CritValKind.ONLINE_STANDARD, 2, a, gamma=0.25) for a in self.ALPHAS]
        assert len(calls) == 2000
        monkeypatch.undo()

        for alpha, cv in zip(self.ALPHAS, answers):
            fresh = compute_critval(
                CritValRequest(
                    kind=CritValKind.ONLINE_STANDARD, alpha=alpha, d=2, gamma=0.25,
                    grid_steps=200, replications=2000, seed=5,
                )
            )
            assert cv.value == fresh.value
            assert cv.mc_stderr == fresh.mc_stderr
            assert cv.tail_count == fresh.tail_count

    def test_levels_match_kolmogorov_series(self):
        grid, reps = 1000, 20_000
        provider = MonteCarloProvider(seed=3, grid_steps=grid, replications=reps)
        for alpha in self.ALPHAS:
            cv = provider(CritValKind.OFFLINE_MAX, 1, alpha)
            # the grid maximum misses the continuous supremum by about
            # 0.5826 / sqrt(grid) (Broadie, Glasserman & Kou 1997)
            x = np.sqrt(cv.value) + 0.5826 / np.sqrt(grid)
            assert abs(sup_abs_bridge_sf(x) - alpha) <= 3 * np.sqrt(alpha * (1 - alpha) / reps)
            assert cv.tail_count == round(alpha * reps)

    def test_table_matches_cell_by_cell_build(self, tmp_path):
        params = dict(grid_steps=150, replications=1000, seed=12)
        build_table(tmp_path / "stored.csv", dims=(1, 2), gammas=(0.0, 0.25), **params)
        # every row holds what an independent simulation of its cell gives; a
        # key missing from the file would be simulated at the provider's
        # 100 x 1000 budget and fail the request check
        loaded = MonteCarloProvider(grid_steps=100, replications=1000, table=tmp_path / "stored.csv")
        rows = 0
        for kind in CritValKind:
            for d in (1, 2):
                for gamma in (0.0, 0.25) if kind.is_online else (0.0,):
                    horizon = 10.0 if kind is CritValKind.ONLINE_RATIO else None
                    for alpha in (0.01, 0.05, 0.10):
                        request = CritValRequest(
                            kind=kind, alpha=alpha, d=d, gamma=gamma, horizon_T=horizon, **params
                        )
                        cell = compute_critval(request)
                        stored = loaded(kind, d, alpha, gamma)
                        assert stored.request == request
                        assert (stored.value, stored.mc_stderr) == (cell.value, cell.mc_stderr)
                        rows += 1
        assert len((tmp_path / "stored.csv").read_text().splitlines()) == 1 + rows
        # and the file is the loaded memo, byte for byte
        loaded.save(tmp_path / "cells.csv")
        assert (tmp_path / "stored.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


class TestSharedDraw:
    """At d = 1 one offline simulation also fills the gamma-0 standard sample."""

    BUDGET = dict(grid_steps=200, replications=1000, seed=6)

    def request(self, kind, d=1, alpha=0.05):
        return CritValRequest(kind=kind, alpha=alpha, d=d, **self.BUDGET)

    @staticmethod
    def counted_replications(monkeypatch):
        reps = []

        def counted(request, lo, hi, worker=None):
            reps.extend(range(lo, hi))
            return _paths(request, lo, hi, worker)

        monkeypatch.setattr("cpstream.critvals._paths", counted)
        return reps

    def test_offline_miss_at_d1_stores_the_standard_sample(self, monkeypatch):
        store = {}
        compute_critval(self.request(CritValKind.OFFLINE_MAX), store)
        standard = self.request(CritValKind.ONLINE_STANDARD)
        key = _sample_key(standard)
        assert set(store) == {_sample_key(self.request(CritValKind.OFFLINE_MAX)), key}
        fresh = {}
        compute_critval(standard, fresh)
        assert np.array_equal(store[key], fresh[key])
        assert not store[key].flags.writeable

        reps = self.counted_replications(monkeypatch)
        provider = MonteCarloProvider(**self.BUDGET)
        provider(CritValKind.OFFLINE_MAX, 1, 0.01)
        assert len(reps) == 1000
        alphas = (0.10, 0.05, 0.01)
        served = [provider(CritValKind.ONLINE_STANDARD, 1, alpha) for alpha in alphas]
        assert len(reps) == 1000
        monkeypatch.undo()

        for alpha, cv in zip(alphas, served):
            alone = compute_critval(self.request(CritValKind.ONLINE_STANDARD, alpha=alpha))
            assert (cv.value, cv.mc_stderr, cv.tail_count) == (
                alone.value, alone.mc_stderr, alone.tail_count
            )

    def test_table_build_draws_standard_d1_gamma0_with_the_offline_cells(self, monkeypatch):
        reps = self.counted_replications(monkeypatch)
        kinds = [CritValKind.OFFLINE_MAX, CritValKind.ONLINE_STANDARD]
        built = build_table(kinds=kinds, dims=(1, 2), gammas=(0.0, 0.25), **self.BUDGET)
        # six (kind, d, gamma) groups, five draws: standard d = 1, gamma 0 draws nothing
        assert len(reps) == 5 * 1000
        assert built._samples == {}

    def test_offline_miss_at_d2_stores_no_companion(self):
        store = {}
        offline = self.request(CritValKind.OFFLINE_MAX, d=2)
        compute_critval(offline, store)
        assert list(store) == [_sample_key(offline)]

    def test_reduction_route_equals_general_kernel(self):
        w = _wiener_paths(standard_normal_rows(np.empty((6, 1, 300)), 8), 1.0 / 300)
        w[1] = np.abs(w[1])
        w[2] = -np.abs(w[2])
        assert (w[1] > 0).all() and (w[2] < 0).all()
        general = np.max(np.sum(np.abs(w), axis=-2), axis=-1)
        assert np.array_equal(_sup_abs(w), general)
        assert np.array_equal(_online_standard_stats(w.copy(), None), general)
        # a zero second coordinate sends the same paths through the d >= 2 route
        padded = np.concatenate([w, np.zeros_like(w)], axis=1)
        assert np.array_equal(_online_standard_stats(padded, None), general)
