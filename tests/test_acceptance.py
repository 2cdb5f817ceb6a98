"""Acceptance suite: every criterion at its stated budget and tolerance.

Each test prints one `ACCEPTANCE n: PASS|FAIL` line (run pytest with -s to
see them live). The two headline critical values are computed once at the
full simulation budget and shared by the criteria that need them.
"""

import time

import numpy as np
import pytest
from scipy import optimize

from cpstream.critvals import (
    CritValKind,
    CritValRequest,
    compute_critval,
    replication_stat,
)
from cpstream.longrun import bartlett_lrv
from cpstream.netsim import DetectorSettings, grid_topology, random_scenario, run_experiment
from cpstream.offline import cusum_path, offline_test, segment
from cpstream.online import DetectorKind, run_batch, step, train
from cpstream.rng import substream
from cpstream.timeseries import TimeSeries
from cpstream.trend import Direction, MacdParams, trend_interval, trend_point, trend_series

FULL_GRID = 10_000
FULL_REPS = 100_000


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def timed_critval(request, samples=None):
    start = time.perf_counter()
    cv = compute_critval(request, samples)
    return cv, time.perf_counter() - start


@pytest.fixture(scope="module")
def offline_samples():
    """The simulated offline sample store that ``full_cv_offline`` fills."""
    return {}


@pytest.fixture(scope="module")
def full_cv_offline(offline_samples):
    return timed_critval(
        CritValRequest(
            kind=CritValKind.OFFLINE_MAX,
            alpha=0.05,
            d=1,
            grid_steps=FULL_GRID,
            replications=FULL_REPS,
            seed=0,
        ),
        offline_samples,
    )


@pytest.fixture(scope="module")
def full_cv_standard():
    return timed_critval(
        CritValRequest(
            kind=CritValKind.ONLINE_STANDARD,
            alpha=0.05,
            d=1,
            gamma=0.0,
            grid_steps=FULL_GRID,
            replications=FULL_REPS,
            seed=0,
        )
    )


def test_criterion_1_offline_critical_value(full_cv_offline):
    cv, elapsed = full_cv_offline

    def survival(x):
        k = np.arange(1, 200)
        return 2.0 * np.sum((-1.0) ** (k + 1) * np.exp(-2.0 * k**2 * x**2))

    analytic = optimize.brentq(lambda v: survival(v) - 0.05, 0.2, 4.0, xtol=1e-12) ** 2
    error = abs(cv.value - analytic)
    ok = error <= 0.02 and elapsed < 90.0
    report(
        1,
        ok,
        f"offline critval {cv.value:.4f} vs analytic {analytic:.4f} "
        f"(|err| {error:.4f} <= 0.02), {elapsed:.1f}s < 90s",
    )


def test_criterion_2_online_standard_critical_value(full_cv_standard):
    cv, elapsed = full_cv_standard

    def cdf(a):
        k = np.arange(0, 200)
        return (4.0 / np.pi) * np.sum(
            (-1.0) ** k / (2 * k + 1) * np.exp(-np.pi**2 * (2 * k + 1) ** 2 / (8.0 * a**2))
        )

    analytic = optimize.brentq(lambda v: cdf(v) - 0.95, 0.3, 5.0, xtol=1e-12)
    error = abs(cv.value - analytic)
    ok = error <= 0.03 and elapsed < 90.0
    report(
        2,
        ok,
        f"online critval {cv.value:.4f} vs analytic {analytic:.4f} "
        f"(|err| {error:.4f} <= 0.03), {elapsed:.1f}s < 90s",
    )


def test_criterion_3_online_size_control(full_cv_standard):
    cv, _ = full_cv_standard
    start = time.perf_counter()
    reps = 2000
    false_alarms = 0
    for rep in range(reps):
        x = substream(0, 50, rep).standard_normal(1200)
        state = train(x[:200], DetectorKind.STANDARD, 0.0, cv)
        verdict, _ = run_batch(state, x[200:])
        false_alarms += verdict.alarm
    elapsed = time.perf_counter() - start
    rate = false_alarms / reps
    bound = 0.05 + 2 * np.sqrt(0.05 * 0.95 / reps)
    ok = rate <= bound and elapsed < 300.0
    report(3, ok, f"false-alarm rate {rate:.4f} <= {bound:.4f}, {elapsed:.1f}s < 300s")


def test_criterion_4_power_and_delay(full_cv_standard):
    cv, _ = full_cv_standard
    reps = 500
    hits = 0
    for rep in range(reps):
        x = substream(0, 51, rep).standard_normal(225)
        x[200:] += 5.0
        state = train(x[:200], DetectorKind.STANDARD, 0.0, cv)
        verdict, consumed = run_batch(state, x[200:])
        hits += verdict.alarm and consumed <= 25
    ok = hits >= 0.99 * reps
    report(4, ok, f"alarm within 25 samples in {hits}/{reps} runs (need >= {int(0.99 * reps)})")


def test_criterion_5_offline_location(full_cv_offline):
    cv, _ = full_cv_offline
    reps = 500
    hits = 0
    for rep in range(reps):
        x = substream(0, 52, rep).standard_normal(100)
        x[50:] += 4.0
        result = offline_test(TimeSeries(x), cv)
        hits += result.reject and 47 <= result.cp_index <= 53
    ok = hits >= 0.95 * reps
    report(5, ok, f"reject with cp in [47,53] in {hits}/{reps} runs (need >= {int(0.95 * reps)})")


def test_criterion_6_segmentation(full_cv_offline, offline_samples):
    cv_search, _ = full_cv_offline
    cache = {0.05: cv_search}

    def provider(kind, d, alpha, gamma=0.0):
        if alpha not in cache:
            cache[alpha] = compute_critval(
                CritValRequest(
                    kind=CritValKind.OFFLINE_MAX,
                    alpha=alpha,
                    d=d,
                    grid_steps=FULL_GRID,
                    replications=FULL_REPS,
                    seed=0,
                ),
                # the validation level is another quantile of the same sample
                offline_samples,
            )
        return cache[alpha]

    reps = 200
    true_cps = (200, 400, 600)
    hits = 0
    for rep in range(reps):
        x = substream(0, 53, rep).standard_normal(800)
        x[200:400] += 5.0
        x[600:] += 5.0
        found = segment(TimeSeries(x), 0.05, provider).cps
        hits += len(found) == 3 and all(
            abs(got - want) <= 10 for got, want in zip(found, true_cps)
        )
    ok = hits >= 0.95 * reps
    report(
        6,
        ok,
        f"exactly 3 change points, each within +/-10, in {hits}/{reps} runs "
        f"(need >= {int(0.95 * reps)})",
    )


def test_criterion_7_trend_interval_beats_point():
    params = MacdParams(9, 12, 26, h=10)
    reps = 500
    point_ok = 0
    interval_ok = 0
    for rep in range(reps):
        gen = substream(0, 54, rep)
        sign = 1.0 if rep % 2 == 0 else -1.0
        x = gen.standard_normal(120)
        x[60:] += sign * 3.0
        expected = Direction.UP if sign > 0 else Direction.DOWN
        point_ok += trend_point(x, 61, params).direction is expected
        interval_ok += trend_interval(x, 61, params).direction is expected
    ok = interval_ok >= 0.95 * reps and interval_ok > point_ok
    report(
        7,
        ok,
        f"interval correct {interval_ok}/{reps} (need >= {int(0.95 * reps)}), "
        f"point correct {point_ok}/{reps}, interval strictly better: {interval_ok > point_ok}",
    )


def test_criterion_8_network_simulation(full_cv_standard):
    cv, _ = full_cv_standard
    start = time.perf_counter()
    topology = grid_topology(10, 10)
    scenario = random_scenario(topology, n_attackers=10, seed=0, start=401, horizon=600)
    settings = DetectorSettings(m=200, retrain_block=50, gamma=0.0, alpha=0.05)
    result = run_experiment(
        topology, scenario, settings, cv, replications=100, seed=0
    )
    elapsed = time.perf_counter() - start
    adjacent = result.attacker_adjacent_detection()
    ok = (
        adjacent >= 0.9
        and result.identification_rate >= 0.9
        and result.zero_false_positive_rate >= 0.9
        and elapsed < 600.0
    )
    report(
        8,
        ok,
        f"attacker-adjacent detection {adjacent:.3f} >= 0.9, "
        f"identification rate {result.identification_rate:.2f} >= 0.9, "
        f"zero-false-positive rate {result.zero_false_positive_rate:.2f} >= 0.9, "
        f"{elapsed:.0f}s < 600s",
    )


class TestCriterion9Properties:
    """Property bundle: exact invariances, oracle equivalences, determinism."""

    def test_criterion_9(self, cv_standard_d1, cv_ratio_d1):
        checks: list[tuple[str, bool]] = []

        # Bartlett symmetry and positive semidefiniteness
        psd_ok = True
        for trial in range(200):
            gen = substream(trial, 60)
            n = int(gen.integers(20, 60))
            d = int(gen.integers(1, 4))
            phi = float(gen.uniform(0.0, 0.8))
            eps = gen.normal(size=(n, d))
            values = np.empty_like(eps)
            values[0] = eps[0]
            for t in range(1, n):
                values[t] = phi * values[t - 1] + eps[t]
            omega = bartlett_lrv(TimeSeries(values))
            scale = max(np.max(np.abs(omega)), 1e-30)
            psd_ok &= np.max(np.abs(omega - omega.T)) <= 1e-10 * scale
            psd_ok &= np.linalg.eigvalsh(omega).min() >= -1e-10 * max(np.trace(omega), 0.0)
        checks.append(("bartlett symmetric psd", psd_ok))

        # CUSUM shift invariance
        shift_ok = True
        for trial in range(50):
            gen = substream(trial, 61)
            values = gen.normal(size=(25, 2))
            c = float(gen.uniform(-100, 100))
            shift_ok &= np.allclose(
                cusum_path(TimeSeries(values)),
                cusum_path(TimeSeries(values + c)),
                atol=1e-9,
            )
        checks.append(("cusum shift invariance", shift_ok))

        # ratio-statistic scale invariance at 1e-8 relative
        ratio_ok = True
        for trial in range(20):
            gen = substream(trial, 62)
            x = gen.normal(size=240) + 4.0
            scale = float(gen.uniform(0.1, 50.0))
            s1 = train(x[:200], DetectorKind.RATIO, 0.0, cv_ratio_d1)
            s2 = train(x[:200] * scale, DetectorKind.RATIO, 0.0, cv_ratio_d1)
            for sample in x[200:]:
                v1 = step(s1, sample)
                v2 = step(s2, sample * scale)
                ratio_ok &= abs(v2.detector_value - v1.detector_value) <= 1e-8 * max(
                    abs(v1.detector_value), 1e-12
                )
        checks.append(("ratio scale invariance 1e-8", ratio_ok))

        # trend indicator sign oddness
        odd_ok = True
        params = MacdParams(9, 12, 26, h=10)
        for trial in range(50):
            x = substream(trial, 63).normal(size=60)
            odd_ok &= np.allclose(
                trend_series(-x, params), -trend_series(x, params), atol=1e-12
            )
        checks.append(("trend sign oddness", odd_ok))

        # determinism under fixed seeds at arbitrary evaluation order
        req = CritValRequest(
            kind=CritValKind.ONLINE_STANDARD,
            alpha=0.05,
            grid_steps=200,
            replications=2000,
            seed=13,
        )
        reference = compute_critval(req)
        order = np.random.default_rng(7).permutation(req.replications)
        shuffled = np.empty(req.replications)
        for rep in order:
            shuffled[rep] = replication_stat(req, int(rep))
        det_ok = float(np.quantile(np.sort(shuffled), 0.95)) == reference.value
        det_ok &= compute_critval(req).value == reference.value
        topo = grid_topology(5, 5)
        scenario = random_scenario(topo, n_attackers=2, seed=1, start=301, horizon=420)
        settings = DetectorSettings(m=200, retrain_block=50)
        a = run_experiment(topo, scenario, settings, cv_standard_d1, replications=2, seed=3)
        b = run_experiment(topo, scenario, settings, cv_standard_d1, replications=2, seed=3)
        det_ok &= a == b
        checks.append(("seeded determinism at any evaluation order", det_ok))

        # brute-force oracle equivalence at 1e-12 on short series
        brute_ok = True
        for trial in range(25):
            gen = substream(trial, 64)
            n = int(gen.integers(8, 31))
            d = int(gen.integers(1, 4))
            values = gen.normal(size=(n, d))
            mean = values.mean(axis=0)
            lag_products = []
            for lag in (0, 1, 2):
                brute = np.zeros((d, d))
                for i in range(lag, n):
                    brute += np.outer(values[i] - mean, values[i - lag] - mean)
                lag_products.append(brute / n)
            for bandwidth in (0, 1, 2):
                brute = lag_products[0].copy()
                for lag in range(1, bandwidth + 1):
                    weight = 1.0 - lag / (bandwidth + 1)
                    brute += weight * (lag_products[lag] + lag_products[lag].T)
                got = bartlett_lrv(TimeSeries(values), bandwidth)
                brute_ok &= np.allclose(got, brute, rtol=1e-12, atol=1e-13)
            total = values.sum(axis=0)
            path = cusum_path(TimeSeries(values))
            for idx in range(1, n + 1):
                brute_c = (values[:idx].sum(axis=0) - (idx / n) * total) / np.sqrt(n)
                brute_ok &= np.allclose(path[idx - 1], brute_c, rtol=1e-12, atol=1e-13)
        # sequential detector numerators and the ratio denominator
        for trial in range(10):
            gen = substream(trial, 65)
            x = gen.normal(size=30)
            state = train(x[:10], DetectorKind.STANDARD, 0.0, cv_standard_d1)
            for k, sample in enumerate(x[10:], start=1):
                step(state, sample)
                brute = x[10 : 10 + k].sum() - (k / 10) * x[:10].sum()
                running = state.cum_sum_post[0] - (k / 10) * state.training_sum[0]
                brute_ok &= abs(running - brute) <= 1e-12 * max(abs(brute), 1e-12)
            rstate = train(x[:10], DetectorKind.RATIO, 0.0, cv_ratio_d1)
            denom = 0.0
            for j in range(1, 11):
                dev = x[:j].mean() - x[:10].mean()
                denom += j**2 * dev * dev
            denom /= 100.0
            brute_ok &= abs(1.0 / rstate.ratio_denominator_inv[0, 0] - denom) <= 1e-12 * abs(denom)
        checks.append(("brute-force oracle equivalence 1e-12", brute_ok))

        failed = [name for name, passed in checks if not passed]
        detail = "; ".join(f"{name}: {'ok' if passed else 'FAILED'}" for name, passed in checks)
        report(9, not failed, detail)
