import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpstream.longrun import (
    autocov,
    bartlett_bandwidth,
    bartlett_lrv,
    bartlett_weight,
    inverse,
    inverse_sqrt,
    regularize_spd,
)
from cpstream.critvals import CritValKind, CritValRequest, compute_critval
from cpstream.offline import offline_test
from cpstream.online import DetectorKind, train
from cpstream.rng import substream
from cpstream.timeseries import TimeSeries


def brute_autocov(values, lag):
    # textbook double loop, divisor N
    n, d = values.shape
    mean = values.mean(axis=0)
    acc = np.zeros((d, d))
    for i in range(lag, n):
        acc += np.outer(values[i] - mean, values[i - lag] - mean)
    return acc / n


class TestAutocov:
    def test_constant_series_zero(self):
        ts = TimeSeries(np.full((20, 2), 3.0))
        for lag in (0, 1, 5):
            assert np.all(autocov(ts, lag) == 0.0)

    def test_alternating_hand_value(self):
        ts = TimeSeries(np.array([1.0, -1.0, 1.0, -1.0]))
        assert autocov(ts, 1)[0, 0] == pytest.approx(-0.75, abs=1e-15)

    def test_matches_brute_force(self, rng):
        values = rng.normal(size=(30, 3))
        got = autocov(TimeSeries(values), 2)
        assert np.allclose(got, brute_autocov(values, 2), rtol=1e-12, atol=1e-14)

    def test_lag_bounds(self):
        ts = TimeSeries(np.arange(5.0))
        with pytest.raises(ValueError):
            autocov(ts, 5)
        with pytest.raises(ValueError):
            autocov(ts, -1)


class TestBandwidth:
    @pytest.mark.parametrize("n,expected", [(1, 0), (9, 0), (10, 1), (99, 1), (100, 2), (1000, 3)])
    def test_examples(self, n, expected):
        assert bartlett_bandwidth(n) == expected

    def test_matches_floor_log10(self):
        for n in list(range(1, 2000)) + [10**5, 10**6, 10**6 - 1]:
            assert bartlett_bandwidth(n) == math.floor(math.log10(n))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bartlett_bandwidth(0)


class TestBartlettWeights:
    def test_endpoints(self):
        assert bartlett_weight(0.0) == 1.0
        assert bartlett_weight(1.0) == 0.0
        assert bartlett_weight(1.5) == 0.0

    def test_strictly_decreasing_over_lags(self):
        L = 7
        weights = [bartlett_weight(l / (L + 1)) for l in range(1, L + 1)]
        assert all(a > b for a, b in zip(weights, weights[1:]))


class TestBartlettLrv:
    def test_bandwidth_zero_equals_lag0_autocov(self, rng):
        ts = TimeSeries(rng.normal(size=(25, 2)))
        assert np.array_equal(bartlett_lrv(ts, 0), autocov(ts, 0))

    def test_constant_series_zero_matrix(self):
        assert np.all(bartlett_lrv(TimeSeries(np.full(50, 2.0)), 3) == 0.0)

    def test_iid_unit_variance_recovered(self):
        series = TimeSeries(substream(99, 0).standard_normal(100_000))
        assert 0.9 <= bartlett_lrv(series, 5)[0, 0] <= 1.1

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_scalar_formula_equivalence(self, rng, d):
        # S0 + sum w_l (S_l + S_l^T); for d=1 it collapses to S0 + 2 sum w_l S_l
        ts = TimeSeries(rng.normal(size=(60, d)))
        L = 4
        reference = autocov(ts, 0) + sum(
            bartlett_weight(l / (L + 1)) * (autocov(ts, l) + autocov(ts, l).T)
            for l in range(1, L + 1)
        )
        assert np.allclose(bartlett_lrv(ts, L), reference, rtol=1e-12, atol=0.0)

    def test_bandwidth_bounds(self):
        ts = TimeSeries(np.arange(5.0))
        with pytest.raises(ValueError):
            bartlett_lrv(ts, 5)

    def test_default_bandwidth_used(self, rng):
        ts = TimeSeries(rng.normal(size=200))
        assert np.array_equal(bartlett_lrv(ts), bartlett_lrv(ts, 2))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(10, 40),
        st.integers(1, 3),
        st.floats(0.0, 0.8),
    )
    def test_symmetric_psd_property(self, seed, n, d, phi):
        gen = substream(seed, 1)
        eps = gen.normal(size=(n, d))
        values = np.empty_like(eps)
        values[0] = eps[0]
        for t in range(1, n):
            values[t] = phi * values[t - 1] + eps[t]
        omega = bartlett_lrv(TimeSeries(values))
        scale = max(np.max(np.abs(omega)), 1e-30)
        assert np.max(np.abs(omega - omega.T)) <= 1e-10 * scale
        trace = np.trace(omega)
        assert np.linalg.eigvalsh(omega).min() >= -1e-10 * max(trace, 0.0)


class TestRegularization:
    def test_well_conditioned_untouched(self):
        m = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert np.array_equal(regularize_spd(m), m)

    def test_near_singular_gets_ridge(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank 1
        fixed = regularize_spd(m)
        assert np.linalg.eigvalsh(fixed).min() > 0
        assert fixed[0, 0] == pytest.approx(1.0 + 1e-8, rel=1e-6)

    def test_zero_matrix_gets_absolute_floor(self):
        fixed = regularize_spd(np.zeros((2, 2)))
        assert np.linalg.eigvalsh(fixed).min() > 0

    def test_inverse_and_inverse_sqrt(self, rng):
        a = rng.normal(size=(3, 3))
        m = a @ a.T + np.eye(3)
        assert np.allclose(inverse(m) @ m, np.eye(3), atol=1e-10)
        half = inverse_sqrt(m)
        assert np.allclose(half @ m @ half, np.eye(3), atol=1e-10)
        assert np.allclose(half, half.T, atol=1e-12)

    def test_rounding_negative_eigenvalue_absorbed(self):
        # symmetric, smallest eigenvalue about -5e-14: the case rounding can
        # leave in a Bartlett estimate of a rank-deficient series
        m = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-13]])
        assert np.linalg.eigvalsh(m).min() < 0
        assert np.linalg.eigvalsh(regularize_spd(m)).min() > 0
        assert np.all(np.isfinite(inverse(m)))
        assert np.all(np.isfinite(inverse_sqrt(m)))


class TestRankDeficientSeries:
    """Column 2 = 3 x column 1: the estimate is singular and only regularize_spd guards it."""

    @pytest.fixture()
    def series(self):
        x = substream(5, 70).standard_normal(300)
        return TimeSeries(np.column_stack([x, 3.0 * x]))

    def test_offline_statistic_finite(self, series, cv_offline_d2):
        result = offline_test(series, 0.05, cv_offline_d2)
        assert np.isfinite(result.statistic_m)

    def test_standard_training_finite(self, series):
        cv = compute_critval(
            CritValRequest(
                kind=CritValKind.ONLINE_STANDARD,
                alpha=0.05,
                d=2,
                gamma=0.0,
                grid_steps=100,
                replications=1000,
                seed=0,
            )
        )
        state = train(series.segment(1, 200), DetectorKind.STANDARD, 0.0, cv)
        assert np.all(np.isfinite(state.omega_inv_sqrt))
