import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpstream import offline
from cpstream.longrun import (
    bartlett_bandwidth,
    bartlett_lrv,
    bartlett_weight,
    inverse,
    regularize_spd,
)
from cpstream.offline import (
    ChangePointSet,
    OfflineTestResult,
    cusum_path,
    offline_test,
    segment,
)
from cpstream.rng import substream
from cpstream.timeseries import TimeSeries, as_matrix


def brute_cusum(values):
    n, d = values.shape
    total = values.sum(axis=0)
    out = np.zeros((n, d))
    for i in range(1, n + 1):
        out[i - 1] = (values[:i].sum(axis=0) - (i / n) * total) / np.sqrt(n)
    return out


def step_series(gen, n, cp, shift, sigma=1.0):
    x = gen.normal(scale=sigma, size=n)
    x[cp:] += shift
    return TimeSeries(x)


class TestCusumPath:
    def test_constant_series_all_zero(self):
        assert np.all(cusum_path(TimeSeries(np.full(10, 4.0))) == 0.0)

    def test_final_value_always_zero(self, rng):
        for _ in range(5):
            path = cusum_path(TimeSeries(rng.normal(size=(30, 2))))
            assert np.allclose(path[-1], 0.0, atol=1e-12)

    def test_hand_value(self):
        path = cusum_path(TimeSeries(np.array([0.0, 0.0, 1.0, 1.0])))
        assert path[1, 0] == pytest.approx(-0.5, abs=1e-15)

    def test_matches_brute_force(self, rng):
        values = rng.normal(size=(30, 3))
        assert np.allclose(cusum_path(TimeSeries(values)), brute_cusum(values), rtol=1e-12, atol=1e-14)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            cusum_path(TimeSeries(np.array([1.0])))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-100, 100))
    def test_shift_invariance(self, seed, c):
        values = substream(seed, 2).normal(size=(15, 2))
        base = cusum_path(TimeSeries(values))
        shifted = cusum_path(TimeSeries(values + c))
        assert np.allclose(base, shifted, atol=1e-9)


class TestOfflineTest:
    def test_constant_series_never_rejects(self, cv_offline_d1):
        result = offline_test(TimeSeries(np.full(50, 3.0)), cv_offline_d1)
        assert result.statistic_m == 0.0
        assert not result.reject
        assert result.cp_index is None
        assert result.cp_fraction is None

    def test_size_under_null(self, cv_offline_d1):
        reps = 2000
        rejections = 0
        for seed in range(reps):
            series = TimeSeries(substream(seed, 3).standard_normal(200))
            rejections += offline_test(series, cv_offline_d1).reject
        bound = 0.05 + 2 * np.sqrt(0.05 * 0.95 / reps)
        assert rejections / reps <= bound

    def test_power_and_location(self, cv_offline_d1):
        hits = 0
        for seed in range(200):
            series = step_series(substream(seed, 4), 100, 50, 4.0)
            result = offline_test(series, cv_offline_d1)
            if result.reject and 47 <= result.cp_index <= 53:
                hits += 1
        assert hits >= 0.95 * 200

    def test_cp_fraction(self, cv_offline_d1):
        series = step_series(substream(0, 4), 100, 50, 4.0)
        result = offline_test(series, cv_offline_d1)
        assert result.cp_fraction == result.cp_index / 100

    def test_scale_invariance_of_statistic(self, cv_offline_d2, rng):
        values = rng.normal(size=(80, 2))
        values[40:] += [1.0, -2.0]
        base = offline_test(TimeSeries(values), cv_offline_d2)
        scaled = offline_test(TimeSeries(values * [3.0, 0.2]), cv_offline_d2)
        assert scaled.statistic_m == pytest.approx(base.statistic_m, rel=1e-6)
        assert scaled.cp_index == base.cp_index

    def test_argmax_recorded_without_rejection(self, cv_offline_d1):
        series = TimeSeries(substream(2, 3).standard_normal(200))
        result = offline_test(series, cv_offline_d1)
        assert not result.reject
        assert result.cp_index is None
        # for d = 1 the quadratic form is the squared CUSUM path over a constant
        assert result.argmax == int(np.argmax(cusum_path(series)[:, 0] ** 2)) + 1

    @pytest.mark.parametrize(
        "statistic, reject", [(2.0, False), (3.0, True), (5.0, True), (math.nan, False)],
        ids=["below", "tie", "above", "nan"],
    )
    def test_rejects_at_or_over_the_critical_value(self, statistic, reject):
        result = OfflineTestResult(statistic, critval_used=3.0, n=100, argmax=40)
        assert result.reject is reject
        assert result.cp_index == (40 if reject else None)
        assert result.cp_fraction == (0.4 if reject else None)

    def test_validation_errors(self, cv_offline_d1, cv_standard_d1):
        short = TimeSeries(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="at least 4"):
            offline_test(short, cv_offline_d1)
        two_dim = TimeSeries(np.zeros((10, 2)))
        with pytest.raises(ValueError, match="d="):
            offline_test(two_dim, cv_offline_d1)
        ok = TimeSeries(np.arange(10.0))
        with pytest.raises(ValueError, match="offline"):
            offline_test(ok, cv_standard_d1)


class TestScalarRoute:
    def test_d1_statistic_and_argmax_match_einsum(self, cv_offline_d1):
        # d = 1 forms the quadratic form as (C_n * Omega^-1) * C_n, einsum's
        # product order, so the statistic and the argmax agree to the bit
        gen = substream(6, 72)
        for _ in range(200):
            n = int(gen.integers(4, 3001))
            x = gen.standard_normal(n) * 10.0 ** gen.uniform(-2, 2) + gen.uniform(-50, 50)
            if gen.random() < 0.5:
                x[int(gen.integers(1, n)):] += gen.normal(scale=3.0)
            path = cusum_path(x)
            quad = np.einsum("nj,jk,nk->n", path, inverse(bartlett_lrv(x)), path)
            result = offline_test(TimeSeries(x), cv_offline_d1)
            assert repr(result.statistic_m) == repr(float(quad.max()))
            assert result.argmax == int(np.argmax(quad)) + 1

    def test_edge_windows_match_the_matrix_route(self, d1_edge_windows, cv_offline_d1):
        # constant, near-constant, short, strided and segment windows against
        # the d x d route: matmul lag products, the LAPACK inverse of the
        # regularized estimate and einsum's quadratic form
        for name, window in d1_edge_windows:
            x = as_matrix(window)
            n = len(x)
            bandwidth = bartlett_bandwidth(n)
            centered = x - x.sum(axis=0, keepdims=True) / n
            # offline_test's centring of the 1-D column for the CUSUM path,
            # which the estimate's d = 1 route makes alike
            col = x[:, 0]
            assert (col - col.sum() / n).tobytes() == centered[:, 0].tobytes(), name
            omega = centered.T @ centered / n
            for lag in range(1, bandwidth + 1):
                gamma = centered[lag:].T @ centered[: n - lag] / n
                omega = omega + bartlett_weight(lag / (bandwidth + 1)) * (gamma + gamma.T)
            omega = (omega + omega.T) / 2.0
            assert bartlett_lrv(window).tobytes() == omega.tobytes(), name
            path = cusum_path(x)
            # a subnormal estimate inverts to inf, and 0 * inf is NaN
            with np.errstate(invalid="ignore"):
                quad = np.einsum("nj,jk,nk->n", path, np.linalg.inv(regularize_spd(omega)), path)
                result = offline_test(window, cv_offline_d1)
            assert repr(result.statistic_m) == repr(float(quad[np.argmax(quad)])), name
            assert result.argmax == int(np.argmax(quad)) + 1, name


class TestSegment:
    def test_constant_series_empty(self, cheap_provider):
        result = segment(TimeSeries(np.full(300, 1.0)), 0.05, cheap_provider)
        assert result.cps == ()
        assert len(result) == 0

    def test_two_change_points_recovered(self, cheap_provider):
        hits = 0
        for seed in range(200):
            gen = substream(seed, 5)
            x = gen.normal(size=300)
            x[100:200] += 5.0
            result = segment(TimeSeries(x), 0.05, cheap_provider)
            if len(result.cps) == 2 and abs(result.cps[0] - 100) <= 10 and abs(result.cps[1] - 200) <= 10:
                hits += 1
        assert hits >= 0.95 * 200

    def test_agrees_with_single_test_on_one_cp(self, cheap_provider, cv_offline_d1):
        for seed in range(20):
            series = step_series(substream(seed, 6), 200, 100, 5.0)
            single = offline_test(series, cv_offline_d1)
            multi = segment(series, 0.05, cheap_provider)
            assert single.reject
            assert len(multi.cps) == 1
            assert abs(multi.cps[0] - single.cp_index) <= 1

    def test_reverse_symmetry(self, cheap_provider):
        for seed in range(10):
            gen = substream(seed, 7)
            x = gen.normal(size=300)
            x[100:200] += 5.0
            n = len(x)
            forward = segment(TimeSeries(x), 0.05, cheap_provider).cps
            backward = segment(TimeSeries(x[::-1].copy()), 0.05, cheap_provider).cps
            mapped = sorted(n - cp for cp in backward)
            assert len(forward) == len(mapped)
            assert all(abs(a - b) <= 1 for a, b in zip(forward, mapped))

    def test_every_cp_revalidates(self, cheap_provider):
        gen = substream(3, 8)
        x = gen.normal(size=400)
        x[150:260] += 5.0
        series = TimeSeries(x)
        result = segment(series, 0.05, cheap_provider)
        assert result.cps
        assert all(stat.reject for stat in result.per_cp_stats)
        # re-test each CP on its validation window at the validation level
        validation_alpha = 0.05 / (400 // 40)
        validation_cv = cheap_provider("offline-max", 1, validation_alpha)
        bounds = [0] + list(result.cps) + [400]
        for i, cp in enumerate(result.cps):
            window = series.values[bounds[i] : bounds[i + 2]]
            assert offline_test(window, validation_cv).reject

    def test_provider_resolves_both_levels(self, cheap_provider):
        calls = []

        def provider(kind, d, alpha, gamma=0.0):
            calls.append((kind, d, alpha))
            return cheap_provider(kind, d, alpha, gamma)

        series = step_series(substream(0, 9), 200, 100, 5.0)
        result = segment(series, 0.05, provider)
        assert calls == [("offline-max", 1, 0.05), ("offline-max", 1, 0.05 / 5)]
        assert len(result.cps) == 1

    def test_single_critval_expert_mode(self, cv_offline_d1):
        series = step_series(substream(0, 9), 200, 100, 5.0)
        result = segment(series, 0.05, lambda *_: cv_offline_d1)
        assert len(result.cps) == 1

    def test_too_short_rejected(self, cheap_provider):
        with pytest.raises(ValueError, match="too short"):
            segment(TimeSeries(np.zeros(30)), 0.05, cheap_provider, min_seg=20)

    @pytest.mark.parametrize("d", [1, 2])
    def test_plain_rows_segment_like_their_series(self, cheap_provider, d):
        # segment takes rows in any form; its indices are into the rows passed
        x = substream(d, 12).standard_normal((600, d))
        x[200:] += 3.0
        x[420:] -= 5.0
        expected = segment(TimeSeries(x), 0.05, cheap_provider)
        assert len(expected.cps) == 2
        # the monitor's form: a row slice of a longer buffer
        buffer = np.concatenate((np.zeros((100, d)), x))
        forms = [x, x.tolist(), buffer[100:]]
        if d == 1:
            forms += [x[:, 0], x[:, 0].tolist()]
        for rows in forms:
            assert segment(rows, 0.05, cheap_provider) == expected

    @pytest.mark.parametrize("d", [1, 2])
    def test_each_window_tested_at_most_once(self, cheap_provider, monkeypatch, d):
        # one call tests a window once and decides every later request for it,
        # at either level, from the stored statistic and argmax
        windows = []
        real = offline.offline_test

        def counted(s, critval):
            # a window is a row view of the series: its rows from the view's offset
            lo = (s.ctypes.data - series.values.ctypes.data) // s.strides[0] + 1
            windows.append((lo, lo + len(s) - 1))
            return real(s, critval)

        monkeypatch.setattr(offline, "offline_test", counted)
        n = 3200
        x = substream(d, 11).standard_normal((n, d))
        for k, start in enumerate(range(300, n, 450)):
            x[start:] += 3.0 if k % 2 == 0 else -3.0
        series = TimeSeries(x)
        result = segment(series, 0.05, cheap_provider)
        assert len(result.cps) >= 5
        assert max(Counter(windows).values()) == 1
        # the reported results equal a direct test at the validation level
        cv = cheap_provider("offline-max", d, 0.05 / (n // 40))
        bounds = [0, *result.cps, n]
        for i, stat in enumerate(result.per_cp_stats):
            assert stat == real(series.values[bounds[i] : bounds[i + 2]], cv)

    def test_reports_the_whole_series_statistic_and_both_levels(self, cheap_provider):
        # what segment applied, read off the set itself
        x = substream(3, 11).standard_normal((1200, 1))
        x[400:800] += 3.0
        series = TimeSeries(x[:1000])
        result = segment(series, 0.05, cheap_provider)
        assert result.cps
        search_cv = cheap_provider("offline-max", 1, 0.05)
        assert result.statistic_m == offline_test(series, search_cv).statistic_m
        assert result.search_critval == search_cv
        assert result.validation_critval == cheap_provider("offline-max", 1, 0.05 / 25)

    def test_changepointset_invariants(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ChangePointSet(cps=(5, 5), per_cp_stats=(None, None), alpha=0.05)


class TestMalformedArrays:
    """offline_test and segment refuse an array that is not N x d or holds a non-finite sample."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("row", [1, 51, 200])
    def test_non_finite_row_named(self, cheap_provider, cv_offline_d1, bad, row):
        # a NaN at row 51 once gave segment no change point and offline_test a nan statistic
        x = substream(4, 30).standard_normal(200)
        x[row - 1] = bad
        x[row + 10 :] = bad  # a later bad row is not the one named
        for run in (lambda: offline_test(x, cv_offline_d1), lambda: segment(x, 0.05, cheap_provider)):
            with pytest.raises(ValueError, match=rf"^series has a non-finite sample at row {row}$"):
                run()

    def test_non_finite_row_named_at_d2(self, cv_offline_d2):
        x = substream(4, 31).standard_normal((200, 2))
        x[50, 1] = math.nan
        with pytest.raises(ValueError, match=r"^series has a non-finite sample at row 51$"):
            offline_test(x, cv_offline_d2)

    @pytest.mark.parametrize("shape", [(200, 2, 2), ()])
    def test_shape_named(self, cheap_provider, cv_offline_d1, shape):
        x = np.zeros(shape)
        message = rf"^series must be an N x d matrix, got shape {re.escape(str(shape))}$"
        with pytest.raises(ValueError, match=message):
            offline_test(x, cv_offline_d1)
        with pytest.raises(ValueError, match=message):
            segment(x, 0.05, cheap_provider)
