import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpstream.longrun import bartlett_lrv, inverse
from cpstream.offline import (
    ChangePointSet,
    OfflineTestResult,
    cusum_path,
    offline_test,
    segment,
)
from cpstream.rng import substream
from cpstream.timeseries import TimeSeries


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
        result = offline_test(TimeSeries(np.full(50, 3.0)), 0.05, cv_offline_d1)
        assert result.statistic_m == 0.0
        assert not result.reject
        assert result.cp_index is None
        assert result.cp_fraction is None

    def test_size_under_null(self, cv_offline_d1):
        reps = 2000
        rejections = 0
        for seed in range(reps):
            series = TimeSeries(substream(seed, 3).standard_normal(200))
            rejections += offline_test(series, 0.05, cv_offline_d1).reject
        bound = 0.05 + 2 * np.sqrt(0.05 * 0.95 / reps)
        assert rejections / reps <= bound

    def test_power_and_location(self, cv_offline_d1):
        hits = 0
        for seed in range(200):
            series = step_series(substream(seed, 4), 100, 50, 4.0)
            result = offline_test(series, 0.05, cv_offline_d1)
            if result.reject and 47 <= result.cp_index <= 53:
                hits += 1
        assert hits >= 0.95 * 200

    def test_cp_fraction(self, cv_offline_d1):
        series = step_series(substream(0, 4), 100, 50, 4.0)
        result = offline_test(series, 0.05, cv_offline_d1)
        assert result.cp_fraction == result.cp_index / 100

    def test_scale_invariance_of_statistic(self, cv_offline_d2, rng):
        values = rng.normal(size=(80, 2))
        values[40:] += [1.0, -2.0]
        base = offline_test(TimeSeries(values), 0.05, cv_offline_d2)
        scaled = offline_test(TimeSeries(values * [3.0, 0.2]), 0.05, cv_offline_d2)
        assert scaled.statistic_m == pytest.approx(base.statistic_m, rel=1e-6)
        assert scaled.cp_index == base.cp_index

    def test_argmax_recorded_without_rejection(self, cv_offline_d1):
        series = TimeSeries(substream(2, 3).standard_normal(200))
        result = offline_test(series, 0.05, cv_offline_d1)
        assert not result.reject
        assert result.cp_index is None
        # for d = 1 the quadratic form is the squared CUSUM path over a constant
        assert result.argmax == int(np.argmax(cusum_path(series)[:, 0] ** 2)) + 1

    @pytest.mark.parametrize(
        "statistic, cp_index, reject",
        [(5.0, None, True), (5.0, 41, True), (1.0, 40, False)],
        ids=["rejects-without-cp", "cp-not-argmax", "cp-without-rejection"],
    )
    def test_inconsistent_cp_index_rejected(self, statistic, cp_index, reject):
        with pytest.raises(ValueError, match="cp_index must be the argmax"):
            OfflineTestResult(statistic, cp_index, reject, critval_used=3.0, n=100, argmax=40)

    def test_validation_errors(self, cv_offline_d1, cv_standard_d1):
        short = TimeSeries(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="at least 4"):
            offline_test(short, 0.05, cv_offline_d1)
        two_dim = TimeSeries(np.zeros((10, 2)))
        with pytest.raises(ValueError, match="d="):
            offline_test(two_dim, 0.05, cv_offline_d1)
        ok = TimeSeries(np.arange(10.0))
        with pytest.raises(ValueError, match="alpha"):
            offline_test(ok, 0.01, cv_offline_d1)
        with pytest.raises(ValueError, match="offline"):
            offline_test(ok, 0.05, cv_standard_d1)


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
            result = offline_test(TimeSeries(x), 0.05, cv_offline_d1)
            assert repr(result.statistic_m) == repr(float(quad.max()))
            assert result.argmax == int(np.argmax(quad)) + 1


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
            single = offline_test(series, 0.05, cv_offline_d1)
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
            window = series.segment(bounds[i] + 1, bounds[i + 2])
            assert offline_test(window, validation_alpha, validation_cv).reject

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

    def test_segment_of_segment_uses_parent_indices(self, cheap_provider):
        gen = substream(5, 10)
        x = gen.normal(size=500)
        x[300:] += 5.0  # change at parent index 300
        window = TimeSeries(x).segment(101, 500)
        result = segment(window, 0.05, cheap_provider)
        assert len(result.cps) == 1
        assert abs(result.cps[0] - 300) <= 3

    @pytest.mark.parametrize("d", [1, 2])
    def test_shared_memo_matches_fresh_calls(self, cheap_provider, d):
        # growing prefixes of one stream, as the monitor loop segments them
        x = substream(d, 11).standard_normal((3200, d))
        for k, start in enumerate(range(300, 3200, 450)):
            x[start:] += 3.0 if k % 2 == 0 else -3.0
        memo = {}
        found = 0
        for n in range(400, 3201, 200):
            series = TimeSeries(x[:n])
            shared = segment(series, 0.05, cheap_provider, memo=memo)
            fresh = segment(series, 0.05, cheap_provider)
            assert shared.cps == fresh.cps
            assert shared.per_cp_stats == fresh.per_cp_stats
            assert shared.hit_round_cap == fresh.hit_round_cap
            found += len(shared.cps)
            # stored results re-decided at the validation level match a direct test
            level = 0.05 / (n // 40)
            cv = cheap_provider("offline-max", d, level)
            bounds = [0, *shared.cps, n]
            for i, stat in enumerate(shared.per_cp_stats):
                assert stat == offline_test(series.segment(bounds[i] + 1, bounds[i + 2]), level, cv)
        assert found > 0

    def test_changepointset_invariants(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ChangePointSet(cps=(5, 5), per_cp_stats=(None, None), alpha=0.05)
