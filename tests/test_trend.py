import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpstream.rng import substream
from cpstream.timeseries import TimeSeries
from cpstream.trend import (
    Direction,
    MacdParams,
    TrendMemo,
    TrendVerdict,
    trend_interval,
    trend_point,
    trend_series,
)

PARAMS = MacdParams(9, 12, 26, h=10)


def brute_ema(x, p):
    out = [x[0]]
    for v in x[1:]:
        out.append(2.0 / (p + 1) * v + (p - 1.0) / (p + 1) * out[-1])
    return np.array(out)


class TestEma:
    """brute_ema, the definitional EMA that TestFusedIndicator composes."""

    def test_constant_fixed_point(self):
        x = np.full(30, 3.5)
        assert np.allclose(brute_ema(x, 7), 3.5, atol=1e-14)

    def test_lag_one_is_identity(self, rng):
        x = rng.normal(size=20)
        assert np.array_equal(brute_ema(x, 1), x)

    def test_two_sample_hand_value(self):
        assert brute_ema(np.array([0.0, 1.0]), 3)[1] == pytest.approx(0.5, abs=1e-15)

    def test_matches_brute_force(self, rng):
        # the recursion against its closed form: x_1 weighted keep^(n-1), and
        # x_j for j > 1 weighted gain * keep^(n-j)
        x = rng.normal(size=200)
        gain, keep = 2.0 / 13, 11.0 / 13
        n = np.arange(1, 201)
        closed = [keep ** (k - 1) * x[0] + gain * np.sum(keep ** (k - n[1:k]) * x[1:k])
                  for k in n]
        assert np.allclose(brute_ema(x, 12), closed, rtol=1e-12, atol=1e-14)


class TestMacd:
    def test_positive_on_ramp(self):
        x = np.arange(1.0, 101.0)
        line = brute_ema(x, 12) - brute_ema(x, 26)
        assert np.all(line[1:] > 0)


class TestParams:
    def test_ordering_validation(self):
        with pytest.raises(ValueError):
            MacdParams(12, 9, 26)
        with pytest.raises(ValueError):
            MacdParams(9, 26, 26)

    def test_p1_floor(self):
        with pytest.raises(ValueError, match="p1"):
            MacdParams(1, 12, 26)

    def test_negative_window(self):
        with pytest.raises(ValueError):
            MacdParams(9, 12, 26, h=-1)


class TestTrendVerdict:
    @pytest.mark.parametrize(
        "value, direction",
        [(1e-300, Direction.UP), (0.0, Direction.DOWN), (-0.0, Direction.DOWN),
         (-1.0, Direction.DOWN), (np.nan, Direction.DOWN)],
        ids=["positive", "zero", "negative-zero", "negative", "nan"],
    )
    def test_direction_is_up_only_above_zero(self, value, direction):
        assert TrendVerdict(value, at_index=5).direction is direction


class TestTrendPoint:
    def test_constant_is_zero_down(self):
        verdict = trend_point(np.full(60, 2.0), 30, PARAMS)
        assert verdict.value == 0.0
        assert verdict.direction is Direction.DOWN
        assert verdict.at_index == 30

    def test_upward_step_labelled_up(self):
        x = np.zeros(100)
        x[49:] = 5.0  # step to 5 at index 50
        assert trend_point(x, 52, PARAMS).direction is Direction.UP

    def test_downward_mirror_labelled_down(self):
        x = np.zeros(100)
        x[49:] = -5.0
        assert trend_point(x, 52, PARAMS).direction is Direction.DOWN

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            trend_point(np.zeros(10), 0, PARAMS)
        with pytest.raises(ValueError):
            trend_point(np.zeros(10), 11, PARAMS)


class TestTrendInterval:
    def test_h_zero_equals_point(self, rng):
        x = rng.normal(size=80)
        at = 40
        p0 = MacdParams(9, 12, 26, h=0)
        assert trend_interval(x, at, p0) == trend_point(x, at, p0)
        # the point form ignores h: its value is the indicator at the index
        assert trend_point(x, at, PARAMS) == trend_point(x, at, p0)
        assert trend_point(x, at, PARAMS).value == trend_series(x, PARAMS)[at - 1]

    def test_constant_zero_down(self):
        verdict = trend_interval(np.full(60, 1.0), 20, PARAMS)
        assert verdict.value == 0.0
        assert verdict.direction is Direction.DOWN
        assert verdict.at_index == 20

    def test_window_overrun_rejected(self):
        with pytest.raises(ValueError, match="past the series end"):
            trend_interval(np.zeros(30), 25, PARAMS)

    def test_interval_beats_point_on_noisy_steps(self):
        # +/- 3 sigma steps; the summed indicator should label at least 95%
        # correctly and strictly dominate the single-point verdict
        seeds = 200
        point_ok = 0
        interval_ok = 0
        for seed in range(seeds):
            gen = substream(seed, 20)
            sign = 1.0 if seed % 2 == 0 else -1.0
            x = gen.standard_normal(120)
            x[60:] += sign * 3.0
            expected = Direction.UP if sign > 0 else Direction.DOWN
            point_ok += trend_point(x, 61, PARAMS).direction is expected
            interval_ok += trend_interval(x, 61, PARAMS).direction is expected
        assert interval_ok >= 0.95 * seeds
        assert interval_ok > point_ok


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-50, 50))
    def test_translation_invariance(self, seed, c):
        x = substream(seed, 21).normal(size=60)
        a = trend_series(x, PARAMS)
        b = trend_series(x + c, PARAMS)
        assert np.allclose(a, b, atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_sign_oddness(self, seed):
        x = substream(seed, 22).normal(size=60)
        assert np.allclose(trend_series(-x, PARAMS), -trend_series(x, PARAMS), atol=1e-12)

    def test_multivariate_dimension_selection(self, rng):
        values = rng.normal(size=(60, 2))
        ts = TimeSeries(values)
        a = trend_series(ts, PARAMS, dim=2)
        b = trend_series(values[:, 1], PARAMS)
        assert np.array_equal(a, b)


def multi_step(n):
    """Seeded noise whose mean steps through 0, +3, 0, -3 every 300 samples."""
    x = substream(7, 23).standard_normal(n)
    return x + np.array([0.0, 3.0, 0.0, -3.0])[(np.arange(n) // 300) % 4]


class TestFusedIndicator:
    def test_equals_composed_emas(self):
        # one recursion, the operations of brute_ema(x, p2) - brute_ema(x, p3)
        # and then line - brute_ema(line, p1): equal to the last bit
        x = multi_step(3000)
        line = brute_ema(x, PARAMS.p2) - brute_ema(x, PARAMS.p3)
        composed = line - brute_ema(line, PARAMS.p1)
        assert trend_series(x, PARAMS).tobytes() == composed.tobytes()
        assert trend_series(x, PARAMS)[0] == 0.0
        # and on the selected column of a wider series
        xy = np.column_stack((-x, x))
        assert trend_series(xy, PARAMS, dim=2).tobytes() == composed.tobytes()

    def test_point_reads_the_same_values(self):
        x = multi_step(700)
        ti = trend_series(x, PARAMS)
        for n in (1, 2, 299, 700):
            assert repr(trend_point(x, n, PARAMS).value) == repr(float(ti[n - 1]))


class TestTrendMemo:
    # h = 0, the default 10, and a window longer than the monitor's quiet gap (25)
    @pytest.mark.parametrize("h", [0, 10, 40])
    def test_memo_over_growing_prefixes_matches_fresh_calls(self, h):
        params = MacdParams(9, 12, 26, h=h)
        x = multi_step(4000)
        memo = TrendMemo(params)
        for n in [*range(300, 4000, 200), 4000]:
            # the newest window of each prefix
            cp = n - h
            with_memo = trend_interval(x[:n], cp, params, memo=memo)
            fresh = trend_interval(x[:n], cp, params)
            assert (repr(with_memo.value), with_memo.direction, with_memo.at_index) == (
                repr(fresh.value), fresh.direction, fresh.at_index
            )
        assert memo.size == 4000

    @pytest.mark.parametrize("cp", [1, 300, 310], ids=["first", "inside", "at-size"])
    def test_window_at_or_before_the_memo_end_refused(self, cp):
        x = multi_step(1000)
        memo = TrendMemo(PARAMS)
        trend_interval(x, 300, PARAMS, memo=memo)
        with pytest.raises(ValueError, match=f"window starts at {cp}, not after the memo's 310"):
            trend_interval(x, cp, PARAMS, memo=memo)
        assert memo.size == 310
        # the memo moves on from where it stood
        assert trend_interval(x, 311, PARAMS, memo=memo) == trend_interval(x, 311, PARAMS)

    def test_memo_holds_no_value_per_sample(self):
        n = 10**6
        x = substream(8, 24).standard_normal(n)
        memo = TrendMemo(PARAMS)
        tracemalloc.start()
        try:
            trend_interval(x, n - PARAMS.h, PARAMS, memo=memo)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert memo.size == n
        assert retained < 64 * 1024

    def test_memo_reads_only_up_to_the_window_end(self):
        x = multi_step(1000)
        memo = TrendMemo(PARAMS)
        trend_interval(x, 400, PARAMS, memo=memo)
        assert memo.size == 400 + PARAMS.h

    def test_window_of_another_h_shares_the_memo(self):
        x = multi_step(600)
        memo = TrendMemo(PARAMS)
        trend_interval(x, 300, PARAMS, memo=memo)
        short = MacdParams(9, 12, 26, h=3)
        assert trend_interval(x, 500, short, memo=memo) == trend_interval(x, 500, short)

    @pytest.mark.parametrize(
        "params, dim",
        [(MacdParams(5, 12, 26), 1), (MacdParams(9, 13, 26), 1), (MacdParams(9, 12, 30), 1),
         (PARAMS, 2)],
        ids=["p1", "p2", "p3", "dim"],
    )
    def test_memo_bound_to_its_lags_and_dim(self, params, dim):
        x = substream(8, 23).standard_normal((200, 2))
        memo = TrendMemo(PARAMS, dim=1)
        trend_interval(x, 50, PARAMS, memo=memo)
        with pytest.raises(ValueError, match="memo holds the indicator"):
            trend_interval(x, 100, params, dim=dim, memo=memo)
