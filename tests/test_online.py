import numpy as np
import pytest

from cpstream.critvals import CritValKind, CritValRequest, compute_critval
from cpstream.errors import DetectorStoppedError, NonFiniteSampleError
from cpstream.online import (
    DetectorKind,
    boundary_weight,
    ratio_boundary_weight,
    run_batch,
    step,
    train,
)
from cpstream.rng import substream
from cpstream.timeseries import TimeSeries


class TestBoundaryWeight:
    def test_simple_arithmetic(self):
        assert boundary_weight(100, 100, 0.0) == pytest.approx(20.0, abs=1e-12)

    def test_gamma_zero_collapses(self):
        for m, k in [(10, 3), (200, 50), (7, 700)]:
            assert boundary_weight(m, k, 0.0) == pytest.approx(np.sqrt(m) * (1 + k / m), rel=1e-14)

    def test_quarter_gamma_value(self):
        # sqrt(400) * 2 * 0.5**0.25
        assert boundary_weight(400, 400, 0.25) == pytest.approx(33.63585661014858, rel=1e-12)

    def test_monotone_in_k_for_gamma_zero(self):
        ks = np.arange(1, 500)
        weights = boundary_weight(200, ks, 0.0)
        assert np.all(np.diff(weights) > 0)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            boundary_weight(0, 1, 0.0)
        with pytest.raises(ValueError):
            boundary_weight(10, 0, 0.0)
        with pytest.raises(ValueError):
            boundary_weight(10, 1, 0.5)

    def test_ratio_weight_is_squared_and_m_free(self):
        g = boundary_weight(50, 20, 0.25)
        assert ratio_boundary_weight(50, 20, 0.25) == pytest.approx(g * g / 50, rel=1e-14)


class TestTrain:
    def test_training_mean_near_zero(self, cv_standard_d1):
        prefix = TimeSeries(substream(1, 10).standard_normal(200))
        state = train(prefix, DetectorKind.STANDARD, 0.0, cv_standard_d1)
        assert abs(state.training_mean[0]) <= 0.2
        assert state.m == 200

    def test_constant_prefix_trains_exactly(self, cv_standard_d1):
        state = train(TimeSeries(np.full(20, 7.0)), DetectorKind.STANDARD, 0.0, cv_standard_d1)
        assert state.training_mean[0] == 7.0

    def test_minimum_length(self, cv_standard_d1):
        with pytest.raises(ValueError, match="at least 4"):
            train(TimeSeries(np.zeros(3)), DetectorKind.STANDARD, 0.0, cv_standard_d1)

    def test_critval_must_match(self, cv_standard_d1, cv_ratio_d1, cv_offline_d1):
        prefix = TimeSeries(np.arange(10.0))
        with pytest.raises(ValueError, match="kind"):
            train(prefix, DetectorKind.STANDARD, 0.0, cv_ratio_d1)
        with pytest.raises(ValueError, match="kind"):
            train(prefix, DetectorKind.RATIO, 0.0, cv_offline_d1)
        with pytest.raises(ValueError, match="gamma"):
            train(prefix, DetectorKind.STANDARD, 0.25, cv_standard_d1)
        two_dim = TimeSeries(np.zeros((10, 2)))
        with pytest.raises(ValueError, match="d="):
            train(two_dim, DetectorKind.STANDARD, 0.0, cv_standard_d1)

    def test_ratio_denominator_matches_brute_force(self, cv_ratio_d1, rng):
        values = rng.normal(size=10)
        state = train(TimeSeries(values), DetectorKind.RATIO, 0.0, cv_ratio_d1)
        m = 10
        mean = values.mean()
        brute = 0.0
        for j in range(1, m + 1):
            dev = values[:j].mean() - mean
            brute += j**2 * dev * dev
        brute /= m**2
        assert state.ratio_denominator[0, 0] == pytest.approx(brute, rel=1e-12)

    def test_training_statistics_frozen(self, cv_standard_d1):
        state = train(TimeSeries(np.arange(10.0)), DetectorKind.STANDARD, 0.0, cv_standard_d1)
        with pytest.raises(ValueError):
            state.training_mean[0] = 99.0


class TestStep:
    def test_stream_at_training_mean_never_alarms(self, cv_standard_d1):
        prefix = TimeSeries(np.tile([0.0, 2.0], 10))  # mean exactly 1
        state = train(prefix, DetectorKind.STANDARD, 0.0, cv_standard_d1)
        for _ in range(50):
            verdict = step(state, 1.0)
            assert verdict.detector_value == 0.0
            assert not verdict.alarm

    def test_numerator_hand_value(self, cv_standard_d1):
        # zero prefix, one monitored sample of 1: raw running sum is exactly 1
        state = train(TimeSeries(np.zeros(4)), DetectorKind.STANDARD, 0.0, cv_standard_d1)
        step(state, 1.0)
        numerator = state.cum_sum_post - (state.k / state.m) * state.training_sum
        assert numerator[0] == 1.0

    def test_step_after_stop_raises(self, cv_standard_d1, rng):
        state = train(TimeSeries(rng.normal(size=50)), DetectorKind.STANDARD, 0.0, cv_standard_d1)
        verdict = step(state, 1e6)
        assert verdict.alarm
        assert state.stopped_at == 1
        with pytest.raises(DetectorStoppedError):
            step(state, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected_without_state_change(self, cv_standard_d1, rng, bad):
        state = train(TimeSeries(rng.normal(size=50)), DetectorKind.STANDARD, 0.0, cv_standard_d1)
        step(state, 0.5)
        before = state.cum_sum_post.copy()
        with pytest.raises(NonFiniteSampleError):
            step(state, bad)
        assert state.k == 1
        assert np.array_equal(state.cum_sum_post, before)
        assert not step(state, 0.5).alarm

    def test_add_constant_invariance(self, cv_standard_d1, rng):
        base = rng.normal(size=260)
        shifted = base + 123.456
        s1 = train(base[:200], DetectorKind.STANDARD, 0.0, cv_standard_d1)
        s2 = train(shifted[:200], DetectorKind.STANDARD, 0.0, cv_standard_d1)
        for x1, x2 in zip(base[200:], shifted[200:]):
            v1 = step(s1, x1)
            v2 = step(s2, x2)
            assert v2.detector_value == pytest.approx(v1.detector_value, rel=1e-8, abs=1e-10)

    def test_ratio_scale_invariance(self, cv_ratio_d1, rng):
        base = rng.normal(size=260) + 5.0
        s1 = train(base[:200], DetectorKind.RATIO, 0.0, cv_ratio_d1)
        s2 = train(base[:200] * 37.5, DetectorKind.RATIO, 0.0, cv_ratio_d1)
        for x in base[200:]:
            v1 = step(s1, x)
            v2 = step(s2, x * 37.5)
            assert v2.detector_value == pytest.approx(v1.detector_value, rel=1e-8)

    def test_multivariate_value_is_l1_aggregate(self, rng):
        from cpstream.longrun import bartlett_bandwidth, bartlett_lrv, inverse_sqrt

        cv = compute_critval(
            CritValRequest(
                kind=CritValKind.ONLINE_STANDARD,
                alpha=0.05,
                d=2,
                gamma=0.0,
                grid_steps=300,
                replications=2000,
                seed=0,
            )
        )
        values = rng.normal(size=(60, 2))
        state = train(values[:50], DetectorKind.STANDARD, 0.0, cv)
        root = inverse_sqrt(bartlett_lrv(values[:50], bartlett_bandwidth(50)))
        running = np.zeros(2)
        for k, x in enumerate(values[50:], start=1):
            verdict = step(state, x)
            running += x
            numerator = running - (k * values[:50].sum(axis=0)) / 50
            expected = float(np.abs(root @ numerator).sum())
            assert verdict.detector_value == pytest.approx(expected, rel=1e-12)

    def test_standard_numerator_matches_brute_force(self, cv_standard_d1, rng):
        values = rng.normal(size=30)
        state = train(values[:10], DetectorKind.STANDARD, 0.0, cv_standard_d1)
        for k, x in enumerate(values[10:], start=1):
            step(state, x)
            brute = values[10 : 10 + k].sum() - (k / 10) * values[:10].sum()
            running = state.cum_sum_post[0] - (k / 10) * state.training_sum[0]
            assert running == pytest.approx(brute, rel=1e-12, abs=1e-12)


class TestRunBatch:
    def test_early_stop_consumed_count(self, cv_standard_d1, rng):
        state = train(TimeSeries(rng.normal(size=100)), DetectorKind.STANDARD, 0.0, cv_standard_d1)
        stream = [0.0] * 9 + [1e6] + [0.0] * 40
        verdict, consumed = run_batch(state, stream[:50])
        assert verdict.alarm
        assert consumed == 10
        assert state.stopped_at == 10

    def test_quiet_window_consumes_all(self, cv_standard_d1):
        prefix = TimeSeries(np.tile([0.0, 2.0], 10))
        state = train(prefix, DetectorKind.STANDARD, 0.0, cv_standard_d1)
        verdict, consumed = run_batch(state, np.full(80, 1.0)[:50])
        assert consumed == 50
        assert not verdict.alarm

    def test_empty_stream_rejected(self, cv_standard_d1, rng):
        state = train(TimeSeries(rng.normal(size=20)), DetectorKind.STANDARD, 0.0, cv_standard_d1)
        with pytest.raises(ValueError, match="no samples"):
            run_batch(state, np.array([]))

    def test_power_smoke(self, cv_standard_d1):
        # 5-sigma shift right after training alarms within a few samples
        for seed in range(100):
            gen = substream(seed, 11)
            x = gen.standard_normal(240)
            x[200:] += 5.0
            state = train(x[:200], DetectorKind.STANDARD, 0.0, cv_standard_d1)
            verdict, consumed = run_batch(state, x[200:240])
            assert verdict.alarm
            assert consumed <= 40

    def test_matches_step_by_step_standard(self, cv_standard_d1, rng):
        values = rng.normal(size=300)
        values[250:] += 2.0
        seq_state = train(values[:200], DetectorKind.STANDARD, 0.0, cv_standard_d1)
        bat_state = train(values[:200], DetectorKind.STANDARD, 0.0, cv_standard_d1)
        seq_verdicts = []
        for x in values[200:]:
            v = step(seq_state, x)
            seq_verdicts.append(v)
            if v.alarm:
                break
        verdict, consumed = run_batch(bat_state, values[200:])
        assert consumed == len(seq_verdicts)
        assert verdict == seq_verdicts[-1]
        assert bat_state.k == seq_state.k
        assert bat_state.stopped_at == seq_state.stopped_at
        assert np.array_equal(bat_state.cum_sum_post, seq_state.cum_sum_post)

    def test_matches_step_by_step_ratio_multidim(self, cv_ratio_d1, rng):
        cv = compute_critval(
            CritValRequest(
                kind=CritValKind.ONLINE_RATIO,
                alpha=0.05,
                d=3,
                gamma=0.0,
                grid_steps=150,
                replications=1500,
                horizon_T=5.0,
                seed=0,
            )
        )
        values = rng.normal(size=(140, 3))
        values[120:] += [3.0, -1.0, 0.5]
        seq_state = train(values[:100], DetectorKind.RATIO, 0.0, cv)
        bat_state = train(values[:100], DetectorKind.RATIO, 0.0, cv)
        seq = []
        for x in values[100:]:
            v = step(seq_state, x)
            seq.append(v)
            if v.alarm:
                break
        verdict, consumed = run_batch(bat_state, values[100:])
        assert consumed == len(seq)
        assert verdict == seq[-1]
        assert np.array_equal(bat_state.cum_sum_post, seq_state.cum_sum_post)

    def test_determinism(self, cv_standard_d1, rng):
        values = rng.normal(size=400)
        runs = []
        for _ in range(2):
            state = train(values[:200], DetectorKind.STANDARD, 0.0, cv_standard_d1)
            runs.append(run_batch(state, values[200:]))
        assert runs[0] == runs[1]

    def test_non_finite_sample_in_block_rejected(self, cv_standard_d1, rng):
        state = train(TimeSeries(rng.normal(size=60)), DetectorKind.STANDARD, 0.0, cv_standard_d1)
        block = rng.normal(size=20)
        block[7] = np.nan
        with pytest.raises(NonFiniteSampleError, match="k=8"):
            run_batch(state, block)
        assert state.k == 0
        assert np.array_equal(state.cum_sum_post, np.zeros(1))


@pytest.mark.parametrize("gamma", [0.0, 0.25])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", list(DetectorKind))
def test_step_and_run_batch_agree_exactly(kind, d, gamma):
    """step and run_batch evaluate one kernel, so they agree bit for bit."""
    cv = compute_critval(
        CritValRequest(
            kind=kind.critval_kind,
            alpha=0.05,
            d=d,
            gamma=gamma,
            grid_steps=100,
            replications=1000,
            seed=0,
        )
    )
    values = substream(d, 12).standard_normal((200, d))
    values[140:] += 3.0
    prefix, monitored = values[:100], values[100:]

    seq_state = train(prefix, kind, gamma, cv)
    seq = []
    for x in monitored:
        seq.append(step(seq_state, x))
        if seq[-1].alarm:
            break
    assert seq[-1].alarm

    bat_state = train(prefix, kind, gamma, cv)
    verdict, consumed = run_batch(bat_state, monitored)
    assert (verdict, consumed) == (seq[-1], len(seq))
    assert (bat_state.k, bat_state.stopped_at) == (seq_state.k, seq_state.stopped_at)
    assert np.array_equal(bat_state.cum_sum_post, seq_state.cum_sum_post)
    # every intermediate verdict is the last row of a block ending there
    for n, expected in enumerate(seq[:-1], start=1):
        assert run_batch(train(prefix, kind, gamma, cv), monitored[:n]) == (expected, n)


def stream_stack(d, n_prefix=100, n_block=60):
    """Streams that cover the stacked kernel's cases, as an (S, m + b, d) array.

    0: constant, monitored at its training mean (never alarms)
    1: rank-deficient (column 2 = 3 x column 1 when d > 1)
    2: alarms at its first monitored sample
    3: quiet noise
    4: a +3 step partway through the block
    """
    gen = substream(d, 13)
    n = n_prefix + n_block
    stack = gen.standard_normal((5, n, d))
    stack[0] = 5.0
    if d > 1:
        stack[1, :, 1] = 3.0 * stack[1, :, 0]
    stack[2, n_prefix] += 1e3
    stack[3, n_prefix:] *= 0.1
    stack[4, n_prefix + 25 :] += 3.0
    return stack


def small_critval(kind, d, gamma=0.0):
    return compute_critval(
        CritValRequest(
            kind=kind.critval_kind, alpha=0.05, d=d, gamma=gamma,
            grid_steps=100, replications=1000, seed=0,
        )
    )


def assert_stream_state_equal(stacked, i, single):
    """Stream i of a stacked state holds exactly the single-stream state."""
    for name in ("training_mean", "training_sum", "omega_inv_sqrt",
                 "ratio_denominator", "ratio_denominator_inv", "cum_sum_post"):
        field_stack, field_single = getattr(stacked, name), getattr(single, name)
        if field_single is None:
            assert field_stack is None
        else:
            assert np.array_equal(field_stack[i], field_single), name
    assert stacked.k[i] == single.k
    assert stacked.stopped_at[i] == single.stopped_at


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", list(DetectorKind))
class TestStacked:
    """train and run_batch on (S, ·, d) stacks match the per-stream calls bit for bit."""

    def test_train_matches_streams(self, kind, d):
        cv = small_critval(kind, d)
        stack = stream_stack(d)[:, :100]
        state = train(stack, kind, 0.0, cv)
        assert state.stacked and state.dim == d
        assert state.training_mean.shape == (5, d)
        for i, series in enumerate(stack):
            assert_stream_state_equal(state, i, train(series, kind, 0.0, cv))

    def test_run_batch_matches_streams(self, kind, d):
        cv = small_critval(kind, d, gamma=0.25)
        stack = stream_stack(d)
        prefix, block = stack[:, :100], stack[:, 100:]
        state = train(prefix, kind, 0.25, cv)
        verdicts, consumed = run_batch(state, block)
        assert consumed.shape == verdicts.alarm.shape == (5,)
        assert verdicts.alarm[2] and consumed[2] == 1
        assert not verdicts.alarm[0] and consumed[0] == 60
        assert not verdicts.alarm[3]
        for i in range(5):
            single = train(prefix[i], kind, 0.25, cv)
            assert (verdicts[i], consumed[i]) == run_batch(single, block[i])
            assert_stream_state_equal(state, i, single)

    def test_second_block_continues_each_count(self, kind, d):
        cv = small_critval(kind, d)
        stack = stream_stack(d, n_block=80)[[0, 1, 3, 4]]
        prefix, first, second = stack[:, :100], stack[:, 100:120], stack[:, 120:]
        state = train(prefix, kind, 0.0, cv)
        verdicts, _ = run_batch(state, first)
        assert not verdicts.alarm.any()
        verdicts, consumed = run_batch(state, second)
        for i in range(4):
            single = train(prefix[i], kind, 0.0, cv)
            run_batch(single, first[i])
            assert (verdicts[i], consumed[i]) == run_batch(single, second[i])
            assert_stream_state_equal(state, i, single)

    def test_non_finite_sample_names_stream(self, kind, d):
        cv = small_critval(kind, d)
        stack = stream_stack(d)
        state = train(stack[:, :100], kind, 0.0, cv)
        block = stack[:, 100:].copy()
        block[3, 5, d - 1] = np.nan
        block[4, 9, 0] = np.inf
        with pytest.raises(NonFiniteSampleError, match="in stream 3 at k=6"):
            run_batch(state, block)
        assert np.array_equal(state.k, np.zeros(5, dtype=int))
        assert np.array_equal(state.cum_sum_post, np.zeros((5, d)))
        assert not state.stopped


class TestStackedGuards:
    def test_step_rejects_stack(self, cv_standard_d1):
        state = train(np.zeros((3, 20, 1)), DetectorKind.STANDARD, 0.0, cv_standard_d1)
        with pytest.raises(ValueError, match="run_batch"):
            step(state, [0.0])

    def test_stopped_stream_refuses_stack(self, cv_standard_d1, rng):
        state = train(rng.normal(size=(3, 50, 1)), DetectorKind.STANDARD, 0.0, cv_standard_d1)
        block = np.zeros((3, 10, 1))
        block[1, 0] = 1e6
        verdicts, consumed = run_batch(state, block)
        assert list(verdicts.alarm) == [False, True, False]
        assert list(state.stopped_at) == [None, 1, None]
        with pytest.raises(DetectorStoppedError, match="stream 1"):
            run_batch(state, block)

    def test_block_must_hold_every_stream(self, cv_standard_d1, rng):
        state = train(rng.normal(size=(3, 50, 1)), DetectorKind.STANDARD, 0.0, cv_standard_d1)
        with pytest.raises(ValueError, match=r"is not \(3, b, d\)"):
            run_batch(state, np.zeros((2, 10, 1)))
        with pytest.raises(ValueError, match=r"is not \(3, b, d\)"):
            run_batch(state, np.zeros((10, 1)))
