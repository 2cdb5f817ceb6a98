import math
import re
from dataclasses import replace

import numpy as np
import pytest

from cpstream.critvals import CritValKind, CritValRequest, compute_critval
from cpstream.errors import DetectorStoppedError, NonFiniteSampleError
from cpstream.online import (
    DetectorKind,
    Verdict,
    Verdicts,
    _boundary,
    run_batch,
    step,
    train,
)
from cpstream.rng import substream
from cpstream.timeseries import TimeSeries


class TestBoundaryWeight:
    """The one boundary formula, g(m, k) = sqrt(m) (1 + k/m) (k / (k + m))^gamma."""

    def test_simple_arithmetic(self):
        assert _boundary(DetectorKind.STANDARD, 100, 100, 0.0) == pytest.approx(20.0, abs=1e-12)

    def test_gamma_zero_collapses(self):
        for m, k in [(10, 3), (200, 50), (7, 700)]:
            expected = np.sqrt(m) * (1 + k / m)
            assert _boundary(DetectorKind.STANDARD, m, k, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_quarter_gamma_value(self):
        # sqrt(400) * 2 * 0.5**0.25
        value = _boundary(DetectorKind.STANDARD, 400, 400, 0.25)
        assert value == pytest.approx(33.63585661014858, rel=1e-12)

    def test_monotone_in_k_for_gamma_zero(self):
        ks = np.arange(1, 500)
        weights = _boundary(DetectorKind.STANDARD, 200, ks, 0.0)
        assert np.all(np.diff(weights) > 0)

    def test_ratio_weight_is_squared_and_m_free(self):
        g = _boundary(DetectorKind.STANDARD, 50, 20, 0.25)
        assert _boundary(DetectorKind.RATIO, 50, 20, 0.25) == pytest.approx(g * g / 50, rel=1e-14)


class TestVerdict:
    FIELDS = ("detector_value", "threshold", "k_at_eval")

    def test_fields_are_immutable(self):
        verdict = Verdict(detector_value=2.0, threshold=1.0, k_at_eval=3)
        for name in (*self.FIELDS, "alarm"):
            with pytest.raises(AttributeError):
                setattr(verdict, name, getattr(verdict, name))
        assert verdict == Verdict(2.0, 1.0, 3)

    @pytest.mark.parametrize(
        "value, alarm", [(0.5, False), (1.0, True), (2.0, True), (math.nan, False)],
        ids=["below", "tie", "above", "nan"],
    )
    def test_alarm_is_value_at_or_over_threshold(self, value, alarm):
        assert Verdict(value, 1.0, 1).alarm is alarm

    def test_is_a_named_tuple(self):
        verdict = Verdict(0.5, 1.0, 7)
        value, threshold, k = verdict
        assert (value, threshold, k) == (0.5, 1.0, 7)
        assert verdict == (0.5, 1.0, 7)
        assert verdict._fields == self.FIELDS
        assert not verdict.alarm

    @pytest.mark.parametrize("d", [1, 2])
    def test_step_returns_a_verdict(self, d):
        cv = small_critval(DetectorKind.STANDARD, d)
        state = train(substream(d, 14).standard_normal((50, d)), DetectorKind.STANDARD, 0.0, cv)
        # a float takes the d = 1 route, a row the numpy route
        sample = 0.25 if d == 1 else np.full(d, 0.25)
        assert type(step(state, sample)) is Verdict
        assert type(step(state, np.full(d, 1e6))) is Verdict

    @pytest.mark.parametrize("kind", list(DetectorKind))
    def test_float_route_verdict_is_a_real_verdict(self, kind):
        # the d = 1 float route builds its verdict without Verdict's own
        # __new__; it is still a Verdict that equals its plain tuple, and
        # alarm is still derived from its numbers
        cv = small_critval(kind, 1)
        state = train(substream(1, 14).standard_normal((50, 1)), kind, 0.0, cv)
        for sample, alarm in ((0.25, False), (1e6, True)):
            verdict = step(state, sample)
            assert type(verdict) is Verdict
            assert verdict == tuple(verdict) == Verdict(*verdict)
            assert verdict._fields == self.FIELDS
            assert type(verdict.detector_value) is float and type(verdict.k_at_eval) is int
            assert verdict.alarm is alarm is (verdict.detector_value >= verdict.threshold)
        assert state.stopped_at == verdict.k_at_eval == 2

    def test_verdicts_item_is_the_single_stream_verdict(self, cv_standard_d1):
        stack = substream(1, 14).standard_normal((3, 60, 1))
        stack[1, 55] += 1e3
        verdicts, _ = run_batch(train(stack[:, :50], DetectorKind.STANDARD, 0.0, cv_standard_d1),
                                stack[:, 50:])
        assert isinstance(verdicts, Verdicts)
        for i in range(3):
            single, _ = run_batch(train(stack[i, :50], DetectorKind.STANDARD, 0.0, cv_standard_d1),
                                  stack[i, 50:])
            assert type(verdicts[i]) is Verdict
            assert verdicts[i] == single
        assert verdicts[1].alarm


class TestTrain:
    def test_training_mean_near_zero(self, cv_standard_d1):
        prefix = TimeSeries(substream(1, 10).standard_normal(200))
        state = train(prefix, DetectorKind.STANDARD, 0.0, cv_standard_d1)
        assert abs(state.training_sum[0] / state.m) <= 0.2
        assert state.m == 200

    def test_constant_prefix_trains_exactly(self, cv_standard_d1):
        state = train(TimeSeries(np.full(20, 7.0)), DetectorKind.STANDARD, 0.0, cv_standard_d1)
        assert state.training_sum[0] / state.m == 7.0

    def test_minimum_length(self, cv_standard_d1):
        with pytest.raises(ValueError, match="at least 4"):
            train(TimeSeries(np.zeros(3)), DetectorKind.STANDARD, 0.0, cv_standard_d1)

    @pytest.mark.parametrize("gamma", [0.5, -0.1])
    def test_gamma_outside_range_rejected(self, cv_standard_d1, gamma):
        with pytest.raises(ValueError, match="gamma"):
            train(TimeSeries(np.arange(10.0)), DetectorKind.STANDARD, gamma, cv_standard_d1)

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
        assert 1.0 / state.ratio_denominator_inv[0, 0] == pytest.approx(brute, rel=1e-12)

    def test_training_statistics_frozen(self, cv_standard_d1):
        state = train(TimeSeries(np.arange(10.0)), DetectorKind.STANDARD, 0.0, cv_standard_d1)
        with pytest.raises(ValueError):
            state.training_sum[0] = 99.0


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


# how a caller may hand step one sample (a d-row of floats)
SAMPLE_FORMS = {
    "float": lambda row: float(row[0]),
    "np.float64": lambda row: row[0],
    "array": lambda row: row,
    "list": lambda row: row.tolist(),
}


@pytest.mark.parametrize("gamma", [0.0, 0.25, 0.45])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", list(DetectorKind))
def test_step_and_run_batch_agree_exactly(kind, d, gamma):
    """step and run_batch agree bit for bit, sample by sample, in every sample form.

    For d = 1, step evaluates the detector in Python floats and run_batch in
    numpy, so a float, an np.float64, a (1,) array and a one-item list must
    each reproduce run_batch's verdict and running sum after every sample,
    and step's errors must read the same whichever form the sample takes.
    """
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
    # at m = 100, math.pow would round the boundary differently at k = 63,
    # 67, 69, 71, 92 and 93 (gamma 0.25 or 0.45), so the alarm comes later
    values = substream(d, 12).standard_normal((300, d))
    values[200:] += 3.0
    prefix, monitored = values[:100], values[100:]

    # the numpy route: a block ending at each monitored sample, up to the alarm
    expected = []
    for n in range(1, len(monitored) + 1):
        state = train(prefix, kind, gamma, cv)
        verdict, consumed = run_batch(state, monitored[:n])
        assert consumed == n
        expected.append((verdict, state.k, state.stopped_at, state.cum_sum_post))
        if verdict.alarm:
            break
    assert expected[-1][0].alarm
    # a whole block stops at the same first alarm
    whole = train(prefix, kind, gamma, cv)
    assert run_batch(whole, monitored) == (expected[-1][0], len(expected))

    forms = SAMPLE_FORMS if d == 1 else ("array", "list")
    for form in forms:
        make = SAMPLE_FORMS[form]
        state = train(prefix, kind, gamma, cv)
        held = state.cum_sum_post
        for row, (verdict, k, stopped_at, cum_sum_post) in zip(monitored, expected):
            assert step(state, make(row)) == verdict, form
            assert (state.k, state.stopped_at) == (k, stopped_at), form
            # step writes the running sum into the state's array in place
            assert state.cum_sum_post is held, form
            assert state.cum_sum_post.shape == (d,), form
            assert np.array_equal(state.cum_sum_post, cum_sum_post), form
        stopped = f"^detector already alarmed at k={state.k}$"
        with pytest.raises(DetectorStoppedError, match=stopped):
            step(state, make(monitored[0]))
        with pytest.raises(ValueError, match="^step takes a single-stream state"):
            step(train(prefix[None], kind, gamma, cv), make(monitored[0]))
        fresh = train(prefix, kind, gamma, cv)
        step(fresh, make(monitored[0]))
        running = fresh.cum_sum_post
        for bad in (np.nan, np.inf, -np.inf):
            row = monitored[1].copy()
            row[-1] = bad
            message = re.escape(f"non-finite sample {row.tolist()} at k=2")
            with pytest.raises(NonFiniteSampleError, match=f"^{message}$"):
                step(fresh, make(row))
            assert fresh.k == 1
            assert fresh.cum_sum_post is running, form


@pytest.mark.parametrize("form", list(SAMPLE_FORMS))
@pytest.mark.parametrize("gamma", [0.0, 0.15, 0.45])
@pytest.mark.parametrize("kind", list(DetectorKind))
def test_d1_float_route(kind, gamma, form):
    """step's d = 1 float route against run_batch, a replace copy and a rejected sample.

    One state takes every sample by step, one by one-sample run_batch
    blocks, and one alternates between the two: after every sample all
    three hold the same verdict, count, stop and running sum, to the bit.
    """
    cv = small_critval(kind, 1, gamma)
    values = substream(1, 14).standard_normal((300, 1))
    values[200:] += 3.0
    prefix, monitored = values[:100], values[100:]
    make = SAMPLE_FORMS[form]
    stepped, batched, mixed = (train(prefix, kind, gamma, cv) for _ in range(3))
    copy = None
    for i, row in enumerate(monitored):
        if i == 20:
            copy = replace(stepped)
            kept = (copy.k, copy.stopped_at, copy.cum_sum_post.copy())
        verdict = step(stepped, make(row))
        expected, consumed = run_batch(batched, row[None])
        assert consumed == 1
        other = step(mixed, make(row)) if i % 2 else run_batch(mixed, row[None])[0]
        assert repr(tuple(verdict)) == repr(tuple(expected)) == repr(tuple(other))
        for state in (batched, mixed):
            assert (stepped.k, stepped.stopped_at) == (state.k, state.stopped_at)
            assert stepped.cum_sum_post.tobytes() == state.cum_sum_post.tobytes()
            assert stepped.cum_sum_post.shape == (1,)
        if verdict.alarm:
            break
    assert verdict.alarm and stepped.k > 20

    # the copy taken after 20 samples did not move with the original, and
    # replays the rest of the stream to the same verdicts
    assert (copy.k, copy.stopped_at) == kept[:2]
    assert copy.cum_sum_post.tobytes() == kept[2].tobytes()
    for row in monitored[20 : stepped.k]:
        last = step(copy, make(row))
    assert repr(tuple(last)) == repr(tuple(verdict))

    # a rejected sample leaves the floats and the running sum as they were
    fresh = train(prefix, kind, gamma, cv)
    for row in monitored[:5]:
        step(fresh, make(row))
    floats = (fresh.k, fresh._scalars)
    running = fresh.cum_sum_post
    summed = running.tobytes()
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonFiniteSampleError):
            step(fresh, make(np.array([bad])))
        assert (fresh.k, fresh._scalars) == floats
        assert fresh.cum_sum_post is running and running.tobytes() == summed


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
    for name in ("training_sum", "omega_inv_sqrt", "ratio_denominator_inv", "cum_sum_post"):
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
        assert state.training_sum.shape == (5, d)
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

    def test_alarm_marks_the_stopped_streams(self, kind, d):
        cv = small_critval(kind, d)
        stack = stream_stack(d)
        state = train(stack[:, :100], kind, 0.0, cv)
        verdicts, _ = run_batch(state, stack[:, 100:])
        assert verdicts.alarm[2] and not verdicts.alarm[0]
        assert list(verdicts.alarm) == [at is not None for at in state.stopped_at]

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
        # a stack has no float route: a float is refused as a row is
        for sample in ([0.0], 0.0):
            with pytest.raises(ValueError, match="run_batch"):
                step(state, sample)

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
