import logging
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from cpstream import offline, trend
from cpstream.errors import InsufficientTrainingError, NonFiniteSampleError
from cpstream.monitor import Action, MonitorConfig, run_monitor, select_training
from cpstream.offline import segment
from cpstream.rng import substream
from cpstream.timeseries import TimeSeries
from cpstream.trend import Direction, MacdParams


@pytest.fixture(scope="module")
def config(cheap_provider):
    return MonitorConfig(
        critvals=cheap_provider,
        alpha=0.05,
        gamma=0.0,
        window_k=100,
        quiet_gap_d=25,
        macd=MacdParams(9, 12, 26, h=10),
        min_seg=20,
        m_min=100,
    )


def stationary(seed, n):
    return substream(seed, 30).standard_normal(n)


def one_step(seed, n, at, shift):
    x = stationary(seed, n)
    x[at:] += shift
    return x


class TestSelectTraining:
    def test_change_free_history_uses_everything(self, config):
        history = TimeSeries(stationary(1, 300))
        seg = select_training(history, config)
        assert (seg.lo, seg.hi) == (1, 300)

    def test_training_starts_after_last_cp(self, config):
        x = one_step(2, 400, 150, 5.0)
        seg = select_training(TimeSeries(x), config)
        assert seg.hi == 400
        assert abs(seg.lo - 151) <= 3
        # cross-check: the training window itself is change-free
        cv = config.critvals("offline-max", 1, 0.05)
        assert segment(TimeSeries(x).segment(seg.lo, seg.hi), 0.05, lambda *_: cv, 20).cps == ()

    def test_late_cp_leaves_too_little_training(self, config):
        # change 50 samples before the end: detectable, but the remaining
        # suffix is shorter than m_min and extending left crosses the change
        x = stationary(3, 300)
        x[250:] += 5.0
        with pytest.raises(InsufficientTrainingError):
            select_training(TimeSeries(x), config)

    def test_short_history_rejected(self, config):
        with pytest.raises(ValueError, match="shorter than minimal"):
            select_training(TimeSeries(np.zeros(50)), config)

    def test_history_below_segmentable_length_is_change_free(self, cheap_provider):
        small = MonitorConfig(critvals=cheap_provider, m_min=10, min_seg=20, window_k=10)
        seg = select_training(TimeSeries(stationary(4, 15)), small)
        assert (seg.lo, seg.hi) == (1, 15)


class TestRunMonitor:
    def test_default_config_values(self, cheap_provider):
        defaults = MonitorConfig(critvals=cheap_provider)
        assert defaults.m_min == 200
        assert defaults.quiet_gap_d == 25
        assert defaults.macd == MacdParams(9, 12, 26, h=10)

    def test_stationary_stream_rarely_alarms(self, config):
        reps = 60
        empty = 0
        for seed in range(reps):
            events = run_monitor(stationary(seed, 600), config)
            empty += not events
        # five windows at alpha=0.05: lower bound (1-alpha)^5 minus MC slack
        assert empty / reps >= (1 - 0.05) ** 5 - 0.08

    def test_single_upward_step(self, config):
        x = one_step(7, 400, 150, 5.0)
        events = run_monitor(x, config)
        assert len(events) == 1
        event = events[0]
        assert event.detected_at >= 151
        assert event.detected_at <= 170
        assert event.direction is Direction.UP
        assert event.action is Action.SCALE_UP
        assert event.training_used[0] == 1
        assert event.training_used[1] == 100

    def test_up_then_down_steps(self, config):
        x = stationary(8, 700)
        x[200:450] += 5.0
        events = run_monitor(x, config)
        assert len(events) == 2
        first, second = events
        assert first.action is Action.SCALE_UP
        assert second.action is Action.SCALE_DOWN
        assert first.detected_at < second.detected_at
        assert second.detected_at > first.detected_at + config.quiet_gap_d
        assert 201 <= first.detected_at <= 220
        assert 451 <= second.detected_at <= 470

    def test_replay_reproduces_events(self, config):
        x = one_step(9, 400, 150, 4.0)
        assert run_monitor(list(x), config) == run_monitor(list(x), config)

    def test_golden_events(self, config):
        # events recorded from the loop that kept the history as a list of
        # per-sample arrays; 3 200 samples cross the sample buffer's first
        # growth, and the stream has three mean steps
        x = stationary(40, 3200)
        x[1100:2200] += 4.0
        x[2700:] -= 3.0
        events = run_monitor(x, config)
        assert [
            (e.detected_at, e.direction.value, repr(e.trend.value), e.training_used)
            for e in events
        ] == [
            (1121, "down", "-1.42758100870799", (1, 1100)),
            (2217, "up", "2.052318527270475", (1101, 2146)),
            (2722, "up", "1.0053659777535677", (2201, 2642)),
        ]
        assert run_monitor(x.tolist(), config) == events
        assert run_monitor([[v] for v in x.tolist()], config) == events

    @pytest.mark.parametrize("detector", ["standard", "ratio"])
    def test_sample_forms_give_identical_events(self, config, detector):
        # floats and np.float64 items take the scalar intake, one-item lists
        # and rows the array intake; 3 200 samples cross two buffer growths
        config = replace(config, detector=detector)
        x = stationary(41, 3200)
        x[900:1900] += 4.0
        x[2500:] -= 3.0
        events = run_monitor(x, config)
        assert events
        floats = x.tolist()
        assert run_monitor(floats, config) == events
        assert run_monitor([[v] for v in floats], config) == events
        assert run_monitor(x.reshape(-1, 1), config) == events
        mixed = [v if i % 2 else [v] for i, v in enumerate(floats)]
        assert run_monitor(iter(mixed), config) == events

    @pytest.mark.parametrize("bad", [7.0, [1.0, 2.0, 3.0]], ids=["scalar", "3-vector"])
    def test_sample_of_another_width_rejected(self, config, bad):
        rows = substream(13, 31).standard_normal((400, 2)).tolist()
        rows[249] = bad
        width = np.size(bad)
        with pytest.raises(
            ValueError, match=f"sample 250 has width {width}, but the stream's width is 2"
        ):
            run_monitor(rows, config)

    @pytest.mark.parametrize(
        "bad, where",
        [(np.nan, "training"), (np.nan, "window"), (np.inf, "window"), (np.nan, "after-alarm")],
        ids=["nan-in-training-prefix", "nan-in-monitored-window", "inf-in-monitored-window",
             "nan-after-alarm"],
    )
    def test_non_finite_sample_rejected_with_stream_index(self, config, bad, where):
        x = one_step(7, 400, 150, 5.0)
        [event] = run_monitor(x, config)
        # 1-based stream index: inside the first m_min samples, inside the
        # first monitored window, and the first sample the label pulls
        index = {"training": 60, "window": 130, "after-alarm": event.detected_at + 1}[where]
        x[index - 1] = bad
        # an ndarray and a list of floats take the scalar intake, one-item lists the array intake
        for stream in (x, x.tolist(), [[v] for v in x.tolist()]):
            seen = []
            with pytest.raises(
                NonFiniteSampleError, match=rf"^sample {index} is not finite: \[{bad}\]$"
            ):
                run_monitor(stream, config, on_event=seen.append)
            assert seen == []

    def test_each_window_tested_once_per_stream(self, config, monkeypatch):
        windows = []
        real = offline.offline_test

        def counted(s, alpha, critval):
            windows.append((s.lo, s.hi))
            return real(s, alpha, critval)

        rounds = []

        def segment_round(history, *args):
            rounds.append(history.n_samples)
            return segment(history, *args)

        monkeypatch.setattr(offline, "offline_test", counted)
        monkeypatch.setattr("cpstream.monitor.segment", segment_round)
        x = stationary(40, 3200)
        x[1100:2200] += 4.0
        x[2700:] -= 3.0
        assert len(run_monitor(x, config)) == 3
        assert len(rounds) > 10
        assert windows
        assert Counter(windows).most_common(1)[0][1] == 1

    def test_each_indicator_value_computed_once(self, config, monkeypatch):
        # the labels of one stream extend one indicator memo: the samples each
        # extension covers follow on from the last, and stop at the last
        # labelled index + h
        spans = []
        real = trend.TrendMemo._extend

        def counted(memo, values):
            spans.append((memo.size, memo.size + len(values)))
            return real(memo, values)

        monkeypatch.setattr(trend.TrendMemo, "_extend", counted)
        x = stationary(40, 3200)
        x[1100:2200] += 4.0
        x[2700:] -= 3.0
        events = run_monitor(x, config)
        assert len(spans) == len(events) == 3
        assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]]
        assert spans[-1][1] == events[-1].detected_at + config.macd.h

    def test_detector_critval_requested_once_per_stream(self, config):
        requests = []

        def provider(kind, d, alpha, gamma=0.0):
            requests.append((kind, d, alpha, gamma))
            return config.critvals(kind, d, alpha, gamma)

        x = stationary(40, 3200)
        x[1100:2200] += 4.0
        x[2700:] -= 3.0
        events = run_monitor(x, replace(config, critvals=provider))
        assert events == run_monitor(x, config)
        kinds = Counter(str(getattr(kind, "value", kind)) for kind, *_ in requests)
        assert kinds["online-standard"] == 1
        assert kinds["offline-max"] > 10

    def test_trend_dim_below_one_rejected(self, config):
        with pytest.raises(ValueError, match="trend_dim must be at least 1, got 0"):
            replace(config, trend_dim=0)

    def test_trend_dim_wider_than_stream_rejected_at_sample_one(self, config):
        pulled = []
        asked = []

        def stream():
            for v in stationary(5, 400):
                pulled.append(v)
                yield v

        def provider(*args):
            asked.append(args)
            return config.critvals(*args)

        wide = replace(config, trend_dim=2, critvals=provider)
        with pytest.raises(ValueError, match=r"^trend_dim 2 exceeds the stream's width 1 "):
            run_monitor(stream(), wide)
        assert len(pulled) == 1
        assert asked == []

    def test_event_callback_invoked(self, config):
        x = one_step(7, 400, 150, 5.0)
        seen = []
        events = run_monitor(x, config, on_event=seen.append)
        assert seen == events

    def test_trend_window_clamped_at_stream_end(self, cheap_provider):
        config = MonitorConfig(
            critvals=cheap_provider, window_k=100, quiet_gap_d=25,
            macd=MacdParams(9, 12, 26, h=10), m_min=100,
        )
        # stream ends right after the alarm: fewer than h samples remain
        x = one_step(10, 158, 150, 8.0)
        events = run_monitor(x, config)
        assert len(events) == 1
        assert events[0].trend.at_index == events[0].detected_at
        assert events[0].detected_at <= 158

    def test_training_windows_are_change_free_post_hoc(self, config):
        violations = 0
        total = 0
        for seed in range(15):
            x = stationary(seed + 100, 700)
            x[200:450] += 5.0
            for event in run_monitor(x, config):
                total += 1
                lo, hi = event.training_used
                if hi - lo + 1 >= 2 * config.min_seg:
                    window = TimeSeries(x[lo - 1 : hi])
                    cv = config.critvals("offline-max", 1, config.alpha)
                    found = segment(window, config.alpha, lambda *_: cv, config.min_seg).cps
                    violations += bool(found)
        assert total >= 20
        # each check fails with probability <= alpha; allow mean + 3 sigma
        allowance = 0.05 * total + 3 * np.sqrt(total * 0.05 * 0.95)
        assert violations <= allowance

    def test_stream_shorter_than_training_gives_no_events(self, config):
        assert run_monitor(stationary(0, 50), config) == []

    def test_stream_shorter_than_training_is_logged(self, config, caplog):
        with caplog.at_level(logging.WARNING, logger="cpstream.monitor"):
            assert run_monitor(stationary(0, 50), config) == []
        [record] = caplog.records
        assert record.name == "cpstream.monitor"
        assert record.getMessage() == (
            f"stream ended after 50 samples, before the {config.m_min} needed to train "
            "(m_min): nothing was monitored"
        )

    def test_two_dimensional_stream(self, cheap_provider):
        config = MonitorConfig(
            critvals=cheap_provider,
            window_k=100,
            quiet_gap_d=25,
            m_min=100,
            trend_dim=1,
        )
        gen = substream(12, 31)
        x = gen.standard_normal((400, 2))
        x[150:, 0] += 5.0  # change in the monitored dimension only
        events = run_monitor(x, config)
        assert len(events) == 1
        assert events[0].action is Action.SCALE_UP
        assert events[0].detected_at >= 151

    def test_ratio_detector_variant(self, cheap_provider):
        # the ratio statistic detects with a longer delay than the standard
        # one; the event fires, but the trend label at the alarm index is not
        # asserted (the indicator may have crossed zero again by then)
        config = MonitorConfig(
            critvals=cheap_provider,
            detector="ratio",
            window_k=100,
            quiet_gap_d=25,
            m_min=100,
        )
        x = one_step(11, 400, 150, 5.0)
        events = run_monitor(x, config)
        assert len(events) == 1
        assert events[0].detected_at >= 151
        assert events[0].action is (
            Action.SCALE_UP if events[0].direction is Direction.UP else Action.SCALE_DOWN
        )
