import hashlib
import importlib
import itertools
import logging
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from cpstream import critvals, offline, trend
from cpstream.critvals import CritValKind, MonteCarloProvider
from cpstream.errors import InsufficientTrainingError, NonFiniteSampleError
from cpstream.monitor import Action, ChangeEvent, MonitorConfig, run_monitor, select_training
from cpstream.offline import segment
from cpstream.rng import substream
from cpstream.timeseries import TimeSeries
from cpstream.trend import Direction, MacdParams, TrendVerdict


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


class CountingIterator:
    """An iterator over ``items`` that counts its ``next`` calls."""

    def __init__(self, items):
        self._items = iter(items)
        self.pulls = 0
        self.pulls_after_end = 0
        self._ended = False

    def __iter__(self):
        return self

    def __next__(self):
        self.pulls += 1
        self.pulls_after_end += self._ended
        try:
            return next(self._items)
        except StopIteration:
            self._ended = True
            raise


@pytest.mark.parametrize(
    "value, direction, action",
    [(0.5, Direction.UP, Action.SCALE_UP), (0.0, Direction.DOWN, Action.SCALE_DOWN)],
    ids=["positive", "zero"],
)
def test_event_direction_and_action_follow_the_label(value, direction, action):
    event = ChangeEvent(detected_at=60, trend=TrendVerdict(value, 60), training_used=(1, 50))
    assert event.direction is direction
    assert event.action is action


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
        # suffix is shorter than m_min
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

    def test_default_run_simulates_one_sample(self, monkeypatch):
        # segmentation's offline levels and the detector's gamma-0 value are
        # quantiles of the same d = 1 paths, drawn once
        rows = []

        def counted(request, lo, hi):
            rows.extend(range(lo, hi))
            return real(request, lo, hi)

        real = critvals._paths
        monkeypatch.setattr(critvals, "_paths", counted)
        provider = MonteCarloProvider(seed=2, grid_steps=100, replications=1000)
        x = one_step(7, 700, 400, 4.0)
        assert run_monitor(x, MonitorConfig(critvals=provider))
        kinds = {key[0] for key in provider._cache}
        assert kinds == {CritValKind.OFFLINE_MAX.value, CritValKind.ONLINE_STANDARD.value}
        assert len(rows) == 1000

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

    @pytest.mark.xfail(
        strict=True,
        reason="at quiet_gap_d 0 the round after the alarm at 513 trains on (1, 513), which "
        "holds the change at 500, and alarms on it again at 533",
    )
    @pytest.mark.parametrize("window_k", [50, 100])
    def test_one_event_per_change_without_quiet_gap(self, config, window_k):
        x = one_step(42, 1000, 500, 4.0)
        config = replace(config, window_k=window_k, quiet_gap_d=0)
        events = run_monitor(x, config)
        assert len([e for e in events if 500 <= e.detected_at < 600]) == 1

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
        # floats take the scalar intake; a 1-D ndarray's np.float64 items,
        # one-item lists and rows the array intake; 3 200 samples cross two
        # buffer growths
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
        [(np.nan, "first"), (np.nan, "training"), (np.nan, "window"), (np.inf, "window"),
         (np.nan, "after-alarm")],
        ids=["nan-in-first-sample", "nan-in-training-prefix", "nan-in-monitored-window",
             "inf-in-monitored-window", "nan-after-alarm"],
    )
    def test_non_finite_sample_rejected_with_stream_index(self, config, bad, where):
        x = one_step(7, 400, 150, 5.0)
        [event] = run_monitor(x, config)
        # 1-based stream index: the sample that fixes the width, inside the
        # first m_min samples, inside the first monitored window, and the
        # first sample the label pulls
        index = {"first": 1, "training": 60, "window": 130,
                 "after-alarm": event.detected_at + 1}[where]
        x[index - 1] = bad
        # an ndarray and a list of floats take the scalar intake, one-item lists the array intake
        for stream in (x, x.tolist(), [[v] for v in x.tolist()]):
            seen = []
            with pytest.raises(
                NonFiniteSampleError, match=rf"^sample {index} is not finite: \[{bad}\]$"
            ):
                run_monitor(stream, config, on_event=seen.append)
            assert seen == []

    def test_non_finite_sample_in_a_skipped_window(self, config, caplog):
        # a window the loop skips is read past without the detector, by the
        # same loop that reads the training prefix
        x = one_step(7, 400, 150, 5.0)
        with caplog.at_level(logging.WARNING, logger="cpstream.monitor"):
            [event] = run_monitor(x, config)
        origin = event.detected_at + config.quiet_gap_d
        assert f"skipping window at origin {origin}:" in caplog.text
        index = origin + config.window_k // 2
        x[index - 1] = np.nan
        for stream in (x, x.tolist(), [[v] for v in x.tolist()]):
            with pytest.raises(NonFiniteSampleError, match=rf"^sample {index} is not finite: \[nan\]$"):
                run_monitor(stream, config)

    def test_prefix_item_forms_give_identical_events(self, config):
        # the prefix and the skipped window pass np.float64, int and
        # one-item-list items through the intake, and floats inline
        x = one_step(7, 400, 150, 5.0)
        x[:300] = np.round(3.0 * x[:300])
        floats = x.tolist()
        events = run_monitor(floats, config)
        assert events
        forms = (np.float64, int, lambda v: [v])
        for form in forms:
            items = [form(v) if i < 300 else v for i, v in enumerate(floats)]
            assert run_monitor(items, config) == events
        mixed = [forms[i % 3](v) if i < 300 else v for i, v in enumerate(floats)]
        assert run_monitor(iter(mixed), config) == events

    def test_each_window_tested_once_per_stream(self, config, monkeypatch):
        windows = []
        real = offline.offline_test

        def counted(s, critval):
            windows.append((s.lo, s.hi))
            return real(s, critval)

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

    # the module globals a span tracer rebinds from outside the package
    # (perfbench/spans.py): a route that bypasses one leaves its span empty
    LAYER_BOUNDARIES = [
        ("cpstream.monitor", "segment"),
        ("cpstream.monitor", "train"),
        ("cpstream.monitor", "step"),
        ("cpstream.monitor", "trend_interval"),
        ("cpstream.offline", "offline_test"),
        ("cpstream.offline", "bartlett_lrv"),
        ("cpstream.online", "bartlett_lrv"),
    ]

    def test_every_layer_boundary_is_called_through_its_global(self, config, monkeypatch):
        calls = Counter()

        def counting(name, real):
            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return counted

        for module_name, attr in self.LAYER_BOUNDARIES:
            module = importlib.import_module(module_name)
            name = f"{module_name}.{attr}"
            monkeypatch.setattr(module, attr, counting(name, getattr(module, attr)))
        events = run_monitor(one_step(41, 1200, 600, 4.0), config)
        assert events
        assert sorted(calls) == sorted(f"{m}.{a}" for m, a in self.LAYER_BOUNDARIES)
        # every offline test and every standard training estimates a long-run variance
        assert calls["cpstream.offline.bartlett_lrv"] == calls["cpstream.offline.offline_test"]
        assert calls["cpstream.online.bartlett_lrv"] == calls["cpstream.monitor.train"]
        assert calls["cpstream.monitor.trend_interval"] == len(events)

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

    @pytest.mark.parametrize("form", ["floats", "ndarray", "one-item lists"])
    def test_event_pushed_after_exactly_its_label_window(self, config, form):
        # an event for an alarm at a waits for samples up to a + h (clamped
        # at the stream's end) and for no sample beyond them
        x = stationary(40, 3200)
        x[1100:2200] += 4.0
        x[2700:] -= 3.0
        samples = {"floats": x.tolist(), "ndarray": x, "one-item lists": [[v] for v in x.tolist()]}
        stream = CountingIterator(samples[form])
        pushed = []
        events = run_monitor(stream, config, on_event=lambda e: pushed.append(stream.pulls))
        assert len(events) == 3
        assert pushed == [min(e.detected_at + config.macd.h, len(x)) for e in events]
        assert stream.pulls == len(x) + 1  # every sample once, then the end once
        assert stream.pulls_after_end == 0

    def test_stream_end_read_once_when_it_cuts_the_label_window(self, cheap_provider):
        config = MonitorConfig(
            critvals=cheap_provider, window_k=100, quiet_gap_d=25,
            macd=MacdParams(9, 12, 26, h=10), m_min=100,
        )
        x = one_step(10, 158, 150, 8.0)
        stream = CountingIterator(x.tolist())
        pushed = []
        [event] = run_monitor(stream, config, on_event=lambda e: pushed.append(stream.pulls))
        assert event.detected_at + config.macd.h > len(x)
        assert pushed == [len(x) + 1]
        assert stream.pulls_after_end == 0

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


def ar1_level_steps(seed, n=4000, every=1000, phi=0.3, levels=(0.0, 3.0, 0.0, -3.0)):
    """AR(1) noise of unit stationary variance plus a level that steps every ``every`` samples."""
    gen = np.random.default_rng([seed, 19])
    eps = (gen.standard_normal(n) * math.sqrt(1.0 - phi * phi)).tolist()
    noise = [gen.standard_normal()]
    for e in eps[1:]:
        noise.append(phi * noise[-1] + e)
    return [v + levels[(t // every) % len(levels)] for t, v in enumerate(noise)]


def event_fingerprint(streams_events) -> str:
    """sha256 of every event's index, label, trend value, label index and training window."""
    lines = []
    for i, events in enumerate(streams_events):
        lines.append(f"stream {i}")
        lines.extend(
            f"{e.detected_at} {e.direction.value} {e.trend.value!r} {e.trend.at_index} "
            f"{e.training_used[0]} {e.training_used[1]}"
            for e in events
        )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize(
    "detector, expected",
    [
        ("standard", "e6a5b6f13b2652a48f1e274377684427612c388b79d431f1cca38e0e275eb7b4"),
        ("ratio", "9f42990255f94d559f8cbd0ef3ee55b1a50cdb1a03fdb569522fa3f4e0e49801"),
    ],
)
def test_decision_fingerprint(detector, expected):
    # a byte-identical change to the monitor, the detectors or the offline
    # test keeps every event of these three stepping streams, to the last bit
    # of each trend value
    config = MonitorConfig(
        critvals=MonteCarloProvider(seed=0, grid_steps=100, replications=1000),
        detector=detector,
    )
    streams_events = [run_monitor(ar1_level_steps(seed), config) for seed in (1, 2, 3)]
    assert all(streams_events)
    assert event_fingerprint(streams_events) == expected


def catch_up_stream():
    """Two moderate mean steps, which segmentation often cannot place just
    after an alarm: the next round then trains, and its window starts inside
    the samples the label already read."""
    x = stationary(42, 1500)
    x[500:900] += 1.5
    x[1200:] -= 1.5
    return x


CATCH_UP_FINGERPRINTS = {
    ("standard", 0, 50): "312481b50e3bc4862a471f8d1b3055425babd56110362805660bc227058c0a8a",
    ("standard", 0, 200): "154e711263a31462a8e64c5be552a768afef8e3f9f749bcf3db4c378e687b24e",
    ("standard", 3, 50): "e3f5f76f1cf0a7a824f74f8805870029b6c6ea919d75501f04bf93fe9dab2629",
    ("standard", 3, 200): "0e565f79dbf89d337681fa1fc7bb627705b4bbf858a97606bcb15eca7100aa3b",
    ("ratio", 0, 50): "2b14355815eb32b8a1a90d1116b73e9cbb24ab451174535cb3db6d3246a430ac",
    ("ratio", 0, 200): "e6ab0b03f09635b40a4807d76e9cbe57c9d2bfd7dca05f7d133cbf163c9c4b97",
    ("ratio", 3, 50): "420d95557fcede1daf66b6692bf4780efb2754dd1f1a6fa0595b9482b85ba2db",
    ("ratio", 3, 200): "a92f9d8c16624c08051ecf05fa4e23728bfb734980342e011452b118d48dc9e3",
}


@pytest.mark.parametrize("detector, quiet_gap_d, window_k", list(CATCH_UP_FINGERPRINTS))
def test_window_steps_over_samples_the_label_read(config, caplog, detector, quiet_gap_d, window_k):
    # quiet_gap_d below h: the next window starts at a + d, inside the
    # samples a + 1 .. a + h that the label pulled, and the detector steps
    # over those from the buffer before it reads the stream again
    config = replace(config, detector=detector, quiet_gap_d=quiet_gap_d, window_k=window_k)
    h = config.macd.h
    x = catch_up_stream()
    n = len(x)
    forms = {"floats": x.tolist(), "ndarray": x, "one-item lists": [[v] for v in x.tolist()]}
    runs = {}
    for form, samples in forms.items():
        stream = CountingIterator(samples)
        pushed = []
        with caplog.at_level(logging.WARNING, logger="cpstream.monitor"):
            runs[form] = run_monitor(stream, config, on_event=lambda e: pushed.append(stream.pulls))
        assert pushed == [min(e.detected_at + h, n) for e in runs[form]]
        assert stream.pulls == n + 1
        assert stream.pulls_after_end == 0
    events = runs["floats"]
    assert runs["ndarray"] == runs["one-item lists"] == events
    # events recorded from the loop whose monitored window had its own intake
    assert event_fingerprint([events]) == CATCH_UP_FINGERPRINTS[detector, quiet_gap_d, window_k]
    # some round after an alarm trained and monitored from inside the label window
    skipped = {r.args[0] for r in caplog.records if r.msg.startswith("skipping window")}
    assert any(
        e.detected_at + h < n and e.detected_at + quiet_gap_d not in skipped for e in events
    )


def multi_step_stream(seed, n=3000, every=400, steps=(1.5, 4.0, -1.5, -4.0)):
    """N(0, 1) noise whose mean moves by the next of ``steps`` every ``every`` samples."""
    level = np.cumsum([0.0] + [steps[i % len(steps)] for i in range(n // every)])
    return stationary(seed, n) + level[np.arange(n) // every]


def test_label_look_ahead_never_moves_an_alarm(config):
    # a label reads h samples past its alarm, and at quiet_gap_d < h the next
    # window first steps over those from the buffer; the alarms and training
    # windows must be those of h = 0, whose label reads nothing ahead
    stepped_over = 0
    for seed in (60, 61):
        x = multi_step_stream(seed)
        for detector, quiet_gap_d, h, window_k in itertools.product(
            ("standard", "ratio"), (0, 3, 9), (10, 25), (50, 200)
        ):
            run = replace(config, detector=detector, quiet_gap_d=quiet_gap_d,
                          window_k=window_k, macd=replace(config.macd, h=h))
            events = run_monitor(x.tolist(), run)
            assert run_monitor(x, run) == events
            assert run_monitor((np.float64(v) for v in x), run) == events
            no_look_ahead = run_monitor(x.tolist(), replace(run, macd=replace(run.macd, h=0)))
            assert [(e.detected_at, e.training_used) for e in events] == [
                (e.detected_at, e.training_used) for e in no_look_ahead
            ], (seed, detector, quiet_gap_d, h, window_k)
            stepped_over += sum(b.detected_at - a.detected_at <= h
                                for a, b in zip(events, events[1:]))
    # some alarm fell among the samples the last label had already read
    assert stepped_over > 0


def test_two_column_stream_across_buffer_growths(cheap_provider):
    # 2 600 two-column rows cross the buffer's growths at 1 024 and 2 048
    # rows; the rows take the reader's general route
    config = MonitorConfig(critvals=cheap_provider, window_k=100, quiet_gap_d=25, m_min=100)
    x = substream(14, 31).standard_normal((2600, 2))
    x[700:1500, 0] += 4.0
    x[2100:, 0] -= 3.0
    x[1800:, 1] += 2.0
    events = run_monitor(x, config)
    assert [
        (e.detected_at, e.direction.value, repr(e.trend.value), e.training_used)
        for e in events
    ] == [
        (725, "down", "-0.5371071882280336", (1, 700)),
        (1524, "up", "1.3562388782405228", (702, 1450)),
        (1831, "down", "-0.00542046407592954", (1501, 1749)),
        (2116, "up", "2.17279945073545", (1799, 2056)),
    ]
    assert run_monitor(x.tolist(), config) == events
    assert run_monitor(iter(map(tuple, x.tolist())), config) == events
