import hashlib
import importlib
import itertools
import logging
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from cpstream import critvals, monitor, trend
from cpstream.critvals import CritValKind, MonteCarloProvider
from cpstream.errors import NonFiniteSampleError
from cpstream.monitor import Action, ChangeEvent, MonitorConfig, run_monitor
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

        def counted(request, lo, hi, worker=None):
            rows.extend(range(lo, hi))
            return real(request, lo, hi, worker)

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
        # recorded from the loop that restarts each regime at its alarm's
        # change estimate: each training window runs from the last estimate
        # to its origin; 3 200 samples cross the sample buffer's first
        # growth, and the stream has three mean steps
        x = stationary(40, 3200)
        x[1100:2200] += 4.0
        x[2700:] -= 3.0
        events = run_monitor(x, config)
        assert [
            (e.detected_at, e.direction.value, repr(e.trend.value), e.trend.at_index,
             e.training_used)
            for e in events
        ] == [
            (1121, "up", "4.004641514521678", 1101, (1, 1100)),
            (2219, "down", "-3.6555539886491886", 2201, (1101, 2200)),
            (2717, "down", "-3.4736463126339907", 2701, (2201, 2700)),
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
        # first sample after the alarm, which the label does not read: its
        # event is pushed before the sample raises
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
            assert seen == ([event] if where == "after-alarm" else [])

    def wait_stream(self, seed=7):
        """A +5 step at 61, inside the first m_min samples, and a -5 step at 301."""
        x = one_step(seed, 500, 60, 5.0)
        x[300:] -= 5.0
        return x

    def test_change_point_in_training_prefix_waits_for_m_min(self, config, monkeypatch):
        # the first round segments (1, 100) and finds the change at 60, so the
        # regime starts at 61 and the loop reads on, with no detector, until
        # m_min samples of it are in; with no change found after that, each
        # round trains on everything since 61
        rounds, stepped = [], []
        real_step = monitor.step

        def segment_round(regime, *args):
            # a round reads up to its origin, then segments the regime that
            # ends there; its change points are regime-local
            result = segment(regime, *args)
            lo = stream.pulls - len(regime) + 1
            rounds.append((lo, stream.pulls, tuple(lo - 1 + cp for cp in result.cps)))
            return result

        def recorded(state, x):
            # the reader steps each sample right after pulling it
            stepped.append(stream.pulls)
            return real_step(state, x)

        monkeypatch.setattr(monitor, "segment", segment_round)
        monkeypatch.setattr(monitor, "step", recorded)
        stream = CountingIterator(self.wait_stream().tolist())
        [event] = run_monitor(stream, config)
        assert rounds[:3] == [(1, 100, (60,)), (61, 160, ()), (61, 260, ())]
        assert event.training_used == (61, 260)
        assert event.direction is Direction.DOWN
        # the first detector trains on (61, 160): no sample up to 160 is stepped
        assert stepped[:101] == list(range(161, 262))

    def test_non_finite_sample_read_while_waiting_after_a_change_point(self, config, monkeypatch):
        # the samples the loop reads while it waits for m_min samples after a
        # change point reach no detector, yet each is checked as it is read
        stepped = []
        real = monitor.step

        def recorded(state, x):
            stepped.append(x)
            return real(state, x)

        monkeypatch.setattr(monitor, "step", recorded)
        x = self.wait_stream()
        index = 130
        x[index - 1] = np.nan
        for stream in (x, x.tolist(), [[v] for v in x.tolist()]):
            with pytest.raises(NonFiniteSampleError, match=rf"^sample {index} is not finite: \[nan\]$"):
                run_monitor(stream, config)
        assert stepped == []

    def test_regime_shorter_than_two_min_seg_trains_unsegmented(self, cheap_provider, monkeypatch):
        # a regime too short to segment counts as change-free: the round
        # trains on all of it, from the regime's first sample
        small = MonitorConfig(critvals=cheap_provider, m_min=10, min_seg=20, window_k=10)
        spans = []

        def segment_round(regime, *args):
            # a round reads up to its origin, then segments the regime that ends there
            spans.append((stream.pulls - len(regime) + 1, stream.pulls))
            return segment(regime, *args)

        monkeypatch.setattr(monitor, "segment", segment_round)
        stream = CountingIterator(one_step(4, 100, 30, 5.0))
        [event] = run_monitor(stream, small)
        assert event.training_used == (1, 30)
        change_at = event.trend.at_index
        assert spans and all(lo == change_at for lo, _ in spans)
        assert min(hi - lo + 1 for lo, hi in spans) >= 2 * small.min_seg

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
        # label's window end, its change estimate + h cut at its alarm
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
        last = events[-1]
        assert spans[-1][1] == min(last.trend.at_index + config.macd.h, last.detected_at)

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
        # a label reads nothing past its alarm: the event for an alarm at a
        # is pushed once sample a is read, and waits for no later sample
        x = stationary(40, 3200)
        x[1100:2200] += 4.0
        x[2700:] -= 3.0
        samples = {"floats": x.tolist(), "ndarray": x, "one-item lists": [[v] for v in x.tolist()]}
        stream = CountingIterator(samples[form])
        pushed = []
        events = run_monitor(stream, config, on_event=lambda e: pushed.append(stream.pulls))
        assert len(events) == 3
        assert pushed == [e.detected_at for e in events]
        assert all(e.trend.at_index <= e.detected_at for e in events)
        assert stream.pulls == len(x) + 1  # every sample once, then the end once
        assert stream.pulls_after_end == 0

    def test_stream_end_read_once_when_it_cuts_the_label_window(self, cheap_provider):
        config = MonitorConfig(
            critvals=cheap_provider, window_k=100, quiet_gap_d=25,
            macd=MacdParams(9, 12, 26, h=10), m_min=100,
        )
        # the stream ends fewer than h samples after the alarm: the event is
        # pushed at the alarm, and the loop then reads the end once
        x = one_step(10, 158, 150, 8.0)
        stream = CountingIterator(x.tolist())
        pushed = []
        [event] = run_monitor(stream, config, on_event=lambda e: pushed.append(stream.pulls))
        assert event.detected_at + config.macd.h > len(x)
        assert pushed == [event.detected_at]
        assert stream.pulls == len(x) + 1
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
        # stream ends right after the alarm: fewer than h samples remain, and
        # the label's window from the change estimate ends at the alarm
        x = one_step(10, 158, 150, 8.0)
        [event] = run_monitor(x, config)
        change_at = event.trend.at_index
        assert 151 <= change_at < event.detected_at <= 158
        assert event.detected_at - change_at < config.macd.h
        cut = replace(config.macd, h=event.detected_at - change_at)
        assert event.trend == trend.trend_interval(x[: event.detected_at], change_at, cut)
        assert event.direction is Direction.UP

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
        # one; the label reads the change where the estimate puts it
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
        assert events[0].trend.at_index == 151
        assert events[0].action is Action.SCALE_UP

    @pytest.mark.parametrize("shift", [5.0, -5.0])
    @pytest.mark.parametrize("trend_dim", [1, 2])
    @pytest.mark.parametrize("detector", ["standard", "ratio"])
    def test_change_estimate_on_a_noiseless_step(self, cheap_provider, detector, trend_dim, shift):
        # a stream without noise, +1 and -1 in turn, steps at sample 151 on
        # column trend_dim (beside a period-3 column when trend_dim is 2): the
        # estimate puts the change exactly there, and the label reads its sign
        t = np.arange(400)
        x = np.column_stack([t % 3 - 1.0, (-1.0) ** t])[:, 2 - trend_dim :]
        x[150:, -1] += shift
        config = MonitorConfig(
            critvals=cheap_provider, detector=detector, window_k=100, quiet_gap_d=25,
            m_min=100, trend_dim=trend_dim,
        )
        [event] = run_monitor(x, config)
        assert event.trend.at_index == 151 < event.detected_at
        assert event.direction is (Direction.UP if shift > 0 else Direction.DOWN)


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
        ("standard", "a6eee363b763d0357445759851b2f69ca662b7e942e7e2747a375d66957b2cc5"),
        ("ratio", "ea353cde82f525395a2d0d09b942716e879c3c014514924ba3c512e9fd86a2c8"),
    ],
    ids=["standard", "ratio"],
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


def multi_step_stream(seed, n=3000, every=400, steps=(1.5, 4.0, -1.5, -4.0)):
    """N(0, 1) noise whose mean moves by the next of ``steps`` every ``every`` samples."""
    level = np.cumsum([0.0] + [steps[i % len(steps)] for i in range(n // every)])
    return stationary(seed, n) + level[np.arange(n) // every]


def test_label_look_ahead_never_moves_an_alarm(config):
    # a label reads nothing past its alarm, so its half-window h cannot
    # reach the samples that decide the next alarm, even at quiet_gap_d < h;
    # the alarms and training windows must be those of h = 0. A regime
    # restarts at its change estimate and trains once m_min of it are read,
    # so only an m_min below h lets the next alarm fall within h samples
    stepped_over = 0
    for seed in (60, 61):
        x = multi_step_stream(seed)
        for detector, quiet_gap_d, h, window_k, m_min in itertools.product(
            ("standard", "ratio"), (0, 3, 9), (10, 25), (50, 200), (100, 8)
        ):
            run = replace(config, detector=detector, quiet_gap_d=quiet_gap_d, m_min=m_min,
                          window_k=window_k, macd=replace(config.macd, h=h))
            events = run_monitor(x.tolist(), run)
            assert run_monitor(x, run) == events
            assert run_monitor((np.float64(v) for v in x), run) == events
            no_look_ahead = run_monitor(x.tolist(), replace(run, macd=replace(run.macd, h=0)))
            assert [(e.detected_at, e.training_used) for e in events] == [
                (e.detected_at, e.training_used) for e in no_look_ahead
            ], (seed, detector, quiet_gap_d, h, window_k, m_min)
            stepped_over += sum(b.detected_at - a.detected_at <= h
                                for a, b in zip(events, events[1:]))
    # some alarm fell within h samples of the last one
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
    # the label reads column 1, so the change in column 2 at 1801 is labelled
    # with the indicator of a column that did not move; the change in column
    # 1 at 2101 falls 14 samples before the origin 2114, inside the training
    # window (1815, 2114) and too near its end for segmentation to place, so
    # its estimate lands after the origin and its label reads up
    assert [
        (e.detected_at, e.direction.value, repr(e.trend.value), e.trend.at_index,
         e.training_used)
        for e in events
    ] == [
        (725, "up", "4.32819181797267", 701, (1, 700)),
        (1523, "down", "-3.3725357536819707", 1501, (701, 1500)),
        (1830, "down", "-0.45158870503093484", 1815, (1501, 1800)),
        (2152, "up", "2.17279945073545", 2116, (1815, 2114)),
    ]
    assert run_monitor(x.tolist(), config) == events
    assert run_monitor(iter(map(tuple, x.tolist())), config) == events
