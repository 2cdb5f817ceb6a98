"""Whole-pipeline gates: seeded streams through run_monitor, scored against the truth.

Each stream of the detection and label gates is N(0, 1) noise with one mean
step at sample 451, run through the default
:class:`~cpstream.monitor.MonitorConfig` with one shared provider. The first
event in [451, 651) is the change's event; a stream without one counts as
missed and as mislabelled. The count-stream gates score Poisson and
negative-binomial streams, whose mean steps three times, the same way. The
size gates hold the offline test and the standard detector to their level on
null AR(1) series; the coverage gate counts the samples that skipped windows
leave unwatched, and the blind-span gate the samples that pass after each
alarm before the detector watches again.

A gate that the code fails today is a strict xfail whose reason quotes the
measured value; the change that mends the defect deletes the marker.
"""

import logging
import math

import numpy as np
import pytest

from cpstream import monitor
from cpstream.critvals import CritValKind, MonteCarloProvider
from cpstream.monitor import MonitorConfig, run_monitor
from cpstream.offline import offline_test
from cpstream.online import DetectorKind, run_batch, train
from cpstream.rng import standard_normal_rows, substream
from cpstream.trend import Direction

SEEDS = range(40)
CHANGE_AT = 451
SCORED = range(CHANGE_AT, CHANGE_AT + 200)
# at least 95 % of the streams, rounded down
GATE = 38


@pytest.fixture(scope="module")
def provider():
    return MonteCarloProvider(seed=0, grid_steps=1000, replications=2000)


@pytest.fixture(scope="module")
def first_events(provider):
    """The first scored event of every seed, by step size (None where none fired)."""
    config = MonitorConfig(critvals=provider)
    events = {}
    for shift in (4.0, -4.0, 1.0, -1.0):
        events[shift] = []
        for seed in SEEDS:
            x = substream(seed, 50).standard_normal(1000)
            x[CHANGE_AT - 1 :] += shift
            scored = [e for e in run_monitor(x, config) if e.detected_at in SCORED]
            events[shift].append(scored[0] if scored else None)
    return events


@pytest.mark.parametrize("shift", [4.0, -4.0, 1.0, -1.0])
def test_every_step_is_detected(first_events, shift):
    assert sum(e is not None for e in first_events[shift]) >= GATE


@pytest.mark.parametrize("shift", [4.0, -4.0, 1.0, -1.0])
def test_labels_follow_the_step(first_events, shift):
    expected = Direction.UP if shift > 0 else Direction.DOWN
    right = sum(e is not None and e.direction is expected for e in first_events[shift])
    assert right >= GATE


COUNT_MEANS = (50.0, 75.0, 50.0, 33.0)
COUNT_EVERY = 1000
COUNT_STREAMS = 10
COUNT_KINDS = ("poisson", "negative-binomial")


def count_stream(kind, seed):
    """4 000 counts whose mean steps through COUNT_MEANS every COUNT_EVERY samples:
    Poisson, or negative binomial with r = 5 (sd 23.5 at mean 50)."""
    mean = np.asarray(COUNT_MEANS)[np.arange(4 * COUNT_EVERY) // COUNT_EVERY]
    gen = substream(seed, 90, COUNT_KINDS.index(kind))
    if kind == "poisson":
        return gen.poisson(mean).astype(float)
    return gen.negative_binomial(5, 5 / (5 + mean)).astype(float)


@pytest.fixture(scope="module")
def count_scores(provider):
    """Per kind, the changes detected within 200 samples and the right labels among them."""
    config = MonitorConfig(critvals=provider)
    scores = {}
    for kind in COUNT_KINDS:
        detected = right = 0
        for seed in range(COUNT_STREAMS):
            events = run_monitor(count_stream(kind, seed), config)
            for k in range(1, len(COUNT_MEANS)):
                cp = k * COUNT_EVERY + 1
                hits = [e for e in events if cp <= e.detected_at < cp + 200]
                if hits:
                    detected += 1
                    up = COUNT_MEANS[k] > COUNT_MEANS[k - 1]
                    right += hits[0].direction is (Direction.UP if up else Direction.DOWN)
        scores[kind] = detected, right
    return scores


def count_params(measured):
    """The count kinds, each a strict xfail where ``measured`` quotes its failing value."""
    return [
        pytest.param(
            kind, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=measured[kind])
        )
        if kind in measured else kind
        for kind in COUNT_KINDS
    ]


@pytest.mark.parametrize("kind", COUNT_KINDS)
def test_count_changes_are_detected(count_scores, kind):
    detected, _ = count_scores[kind]
    changes = COUNT_STREAMS * (len(COUNT_MEANS) - 1)
    assert detected >= 0.95 * changes


@pytest.mark.parametrize("kind", count_params({
    "negative-binomial": "27 of the 30 detected changes (0.9) of the overdispersed streams "
    "are labelled right",
}))
def test_count_changes_are_labelled(count_scores, kind):
    detected, right = count_scores[kind]
    assert right >= 0.95 * detected


ALPHA = 0.05
NULL_SERIES = 2000
# alpha plus three binomial standard errors over the null series: 0.0646
SIZE_GATE = ALPHA + 3 * math.sqrt(ALPHA * (1 - ALPHA) / NULL_SERIES)
PHIS = (0.0, 0.3, 0.6)


def ar1_rows(phi, shape, *key):
    """Stationary AR(1) rows with unit innovations; row i draws from substream (1, *key, i)."""
    x = standard_normal_rows(np.empty(shape), 1, *key)
    x[:, 0] /= math.sqrt(1.0 - phi * phi)
    for t in range(1, shape[1]):
        x[:, t] += phi * x[:, t - 1]
    return x


def size_params(measured):
    """The phis, each above 0 a strict xfail that quotes its measured rejection rate."""
    return [PHIS[0]] + [
        pytest.param(
            phi,
            marks=pytest.mark.xfail(
                strict=True,
                reason=f"the bandwidth floor(log10 n) ignores the dependence: rejects "
                f"{rate} of null AR(1) series at phi {phi}",
            ),
        )
        for phi, rate in zip(PHIS[1:], measured)
    ]


@pytest.mark.parametrize("phi", size_params(["0.089", "0.241"]))
def test_offline_size_under_dependence(provider, phi):
    critval = provider(CritValKind.OFFLINE_MAX, 1, ALPHA)
    series = ar1_rows(phi, (NULL_SERIES, 400), 80, PHIS.index(phi))
    rate = np.mean([offline_test(s, critval).reject for s in series])
    assert rate <= SIZE_GATE


@pytest.mark.parametrize("phi", size_params(["0.0855", "0.2025"]))
def test_standard_detector_size_under_dependence(provider, phi):
    # trained at m = 200 and watched for 10 m samples, every stream in one stack
    critval = provider(CritValKind.ONLINE_STANDARD, 1, ALPHA, 0.0)
    streams = ar1_rows(phi, (NULL_SERIES, 2200), 81, PHIS.index(phi))[..., None]
    state = train(streams[:, :200], DetectorKind.STANDARD, 0.0, critval)
    verdicts, _ = run_batch(state, streams[:, 200:])
    assert verdicts.alarm.mean() <= SIZE_GATE


def level_steps(n, seed, *salt, every=1000, phi=0.3, levels=(0.0, 3.0, 0.0, -3.0)):
    """The benchmark's monitor stream: AR(1) noise of unit stationary variance
    plus a level that steps through ``levels`` every ``every`` samples."""
    rng = np.random.default_rng([seed, *salt])
    eps = rng.standard_normal(n) * math.sqrt(1.0 - phi**2)
    noise = np.empty(n)
    noise[0] = rng.standard_normal()
    for t in range(1, n):
        noise[t] = phi * noise[t - 1] + eps[t]
    return noise + np.asarray(levels)[(np.arange(n) // every) % len(levels)]


def test_no_window_is_skipped(provider, caplog):
    config = MonitorConfig(critvals=provider)
    n = 4000
    unwatched = 0
    for k in range(4):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="cpstream.monitor"):
            run_monitor(level_steps(n, 1, 2, k), config)
        for record in caplog.records:
            if record.msg.startswith("skipping window at origin"):
                unwatched += min(config.window_k, n - record.args[0])
    assert unwatched == 0


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="11 of 12 alarms leave 167-173 samples unwatched, but stream k = 3's alarm at "
    "2030 leaves 349, above max(m_min, quiet_gap_d) = 200: segmenting its regime "
    "[2003, 2202] places spurious change points at 2114 and 2179 in the AR(1) noise at "
    "phi 0.3 (the offline test's size defect), and the round waits for m_min samples",
)
def test_blind_span_after_each_alarm(provider, monkeypatch):
    config = MonitorConfig(critvals=provider)
    bound = max(config.m_min, config.quiet_gap_d)
    n = 4000
    pulls = 0
    stepped = []
    real = monitor.step

    def counted(values):
        nonlocal pulls
        for v in values:
            pulls += 1
            yield v

    def recorded(state, x):
        # the reader steps each sample right after pulling it
        stepped.append(pulls)
        return real(state, x)

    monkeypatch.setattr(monitor, "step", recorded)
    spans = []
    for k in range(4):
        pulls, stepped = 0, []
        for event in run_monitor(counted(level_steps(n, 1, 2, k)), config):
            after = [i for i in stepped if i > event.detected_at]
            spans.append((after[0] if after else n + 1) - event.detected_at - 1)
    assert spans
    assert max(spans) <= bound
