"""The three benchmark workloads: inputs from a seed, one timed operation, checks.

Every workload is closed loop with one caller: the next operation starts
when the previous one returns, and inputs are handed over as fast as the
program consumes them. A workload object is built from the seed and the
sizes, prepares its inputs in :meth:`setup` (not timed as part of an
operation), and then runs :meth:`run` repeatedly. Inputs are generated
when the workload is built, so :meth:`setup` times only the program's own
preparation. :meth:`check` returns the named correctness checks for one
output and :meth:`quality` the decision quality of that output; neither is
timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import logging
import math
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import jsonschema
import numpy as np

import cpstream
from cpstream import cli, monitor, netsim
from cpstream.critvals import CritValKind, MonteCarloProvider

# result files stay inside the checkout
ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench-out"


@dataclass(frozen=True)
class Sizes:
    """Input sizes and Monte-Carlo budgets; ``FULL`` is what the benchmark runs."""

    cli_samples: int = 8000
    replay_samples: int = 4000
    replay_streams: int = 12
    change_every: int = 1000
    detect_horizon: int = 200
    cli_grid: int = 1000
    cli_reps: int = 1000
    replay_grid: int = 100
    replay_reps: int = 1000
    sim_grid: tuple[int, int] = (30, 30)
    sim_small_grid: tuple[int, int] = (10, 10)
    sim_cv_grid: int = 1000
    sim_cv_reps: int = 2000
    setup_repeats: int = 3
    setup_min_s: float = 1.0  # cheap set-ups repeat until they add up to this
    min_ops: int = 2


FULL = Sizes()

# Stream levels in units of the AR(1) stationary deviation; the mean steps
# through them every ``change_every`` samples.
LEVELS = (0.0, 3.0, 0.0, -3.0)
AR_PHI = 0.3


def monitor_stream(n: int, change_every: int, seed: int, *salt: int) -> np.ndarray:
    """AR(1) noise (phi = 0.3, unit stationary variance) plus the stepping mean."""
    rng = np.random.default_rng([seed, *salt])
    eps = rng.standard_normal(n) * math.sqrt(1.0 - AR_PHI**2)
    noise = np.empty(n)
    noise[0] = rng.standard_normal()
    for t in range(1, n):
        noise[t] = AR_PHI * noise[t - 1] + eps[t]
    level = np.asarray(LEVELS)[(np.arange(n) // change_every) % len(LEVELS)]
    return noise + level


def true_changes(n: int, change_every: int) -> list[tuple[int, str]]:
    """1-based index of every mean step in the stream, with its direction."""
    out = []
    for k in range(1, (n - 1) // change_every + 1):
        before, after = LEVELS[(k - 1) % len(LEVELS)], LEVELS[k % len(LEVELS)]
        out.append((k * change_every + 1, "up" if after > before else "down"))
    return out


def monitor_quality(scored, horizon: int) -> dict[str, float]:
    """Score (index, direction) events against the true changes, over
    ``scored`` pairs of (events, changes), one pair per stream.

    A change is detected when an event falls in [cp, cp + horizon); the
    first such event gives the delay and the label. Every other event is a
    false alarm.
    """
    delays, correct, n_changes, false_alarms = [], 0, 0, 0
    for events, changes in scored:
        matched: set[int] = set()
        n_changes += len(changes)
        for cp, direction in changes:
            hit = next((i for i, (idx, _) in enumerate(events) if cp <= idx < cp + horizon), None)
            if hit is None:
                continue
            matched.add(hit)
            delays.append(events[hit][0] - cp)
            correct += events[hit][1] == direction
        false_alarms += len(events) - len(matched)
    return {
        "detect_rate": len(delays) / n_changes if n_changes else 0.0,
        "delay_p50_samples": float(statistics.median(delays)) if delays else 0.0,
        "label_accuracy": correct / len(delays) if delays else 0.0,
        "false_alarms": float(false_alarms),
    }


def events_in_order(events, n: int) -> bool:
    indices = [idx for idx, _ in events]
    return all(1 <= i <= n for i in indices) and all(a < b for a, b in zip(indices, indices[1:]))


class SkipCounter(logging.Handler):
    """Counts the monitor loop's skipped-window records (it logs each one)."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.skipped = 0

    def emit(self, record: logging.LogRecord) -> None:
        if record.getMessage().startswith("skipping window"):
            self.skipped += 1


def stamped(values, stamps: list[list[float]] | None):
    """Iterate over values; with a ``stamps`` list, append a list to it and
    stamp the time of every pull there (one list per stream)."""
    if stamps is None:
        yield from values
        return
    pulls: list[float] = []
    stamps.append(pulls)
    for v in values:
        pulls.append(perf_counter())
        yield v


class Workload:
    name = ""
    samples_per_op = 0  # input samples one operation consumes (samples_per_cal_s)
    streams = False  # inputs are pulled one sample at a time (sample gaps)

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, tracer=None, stamps: list[list[float]] | None = None):
        """One operation; returns its output. When ``stamps`` is a list,
        streaming workloads append to it one list per input stream, holding
        the time of every pull from that stream."""
        raise NotImplementedError

    def check(self, output) -> dict[str, bool]:
        raise NotImplementedError

    def quality(self, output) -> dict[str, float]:
        return {}

    def rebinds(self, tracer) -> tuple:
        """Extra (module, attribute, make) rebinds the traced run needs."""
        return ()

    def work_counts(self) -> dict[str, float]:
        """Per-operation work counts that follow from the inputs alone."""
        return {}

    def smaller(self) -> "Workload | None":
        """The same workload at a smaller input, for the scaling record."""
        return None

    def describe(self) -> dict:
        return {}


class MonitorCli(Workload):
    """``cpstream monitor --input -`` in-process, fresh provider every run.

    The CLI has no set-up of its own: an operator pays interpreter start-up
    and the package import on every invocation, so that is what
    :meth:`setup` times, in a fresh interpreter. Work moved into import time
    shows there instead of hiding in the harness's own in-process import.
    """

    name = "monitor-cli"
    streams = True

    def __init__(self, seed: int, sizes: Sizes) -> None:
        super().__init__(seed, sizes)
        x = monitor_stream(sizes.cli_samples, sizes.change_every, seed, 1)
        self.lines = ["value\n"] + [f"{v!r}\n" for v in x.tolist()]
        self.samples_per_op = sizes.cli_samples
        self.changes = true_changes(sizes.cli_samples, sizes.change_every)
        self.argv = [
            "monitor", "--input", "-", "--seed", str(seed),
            "--grid", str(sizes.cli_grid), "--reps", str(sizes.cli_reps),
        ]
        schema_path = Path(cpstream.__file__).parent / "schemas" / "monitor-line.schema.json"
        self.validator = jsonschema.Draft202012Validator(json.loads(schema_path.read_text()))

    def setup(self) -> None:
        src = str(Path(cpstream.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        # byte-code cached next to the sources, as for an installed package:
        # the first set-up compiles, the median one does not
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env.pop("PYTHONPYCACHEPREFIX", None)
        subprocess.run([sys.executable, "-c", "import cpstream.cli"], cwd=ROOT, env=env, check=True)

    def run(self, tracer=None, stamps=None) -> tuple[int, str]:
        out = io.StringIO()
        saved = sys.stdin
        sys.stdin = stamped(self.lines, stamps)
        try:
            with contextlib.redirect_stdout(out):
                code = cli.dispatch(self.argv)
        finally:
            sys.stdin = saved
        return code, out.getvalue()

    def _events(self, output):
        records = [json.loads(line) for line in output[1].splitlines()]
        return records, [(r["index"], r["direction"]) for r in records if r.get("type") == "event"]

    def check(self, output) -> dict[str, bool]:
        code, _ = output
        try:
            records, events = self._events(output)
        except (ValueError, KeyError):
            return {"exit_code": code == 0, "schema": False, "event_order": False}
        return {
            "exit_code": code == 0,
            "schema": bool(records) and all(self.validator.is_valid(r) for r in records),
            "event_order": events_in_order(events, self.sizes.cli_samples),
        }

    def quality(self, output) -> dict[str, float]:
        return monitor_quality([(self._events(output)[1], self.changes)], self.sizes.detect_horizon)

    def rebinds(self, tracer) -> tuple:
        return (("cpstream.cli", "MonteCarloProvider",
                 lambda cls: lambda *a, **k: tracer.provider(cls(*a, **k))),)

    def describe(self) -> dict:
        s = self.sizes
        return {"stream_samples": s.cli_samples, "change_every": s.change_every,
                "mc_grid": s.cli_grid, "mc_reps": s.cli_reps, "mc_seed": self.seed}


class MonitorReplay(Workload):
    """Library ``run_monitor`` replaying recorded streams with a warm provider.

    One operation replays ``replay_streams`` streams, each from its own
    substream of the seed, through one provider. How much work a stream
    makes depends on its noise (a false alarm starts another round over the
    whole history), so a single stream's replay time varies by about a
    tenth; summed over twelve streams, an operation's work varies by about
    a twenty-fifth from seed to seed.
    """

    name = "monitor-replay"
    streams = True

    def __init__(self, seed: int, sizes: Sizes, parent: "MonitorReplay | None" = None) -> None:
        super().__init__(seed, sizes)
        self.parent = parent
        if parent is None:
            self.n = sizes.replay_samples
            self.values = [
                monitor_stream(self.n, sizes.change_every, seed, 2, k).tolist()
                for k in range(sizes.replay_streams)
            ]
        else:
            # prefixes of the parent's streams: their rounds are the parent's
            # first rounds, so every critical value they need is cached
            self.n = parent.n // 2
            self.values = [v[: self.n] for v in parent.values]
        self.samples_per_op = self.n * len(self.values)
        self.changes = true_changes(self.n, sizes.change_every)

    def setup(self) -> None:
        s = self.sizes
        if self.parent is None:
            self.provider = MonteCarloProvider(
                seed=self.seed, grid_steps=s.replay_grid, replications=s.replay_reps
            )
        else:
            self.provider = self.parent.provider
        # the set-up pass fills the provider cache; the timed passes replay it
        self.config = monitor.MonitorConfig(critvals=self.provider)
        self.reference = [monitor.run_monitor(iter(v), self.config) for v in self.values]

    def run(self, tracer=None, stamps=None) -> list:
        config = self.config
        if tracer is not None:
            config = replace(config, critvals=tracer.provider(self.provider))
        return [monitor.run_monitor(stamped(v, stamps), config) for v in self.values]

    @staticmethod
    def _events(events) -> list[tuple[int, str]]:
        return [(e.detected_at, e.direction.value) for e in events]

    def check(self, output) -> dict[str, bool]:
        return {
            "replay_identical": output == self.reference,
            "event_order": all(events_in_order(self._events(e), self.n) for e in output),
        }

    def quality(self, output) -> dict[str, float]:
        scored = [(self._events(e), self.changes) for e in output]
        return monitor_quality(scored, self.sizes.detect_horizon)

    def smaller(self) -> Workload:
        return MonitorReplay(self.seed, self.sizes, parent=self)

    def describe(self) -> dict:
        s = self.sizes
        return {"streams": len(self.values), "stream_samples": self.n,
                "change_every": s.change_every, "mc_grid": s.replay_grid,
                "mc_reps": s.replay_reps, "mc_seed": self.seed}


class Simulate(Workload):
    """``netsim.run_experiment`` on a clustered grid, one replication per operation."""

    name = "simulate-30x30"

    def __init__(self, seed: int, sizes: Sizes, parent: "Simulate | None" = None) -> None:
        super().__init__(seed, sizes)
        self.parent = parent
        self.grid = sizes.sim_grid if parent is None else sizes.sim_small_grid

    def setup(self) -> None:
        rows, cols = self.grid
        self.topology = netsim.grid_topology(rows, cols, cluster_block=2)
        self.scenario = netsim.random_scenario(self.topology, seed=self.seed)
        self.settings = netsim.DetectorSettings()
        if self.parent is None:
            provider = MonteCarloProvider(
                seed=self.seed, grid_steps=self.sizes.sim_cv_grid,
                replications=self.sizes.sim_cv_reps,
            )
            self.critval = provider(
                CritValKind.ONLINE_STANDARD, 1, self.settings.alpha, self.settings.gamma
            )
        else:
            self.critval = self.parent.critval
        self.samples_per_op = self.topology.n_nodes * self.scenario.horizon
        members = self.topology.cluster_members()
        self.expected_messages = sum(len(m) - 1 for m in members.values()) * self.scenario.horizon

    def run(self, tracer=None, stamps=None):
        return netsim.run_experiment(
            self.topology, self.scenario, self.settings, self.critval,
            replications=1, seed=self.seed, clustered=True,
        )

    def check(self, r) -> dict[str, bool]:
        probs = list(r.detection_probability) + list(r.alarm_fraction)
        probs += list((r.cluster_detection_probability or {}).values())
        probs += [r.identification_rate, r.zero_false_positive_rate]
        return {
            "probabilities": all(0.0 <= p <= 1.0 for p in probs),
            "sample_messages": r.sample_messages == self.expected_messages,
        }

    def quality(self, r) -> dict[str, float]:
        return {
            "identification_rate": r.identification_rate,
            "adjacent_detection": r.attacker_adjacent_detection(),
            "zero_fp_rate": r.zero_false_positive_rate,
        }

    def work_counts(self) -> dict[str, float]:
        # one replication runs every node's series and every cluster's sum
        series = self.topology.n_nodes + len(self.topology.cluster_members())
        return {"netsim.node_series": float(series)}

    def smaller(self) -> Workload:
        return Simulate(self.seed, self.sizes, parent=self)

    def describe(self) -> dict:
        return {"grid": list(self.grid), "mode": "cluster", "cluster_block": 2,
                "attackers": len(self.scenario.attackers), "horizon": self.scenario.horizon,
                "replications_per_op": 1, "mc_grid": self.sizes.sim_cv_grid,
                "mc_reps": self.sizes.sim_cv_reps, "mc_seed": self.seed}


WORKLOADS = {w.name: w for w in (MonitorCli, MonitorReplay, Simulate)}
