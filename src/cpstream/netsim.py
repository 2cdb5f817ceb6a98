"""Desk-scale simulation of distributed flooding-attack detection on a sensor grid.

Nodes sit on a rows x cols grid with 4-connectivity and a controller in one
corner. Each node's transmit-time metric is a stationary AR(1) baseline;
from the attack start, every attacker floods its neighbours with
unknown-flow packets. The deterministic mean component of the traffic model
is:

* an attacker's own transmit time rises by rate * ticks per neighbour
  (it sends the junk packets),
* each neighbour of an attacker rises by the full rate * ticks (it receives
  them and requests rules for them),
* nodes relaying those rule requests toward the controller rise by
  rate * ticks * decay^hops along the (deterministic) shortest path.

A replication's traces are one read-only (n_nodes, horizon) matrix whose
row i is node i's series. Neighbours also log the sender of every
unknown-flow packet they receive; that log is a function of the scenario
alone, so it is derived when asked (:meth:`TraceSet.log`) instead of stored.
Every node runs the standard sequential detector on its own series with
periodic retraining; a node that alarms accuses the most frequent sender
among the last ten logged, and a suspect accused by every one of its
neighbours is declared an attacker. No entry is built for that: a period
logs the same number of packets from each sender, so the senders' shares of
the last ten entries are tallied from the period counts, walking back from
the alarm. All node detectors of a replication (and all cluster-head
detectors) are trained and run as one stack: each retrain round is one
``train`` and one ``run_batch`` call over the series that have not alarmed
yet, on views of the stack, which is copied smaller only in a round where
some series alarmed.

Everything is a pure function of (topology, scenario, seed, settings):
per-node and per-replication RNG substreams make runs reproducible at any
parallelism level; the node rows of a replication are drawn on every CPU in
the affinity mask (:func:`~cpstream.rng.standard_normal_rows`), bit for bit
as on one.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .critvals import CritVal
from .online import DetectorKind, run_batch, train
from .rng import standard_normal_rows, substream

__all__ = [
    "Topology",
    "grid_topology",
    "block_clusters",
    "AttackScenario",
    "random_scenario",
    "TraceSet",
    "DetectorSettings",
    "DetectionReport",
    "ExperimentResult",
    "attack_lift",
    "generate_traces",
    "detect_per_node",
    "detect_clustered",
    "identify_attackers",
    "simulate_once",
    "run_experiment",
]

# RNG salt separating trace noise from any other consumer of the same seed
_TRACE_STREAM = 7
# attacker placements random_scenario draws before it gives up
_PLACEMENT_TRIES = 200


@dataclass(frozen=True)
class Topology:
    """Grid of nodes with 4-connectivity, a controller corner, optional clusters.

    Node ids are row-major: node (r, c) has id r * cols + c. ``clusters``
    maps node id -> cluster id and must cover every node when present.
    """

    rows: int
    cols: int
    controller: int = 0
    clusters: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid must be at least 1 x 1")
        if not 0 <= self.controller < self.n_nodes:
            raise ValueError("controller id out of range")
        if self.clusters is not None and len(self.clusters) != self.n_nodes:
            raise ValueError("cluster assignment must cover every node")

    @property
    def n_nodes(self) -> int:
        return self.rows * self.cols

    def coords(self, node: int) -> tuple[int, int]:
        return divmod(node, self.cols)

    def node_id(self, row: int, col: int) -> int:
        return row * self.cols + col

    def neighbors(self, node: int) -> tuple[int, ...]:
        r, c = self.coords(node)
        out = []
        if r > 0:
            out.append(self.node_id(r - 1, c))
        if c > 0:
            out.append(self.node_id(r, c - 1))
        if c < self.cols - 1:
            out.append(self.node_id(r, c + 1))
        if r < self.rows - 1:
            out.append(self.node_id(r + 1, c))
        return tuple(sorted(out))

    def degree(self, node: int) -> int:
        return len(self.neighbors(node))

    def hop_distance(self, a: int, b: int) -> int:
        ra, ca = self.coords(a)
        rb, cb = self.coords(b)
        return abs(ra - rb) + abs(ca - cb)

    def path_to_controller(self, node: int) -> tuple[int, ...]:
        """One deterministic shortest path [node, ..., controller]: rows first."""
        r, c = self.coords(node)
        rc, cc = self.coords(self.controller)
        turn = self.node_id(rc, c)
        down = range(node, turn, self.cols if r < rc else -self.cols)
        across = range(turn, self.controller, 1 if c < cc else -1)
        return (*down, *across, self.controller)

    def cluster_members(self) -> dict[int, tuple[int, ...]]:
        if self.clusters is None:
            raise ValueError("topology has no cluster assignment")
        members: dict[int, list[int]] = {}
        for node, cluster in enumerate(self.clusters):
            members.setdefault(cluster, []).append(node)
        return {cid: tuple(nodes) for cid, nodes in sorted(members.items())}


def block_clusters(rows: int, cols: int, block: int = 2) -> tuple[int, ...]:
    """Cluster assignment tiling the grid with block x block squares."""
    if block < 1:
        raise ValueError("block must be at least 1")
    blocks_per_row = -(-cols // block)
    out = []
    for node in range(rows * cols):
        r, c = divmod(node, cols)
        out.append((r // block) * blocks_per_row + c // block)
    return tuple(out)


def grid_topology(
    rows: int, cols: int, controller: int = 0, cluster_block: int | None = None
) -> Topology:
    clusters = block_clusters(rows, cols, cluster_block) if cluster_block is not None else None
    return Topology(rows=rows, cols=cols, controller=controller, clusters=clusters)


@dataclass(frozen=True)
class AttackScenario:
    """Attack placement and traffic-model parameters for one simulated run.

    ``start`` is the first attacked sample (1-based); ``injection_rate`` is
    unknown-flow packets per sample period sent to each neighbour, each
    adding ``ticks_per_packet`` to the receiver's transmit time.
    ``baseline_mean`` is a scalar or one value per node.
    """

    attackers: tuple[int, ...]
    start: int = 401
    horizon: int = 600
    injection_rate: float = 3.0
    ticks_per_packet: float = 1.0
    baseline_mean: float | tuple[float, ...] = 10.0
    ar_coeff: float = 0.3
    noise_sigma: float = 1.0
    hop_decay: float = 0.4

    def __post_init__(self) -> None:
        object.__setattr__(self, "attackers", tuple(sorted(set(self.attackers))))
        if not 1 <= self.start < self.horizon:
            raise ValueError("attack start must lie inside the horizon")
        if not 0.0 <= self.ar_coeff < 1.0:
            raise ValueError("AR coefficient must lie in [0, 1)")
        for name in ("injection_rate", "ticks_per_packet", "noise_sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for mean in np.ravel(self.baseline_mean).tolist():
            if not math.isfinite(mean):
                raise ValueError(f"baseline_mean must be finite, got {mean}")
        if self.noise_sigma < 0 or self.injection_rate < 0 or self.ticks_per_packet < 0:
            raise ValueError("rates and noise scale must be non-negative")
        # a period's packet count, an int64, is at most the rate plus the
        # rounding of two running totals; that rounding is below the rate at
        # fewer than 2**52 periods, so a rate below 2**62 keeps it in range
        if self.injection_rate >= 2**62:
            raise ValueError(
                f"injection_rate must be below 2**62 packets per period, "
                f"got {self.injection_rate:g}"
            )
        if not 0.0 <= self.hop_decay <= 1.0:
            raise ValueError("hop decay must lie in [0, 1]")


def random_scenario(
    topology: Topology,
    n_attackers: int | None = None,
    seed: int = 0,
    min_separation: int = 3,
    **overrides,
) -> AttackScenario:
    """Scenario with attackers placed at random, pairwise >= min_separation hops apart.

    Defaults to 10% of the nodes as attackers. The separation keeps any two
    attackers from sharing a neighbour, without which the all-neighbours
    accusation rule cannot single out both. The controller is never an
    attacker.
    """
    if n_attackers is None:
        n_attackers = max(1, topology.n_nodes // 10)
    if n_attackers < 1:
        raise ValueError(f"n_attackers must be at least 1, got {n_attackers}")
    if n_attackers > topology.n_nodes - 1:
        raise ValueError(
            f"n_attackers must be at most {topology.n_nodes - 1} (every node but the "
            f"controller), got {n_attackers}"
        )
    rng = substream(seed, 11)
    for _ in range(_PLACEMENT_TRIES):
        chosen: list[int] = []
        for node in rng.permutation(topology.n_nodes):
            node = int(node)
            if node == topology.controller:
                continue
            if all(topology.hop_distance(node, other) >= min_separation for other in chosen):
                chosen.append(node)
                if len(chosen) == n_attackers:
                    return AttackScenario(attackers=tuple(chosen), **overrides)
    raise ValueError(
        f"could not place {n_attackers} attackers with separation {min_separation}"
    )


@dataclass(frozen=True, eq=False)
class TraceSet:
    """All node series of one replication, with their generating context.

    ``values`` is the read-only, C-contiguous (n_nodes, horizon) matrix whose
    row i is node i's transmit-time series.
    """

    topology: Topology
    scenario: AttackScenario
    values: np.ndarray

    def log(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """Unknown-flow log of ``node`` as parallel (times, senders) arrays.

        Entry i says that at sample ``times[i]`` a packet from neighbour
        ``senders[i]`` arrived; entries are sorted by time, then by sender.
        A node with no attacking neighbour has an empty log.
        """
        senders = np.array(self._attacking_neighbors.get(node, ()), dtype=int)
        if not senders.size:
            return np.empty(0, dtype=int), senders
        periods, counts = self._attack_periods
        times = np.repeat(periods, counts * senders.size)
        return times, np.repeat(np.tile(senders, periods.size), np.repeat(counts, senders.size))

    @cached_property
    def _attacking_neighbors(self) -> dict[int, tuple[int, ...]]:
        """Each node with an attacking neighbour -> those neighbours, sorted."""
        senders: dict[int, tuple[int, ...]] = {}
        for attacker in self.scenario.attackers:
            for victim in self.topology.neighbors(attacker):
                senders[victim] = senders.get(victim, ()) + (attacker,)
        return senders

    @cached_property
    def _attack_periods(self) -> tuple[np.ndarray, np.ndarray]:
        """Every attack period and the packets one attacker sends in it."""
        scenario = self.scenario
        periods = np.arange(scenario.start, scenario.horizon + 1)
        return periods, _packets_per_period(scenario.injection_rate, periods.size)


def attack_lift(topology: Topology, scenario: AttackScenario) -> np.ndarray:
    """Deterministic post-start mean increase per node under the traffic model.

    Each attacker adds to itself, then each of its neighbours adds to itself
    and to the hops of its path to the controller. All these additions are
    one ``np.add.at``, which adds in index order, so every node's sum rounds
    as one ``+=`` per addition in that order would.
    """
    amount = scenario.injection_rate * scenario.ticks_per_packet
    # what a victim adds to the node its path reaches after this many hops
    hop_amount = np.array(
        [amount * scenario.hop_decay**hops for hops in range(topology.rows + topology.cols - 1)]
    )
    # one run of additions per attacker's own entry, then one per path of
    # each of its sorted neighbours, in that order
    firsts: list[int] = []
    owns: list[bool] = []
    degrees: list[int] = []
    for attacker in scenario.attackers:
        neighbors = topology.neighbors(attacker)
        firsts += (attacker, *neighbors)
        owns += (True, *[False] * len(neighbors))
        degrees.append(len(neighbors))
    first = np.array(firsts, dtype=np.intp)
    own = np.array(owns, dtype=bool)
    r, c = np.divmod(first, topology.cols)
    rc, cc = topology.coords(topology.controller)
    down = np.abs(r - rc)
    length = np.where(own, 1, down + np.abs(c - cc) + 1)
    run = np.repeat(np.arange(first.size), length)
    hop = np.arange(run.size) - np.repeat(np.cumsum(length) - length, length)
    # rows first: `down` hops along the column, then along the controller's row
    row = r[run] + np.sign(rc - r)[run] * np.minimum(hop, down[run])
    col = c[run] + np.sign(cc - c)[run] * np.maximum(hop - down[run], 0)
    amounts = hop_amount[hop]
    amounts[own[run]] = amount * np.array(degrees, dtype=float)
    lift = np.zeros(topology.n_nodes)
    np.add.at(lift, row * topology.cols + col, amounts)
    return lift


def _packets_per_period(rate: float, periods: int) -> np.ndarray:
    """Integer packet counts whose running total after t periods is floor(rate * t).

    That total is exact only while rate * periods stays below 2**53; past it
    the float product rounds, and so do the counts.
    """
    totals = np.floor(rate * np.arange(periods + 1))
    return np.diff(totals).astype(int)


def generate_traces(topology: Topology, scenario: AttackScenario, seed: int = 0) -> TraceSet:
    """Simulate every node's series for one replication."""
    n = topology.n_nodes
    horizon = scenario.horizon
    if any(not 0 <= a < n for a in scenario.attackers):
        raise ValueError("attacker ids must be nodes of the topology")

    base = np.broadcast_to(np.asarray(scenario.baseline_mean, dtype=float), (n,))
    lift = attack_lift(topology, scenario)

    # AR(1) noise, one substream per node (row), recursion vectorised across
    # nodes and run in place on the draws: column t becomes e_t + phi * v_{t-1}
    values = standard_normal_rows(np.empty((n, horizon)), seed, _TRACE_STREAM)
    values *= scenario.noise_sigma
    phi = scenario.ar_coeff
    if phi > 0:
        values[:, 0] /= np.sqrt(1.0 - phi**2)
    carried = np.empty(n)
    for t in range(1, horizon):
        values[:, t] += np.multiply(values[:, t - 1], phi, out=carried)

    values += base[:, None]
    values[:, scenario.start - 1 :] += lift[:, None]
    values.flags.writeable = False
    return TraceSet(topology=topology, scenario=scenario, values=values)


@dataclass(frozen=True)
class DetectorSettings:
    """Sequential-detector parameters for the per-node security application."""

    m: int = 200
    retrain_block: int = 50
    gamma: float = 0.0
    alpha: float = 0.05

    def __post_init__(self) -> None:
        if self.m < 4:
            raise ValueError("training length m must be at least 4")
        if self.retrain_block < 1:
            raise ValueError("retrain block must be positive")


def _check_horizon(horizon: int, m: int) -> None:
    if horizon <= m:
        raise ValueError(f"horizon {horizon} leaves nothing to monitor after m={m}")


def _first_alarms(
    series: np.ndarray, settings: DetectorSettings, critval: CritVal
) -> list[int | None]:
    """Run the retraining loop on an (S, horizon, 1) stack; each absolute 1-based alarm or None.

    Training starts on the first m samples; every quiet block of
    ``retrain_block`` samples is absorbed into the training prefix and the
    statistics recomputed. Each round trains and runs the series still quiet
    as one stack, which gives every series the alarm its own loop would.
    Rounds train on and feed views of the stack; the quiet rows are copied
    into a smaller stack only in a round where some series alarmed.
    """
    horizon = series.shape[1]
    m = settings.m
    _check_horizon(horizon, m)
    alarms: list[int | None] = [None] * series.shape[0]
    quiet = np.arange(series.shape[0])  # the id of each row of ``series``
    while m < horizon and quiet.size:
        state = train(series[:, :m], DetectorKind.STANDARD, settings.gamma, critval)
        block = min(settings.retrain_block, horizon - m)
        verdicts, consumed = run_batch(state, series[:, m : m + block])
        fired = verdicts.alarm
        if fired.any():
            for i, used in zip(quiet[fired].tolist(), consumed[fired].tolist()):
                alarms[i] = m + used
            quiet = quiet[~fired]
            series = series[~fired]
        m += block
    return alarms


@dataclass(frozen=True)
class DetectionReport:
    """Alarms and attacker identification for one replication."""

    per_node_alarm: Mapping[int, int | None]
    per_cluster_alarm: Mapping[int, int | None] | None
    identified: frozenset[int]
    false_positives: frozenset[int]
    sample_messages: int = 0

    def __post_init__(self) -> None:
        if self.identified & self.false_positives:
            raise ValueError("identified attackers and false positives must be disjoint")


def detect_per_node(
    traces: TraceSet, settings: DetectorSettings, critval: CritVal
) -> dict[int, int | None]:
    """First alarm index of every node's own detector (None when quiet)."""
    return dict(enumerate(_first_alarms(traces.values[:, :, None], settings, critval)))


def detect_clustered(
    traces: TraceSet, settings: DetectorSettings, critval: CritVal
) -> tuple[dict[int, int | None], int]:
    """Cluster-head detection: one detector per summed cluster series.

    Every member sends its sample to the cluster head each period, so the
    message overhead is (members - 1) per cluster per period. Returns the
    per-cluster alarms and that overhead count.
    """
    members = traces.topology.cluster_members()
    # each cluster's rows added in member order, as a sum over axis 0 adds them
    stack = traces.values[[nodes[0] for nodes in members.values()]]
    for row, nodes in zip(stack, members.values()):
        for node in nodes[1:]:
            row += traces.values[node]
    alarms = dict(zip(members, _first_alarms(stack[:, :, None], settings, critval)))
    overhead = sum(len(nodes) - 1 for nodes in members.values()) * traces.scenario.horizon
    return alarms, overhead


def _suspect(traces: TraceSet, node: int, alarm: int) -> int | None:
    """The most frequent sender among the last ten entries of ``node``'s log up to ``alarm``.

    Ties go to the lowest id; None when there is no entry. A period logs
    each sender's packets in sender order, the same number for each sender,
    so those ten entries hold every sender's share of the newer periods they
    cover plus the last senders' share of the oldest one. The shares are
    tallied from the period counts, walking back from the alarm, without
    building any entry.
    """
    senders = traces._attacking_neighbors.get(node)
    if senders is None:
        return None
    start = traces.scenario.start
    counts = traces._attack_periods[1]
    tally = [0] * len(senders)
    wanted = 10
    period = min(alarm, traces.scenario.horizon)
    while wanted and period >= start:
        count = int(counts[period - start])
        for i in reversed(range(len(senders))):
            taken = min(count, wanted)
            tally[i] += taken
            wanted -= taken
        period -= 1
    if wanted == 10:
        return None
    return senders[tally.index(max(tally))]


def identify_attackers(
    traces: TraceSet, per_node_alarm: Mapping[int, int | None]
) -> frozenset[int]:
    """Central tally of suspect accusations from alarming nodes.

    Each alarming node accuses the most frequent sender among the last ten
    log entries at its alarm time (lowest id on ties); nodes with empty logs
    accuse nobody. A suspect is declared an attacker exactly when its
    accusation count equals its neighbour count.
    """
    accusations: Counter[int] = Counter()
    for node in traces._attacking_neighbors:
        alarm = per_node_alarm.get(node)
        if alarm is not None:
            suspect = _suspect(traces, node, alarm)
            if suspect is not None:
                accusations[suspect] += 1
    return frozenset(s for s, c in accusations.items() if c == traces.topology.degree(s))


def simulate_once(
    topology: Topology,
    scenario: AttackScenario,
    settings: DetectorSettings,
    critval: CritVal,
    seed: int = 0,
    clustered: bool = False,
) -> DetectionReport:
    """Generate traces, run detection (and identification), report one replication."""
    traces = generate_traces(topology, scenario, seed)
    per_node = detect_per_node(traces, settings, critval)
    per_cluster = None
    overhead = 0
    if clustered:
        per_cluster, overhead = detect_clustered(traces, settings, critval)
    claims = identify_attackers(traces, per_node)
    attackers = set(scenario.attackers)
    return DetectionReport(
        per_node_alarm=per_node,
        per_cluster_alarm=per_cluster,
        identified=frozenset(claims & attackers),
        false_positives=frozenset(claims - attackers),
        sample_messages=overhead,
    )


@dataclass(frozen=True)
class ExperimentResult:
    """Replication-averaged detection and identification statistics."""

    topology: Topology
    scenario: AttackScenario
    settings: DetectorSettings
    replications: int
    detection_probability: tuple[float, ...]
    alarm_fraction: tuple[float, ...]
    cluster_detection_probability: Mapping[int, float] | None
    identification_rate: float
    zero_false_positive_rate: float
    sample_messages: int

    def attacker_adjacent_nodes(self) -> tuple[int, ...]:
        adjacent: set[int] = set()
        for attacker in self.scenario.attackers:
            adjacent.update(self.topology.neighbors(attacker))
        return tuple(sorted(adjacent - set(self.scenario.attackers)))

    def attacker_adjacent_detection(self) -> float:
        nodes = self.attacker_adjacent_nodes()
        return float(np.mean([self.detection_probability[n] for n in nodes]))


def run_experiment(
    topology: Topology,
    scenario: AttackScenario,
    settings: DetectorSettings,
    critval: CritVal,
    replications: int = 100,
    seed: int = 0,
    clustered: bool = False,
) -> ExperimentResult:
    """Replicate :func:`simulate_once` and average the outcomes.

    A node (or cluster) counts as detecting only when its alarm falls at or
    after the attack start; earlier alarms are false alarms and show up in
    ``alarm_fraction`` instead.
    """
    if replications < 1:
        raise ValueError(f"replications must be at least 1, got {replications}")
    _check_horizon(scenario.horizon, settings.m)
    n = topology.n_nodes
    detect_counts = np.zeros(n)
    alarm_counts = np.zeros(n)
    cluster_counts: Counter[int] = Counter()
    ident_ok = 0
    zero_fp = 0
    overhead = 0
    attackers = set(scenario.attackers)
    for rep in range(replications):
        report = simulate_once(
            topology, scenario, settings, critval, seed=_rep_seed(seed, rep), clustered=clustered
        )
        for node, alarm in report.per_node_alarm.items():
            if alarm is not None:
                alarm_counts[node] += 1
                if alarm >= scenario.start:
                    detect_counts[node] += 1
        if clustered:
            for cid, alarm in report.per_cluster_alarm.items():
                if alarm is not None and alarm >= scenario.start:
                    cluster_counts[cid] += 1
        if report.identified == attackers:
            ident_ok += 1
        if not report.false_positives:
            zero_fp += 1
        overhead = report.sample_messages
    cluster_probs = None
    if clustered:
        cluster_probs = {
            cid: cluster_counts[cid] / replications
            for cid in topology.cluster_members()
        }
    return ExperimentResult(
        topology=topology,
        scenario=scenario,
        settings=settings,
        replications=replications,
        detection_probability=tuple(detect_counts / replications),
        alarm_fraction=tuple(alarm_counts / replications),
        cluster_detection_probability=cluster_probs,
        identification_rate=ident_ok / replications,
        zero_false_positive_rate=zero_fp / replications,
        sample_messages=overhead,
    )


def _rep_seed(seed: int, rep: int) -> int:
    # distinct generate_traces seeds per replication, stable across runs
    return (int(seed) << 20) + rep
