import hashlib
import json
import threading
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from cpstream import netsim, rng
from cpstream.netsim import (
    AttackScenario,
    DetectorSettings,
    attack_lift,
    block_clusters,
    detect_clustered,
    detect_per_node,
    generate_traces,
    grid_topology,
    identify_attackers,
    random_scenario,
    run_experiment,
    simulate_once,
)
from cpstream.online import DetectorKind, run_batch, train

SETTINGS = DetectorSettings(m=200, retrain_block=50, gamma=0.0, alpha=0.05)


@pytest.fixture(scope="module")
def topo10():
    return grid_topology(10, 10)


@pytest.fixture(scope="module")
def scenario10(topo10):
    return random_scenario(topo10, n_attackers=10, seed=0, start=401, horizon=600)


def detection_by_hop_distance(result):
    """Mean detection probability of the nodes at each hop distance from the nearest attacker."""
    topo, attackers = result.topology, result.scenario.attackers
    buckets = {}
    for node in range(topo.n_nodes):
        hops = min(topo.hop_distance(node, a) for a in attackers)
        buckets.setdefault(hops, []).append(result.detection_probability[node])
    return {hops: float(np.mean(probs)) for hops, probs in sorted(buckets.items())}


class TestTopology:
    def test_neighbor_relation_symmetric(self, topo10):
        for node in range(topo10.n_nodes):
            for nbr in topo10.neighbors(node):
                assert node in topo10.neighbors(nbr)

    def test_degrees(self, topo10):
        assert topo10.degree(0) == 2  # corner
        assert topo10.degree(5) == 3  # edge
        assert topo10.degree(55) == 4  # interior

    def test_paths_reach_controller(self, topo10):
        for node in range(topo10.n_nodes):
            path = topo10.path_to_controller(node)
            assert path[0] == node
            assert path[-1] == topo10.controller
            assert len(path) == topo10.hop_distance(node, topo10.controller) + 1
            # consecutive hops are neighbours
            for a, b in zip(path, path[1:]):
                assert b in topo10.neighbors(a)

    def test_block_clusters_cover_grid(self):
        clusters = block_clusters(10, 10, 2)
        assert len(clusters) == 100
        assert len(set(clusters)) == 25
        topo = grid_topology(10, 10, cluster_block=2)
        members = topo.cluster_members()
        assert all(len(nodes) == 4 for nodes in members.values())
        assert members[0] == (0, 1, 10, 11)

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_topology(0, 5)
        with pytest.raises(ValueError, match="controller"):
            grid_topology(2, 2, controller=9)


class TestScenario:
    def test_random_scenario_separation(self, topo10):
        scenario = random_scenario(topo10, n_attackers=10, seed=5)
        attackers = scenario.attackers
        assert len(attackers) == 10
        assert topo10.controller not in attackers
        for i, a in enumerate(attackers):
            for b in attackers[i + 1 :]:
                assert topo10.hop_distance(a, b) >= 3

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_attackers_rejected_before_placement(self, monkeypatch, topo10, n):
        monkeypatch.setattr(netsim, "substream", pytest.fail)
        with pytest.raises(ValueError, match=f"n_attackers must be at least 1, got {n}"):
            random_scenario(topo10, n_attackers=n)

    def test_more_attackers_than_nodes_rejected_before_placement(self, monkeypatch, topo10):
        monkeypatch.setattr(netsim, "substream", pytest.fail)
        with pytest.raises(ValueError, match=r"n_attackers must be at most 99 .*, got 100"):
            random_scenario(topo10, n_attackers=100)
        monkeypatch.undo()
        assert len(random_scenario(topo10, n_attackers=99, min_separation=0).attackers) == 99

    def test_validation(self):
        with pytest.raises(ValueError, match="horizon"):
            AttackScenario(attackers=(1,), start=600, horizon=600)
        with pytest.raises(ValueError):
            AttackScenario(attackers=(1,), ar_coeff=1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("injection_rate", float("nan")),
            ("ticks_per_packet", float("inf")),
            ("noise_sigma", float("inf")),
            ("noise_sigma", float("nan")),
            ("baseline_mean", float("nan")),
            ("baseline_mean", (10.0, float("-inf"), 10.0)),
        ],
        ids=["rate-nan", "ticks-inf", "sigma-inf", "sigma-nan", "baseline-nan", "baseline-entry-inf"],
    )
    def test_non_finite_traffic_value_refused(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be finite, got (nan|-?inf)$"):
            AttackScenario(attackers=(1,), **{field: value})

    @pytest.mark.parametrize("rate", [2.0**62, 1e19, np.nextafter(2.0**63, 0), 1e300],
                             ids=["2**62", "1e19", "below-2**63", "1e300"])
    def test_packet_count_beyond_int64_refused(self, rate):
        # at 1e19 every count was cast to -2**63, and identification read 0
        with pytest.raises(ValueError, match=r"^injection_rate must be below 2\*\*62 packets"):
            AttackScenario(attackers=(1,), injection_rate=rate)

    def test_largest_rate_counts_in_int64(self):
        rate = np.nextafter(2.0**62, 0)
        scenario = AttackScenario(attackers=(1,), start=2, horizon=100_000, injection_rate=rate)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns on a cast out of range
            counts = netsim._packets_per_period(scenario.injection_rate, scenario.horizon)
        assert counts.min() > 0


class TestTrafficModel:
    def test_no_attackers_means_no_lift(self, topo10):
        scenario = AttackScenario(attackers=(), start=100, horizon=200)
        assert np.all(attack_lift(topo10, scenario) == 0.0)

    def test_isolated_neighbor_gets_full_injection(self, topo10):
        # attacker in the top-right corner: node (1,9) is a neighbour that
        # lies on no other victim's path to the controller at (0,0)
        attacker = topo10.node_id(0, 9)
        scenario = AttackScenario(attackers=(attacker,), start=100, horizon=200)
        lift = attack_lift(topo10, scenario)
        assert lift[topo10.node_id(1, 9)] == pytest.approx(3.0, rel=1e-12)
        # the attacker itself transmits to both neighbours
        assert lift[attacker] >= 2 * 3.0

    def test_neighbor_mean_shift_matches_model(self, topo10):
        attacker = topo10.node_id(0, 9)
        victim = topo10.node_id(1, 9)
        scenario = AttackScenario(attackers=(attacker,), start=10_001, horizon=20_000)
        traces = generate_traces(topo10, scenario, seed=1)
        series = traces.values[victim]
        observed = series[10_000:].mean() - series[:10_000].mean()
        assert observed == pytest.approx(3.0, rel=0.05)

    def test_same_seed_identical_traces(self, topo10, scenario10):
        a = generate_traces(topo10, scenario10, seed=3)
        b = generate_traces(topo10, scenario10, seed=3)
        assert np.array_equal(a.values, b.values)
        for node in range(topo10.n_nodes):
            for la, lb in zip(a.log(node), b.log(node)):
                assert np.array_equal(la, lb)

    def test_attack_free_traces_have_empty_logs(self, topo10, scenario10):
        scenario = AttackScenario(attackers=(), start=100, horizon=250)
        traces = generate_traces(topo10, scenario, seed=0)
        attacked = generate_traces(topo10, scenario10, seed=0)
        victim = topo10.neighbors(scenario10.attackers[0])[0]
        dtypes = tuple(part.dtype for part in attacked.log(victim))
        for node in range(topo10.n_nodes):
            times, senders = traces.log(node)
            assert times.shape == senders.shape == (0,)
            assert (times.dtype, senders.dtype) == dtypes

    def test_logs_only_from_neighbors(self, topo10, scenario10):
        traces = generate_traces(topo10, scenario10, seed=2)
        for node in range(topo10.n_nodes):
            senders = set(traces.log(node)[1].tolist())
            assert senders <= set(topo10.neighbors(node))

    def test_log_counts_follow_rate(self, topo10):
        attacker = topo10.node_id(0, 9)
        scenario = AttackScenario(attackers=(attacker,), start=101, horizon=300, injection_rate=2.5)
        traces = generate_traces(topo10, scenario, seed=0)
        victim = topo10.node_id(1, 9)
        # 200 attacked periods at 2.5 packets each
        assert traces.log(victim)[0].size == 500


class TestDetection:
    def test_default_settings(self):
        settings = DetectorSettings()
        assert settings.m == 200
        assert settings.retrain_block == 50
        assert settings.gamma == 0.0

    def test_attacker_adjacent_nodes_detected(self, topo10, scenario10, cv_standard_d1):
        result = run_experiment(
            topo10, scenario10, SETTINGS, cv_standard_d1, replications=10, seed=1
        )
        assert result.attacker_adjacent_detection() >= 0.9
        assert result.zero_false_positive_rate == 1.0

    def test_attack_free_alarm_fraction_bounded(self, topo10, cv_standard_d1):
        scenario = AttackScenario(attackers=(), start=400, horizon=600)
        result = run_experiment(
            topo10, scenario, SETTINGS, cv_standard_d1, replications=10, seed=2
        )
        assert float(np.mean(result.alarm_fraction)) <= 0.05 + 2 * np.sqrt(0.05 * 0.95 / (10 * 100))

    def test_detection_decays_with_hop_distance(self, topo10, cv_standard_d1):
        probs = np.zeros(topo10.n_nodes)
        reps = 10
        for seed in range(reps):
            scenario = random_scenario(
                topo10, n_attackers=10, seed=seed, start=401, horizon=600
            )
            result = run_experiment(
                topo10, scenario, SETTINGS, cv_standard_d1, replications=1, seed=seed
            )
            by_hop = detection_by_hop_distance(result)
            for h in sorted(by_hop):
                probs[h] += by_hop[h]
        means = {h: probs[h] / reps for h in range(topo10.n_nodes) if probs[h] > 0 or h < 4}
        hops = sorted(means)
        assert means[0] >= 0.9 and means[1] >= 0.9
        for a, b in zip(hops, hops[1:]):
            assert means[b] <= means[a] + 0.05

    def test_horizon_too_short(self, topo10, scenario10, cv_standard_d1):
        short = AttackScenario(attackers=scenario10.attackers, start=150, horizon=180)
        traces = generate_traces(topo10, short, seed=0)
        with pytest.raises(ValueError, match="horizon"):
            detect_per_node(traces, SETTINGS, cv_standard_d1)


class TestClustered:
    def test_attacker_clusters_alarm(self, cv_standard_d1):
        topo = grid_topology(10, 10, cluster_block=2)
        hit = 0
        total = 0
        for seed in range(5):
            scenario = random_scenario(topo, n_attackers=10, seed=seed, start=401, horizon=600)
            traces = generate_traces(topo, scenario, seed=seed)
            alarms, overhead = detect_clustered(traces, SETTINGS, cv_standard_d1)
            assert overhead == (100 - 25) * 600
            attacker_clusters = {topo.clusters[a] for a in scenario.attackers}
            for cid in attacker_clusters:
                total += 1
                hit += alarms[cid] is not None and alarms[cid] >= scenario.start
        assert hit / total >= 0.9

    def test_single_node_clusters_match_per_node(self, cv_standard_d1):
        topo = grid_topology(6, 6, cluster_block=1)
        scenario = random_scenario(topo, n_attackers=3, seed=4, start=301, horizon=450)
        traces = generate_traces(topo, scenario, seed=4)
        per_node = detect_per_node(traces, SETTINGS, cv_standard_d1)
        clustered, overhead = detect_clustered(traces, SETTINGS, cv_standard_d1)
        assert overhead == 0
        assert clustered == per_node

    def test_cluster_report_fields(self, cv_standard_d1):
        topo = grid_topology(6, 6, cluster_block=2)
        scenario = random_scenario(topo, n_attackers=3, seed=1, start=301, horizon=450)
        report = simulate_once(topo, scenario, SETTINGS, cv_standard_d1, seed=0, clustered=True)
        assert report.per_cluster_alarm is not None
        assert report.sample_messages == (topo.n_nodes - 9) * scenario.horizon


class TestIdentification:
    def test_no_alarms_no_identification(self, topo10, scenario10):
        traces = generate_traces(topo10, scenario10, seed=0)
        quiet = {node: None for node in range(topo10.n_nodes)}
        assert identify_attackers(traces, quiet) == frozenset()

    def test_micro_scenario_counter_equals_degree(self):
        topo = grid_topology(3, 3)
        center = topo.node_id(1, 1)
        scenario = AttackScenario(attackers=(center,), start=10, horizon=60)
        traces = generate_traces(topo, scenario, seed=0)
        alarms = {node: None for node in range(9)}
        for nbr in topo.neighbors(center):
            alarms[nbr] = 30
        assert identify_attackers(traces, alarms) == frozenset({center})
        # one neighbour missing keeps the counter below the degree
        alarms[topo.neighbors(center)[0]] = None
        assert identify_attackers(traces, alarms) == frozenset()

    def test_empty_log_contributes_nothing(self, topo10, scenario10):
        traces = generate_traces(topo10, scenario10, seed=0)
        far_node = next(
            node
            for node in range(topo10.n_nodes)
            if traces.log(node)[0].size == 0
        )
        alarms = {node: None for node in range(topo10.n_nodes)}
        alarms[far_node] = 450
        assert identify_attackers(traces, alarms) == frozenset()

    def test_default_scenario_identification(self, topo10, scenario10, cv_standard_d1):
        ok = 0
        for rep in range(10):
            report = simulate_once(
                topo10, scenario10, SETTINGS, cv_standard_d1, seed=1000 + rep
            )
            assert report.false_positives == frozenset()
            ok += report.identified == set(scenario10.attackers)
        assert ok >= 9


class TestDeterminism:
    def test_experiment_reproducible(self, topo10, scenario10, cv_standard_d1):
        a = run_experiment(topo10, scenario10, SETTINGS, cv_standard_d1, replications=3, seed=9)
        b = run_experiment(topo10, scenario10, SETTINGS, cv_standard_d1, replications=3, seed=9)
        assert a == b

    @pytest.mark.parametrize("reps", [0, -2])
    def test_nonpositive_replications_rejected(self, topo10, scenario10, cv_standard_d1, reps):
        with pytest.raises(ValueError, match="replications must be at least 1"):
            run_experiment(topo10, scenario10, SETTINGS, cv_standard_d1, replications=reps)


def reference_first_alarm(values, settings, critval):
    """One series through its own train/run_batch retraining loop."""
    m, horizon = settings.m, values.shape[0]
    while m < horizon:
        state = train(values[:m], DetectorKind.STANDARD, settings.gamma, critval)
        block = min(settings.retrain_block, horizon - m)
        verdict, consumed = run_batch(state, values[m : m + block])
        if verdict.alarm:
            return m + consumed
        m += block
    return None


def reference_per_node(traces, settings, critval):
    return {
        node: reference_first_alarm(row[:, None], settings, critval)
        for node, row in enumerate(traces.values)
    }


def reference_clustered(traces, settings, critval):
    members = traces.topology.cluster_members()
    alarms = {
        cid: reference_first_alarm(
            np.sum([traces.values[n] for n in nodes], axis=0)[:, None], settings, critval
        )
        for cid, nodes in members.items()
    }
    return alarms, sum(len(nodes) - 1 for nodes in members.values()) * traces.scenario.horizon


class TestStackedDetection:
    """Every detector of a replication runs as one stack, alarm for alarm like its own loop."""

    @pytest.mark.parametrize("block", [50, 70])  # 70: the last block of 400 is short
    @pytest.mark.parametrize("clustered", [False, True])
    def test_matches_per_series_loop(self, monkeypatch, cv_standard_d1, clustered, block):
        topo = grid_topology(10, 10, cluster_block=2)
        scenario = random_scenario(topo, n_attackers=10, seed=2, start=401, horizon=600)
        settings = DetectorSettings(m=200, retrain_block=block)

        def outcome():
            experiment = run_experiment(
                topo, scenario, settings, cv_standard_d1,
                replications=3, seed=5, clustered=clustered,
            )
            reports = [
                simulate_once(topo, scenario, settings, cv_standard_d1, seed=s, clustered=clustered)
                for s in range(3)
            ]
            return experiment, reports

        stacked = outcome()
        monkeypatch.setattr(netsim, "detect_per_node", reference_per_node)
        monkeypatch.setattr(netsim, "detect_clustered", reference_clustered)
        assert stacked == outcome()

    def test_experiment_rejects_short_horizon_before_any_replication(
        self, monkeypatch, topo10, cv_standard_d1
    ):
        scenario = AttackScenario(attackers=(55,), start=150, horizon=200)
        monkeypatch.setattr(netsim, "generate_traces", pytest.fail)
        with pytest.raises(ValueError, match="horizon 200 leaves nothing to monitor after m=200"):
            run_experiment(topo10, scenario, SETTINGS, cv_standard_d1, replications=2)


class TestGolden:
    """Traces and one full report pinned, so a rewrite of the trace path cannot drift."""

    def test_trace_matrix_10x10(self, topo10, scenario10):
        values = generate_traces(topo10, scenario10, seed=3).values
        assert values.shape == (100, 600)
        assert values.flags.c_contiguous and not values.flags.writeable
        assert hashlib.sha256(values.tobytes()).hexdigest() == (
            "a040ba590586b06d3dcddf0d8e40190fcafeb5442bf74870b13a0c5555e2d177"
        )

    def test_trace_matrix_30x30(self):
        topo = grid_topology(30, 30, cluster_block=2)
        values = generate_traces(topo, random_scenario(topo, seed=1), seed=1).values
        assert values.shape == (900, 600)
        assert hashlib.sha256(values.tobytes()).hexdigest() == (
            "dbc2ab3b078306cc7b2fd43aaa946c875e038ba1345fc29e796fe3ff8060105f"
        )

    def test_clustered_report_10x10(self, cv_standard_d1):
        topo = grid_topology(10, 10, cluster_block=2)
        scenario = random_scenario(topo, n_attackers=10, seed=0, start=401, horizon=600)
        report = simulate_once(topo, scenario, SETTINGS, cv_standard_d1, seed=3, clustered=True)
        node_alarms = {
            0: 413, 1: 405, 2: 412, 3: 415, 4: 405, 5: 411, 6: 414, 7: 419, 8: 416, 9: 409,
            11: 418, 14: 421, 15: 420, 16: 405, 17: 416, 19: 422, 22: 430, 26: 418, 31: 436,
            32: 415, 36: 446, 40: 416, 41: 413, 42: 405, 43: 419, 45: 444, 46: 422, 47: 441,
            50: 406, 51: 413, 52: 415, 54: 443, 55: 418, 56: 405, 57: 416, 60: 417, 61: 422,
            62: 444, 63: 496, 64: 418, 65: 449, 66: 421, 68: 445, 70: 420, 71: 404, 72: 419,
            73: 427, 74: 405, 75: 419, 77: 495, 78: 419, 79: 437, 81: 419, 84: 420, 87: 422,
            88: 404, 89: 418, 98: 428,
        }
        cluster_alarms = {
            0: 406, 1: 413, 2: 405, 3: 405, 4: 409, 5: 424, 6: 418, 8: 426, 10: 406, 11: 406,
            12: 419, 13: 406, 15: 406, 16: 415, 17: 406, 18: 429, 19: 417, 20: 446, 22: 440,
            23: 448, 24: 406,
        }
        assert report == netsim.DetectionReport(
            per_node_alarm={node: node_alarms.get(node) for node in range(100)},
            per_cluster_alarm={cid: cluster_alarms.get(cid) for cid in range(25)},
            identified=frozenset({1, 4, 9, 16, 42, 50, 56, 71, 74, 88}),
            false_positives=frozenset(),
            sample_messages=45_000,
        )

    def test_clustered_report_30x30(self, cv_standard_d1):
        topo = grid_topology(30, 30, cluster_block=2)
        result = run_experiment(
            topo, random_scenario(topo, seed=1), SETTINGS, cv_standard_d1,
            replications=1, seed=1, clustered=True,
        )
        fields = json.dumps(
            [
                result.detection_probability,
                result.alarm_fraction,
                sorted(result.cluster_detection_probability.items()),
                result.identification_rate,
                result.zero_false_positive_rate,
                result.sample_messages,
            ]
        )
        assert hashlib.sha256(fields.encode()).hexdigest() == (
            "4192d675a4955c001607456cb8b530bdf15f0b336a224aa752bc5d2b5d0d931d"
        )


class TestCpuCount:
    """Node rows drawn on any number of CPUs give the goldens, bit for bit."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_goldens_at_any_cpu_count(self, monkeypatch, topo10, scenario10, cv_standard_d1, cpus):
        monkeypatch.setattr(rng, "_cpus", lambda: cpus)
        real = rng._row_drawer
        ranges = []  # the Thread object that drew each range

        def traced():
            ranges.append(threading.current_thread())
            return real()

        monkeypatch.setattr(rng, "_row_drawer", traced)
        golden = TestGolden()
        golden.test_trace_matrix_10x10(topo10, scenario10)
        golden.test_trace_matrix_30x30()
        golden.test_clustered_report_10x10(cv_standard_d1)
        golden.test_clustered_report_30x30(cv_standard_d1)
        # four trace draws, each on the calling thread and cpus - 1 threads of its own
        assert len(ranges) == 4 * cpus
        assert len(set(ranges)) == 1 + 4 * (cpus - 1)


class TestRoundViews:
    """Rounds train on and feed views of the stack until a series alarms."""

    def test_no_copy_before_the_first_alarm(self, monkeypatch, topo10, scenario10, cv_standard_d1):
        traces = generate_traces(topo10, scenario10, seed=3)
        seen = []

        def wrap(fn, series_arg):
            def wrapped(*args):
                series = args[series_arg]
                seen.append((fn.__name__, len(series), np.shares_memory(series, traces.values)))
                return fn(*args)

            return wrapped

        monkeypatch.setattr(netsim, "train", wrap(train, 0))
        monkeypatch.setattr(netsim, "run_batch", wrap(run_batch, 1))
        alarms = detect_per_node(traces, SETTINGS, cv_standard_d1)
        # the golden's first alarm is at 404: rounds m = 200..400 hold every node
        assert min(a for a in alarms.values() if a is not None) == 404
        full = [(name, shares) for name, rows, shares in seen if rows == 100]
        assert full == [("train", True), ("run_batch", True)] * 5
        assert len(seen) > len(full)
        assert not any(shares for _, rows, shares in seen if rows < 100)


class TestSharedVictim:
    """Two attackers two hops apart flood one common neighbour."""

    # 3 x 5 grid: attackers (1,1) and (1,3) share the victim (1,2)
    topo = grid_topology(3, 5)
    low, victim, high = 6, 7, 8

    def traces(self, rate):
        scenario = AttackScenario(
            attackers=(self.low, self.high), start=11, horizon=20, injection_rate=rate
        )
        return generate_traces(self.topo, scenario, seed=0)

    def test_log_orders_senders_within_a_time(self):
        log_times, log_senders = self.traces(2.5).log(self.victim)
        # 2.5 packets per period: 2, 3, 2, 3, ... from each attacker
        counts = [2, 3] * 5
        times = [t for t, c in zip(range(11, 21), counts) for _ in range(2 * c)]
        senders = [s for c in counts for s in [self.low] * c + [self.high] * c]
        assert log_times.tolist() == times
        assert log_senders.tolist() == senders
        assert log_senders[:10].tolist() == [6, 6, 8, 8, 6, 6, 6, 8, 8, 8]

    def test_last_ten_cut_inside_a_time_group(self):
        # at 3.0 each period logs six entries: up to t = 12 the last ten are
        # 6 8 8 8 6 6 6 8 8 8, four from the lower attacker and six from the
        # higher, where the two whole periods hold six from each
        traces = self.traces(3.0)
        assert netsim._suspect(traces, self.victim, 10) is None
        assert netsim._suspect(traces, self.victim, 11) == self.low  # 6 6 6 8 8 8: a tie
        assert netsim._suspect(traces, self.victim, 12) == self.high

    def test_tie_accuses_the_lower_id(self):
        traces = self.traces(2.5)
        # up to t = 12 the victim logged five packets from each attacker
        assert netsim._suspect(traces, self.victim, 12) == self.low
        alarms = {node: None for node in range(self.topo.n_nodes)}
        for node in self.topo.neighbors(self.low):
            alarms[node] = 12
        assert identify_attackers(traces, alarms) == frozenset({self.low})
        # the same tie for the higher attacker's neighbours still accuses the lower one
        alarms = {node: None for node in range(self.topo.n_nodes)}
        for node in self.topo.neighbors(self.high):
            alarms[node] = 12
        assert identify_attackers(traces, alarms) == frozenset()

    # 0.4: most periods send nothing; from 12.5 a period holds more than ten
    # entries per sender, and the last ten come from one period
    @pytest.mark.parametrize("rate", [0.4, 1.0, 2.5, 3.0, 12.5, 40.0])
    def test_tail_matches_the_whole_log(self, rate):
        # the suspect tallied from the period counts is the most frequent of
        # the whole log's last ten entries up to t, the lowest id on ties
        traces = self.traces(rate)
        for node in range(self.topo.n_nodes):
            times, senders = traces.log(node)
            for t in range(1, traces.scenario.horizon + 1):
                tally = Counter(senders[times <= t][-10:].tolist())
                expected = min(tally, key=lambda s: (-tally[s], s)) if tally else None
                assert netsim._suspect(traces, node, t) == expected, (node, t)

    def test_walk_back_builds_only_the_tail(self):
        # a million packets per period from each attacker: the walk back
        # tallies counts and builds no entry, where a period holds two million
        traces = self.traces(1e6)
        tracemalloc.start()
        try:
            suspect = netsim._suspect(traces, self.victim, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert suspect == self.high
        assert peak < 10_000


def reference_lift(topology, scenario):
    """The attack lift built one Python list entry per hop, in np.add.at's order."""
    amount = scenario.injection_rate * scenario.ticks_per_packet
    hop_amount = [
        amount * scenario.hop_decay**hops for hops in range(topology.rows + topology.cols - 1)
    ]
    nodes, amounts = [], []
    for attacker in scenario.attackers:
        neighbors = topology.neighbors(attacker)
        nodes.append(attacker)
        amounts.append(amount * len(neighbors))
        for victim in neighbors:
            path = topology.path_to_controller(victim)
            nodes += path
            amounts += hop_amount[: len(path)]
    lift = np.zeros(topology.n_nodes)
    np.add.at(lift, np.array(nodes, dtype=np.intp), np.array(amounts))
    return lift


class TestArrayLift:
    """The lift built from index arrays adds what the per-hop loop adds, in its order."""

    # ragged grids, controllers away from node 0, and (separation 2) victims
    # that two attackers flood
    @pytest.mark.parametrize("rows, cols, controller", [
        (10, 10, 0), (7, 9, 62), (5, 13, 32), (12, 8, 37), (1, 6, 3), (6, 1, 0), (2, 2, 3),
    ])
    @pytest.mark.parametrize("separation", [2, 3])
    @pytest.mark.parametrize("rate", [0.4, 3.0, 12.5])
    def test_bytes_equal_the_per_hop_loop(self, rows, cols, controller, separation, rate):
        topo = grid_topology(rows, cols, controller=controller)
        for seed in range(3):
            scenario = random_scenario(
                topo, n_attackers=max(1, topo.n_nodes // 8), seed=seed,
                min_separation=separation, injection_rate=rate, hop_decay=0.7,
            )
            lift = attack_lift(topo, scenario)
            assert lift.tobytes() == reference_lift(topo, scenario).tobytes()

    def test_shared_victim_lift(self):
        topo = TestSharedVictim.topo
        scenario = AttackScenario(attackers=(6, 8), start=11, horizon=20, injection_rate=2.5)
        assert attack_lift(topo, scenario).tobytes() == reference_lift(topo, scenario).tobytes()


class TestClusterSeries:
    """Each cluster's series adds its member rows in member order, as a sum over axis 0 does."""

    @pytest.mark.parametrize("rows, cols, block", [(7, 9, 2), (7, 9, 3), (12, 8, 4), (10, 10, 5)])
    def test_equal_the_per_cluster_sums(self, monkeypatch, rows, cols, block):
        topo = grid_topology(rows, cols, cluster_block=block)
        scenario = random_scenario(topo, n_attackers=3, seed=1, start=301, horizon=450)
        traces = generate_traces(topo, scenario, seed=1)
        stacks = []

        def recorded(series, settings, critval):
            stacks.append(series[:, :, 0])
            return [None] * len(series)

        monkeypatch.setattr(netsim, "_first_alarms", recorded)
        detect_clustered(traces, SETTINGS, None)
        members = topo.cluster_members()
        expected = np.stack([traces.values[list(nodes)].sum(axis=0) for nodes in members.values()])
        assert stacks[0].tobytes() == expected.tobytes()
