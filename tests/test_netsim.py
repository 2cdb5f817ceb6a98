import numpy as np
import pytest

from cpstream import netsim
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
        heads = topo.cluster_heads()
        assert heads[0] == 0

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

    def test_validation(self):
        with pytest.raises(ValueError, match="horizon"):
            AttackScenario(attackers=(1,), start=600, horizon=600)
        with pytest.raises(ValueError):
            AttackScenario(attackers=(1,), ar_coeff=1.0)


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
        series = traces[victim].series.values[:, 0]
        observed = series[10_000:].mean() - series[:10_000].mean()
        assert observed == pytest.approx(3.0, rel=0.05)

    def test_same_seed_identical_traces(self, topo10, scenario10):
        a = generate_traces(topo10, scenario10, seed=3)
        b = generate_traces(topo10, scenario10, seed=3)
        for ta, tb in zip(a.traces, b.traces):
            assert np.array_equal(ta.series.values, tb.series.values)
            assert np.array_equal(ta.log_times, tb.log_times)
            assert np.array_equal(ta.log_senders, tb.log_senders)

    def test_attack_free_traces_have_empty_logs(self, topo10):
        scenario = AttackScenario(attackers=(), start=100, horizon=250)
        traces = generate_traces(topo10, scenario, seed=0)
        assert all(trace.log_times.size == 0 for trace in traces.traces)

    def test_logs_only_from_neighbors(self, topo10, scenario10):
        traces = generate_traces(topo10, scenario10, seed=2)
        for trace in traces.traces:
            senders = set(trace.log_senders.tolist())
            assert senders <= set(topo10.neighbors(trace.node))

    def test_log_counts_follow_rate(self, topo10):
        attacker = topo10.node_id(0, 9)
        scenario = AttackScenario(attackers=(attacker,), start=101, horizon=300, injection_rate=2.5)
        traces = generate_traces(topo10, scenario, seed=0)
        victim = topo10.node_id(1, 9)
        # 200 attacked periods at 2.5 packets each
        assert traces[victim].log_times.size == 500


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
            by_hop = result.detection_by_hop_distance()
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
            if traces[node].log_times.size == 0
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
        t.node: reference_first_alarm(t.series.values, settings, critval) for t in traces.traces
    }


def reference_clustered(traces, settings, critval):
    members = traces.topology.cluster_members()
    alarms = {
        cid: reference_first_alarm(
            np.sum([traces[n].series.values for n in nodes], axis=0), settings, critval
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
