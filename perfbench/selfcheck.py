#!/usr/bin/env python3
"""Self-check of the benchmark itself, at toy sizes (about a minute).

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

It runs every workload untraced and traced, and asserts that each result
has exactly the metrics ``BENCHMARK.json`` names, with their units, that
every untraced set-up and operation was calibrated, that
every correctness check of the workload ran and passed, and that
operations attempted and failed are reported. In the traced runs every
layer the workload runs must have recorded calls, and the critical-value
simulations must match the provider's distinct requests (``monitor-cli``)
or be absent (the other workloads). It then feeds deliberately wrong
outputs to the checks and the operation loop, and asserts that they are
counted as failures. Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import logging
import math
import sys

import run

TOY = dict(
    cli_samples=1500, replay_samples=1600, replay_streams=2, change_every=500,
    cli_grid=100, cli_reps=1000, replay_grid=100, replay_reps=1000,
    sim_grid=(6, 6), sim_small_grid=(3, 3), sim_cv_grid=200, sim_cv_reps=1000,
    setup_repeats=2, setup_min_s=0.0, min_ops=2,
)

EXPECTED_CHECKS = {
    "monitor-cli": {"exit_code", "schema", "event_order"},
    "monitor-replay": {"replay_identical", "event_order"},
    "simulate-30x30": {"probabilities", "sample_messages"},
}

# span names each workload must enter (the layer map in README.md)
MONITOR_LAYERS = {
    "monitor.run_monitor", "offline.segment", "offline.offline_test",
    "longrun.bartlett_lrv.offline", "longrun.bartlett_lrv.online",
    "online.train", "online.step", "trend.trend_interval",
}
ACTIVE_LAYERS = {
    "monitor-cli": MONITOR_LAYERS | {"cli.dispatch", "critvals.compute_critval"},
    "monitor-replay": MONITOR_LAYERS,
    "simulate-30x30": {
        "netsim.run_experiment", "netsim.generate_traces", "netsim.identify_attackers",
        "online.train", "online.run_batch", "longrun.bartlett_lrv.online",
    },
}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selfcheck failed: {message}")


def check_declaration(bench: dict) -> None:
    """BENCHMARK.json and the harness name the same metrics, units and directions."""
    for key, spec in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in bench[key]}
        expect(declared == spec, f"{key} in BENCHMARK.json differs from the harness")
    expect([w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES),
           "workload list differs from the harness")


def check_result(name: str, trace: int, record: dict, bench: dict) -> None:
    result = record["result"]
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name}: result keys")
    expect(type(result["attempted"]) is int and result["attempted"] >= 1, f"{name}: attempted")
    expect(type(result["failed"]) is int and result["failed"] == 0,
           f"{name}: {result['failed']} failed operations: {record['errors']}")
    expect(result["correct"] is True, f"{name}: not correct")
    declared = bench["per_layer" if trace else "end_to_end"]
    expect(list(result["metrics"]) == [m["name"] for m in declared], f"{name}: metric names")
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        value = entry["value"]
        expect(entry["unit"] == metric["unit"], f"{name}: unit of {metric['name']}")
        expect(isinstance(value, (int, float)) and not isinstance(value, bool)
               and math.isfinite(value), f"{name}: {metric['name']} = {value!r}")
        if not trace:
            expect(value > 0, f"{name}: end-to-end {metric['name']} is {value}")
    if not trace:
        # every set-up and operation lies between two reference timings
        refs = len(record["details"]["reference_s"])
        expect(refs == result["attempted"] + 1, f"{name}: {refs} reference timings")
        refs = len(record["setup_reference_s"])
        expect(refs == len(record["setup_times_s"]) + 1, f"{name}: {refs} set-up reference timings")
    ran = {c for c, tally in record["checks"].items() if tally["ran"] > 0}
    expect(ran == EXPECTED_CHECKS[name], f"{name}: checks run {sorted(ran)}")
    env = record["environment"]
    for key in ("git_commit", "python", "numpy", "nproc", "blas_threads", "seed", "inputs"):
        expect(key in env, f"{name}: environment stamp lacks {key}")
    if trace:
        check_layers(name, record)


def check_layers(name: str, record: dict) -> None:
    """Every layer the workload runs was traced; simulations match requests."""
    spans = record["details"]["spans"]
    silent = sorted(layer for layer in ACTIVE_LAYERS[name] if spans[layer]["calls"] == 0)
    expect(not silent, f"{name}: no calls traced in {silent}")
    metrics = {m: e["value"] for m, e in record["result"]["metrics"].items()}
    simulations = metrics["critvals.compute_critval.calls"]
    if name == "monitor-cli":
        expect(metrics["cli.rows_parsed"] > 0, f"{name}: no CSV rows counted")
        expect(simulations == metrics["critvals.provider.distinct_requests"],
               f"{name}: {simulations} simulations for "
               f"{metrics['critvals.provider.distinct_requests']} distinct requests")
    else:
        expect(simulations == 0, f"{name}: {simulations} simulations in the timed pass")


def check_failures_counted(sizes) -> None:
    """Wrong outputs fail their checks, and failures reach the failed count."""
    import workloads

    skips = workloads.SkipCounter()
    logging.getLogger("cpstream.monitor").addHandler(skips)

    cli = workloads.MonitorCli(1, sizes)
    cli.setup()
    bad = (0, '{"type": "event", "index": 0}\n')
    expect(cli.check((1, ""))["exit_code"] is False,
           "monitor-cli accepts a failing exit code")
    expect(cli.check(bad)["schema"] is False, "monitor-cli schema check accepts a bad line")
    expect(cli.check(bad)["event_order"] is False, "monitor-cli accepts index 0")

    replay = workloads.MonitorReplay(1, sizes)
    replay.setup()
    expect(all(replay.reference), "a toy replay stream has no events")
    changed = [events[:-1] for events in replay.reference]
    expect(replay.check(changed)["replay_identical"] is False, "replay check accepts a changed list")

    class Broken(workloads.Workload):
        def run(self, tracer=None, stamps=None):
            return None

        def check(self, output):
            return {"always": False}

    class Raising(workloads.Workload):
        def run(self, tracer=None, stamps=None):
            raise RuntimeError("boom")

    class Unreadable(Broken):
        def check(self, output):
            raise TypeError("output of the wrong type")

    for stub, failed_checks in ((Broken(1, sizes), 1), (Raising(1, sizes), 0),
                                (Unreadable(1, sizes), 0)):
        phase = run.Phase()
        run.measure_once(stub, phase, skips)
        expect(phase.attempted == 1 and phase.failed == 1, f"{type(stub).__name__} not counted")
        expect(sum(f for _, f in phase.checks.values()) == failed_checks, "check tally")


def main() -> int:
    expect(run.import_package() is not None, "cpstream not importable from src/")
    import workloads

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_declaration(bench)
    sizes = workloads.Sizes(**TOY)
    for name in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            record = run.run(name, seed=1, seconds=0, trace=trace, sizes=sizes)
            check_result(name, trace, record, bench)
            print(f"ok {name} trace={trace} attempted={record['result']['attempted']}")
    check_failures_counted(sizes)
    print("ok failures are counted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
