#!/usr/bin/env python3
"""cpstream benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload monitor-cli --seed 1 --seconds 15 --trace 0

The package is imported from ``src/`` of the same checkout. The run sets
up the workload (several times, reporting the median set-up time), then
repeats its operation closed loop for ``--seconds`` and checks every output.
With ``--trace 0`` it reports the end-to-end metrics, with every set-up and
operation time calibrated against a reference kernel timed right before
and right after it (see ``calib.py``); with ``--trace 1``
it spends half the time untraced and half traced, and reports the per-layer
metrics, the tracing overhead and the scaling record. The last line of
standard output is the result object; a copy with the environment stamp
and every check goes to ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import os
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
# BLAS threads pinned before numpy loads: the benchmark is single-threaded
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import calib  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("monitor-cli", "monitor-replay", "simulate-30x30")


def import_package():
    """Import cpstream from this checkout's ``src/``; None when it is not there."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import cpstream
    except ImportError:
        return None
    if not Path(cpstream.__file__).resolve().is_relative_to(src):
        return None
    return cpstream


# name -> (unit, better); the order is the report order
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_cal_s": ("s", "lower"),
    "samples_per_cal_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

SPAN_METRICS = {
    "critvals.compute_critval": ("calls", "self_s"),
    "offline.segment": ("calls", "self_s", "samples_in"),
    "offline.offline_test": ("calls", "self_s", "samples_in"),
    "longrun.bartlett_lrv.offline": ("calls", "self_s", "samples_in"),
    "longrun.bartlett_lrv.online": ("calls", "self_s", "samples_in"),
    "online.step": ("calls", "self_s"),
    "online.train": ("calls", "self_s", "samples_in"),
    "online.run_batch": ("calls", "self_s", "samples_in"),
    "trend.trend_interval": ("calls", "self_s", "samples_in"),
    "monitor.run_monitor": ("self_s",),
    "netsim.run_experiment": ("self_s",),
    "netsim.generate_traces": ("self_s",),
    "netsim.identify_attackers": ("self_s",),
    "cli.dispatch": ("self_s",),
}
SPAN_UNITS = {"calls": ("count", "lower"), "self_s": ("s", "lower"), "samples_in": ("count", "lower")}
# counters kept by the tracer at the same boundaries, reported per operation
COUNTERS = (
    "critvals.replications",
    "critvals.normal_draws",
    "critvals.provider.calls",
    "critvals.provider.distinct_requests",
    "critvals.thin_tail_requests",
    "cli.rows_parsed",
)
QUALITY = {
    "detect_rate": ("ratio", "higher"),
    "delay_p50_samples": ("samples", "lower"),
    "label_accuracy": ("ratio", "higher"),
    "false_alarms": ("count", "lower"),
    "identification_rate": ("ratio", "higher"),
    "adjacent_detection": ("ratio", "higher"),
    "zero_fp_rate": ("ratio", "higher"),
}
# layers whose self time the scaling record compares across input sizes
SCALING_LAYERS = (
    "offline.segment",
    "offline.offline_test",
    "longrun.bartlett_lrv.offline",
    "longrun.bartlett_lrv.online",
    "online.step",
    "online.train",
    "online.run_batch",
    "trend.trend_interval",
    "monitor.run_monitor",
    "netsim.run_experiment",
    "netsim.generate_traces",
    "netsim.identify_attackers",
)

PER_LAYER: dict[str, tuple[str, str]] = {
    f"{layer}.{f}": SPAN_UNITS[f] for layer, fields in SPAN_METRICS.items() for f in fields
}
PER_LAYER.update({counter: ("count", "lower") for counter in COUNTERS})
PER_LAYER.update({
    "critvals.provider.hit_ratio": ("ratio", "higher"),
    "monitor.rounds": ("count", "lower"),
    "monitor.skipped_windows": ("count", "lower"),
    "monitor.unmonitored_samples": ("count", "lower"),
    "monitor.sample_gap_p50_us": ("us", "lower"),
    "monitor.sample_gap_tail_us": ("us", "lower"),
    "netsim.node_series": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "scaling.wall_ratio": ("ratio", "lower"),
})
PER_LAYER.update({f"scaling.{layer}.self_s_ratio": ("ratio", "lower") for layer in SCALING_LAYERS})
PER_LAYER.update({f"quality.{name}": unit for name, unit in QUALITY.items()})


@dataclass
class Phase:
    """Operations of one measurement phase and what they produced.

    Input pull gaps are kept only when ``keep_gaps`` is set, so that the
    end-to-end phase holds no memory that grows with the operation count.
    With ``calibrate`` set, the reference kernel is timed before the first
    operation and after every one, so operation ``i`` ran between
    ``ref_times[i]`` and ``ref_times[i + 1]``.
    """

    keep_gaps: bool = False
    calibrate: bool = False
    times: list[float] = field(default_factory=list)
    ref_times: list[float] = field(default_factory=list)
    gaps_us: list[float] = field(default_factory=list)
    skipped: int = 0
    failed: int = 0
    checks: dict[str, list[int]] = field(default_factory=dict)  # name -> [ran, failed]
    errors: list[str] = field(default_factory=list)
    first: object = None

    @property
    def attempted(self) -> int:
        return len(self.times)

    def fail(self, exc: Exception) -> None:
        self.failed += 1
        self.errors.append(f"{type(exc).__name__}: {exc}")


def measure_once(workload, phase: Phase, skips, tracer=None) -> None:
    """Run the workload's operation once, timed, then check its output."""
    gc.collect()  # no operation pays for garbage left by the one before
    if phase.calibrate and not phase.ref_times:
        phase.ref_times.append(calib.reference_s())
    skipped_before = skips.skipped
    stamps: list[list[float]] | None = [] if phase.keep_gaps else None
    t0 = perf_counter()
    try:
        output = workload.run(tracer, stamps)
    except Exception as exc:  # a failing operation is counted, not fatal
        output, error = None, exc
    else:
        error = None
    phase.times.append(perf_counter() - t0)
    if phase.calibrate:
        phase.ref_times.append(calib.reference_s())
    if error is not None:
        phase.fail(error)
        return
    phase.skipped += skips.skipped - skipped_before
    for pulls in stamps or ():
        phase.gaps_us.extend((np.diff(pulls) * 1e6).tolist())
    try:
        results = workload.check(output)
    except Exception as exc:  # an output too malformed to check fails
        phase.fail(exc)
        return
    for name, ok in results.items():
        tally = phase.checks.setdefault(name, [0, 0])
        tally[0] += 1
        tally[1] += not ok
    phase.failed += not all(results.values())
    if phase.first is None:
        phase.first = output


def measure(workload, seconds: float, min_ops: int, skips) -> Phase:
    """Repeat the operation closed loop for ``seconds``, at least ``min_ops`` times."""
    phase = Phase(calibrate=True)
    start = perf_counter()
    while phase.attempted < min_ops or perf_counter() - start < seconds:
        measure_once(workload, phase, skips)
    return phase


def measure_traced(workload, seconds: float, min_ops: int, skips, untraced: Phase | None = None):
    """Traced operations for ``seconds``, paired with untraced ones when
    ``untraced`` is given. Each pair swaps which side runs first, so that
    drift in machine speed and position effects hit both sides alike."""
    tracer = Tracer()
    traced = Phase()
    start = perf_counter()
    while traced.attempted < min_ops or perf_counter() - start < seconds:
        untraced_first = traced.attempted % 2 == 0
        if untraced is not None and untraced_first:
            measure_once(workload, untraced, skips)
        with tracer.installed(workload.rebinds(tracer)):
            measure_once(workload, traced, skips, tracer)
        if untraced is not None and not untraced_first:
            measure_once(workload, untraced, skips)
    return tracer, traced


def tail_value(values: list[float]) -> float:
    """The highest value with at least ten values above it (0 when too few)."""
    if len(values) < 11:
        return 0.0
    return sorted(values)[-11]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload, seed: int, seconds: float, trace: int) -> dict:
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "inputs": workload.describe(),
    }


def end_to_end(workload, setup_cal: list[float], phase: Phase) -> dict[str, float]:
    wall = statistics.median(calib.calibrated(phase.times, phase.ref_times))
    return {
        "setup_s": statistics.median(setup_cal),
        "wall_cal_s": wall,
        "samples_per_cal_s": workload.samples_per_op / wall,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_op_self(tracer, phase: Phase) -> dict[str, float]:
    return {name: s.self_s / phase.attempted for name, s in tracer.stats.items()}


def per_layer(workload, sizes, seconds: float, skips) -> tuple[dict[str, float], list[Phase], dict]:
    """Untraced and traced operations in turn, then the smaller input traced for scaling."""
    untraced = Phase(keep_gaps=True)
    tracer, traced = measure_traced(workload, seconds, sizes.min_ops, skips, untraced)
    ops = traced.attempted
    metrics = {name: 0.0 for name in PER_LAYER}
    for layer, fields in SPAN_METRICS.items():
        stats = tracer.stats[layer]
        for f in fields:
            metrics[f"{layer}.{f}"] = getattr(stats, f) / ops
    for counter in COUNTERS:
        metrics[counter] = tracer.counters.get(counter, 0) / ops
    calls = tracer.counters.get("critvals.provider.calls", 0)
    if calls:
        metrics["critvals.provider.hit_ratio"] = tracer.counters.get("critvals.provider.hits", 0) / calls
    if workload.streams:
        step_calls = tracer.stats["online.step"].calls / ops
        metrics["monitor.rounds"] = tracer.stats["online.train"].calls / ops + traced.skipped / ops
        metrics["monitor.skipped_windows"] = traced.skipped / ops
        metrics["monitor.unmonitored_samples"] = workload.samples_per_op - step_calls
        if untraced.gaps_us:
            metrics["monitor.sample_gap_p50_us"] = statistics.median(untraced.gaps_us)
            metrics["monitor.sample_gap_tail_us"] = tail_value(untraced.gaps_us)
    metrics.update(workload.work_counts())
    metrics["trace.overhead_s"] = statistics.median(traced.times) - statistics.median(untraced.times)
    if traced.first is not None:
        for name, value in workload.quality(traced.first).items():
            metrics[f"quality.{name}"] = float(value)
    phases = [untraced, traced]
    scaling: dict = {}
    small = workload.smaller()
    if small is not None:
        small.setup()
        small_tracer, small_phase = measure_traced(small, seconds / 4, 1, skips)
        phases.append(small_phase)
        full_self = per_op_self(tracer, traced)
        small_self = per_op_self(small_tracer, small_phase)
        wall = statistics.median(traced.times) / statistics.median(small_phase.times)
        metrics["scaling.wall_ratio"] = wall
        for layer in SCALING_LAYERS:
            if small_self[layer] > 0:
                metrics[f"scaling.{layer}.self_s_ratio"] = full_self[layer] / small_self[layer]
        scaling = {"small_inputs": small.describe(), "small_self_s_per_op": small_self,
                   "full_self_s_per_op": full_self}
    details = {
        "spans": {name: vars(s) for name, s in tracer.stats.items()},
        "counters": tracer.counters,
        "traced_ops": ops,
        "untraced_wall_s": statistics.median(untraced.times),
        "traced_wall_s": statistics.median(traced.times),
        "sample_gaps": len(untraced.gaps_us),
        "scaling": scaling,
    }
    return metrics, phases, details


def run(name: str, seed: int, seconds: float, trace: int, sizes=None) -> dict:
    """Set up and measure one workload; returns the result record."""
    import workloads

    sizes = sizes or workloads.FULL
    workloads.OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, sizes)
    skips = workloads.SkipCounter()
    logger = logging.getLogger("cpstream.monitor")
    logger.addHandler(skips)
    try:
        setup_times: list[float] = []
        setup_refs = [calib.reference_s()]
        while len(setup_times) < sizes.setup_repeats or sum(setup_times) < sizes.setup_min_s:
            t0 = perf_counter()
            workload.setup()
            setup_times.append(perf_counter() - t0)
            setup_refs.append(calib.reference_s())
        setup_cal = calib.calibrated(setup_times, setup_refs)
        if trace:
            metrics, phases, details = per_layer(workload, sizes, seconds, skips)
            spec = PER_LAYER
        else:
            phase = measure(workload, seconds, sizes.min_ops, skips)
            metrics, phases = end_to_end(workload, setup_cal, phase), [phase]
            details = {
                "op_times_s": phase.times,
                "reference_s": phase.ref_times,
                "op_cal_times_s": calib.calibrated(phase.times, phase.ref_times),
                "wall_s": statistics.median(phase.times),
                "samples_per_s": workload.samples_per_op * phase.attempted / sum(phase.times),
            }
            if phase.first is not None:
                details["quality"] = workload.quality(phase.first)
            spec = END_TO_END
    finally:
        logger.removeHandler(skips)
    checks: dict[str, list[int]] = {}
    for phase in phases:
        for check, (ran, failed) in phase.checks.items():
            tally = checks.setdefault(check, [0, 0])
            tally[0] += ran
            tally[1] += failed
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    result = {
        "correct": failed == 0 and bool(checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": spec[m][0]} for m in spec},
    }
    record = {
        "environment": environment(workload, seed, seconds, trace),
        "setup_times_s": setup_times,
        "setup_reference_s": setup_refs,
        "checks": {c: {"ran": r, "failed": f} for c, (r, f) in checks.items()},
        "errors": [e for p in phases for e in p.errors],
        "details": details,
        "result": result,
    }
    (workloads.OUT_DIR / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if import_package() is None:
        print(f"error: cpstream not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    record = run(args.workload, args.seed, args.seconds, args.trace)
    result = record["result"]
    print("# environment " + json.dumps(record["environment"], sort_keys=True))
    print("# checks " + json.dumps(record["checks"], sort_keys=True))
    if record["errors"]:
        print("# errors " + json.dumps(record["errors"][:5]))
    for metric, entry in result["metrics"].items():
        print(f"# {metric} = {entry['value']!r} {entry['unit']}")
    if not args.trace:  # uncalibrated, for reading only
        details = record["details"]
        print(f"# uncalibrated wall_s = {details['wall_s']!r} s, "
              f"samples_per_s = {details['samples_per_s']!r} 1/s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
