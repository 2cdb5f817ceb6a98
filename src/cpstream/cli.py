"""Command-line front end: one-shot subcommands with JSON reports.

Option precedence is flags > config file (`key = value` lines, keys named
like the long flags with underscores) > built-in defaults; the effective
configuration is echoed into every report under ``params``. Exit status is
0 on success, 1 on detection-domain errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import shlex
import subprocess
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from . import critvals, netsim
from .critvals import (
    DEFAULT_GRID_STEPS,
    DEFAULT_HORIZON_T,
    DEFAULT_REPLICATIONS,
    CritValKind,
    MonteCarloProvider,
)
from .errors import CpstreamError
from .monitor import ChangeEvent, MonitorConfig, run_monitor
from .offline import DEFAULT_MIN_SEG, offline_test, segment
from .online import DetectorKind
from .timeseries import TimeSeries, iter_csv, load_csv
from .trend import MacdParams, trend_interval, trend_point

__all__ = ["dispatch", "main"]

# a quantile with fewer expected simulated statistics above it than this is
# too noisy to serve silently
_THIN_TAIL = 10

_CRITVAL_KINDS = {
    "offline": CritValKind.OFFLINE_MAX,
    "standard": CritValKind.ONLINE_STANDARD,
    "ratio": CritValKind.ONLINE_RATIO,
}


def _add_input(
    p: argparse.ArgumentParser, default: str | None = None, help_text: str = "CSV file"
) -> None:
    p.add_argument("--input", default=default, help=help_text)
    p.add_argument("--columns", help="1-based column list, e.g. 2,3")


def _add_budget(p: argparse.ArgumentParser, table: bool = True) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", type=int, default=DEFAULT_GRID_STEPS,
                   help="grid points per unit of simulated time")
    p.add_argument("--reps", type=int, default=DEFAULT_REPLICATIONS,
                   help="Monte Carlo replications")
    if table:
        p.add_argument("--table", help="critical-value table CSV; keys not in it are simulated")


def _add_macd(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p1", type=int, default=9)
    p.add_argument("--p2", type=int, default=12)
    p.add_argument("--p3", type=int, default=26)
    p.add_argument("--h", type=int, default=10, help="interval window length")


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser plus each subcommand's parser by name.

    Every flag declares its default here, once; a ``--config`` file
    overrides those defaults (see :func:`dispatch`).
    """
    parser = argparse.ArgumentParser(
        prog="cpstream",
        description="Change-point detection toolkit: critical values, offline tests, "
        "segmentation, sequential monitoring, trend labelling, and a network "
        "attack-detection simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key = value file; flags override it")
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        return p

    p = add("critval", "simulate a critical value (or build the full table)")
    p.add_argument("--kind", choices=sorted(_CRITVAL_KINDS), default="offline")
    p.add_argument("--d", type=int, default=1, help="series dimension")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--horizon", type=float, default=DEFAULT_HORIZON_T,
                   help="ratio-statistic horizon T")
    _add_budget(p, table=False)
    p.add_argument("--build-table", help="write the full critical-value table to this CSV")

    p = add("offline", "single change-point test on a CSV series")
    _add_input(p)
    p.add_argument("--alpha", type=float, default=0.05)
    _add_budget(p)

    p = add("segment", "multi change-point segmentation of a CSV series")
    _add_input(p)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--min-seg", type=int, default=DEFAULT_MIN_SEG)
    _add_budget(p)

    p = add("trend", "direction verdict at an index of a CSV series")
    _add_input(p)
    p.add_argument("--at", type=int, help="1-based evaluation index")
    p.add_argument("--mode", choices=["point", "interval"], default="interval")
    _add_macd(p)
    p.add_argument("--dim", type=int, default=1, help="1-based series dimension to label")

    p = add("monitor", "sequential monitoring of a CSV stream (file or '-' stdin)")
    _add_input(p, default="-", help_text="CSV file or '-' for standard input")
    p.add_argument("--detector", choices=["standard", "ratio"], default="standard")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--m", type=int, default=200, help="minimal training length")
    p.add_argument("--window", type=int, default=200, help="monitoring window length")
    p.add_argument("--quiet-gap", type=int, default=25,
                   help="samples assumed change-free after an alarm")
    p.add_argument("--min-seg", type=int, default=DEFAULT_MIN_SEG)
    _add_macd(p)
    p.add_argument("--trend-dim", type=int, default=1)
    _add_budget(p)
    p.add_argument("--on-scale-up", help="shell command template run per scale-up event")
    p.add_argument("--on-scale-down", help="shell command template run per scale-down event")

    p = add("simulate", "grid-network attack detection experiment")
    p.add_argument("--grid", default="10x10", help="topology as RxC, e.g. 10x10")
    p.add_argument("--attackers", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["per-node", "cluster"], default="per-node")
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--m", type=int, default=200)
    p.add_argument("--block", type=int, default=50, help="retraining block length")
    p.add_argument("--start", type=int, default=401, help="attack start sample")
    p.add_argument("--horizon", type=int, default=600)
    p.add_argument("--injection-rate", type=float, default=3.0)
    p.add_argument("--ticks", type=float, default=1.0)
    p.add_argument("--baseline", type=float, default=10.0)
    p.add_argument("--ar", type=float, default=0.3)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--decay", type=float, default=0.4)
    p.add_argument("--separation", type=int, default=3, help="minimal pairwise attacker distance")
    p.add_argument("--cluster-block", type=int, default=2)
    p.add_argument("--mc-grid", type=int, default=DEFAULT_GRID_STEPS,
                   help="critical-value simulation grid")
    p.add_argument("--mc-reps", type=int, default=DEFAULT_REPLICATIONS,
                   help="critical-value simulation replications")
    p.add_argument("--table", help="critical-value table CSV; keys not in it are simulated")
    p.add_argument("--heatmap", help="write the detection-probability grid to this CSV")

    return parser, sub.choices


def _read_config(path: str, command: str, keys: set[str]) -> dict[str, str]:
    """The ``key = value`` lines of a config file, checked against ``keys``."""
    values = {}
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CpstreamError(f"{path}: line {line_no} is not 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in keys:
            raise CpstreamError(f"unknown config key {key!r} for {command}")
        values[key] = value.strip()
    return values


def _emit(out: str | None, *records: dict) -> None:
    text = "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_columns(raw: str | None) -> list[int] | None:
    if raw is None:
        return None
    columns = []
    for tok in raw.split(","):
        if not tok.strip():
            continue
        try:
            col = int(tok)
        except ValueError:
            col = 0
        if col < 1:
            raise CpstreamError(f"--columns: {tok.strip()!r} is not a 1-based column number")
        columns.append(col)
    return columns


def _load_series(opts: dict) -> TimeSeries:
    if not opts["input"]:
        raise CpstreamError("--input is required")
    return load_csv(opts["input"], _parse_columns(opts["columns"]))


def _provider(
    opts: dict,
    grid_key: str = "grid",
    reps_key: str = "reps",
    horizon_T: float = DEFAULT_HORIZON_T,
) -> MonteCarloProvider:
    """The command's critical-value provider.

    Keys tabulated in ``--table`` are served as stored; every other key (for
    example segmentation's length-dependent validation level) is simulated
    at the command's budget. ``horizon_T`` is the ratio horizon T, which
    only ``critval --horizon`` sets: ``simulate --horizon`` is a trace length.
    """
    return MonteCarloProvider(
        seed=opts["seed"],
        grid_steps=opts[grid_key],
        replications=opts[reps_key],
        horizon_T=horizon_T,
        table=opts.get("table"),
    )


def _critval_record(cv, params: dict) -> dict:
    req = cv.request
    return {
        "kind": req.kind.value,
        "d": req.d,
        "alpha": req.alpha,
        "gamma": req.gamma if req.kind.is_online else None,
        "value": cv.value,
        "mc_stderr": cv.mc_stderr,
        "tail_count": cv.tail_count,
        "params": params,
    }


def _cmd_critval(opts: dict) -> int:
    params = {"command": "critval", **opts}
    if opts["build_table"]:
        records = []
        critvals.build_table(
            opts["build_table"],
            grid_steps=opts["grid"],
            replications=opts["reps"],
            horizon_T=opts["horizon"],
            seed=opts["seed"],
            progress=lambda cv: records.append(_critval_record(cv, params)),
        )
        _emit(opts["out"], *records)
        return 0
    provider = _provider(opts, horizon_T=opts["horizon"])
    cv = provider(_CRITVAL_KINDS[opts["kind"]], opts["d"], opts["alpha"], opts["gamma"])
    if opts["alpha"] * opts["reps"] < _THIN_TAIL:
        print(
            f"warning: thin tail: only {cv.tail_count} of {opts['reps']} simulated statistics "
            f"lie above the critical value at alpha={opts['alpha']}; raise --reps",
            file=sys.stderr,
        )
    _emit(opts["out"], _critval_record(cv, params))
    return 0


def _cmd_offline(opts: dict) -> int:
    series = _load_series(opts)
    alpha = opts["alpha"]
    cv = _provider(opts)(CritValKind.OFFLINE_MAX, series.dim, alpha)
    result = offline_test(series, alpha, cv)
    record = {
        "statistic": result.statistic_m,
        "cps": [result.cp_index] if result.cp_index is not None else [],
        "alpha": alpha,
        "reject": result.reject,
        "cp_fraction": result.cp_fraction,
        "critval": result.critval_used,
        "params": {"command": "offline", "n": result.n, "d": series.dim, **opts},
    }
    _emit(opts["out"], record)
    return 0


def _cmd_segment(opts: dict) -> int:
    series = _load_series(opts)
    alpha = opts["alpha"]
    provider = _provider(opts)
    result = segment(series, alpha, provider, min_seg=opts["min_seg"])
    full = offline_test(series, alpha, provider(CritValKind.OFFLINE_MAX, series.dim, alpha))
    record = {
        "statistic": full.statistic_m,
        "cps": list(result.cps),
        "alpha": alpha,
        "per_cp": [
            {"index": cp, "statistic": stat.statistic_m, "window_n": stat.n}
            for cp, stat in zip(result.cps, result.per_cp_stats)
        ],
        "hit_round_cap": result.hit_round_cap,
        "params": {"command": "segment", "n": series.n_samples, "d": series.dim, **opts},
    }
    _emit(opts["out"], record)
    return 0


def _cmd_trend(opts: dict) -> int:
    series = _load_series(opts)
    if opts["at"] is None:
        raise CpstreamError("--at is required")
    params = MacdParams(p1=opts["p1"], p2=opts["p2"], p3=opts["p3"], h=opts["h"])
    if opts["mode"] == "point":
        verdict = trend_point(series, opts["at"], params, dim=opts["dim"])
    else:
        verdict = trend_interval(series, opts["at"], params, dim=opts["dim"])
    record = {
        "ti": verdict.value,
        "direction": verdict.direction.value,
        "mode": verdict.mode.value,
        "at_index": verdict.at_index,
        "params": {"command": "trend", **opts},
    }
    _emit(opts["out"], record)
    return 0


def _hook_argv(template: str, index: int, direction: str, action: str, ti: float) -> list[str]:
    return shlex.split(template.format(index=index, direction=direction, action=action, ti=ti))


def _check_hooks(opts: dict) -> None:
    """Reject a hook template that cannot be formatted or split, before any output."""
    for flag in ("on_scale_up", "on_scale_down"):
        where = f"--{flag.replace('_', '-')} {opts[flag]!r}"
        try:
            if opts[flag]:
                _hook_argv(opts[flag], 1, "up", "scale-up", 0.0)
        except KeyError as exc:
            fields = "index, direction, action and ti"
            raise CpstreamError(f"{where}: unknown field {exc}; the fields are {fields}") from None
        except (IndexError, ValueError) as exc:
            raise CpstreamError(f"{where}: {exc}") from None


def _run_hook(template: str | None, event: ChangeEvent) -> None:
    if template:
        direction, action = event.direction.value, event.action.value
        argv = _hook_argv(template, event.detected_at, direction, action, event.trend.value)
        subprocess.run(argv, check=False)


def _cmd_monitor(opts: dict) -> int:
    _check_hooks(opts)
    columns = _parse_columns(opts["columns"])
    config = MonitorConfig(
        critvals=_provider(opts),
        alpha=opts["alpha"],
        gamma=opts["gamma"],
        detector=DetectorKind(opts["detector"]),
        window_k=opts["window"],
        quiet_gap_d=opts["quiet_gap"],
        macd=MacdParams(opts["p1"], opts["p2"], opts["p3"], opts["h"]),
        min_seg=opts["min_seg"],
        m_min=opts["m"],
        trend_dim=opts["trend_dim"],
    )
    with contextlib.ExitStack() as stack:
        # the input is opened before the report, so a missing file leaves no output
        if opts["input"] == "-":
            rows = iter_csv(sys.stdin, columns)
        else:
            fh = stack.enter_context(open(opts["input"], newline=""))
            rows = iter_csv(fh, columns, source=opts["input"])
        sink = stack.enter_context(open(opts["out"], "w")) if opts["out"] else sys.stdout

        def write(record: dict) -> None:
            sink.write(json.dumps(record, sort_keys=True) + "\n")
            sink.flush()

        def on_event(event: ChangeEvent) -> None:
            write(
                {
                    "type": "event",
                    "index": event.detected_at,
                    "direction": event.direction.value,
                    "action": event.action.value,
                    "ti": event.trend.value,
                    "training": list(event.training_used),
                }
            )
            hook = opts["on_scale_up"] if event.direction.value == "up" else opts["on_scale_down"]
            _run_hook(hook, event)

        write({"type": "config", "params": {"command": "monitor", **opts}})
        run_monitor(rows, config, on_event)
    return 0


def _cmd_simulate(opts: dict) -> int:
    try:
        rows, cols = (int(part) for part in opts["grid"].lower().split("x"))
    except ValueError:
        raise CpstreamError(f"--grid must look like 10x10, got {opts['grid']!r}") from None
    if opts["reps"] < 1:
        # before the critical value is simulated, which can take a while
        raise CpstreamError(f"--reps must be at least 1, got {opts['reps']}")
    if opts["m"] >= opts["horizon"]:
        raise CpstreamError(
            f"--horizon {opts['horizon']} leaves nothing to monitor after --m {opts['m']}"
        )
    mode = opts["mode"]
    topology = netsim.grid_topology(
        rows, cols, cluster_block=opts["cluster_block"] if mode == "cluster" else None
    )
    scenario = netsim.random_scenario(
        topology,
        n_attackers=opts["attackers"],
        seed=opts["seed"],
        min_separation=opts["separation"],
        start=opts["start"],
        horizon=opts["horizon"],
        injection_rate=opts["injection_rate"],
        ticks_per_packet=opts["ticks"],
        baseline_mean=opts["baseline"],
        ar_coeff=opts["ar"],
        noise_sigma=opts["sigma"],
        hop_decay=opts["decay"],
    )
    settings = netsim.DetectorSettings(
        m=opts["m"],
        retrain_block=opts["block"],
        gamma=opts["gamma"],
        alpha=opts["alpha"],
    )
    cv = _provider(opts, grid_key="mc_grid", reps_key="mc_reps")(
        CritValKind.ONLINE_STANDARD, 1, settings.alpha, settings.gamma
    )
    result = netsim.run_experiment(
        topology,
        scenario,
        settings,
        cv,
        replications=opts["reps"],
        seed=opts["seed"],
        clustered=(mode == "cluster"),
    )
    record = {
        "mode": mode,
        "grid": [rows, cols],
        "attackers": list(scenario.attackers),
        "controller": topology.controller,
        "replications": result.replications,
        "detection_probability": list(result.detection_probability),
        "attacker_adjacent_detection": result.attacker_adjacent_detection(),
        "identification_rate": result.identification_rate,
        "zero_false_positive_rate": result.zero_false_positive_rate,
        "cluster_detection_probability": (
            {str(k): v for k, v in result.cluster_detection_probability.items()}
            if result.cluster_detection_probability is not None
            else None
        ),
        "sample_messages": result.sample_messages,
        "params": {"command": "simulate", **opts},
    }
    _emit(opts["out"], record)
    if opts["heatmap"]:
        grid = np.asarray(result.detection_probability).reshape(rows, cols)
        with open(opts["heatmap"], "w", newline="") as fh:
            writer = csv.writer(fh)
            for row in grid:
                writer.writerow([repr(float(v)) for v in row])
    return 0


_HANDLERS = {
    "critval": _cmd_critval,
    "offline": _cmd_offline,
    "segment": _cmd_segment,
    "trend": _cmd_trend,
    "monitor": _cmd_monitor,
    "simulate": _cmd_simulate,
}


def dispatch(argv: Sequence[str] | None = None) -> int:
    """Parse arguments and run one subcommand; returns the process exit status."""
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # config values become the subcommand's defaults: argparse parses
            # them with each flag's own type, and flags on the command line
            # still override them
            keys = set(vars(args)) - {"command", "config"}
            commands[args.command].set_defaults(**_read_config(args.config, args.command, keys))
            args = parser.parse_args(argv)
        opts = {key: value for key, value in vars(args).items() if key not in ("command", "config")}
        return _HANDLERS[args.command](opts)
    except (CpstreamError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
