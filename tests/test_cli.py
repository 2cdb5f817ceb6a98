import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import cpstream
from cpstream import cli, critvals, offline
from cpstream.cli import dispatch
from cpstream.critvals import CritValKind, build_table
from cpstream.rng import substream
from cpstream.timeseries import TimeSeries, save_csv

FAST = ["--grid", "300", "--reps", "2000"]


def schema(name):
    path = resources.files("cpstream") / "schemas" / f"{name}.schema.json"
    return json.loads(path.read_text())


def validate(record, name):
    jsonschema.validate(record, schema(name))


@pytest.fixture()
def run(capsys):
    def invoke(*argv, expect=0):
        status = dispatch(list(argv))
        captured = capsys.readouterr()
        assert status == expect, captured.err
        return captured.out

    return invoke


@pytest.fixture(scope="module")
def steps_csv(tmp_path_factory):
    # two 5-sigma level shifts at 100 and 200
    gen = substream(0, 40)
    x = gen.standard_normal(300)
    x[100:200] += 5.0
    path = tmp_path_factory.mktemp("fixtures") / "steps.csv"
    save_csv(TimeSeries(x), path)
    return str(path)


@pytest.fixture(scope="module")
def flat_csv(tmp_path_factory):
    gen = substream(1, 41)
    path = tmp_path_factory.mktemp("fixtures") / "flat.csv"
    save_csv(TimeSeries(gen.standard_normal(450)), path)
    return str(path)


@pytest.fixture(scope="module")
def one_step_csv(tmp_path_factory):
    gen = substream(2, 42)
    x = gen.standard_normal(400)
    x[150:] += 5.0
    path = tmp_path_factory.mktemp("fixtures") / "one_step.csv"
    save_csv(TimeSeries(x), path)
    return str(path)


class TestCritvalCommand:
    def test_deterministic_output(self, run):
        argv = ["critval", "--kind", "offline", "--d", "1", "--alpha", "0.05", "--seed", "7", *FAST]
        first = run(*argv)
        second = run(*argv)
        assert first == second
        record = json.loads(first)
        validate(record, "critval")
        assert record["kind"] == "offline-max"
        assert 1.0 < record["value"] < 3.0

    def test_ratio_kind(self, run):
        out = run(
            "critval", "--kind", "ratio", "--d", "1", "--alpha", "0.05",
            "--gamma", "0.25", "--horizon", "5", "--grid", "150", "--reps", "1500",
        )
        record = json.loads(out)
        validate(record, "critval")
        assert record["gamma"] == 0.25

    def test_tail_count_without_warning(self, capsys):
        status = dispatch(["critval", "--alpha", "0.05", "--seed", "7", *FAST])
        captured = capsys.readouterr()
        assert status == 0
        assert captured.err == ""
        record = json.loads(captured.out)
        validate(record, "critval")
        # the 0.95 quantile of 2000 statistics lies between order statistics 1900 and 1901
        assert record["tail_count"] == 100

    def test_thin_tail_warns_with_its_count(self, capsys):
        # alpha * reps = 5 < 10
        status = dispatch(["critval", "--alpha", "0.005", "--grid", "100", "--reps", "1000"])
        captured = capsys.readouterr()
        assert status == 0
        record = json.loads(captured.out)
        validate(record, "critval")
        assert record["tail_count"] == 5
        [warning] = captured.err.strip().splitlines()
        assert warning.startswith("warning: thin tail: only 5 of 1000 simulated statistics")

    def test_build_table(self, run, tmp_path):
        table = tmp_path / "table.csv"
        out = run(
            "critval", "--build-table", str(table), "--grid", "150", "--reps", "1000",
        )
        lines = [json.loads(line) for line in out.strip().splitlines()]
        # 3 alphas x (offline: 3 dims + online kinds: 3 dims x 4 gammas each)
        assert len(lines) == 3 * (3 + 2 * 3 * 4)
        for record in lines:
            validate(record, "critval")
        assert table.exists()


class TestOfflineCommand:
    def test_multivariate_columns(self, run, tmp_path):
        gen = substream(3, 43)
        values = gen.standard_normal((200, 2))
        values[120:, 1] += 5.0
        path = tmp_path / "two.csv"
        save_csv(TimeSeries(values), path)
        out = run(
            "offline", "--input", str(path), "--columns", "2,3", "--alpha", "0.05", *FAST
        )
        record = json.loads(out)
        validate(record, "offline")
        assert record["reject"] is True
        assert record["params"]["d"] == 2
        assert abs(record["cps"][0] - 120) <= 5

    def test_detects_single_step(self, run, one_step_csv):
        out = run("offline", "--input", one_step_csv, "--alpha", "0.05", *FAST)
        record = json.loads(out)
        validate(record, "offline")
        assert record["reject"] is True
        assert len(record["cps"]) == 1
        assert abs(record["cps"][0] - 150) <= 5

    def test_quiet_series(self, run, flat_csv):
        record = json.loads(run("offline", "--input", flat_csv, "--alpha", "0.05", *FAST))
        validate(record, "offline")
        assert record["cps"] == []
        assert record["cp_fraction"] is None


class TestSegmentCommand:
    def test_two_changepoints_found(self, run, steps_csv):
        out = run("segment", "--input", steps_csv, "--alpha", "0.05", *FAST)
        record = json.loads(out)
        validate(record, "segment")
        assert len(record["cps"]) == 2
        assert abs(record["cps"][0] - 100) <= 10
        assert abs(record["cps"][1] - 200) <= 10
        assert record["params"]["alpha"] == 0.05

    def test_deterministic_bytes(self, run, steps_csv):
        argv = ["segment", "--input", steps_csv, "--alpha", "0.05", *FAST]
        assert run(*argv) == run(*argv)

    def test_full_series_tested_once(self, run, tmp_path, monkeypatch):
        x = substream(2, 40).standard_normal(2000)
        x[1000:] += 3.0
        path = tmp_path / "one_step.csv"
        save_csv(TimeSeries(x), path)
        windows = []
        real = offline.offline_test

        def counted(s, alpha, critval):
            windows.append((s.lo, s.hi))
            return real(s, alpha, critval)

        monkeypatch.setattr(offline, "offline_test", counted)
        record = json.loads(run("segment", "--input", str(path), *FAST))
        [cp] = record["cps"]
        assert abs(cp - 1000) <= 10
        # the full series, then each side of its change point
        assert windows == [(1, 2000), (1, cp), (cp + 1, 2000)]
        cv = critvals.MonteCarloProvider(seed=0, grid_steps=300, replications=2000)(
            CritValKind.OFFLINE_MAX, 1, 0.05
        )
        assert record["statistic"] == real(TimeSeries(x), 0.05, cv).statistic_m

    def test_series_too_short_to_split_tests_nothing(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "short.csv"
        save_csv(TimeSeries(substream(3, 40).standard_normal(39)), path)
        windows = []
        monkeypatch.setattr(offline, "offline_test", lambda *args: windows.append(args))
        assert dispatch(["segment", "--input", str(path), *FAST]) == 1
        assert "too short to segment (need 40)" in capsys.readouterr().err
        assert windows == []


class TestTrendCommand:
    def test_interval_verdict(self, run, one_step_csv):
        out = run("trend", "--input", one_step_csv, "--at", "151", "--mode", "interval")
        record = json.loads(out)
        validate(record, "trend")
        assert record["direction"] == "up"
        assert record["mode"] == "interval"

    def test_point_verdict(self, run, one_step_csv):
        record = json.loads(run("trend", "--input", one_step_csv, "--at", "155", "--mode", "point"))
        validate(record, "trend")
        assert record["mode"] == "point"


class TestMonitorCommand:
    def test_quiet_stream_no_events(self, run, flat_csv):
        out = run(
            "monitor", "--input", flat_csv, "--detector", "standard", "--alpha", "0.05",
            "--gamma", "0", "--m", "100", "--window", "100", *FAST,
        )
        lines = [json.loads(line) for line in out.strip().splitlines()]
        for line in lines:
            validate(line, "monitor-line")
        assert lines[0]["type"] == "config"
        assert all(line["type"] != "event" for line in lines[1:])

    def test_step_stream_emits_event(self, run, one_step_csv, tmp_path):
        flag = tmp_path / "hook-ran"
        out = run(
            "monitor", "--input", one_step_csv, "--m", "100", "--window", "100",
            "--on-scale-up", f"touch {flag}", *FAST,
        )
        lines = [json.loads(line) for line in out.strip().splitlines()]
        for line in lines:
            validate(line, "monitor-line")
        events = [line for line in lines if line["type"] == "event"]
        assert len(events) == 1
        assert events[0]["action"] == "scale-up"
        assert events[0]["index"] >= 151
        assert events[0]["training"] == [1, 100]
        assert flag.exists()

    def test_stdin_streaming(self, flat_csv, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(open(flat_csv).read()))
        status = dispatch(["monitor", "--input", "-", "--m", "100", "--window", "100", *FAST])
        assert status == 0
        out = capsys.readouterr().out
        assert json.loads(out.splitlines()[0])["type"] == "config"

    @pytest.mark.parametrize("width", [1, 2])
    def test_float_feed_matches_list_feed(self, capsys, monkeypatch, tmp_path, width):
        gen = substream(3, 43)
        x = gen.standard_normal((400, width))
        x[150:] += 5.0
        path = tmp_path / "stream.csv"
        save_csv(TimeSeries(x), path)
        argv = ["monitor", "--input", str(path), "--m", "100", "--window", "100", *FAST]
        real = cli.run_monitor

        def runs(as_lists):
            fed = []

            def recording(stream, config, on_event):
                def samples():
                    for sample in stream:
                        fed.append(type(sample))
                        yield [sample] if as_lists and isinstance(sample, float) else sample

                return real(samples(), config, on_event)

            monkeypatch.setattr(cli, "run_monitor", recording)
            assert dispatch(argv) == 0
            return capsys.readouterr().out, set(fed)

        floats, fed = runs(as_lists=False)
        lists, _ = runs(as_lists=True)
        assert fed == ({float} if width == 1 else {list})
        assert '"type": "event"' in floats
        assert floats == lists

    @pytest.mark.parametrize("trend_dim", ["0", "2"])
    def test_bad_trend_dim_fails_before_monitoring(self, flat_csv, capsys, monkeypatch, trend_dim):
        simulated = []
        real = critvals.compute_critval

        def counted(*args, **kwargs):
            simulated.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(critvals, "compute_critval", counted)
        argv = ["monitor", "--input", flat_csv, "--trend-dim", trend_dim, *FAST]
        assert dispatch(argv) == 1
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith("error: trend_dim ")
        assert all(json.loads(out)["type"] != "event" for out in captured.out.splitlines())
        assert simulated == []

    def test_stream_shorter_than_training_is_reported(self):
        # in a fresh interpreter, where the warning reaches stderr through
        # logging's last-resort handler
        src = str(Path(cpstream.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "cpstream.cli", "monitor", "--input", "-", *FAST],
            input="value\n1.0\n2.0\n", capture_output=True, text=True,
            env={"PYTHONPATH": src}, check=False,
        )
        assert proc.returncode == 0
        assert [json.loads(line)["type"] for line in proc.stdout.splitlines()] == ["config"]
        assert proc.stderr.splitlines() == [
            "stream ended after 2 samples, before the 200 needed to train (m_min): "
            "nothing was monitored"
        ]

    def test_config_file_precedence(self, run, flat_csv, tmp_path):
        cfg = tmp_path / "monitor.cfg"
        cfg.write_text("m = 120\nwindow = 100\nalpha = 0.1\n")
        out = run(
            "monitor", "--input", flat_csv, "--config", str(cfg), "--alpha", "0.05", *FAST,
        )
        params = json.loads(out.splitlines()[0])["params"]
        assert params["m"] == 120  # from config file
        assert params["alpha"] == 0.05  # flag wins
        assert params["window"] == 100

    @pytest.mark.parametrize("flag", ["--on-scale-up", "--on-scale-down"])
    @pytest.mark.parametrize("template", ["echo {nope}", "echo 'unbalanced"])
    def test_bad_hook_template_fails_before_output(self, capsys, flat_csv, flag, template):
        status = dispatch(["monitor", "--input", flat_csv, flag, template, *FAST])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag} ")
        assert len(captured.err.splitlines()) == 1

    def test_unknown_config_key_rejected(self, run, flat_csv, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\n")
        run("monitor", "--input", flat_csv, "--config", str(cfg), expect=1)


class TestSimulateCommand:
    def test_small_experiment(self, run, tmp_path):
        heatmap = tmp_path / "heat.csv"
        out = run(
            "simulate", "--grid", "6x6", "--attackers", "2", "--seed", "3",
            "--mode", "per-node", "--reps", "2", "--m", "150", "--block", "50",
            "--start", "301", "--horizon", "450",
            "--mc-grid", "300", "--mc-reps", "2000", "--heatmap", str(heatmap),
        )
        record = json.loads(out)
        validate(record, "simulate")
        assert record["grid"] == [6, 6]
        assert len(record["attackers"]) == 2
        assert len(record["detection_probability"]) == 36
        assert record["attacker_adjacent_detection"] >= 0.5
        rows = heatmap.read_text().strip().splitlines()
        assert len(rows) == 6
        assert all(len(row.split(",")) == 6 for row in rows)

    def test_cluster_mode(self, run):
        out = run(
            "simulate", "--grid", "4x4", "--attackers", "1", "--seed", "1",
            "--mode", "cluster", "--reps", "1", "--m", "150", "--block", "50",
            "--start", "301", "--horizon", "450", "--cluster-block", "2",
            "--mc-grid", "300", "--mc-reps", "2000",
        )
        record = json.loads(out)
        validate(record, "simulate")
        assert record["mode"] == "cluster"
        assert record["cluster_detection_probability"] is not None
        assert record["sample_messages"] > 0

    def test_bad_grid_spec(self, run):
        run("simulate", "--grid", "10by10", expect=1)

    @pytest.mark.parametrize("reps", ["0", "-2"])
    def test_nonpositive_reps_rejected(self, capsys, reps):
        argv = ["simulate", "--grid", "3x3", "--attackers", "1", "--reps", reps,
                "--mc-grid", "300", "--mc-reps", "2000"]
        assert dispatch(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --reps must be at least 1")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--mode", "cluster", "--cluster-block", "0"], "error: block must be at least 1"),
            (["--m", "600", "--horizon", "600"],
             "error: --horizon 600 leaves nothing to monitor after --m 600"),
            (["--attackers", "0"], "error: n_attackers must be at least 1, got 0"),
            (["--attackers", "-1"], "error: n_attackers must be at least 1, got -1"),
            (["--grid", "30x30", "--attackers", "900"],
             "error: n_attackers must be at most 899 (every node but the controller), got 900"),
        ],
        ids=["cluster-block-0", "m-equals-horizon", "attackers-0", "attackers-negative",
             "attackers-above-nodes"],
    )
    def test_bad_setting_rejected_before_simulating(self, capsys, monkeypatch, argv, message):
        replications = []
        real = critvals.replication_stats

        def counted(request, lo, hi):
            replications.extend(range(lo, hi))
            return real(request, lo, hi)

        monkeypatch.setattr(critvals, "replication_stats", counted)
        status = dispatch(["simulate", "--grid", "4x4", "--attackers", "1", "--reps", "1",
                           "--mc-grid", "300", "--mc-reps", "2000", *argv])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        assert captured.err.strip() == message
        assert replications == []


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            dispatch(["segment", "--no-such-flag"])
        assert excinfo.value.code == 2

    def test_help_exits_zero_and_lists_flags(self, capsys):
        for command, flags in {
            "critval": ["--kind", "--d", "--alpha", "--seed"],
            "offline": ["--input", "--alpha"],
            "segment": ["--input", "--alpha", "--min-seg"],
            "trend": ["--input", "--at"],
            "monitor": ["--detector", "--gamma", "--alpha", "--m", "--window", "--config", "--seed"],
            "simulate": ["--grid", "--attackers", "--seed", "--mode", "--reps"],
        }.items():
            with pytest.raises(SystemExit) as excinfo:
                dispatch([command, "--help"])
            assert excinfo.value.code == 0
            help_text = capsys.readouterr().out
            for flag in flags:
                assert flag in help_text

    def test_missing_input_is_domain_error(self, run):
        run("offline", "--input", "/nonexistent.csv", expect=1)
        run("offline", expect=1)

    def test_missing_monitor_input_writes_nothing(self, run, tmp_path):
        out_path = tmp_path / "report.jsonl"
        assert run("monitor", "--input", str(tmp_path / "missing.csv"), expect=1) == ""
        run("monitor", "--input", str(tmp_path / "missing.csv"), "--out", str(out_path), expect=1)
        assert not out_path.exists()

    def test_bad_column_is_domain_error(self, run, flat_csv):
        run("offline", "--input", flat_csv, "--columns", "9", expect=1)

    @pytest.mark.parametrize("columns, token", [("2,x", "x"), ("0", "0"), ("1,-2", "-2")])
    def test_bad_columns_flag_named_before_input_is_read(self, columns, token, capsys, tmp_path):
        # the input file is missing, so an error naming the flag shows it was checked first
        argv = ["offline", "--input", str(tmp_path / "missing.csv"), "--columns", columns]
        assert dispatch(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            f"error: --columns: {token!r} is not a 1-based column number"
        ]

    def test_output_file(self, run, flat_csv, tmp_path):
        out_path = tmp_path / "report.json"
        stdout = run(
            "offline", "--input", flat_csv, "--alpha", "0.05", *FAST, "--out", str(out_path),
        )
        assert stdout == ""
        validate(json.loads(out_path.read_text()), "offline")


MIN_BUDGET = ["--grid", "100", "--reps", "1000"]
BUDGET_PARAMS = {"seed": 0, "grid": 100, "reps": 1000, "table": None, "out": None}
MACD_PARAMS = {"p1": 9, "p2": 12, "p3": 26, "h": 10}


class TestEchoedParams:
    """The full ``params`` echo of each subcommand run with minimal flags."""

    def test_critval(self, run):
        record = json.loads(run("critval", *MIN_BUDGET))
        assert record["params"] == {
            "command": "critval", "kind": "offline", "d": 1, "alpha": 0.05, "gamma": 0.0,
            "horizon": 10.0, "seed": 0, "grid": 100, "reps": 1000, "build_table": None,
            "out": None,
        }

    def test_offline(self, run, flat_csv):
        record = json.loads(run("offline", "--input", flat_csv, *MIN_BUDGET))
        assert record["params"] == {
            "command": "offline", "n": 450, "d": 1, "input": flat_csv, "columns": None,
            "alpha": 0.05, **BUDGET_PARAMS,
        }

    def test_segment(self, run, steps_csv):
        record = json.loads(run("segment", "--input", steps_csv, *MIN_BUDGET))
        assert record["params"] == {
            "command": "segment", "n": 300, "d": 1, "input": steps_csv, "columns": None,
            "alpha": 0.05, "min_seg": 20, **BUDGET_PARAMS,
        }

    def test_trend(self, run, one_step_csv):
        record = json.loads(run("trend", "--input", one_step_csv, "--at", "151"))
        assert record["params"] == {
            "command": "trend", "input": one_step_csv, "columns": None, "at": 151,
            "mode": "interval", **MACD_PARAMS, "dim": 1, "out": None,
        }

    def test_monitor(self, run, flat_csv):
        out = run("monitor", "--input", flat_csv, *MIN_BUDGET)
        assert json.loads(out.splitlines()[0])["params"] == {
            "command": "monitor", "input": flat_csv, "columns": None, "detector": "standard",
            "alpha": 0.05, "gamma": 0.0, "m": 200, "window": 200, "quiet_gap": 25,
            "min_seg": 20, **MACD_PARAMS, "trend_dim": 1, **BUDGET_PARAMS,
            "on_scale_up": None, "on_scale_down": None,
        }

    def test_simulate(self, run):
        out = run(
            "simulate", "--grid", "3x3", "--attackers", "1", "--reps", "1", "--separation", "1",
            "--m", "150", "--start", "301", "--horizon", "350",
            "--mc-grid", "100", "--mc-reps", "1000",
        )
        assert json.loads(out)["params"] == {
            "command": "simulate", "grid": "3x3", "attackers": 1, "seed": 0,
            "mode": "per-node", "reps": 1, "alpha": 0.05, "gamma": 0.0, "m": 150,
            "block": 50, "start": 301, "horizon": 350, "injection_rate": 3.0, "ticks": 1.0,
            "baseline": 10.0, "ar": 0.3, "sigma": 1.0, "decay": 0.4, "separation": 1,
            "cluster_block": 2, "mc_grid": 100, "mc_reps": 1000, "table": None, "out": None,
            "heatmap": None,
        }


class TestMalformedStdin:
    @pytest.mark.parametrize(
        "text, extra, message",
        [
            ("a,b\n1,2\n3\n", [], "<stdin>: row 3 has no column 2"),
            ("value\n1\nnan\n", [], "<stdin>: non-numeric value 'nan' at row 3, column 1"),
            ("value\n1\n\n2\nabc\n", [], "<stdin>: non-numeric value 'abc' at row 5, column 1"),
            ("value\n1\n2\n", ["--columns", "3"], "<stdin>: row 2 has no column 3"),
            ("1\n2,3\n4,5,6\n", [], "<stdin>: row 2 has 2 cells, expected 1"),
        ],
        ids=["short-row", "nan", "abc", "column-out-of-range", "wide-row"],
    )
    def test_bad_row_exits_1_naming_row_and_column(
        self, text, extra, message, capsys, monkeypatch
    ):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        status = dispatch(["monitor", "--input", "-", *extra, *MIN_BUDGET])
        err = capsys.readouterr().err
        assert status == 1
        assert err.strip().splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("columns, token", [("2,x", "x"), ("0", "0")])
    def test_bad_columns_flag_exits_before_config_line(self, columns, token, capsys, monkeypatch):
        import io

        stdin = io.StringIO("a,b\n1,2\n3,4\n")
        monkeypatch.setattr("sys.stdin", stdin)
        status = dispatch(["monitor", "--input", "-", "--columns", columns, *MIN_BUDGET])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            f"error: --columns: {token!r} is not a 1-based column number"
        ]
        assert stdin.tell() == 0


@pytest.fixture(scope="module")
def table_csv(tmp_path_factory):
    """The full critical-value table at the MIN_BUDGET budget and seed 0."""
    folder = tmp_path_factory.mktemp("table")
    path = folder / "table.csv"
    argv = ["critval", "--build-table", str(path), "--seed", "0", *MIN_BUDGET]
    assert dispatch([*argv, "--out", str(folder / "records.jsonl")]) == 0
    return str(path)


class TestTableFlag:
    """``--table`` serves the keys it holds as stored and simulates the rest."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["offline", "--input", "one_step_csv"],
            ["segment", "--input", "steps_csv"],
            ["monitor", "--input", "one_step_csv", "--m", "100", "--window", "100"],
            ["simulate", "--grid", "3x3", "--attackers", "1", "--reps", "1",
             "--separation", "1", "--m", "150", "--start", "301", "--horizon", "350"],
        ],
        ids=["offline", "segment", "monitor", "simulate"],
    )
    def test_same_report_as_simulating(self, run, request, table_csv, argv):
        # a table built at the command's own seed and budget holds exactly
        # what the command would simulate for its keys
        argv = [request.getfixturevalue(a) if a.endswith("_csv") else a for a in argv]
        budget = ["--mc-grid", "100", "--mc-reps", "1000"] if argv[0] == "simulate" else MIN_BUDGET
        plain = run(*argv, *budget)
        tabled = run(*argv, *budget, "--table", table_csv)
        assert f'"table": {json.dumps(table_csv)}' in tabled
        assert tabled.replace(f'"table": {json.dumps(table_csv)}', '"table": null') == plain
        if argv[0] == "monitor":
            assert '"type": "event"' in plain

    def test_tabulated_value_is_served(self, run, one_step_csv, tmp_path):
        path = tmp_path / "seed1.csv"
        stored = build_table(
            path, kinds=[CritValKind.OFFLINE_MAX], dims=(1,), alphas=(0.05,),
            grid_steps=100, replications=1000, seed=1,
        )(CritValKind.OFFLINE_MAX, 1, 0.05)
        argv = ["offline", "--input", one_step_csv, *MIN_BUDGET]
        simulated = json.loads(run(*argv))["critval"]
        served = json.loads(run(*argv, "--table", str(path)))["critval"]
        assert served == stored.value
        assert served != simulated

    @pytest.mark.parametrize(
        "value, problem",
        [
            ("abc", "row 3, column 'value': could not convert string to float: 'abc'"),
            ("-1", "row 3, column 'value': critical value must be positive"),
            (None, "row 1 has no column 'kind'"),
        ],
        ids=["non-numeric", "non-positive", "missing-column"],
    )
    def test_malformed_table_exits_1_naming_row_and_column(
        self, capsys, table_csv, flat_csv, tmp_path, value, problem
    ):
        if value is None:
            path = flat_csv  # a data CSV, not a table
        else:
            lines = open(table_csv).read().splitlines(keepends=True)
            cells = lines[2].split(",")
            cells[8] = value
            lines[2] = ",".join(cells)
            path = tmp_path / "bad.csv"
            path.write_text("".join(lines))
        status = dispatch(["offline", "--input", flat_csv, *MIN_BUDGET, "--table", str(path)])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {path}: {problem}"]
