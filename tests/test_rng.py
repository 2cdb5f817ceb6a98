import hashlib
import sys
import threading

import numpy as np
import pytest

from cpstream import rng
from cpstream.critvals import (
    CritValKind,
    CritValRequest,
    _kernel,
    _paths,
    build_table,
    replication_stat,
)
from cpstream.rng import _philox_keys, standard_normal_rows, substream

SEEDS = [0, 1, 2**32 + 5, 2**70 + 3]
PREFIXES = [(), (11,), (3, 2**33 + 1)]
LAST = 2**32 - 1


def seed_sequence_keys(seed, prefix, indices):
    return np.array(
        [
            np.random.SeedSequence(entropy=seed, spawn_key=(*prefix, i)).generate_state(
                2, np.uint64
            )
            for i in indices
        ]
    )


class TestBulkKeys:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("prefix", PREFIXES)
    @pytest.mark.parametrize("start", [0, 1000, LAST - 3])
    def test_keys_equal_seed_sequence_state(self, seed, prefix, start):
        keys = _philox_keys(seed, prefix, start, 4)
        assert keys.dtype == np.uint64
        assert np.array_equal(keys, seed_sequence_keys(seed, prefix, range(start, start + 4)))

    def test_negative_entries_refused(self):
        with pytest.raises(ValueError):
            _philox_keys(-1, (), 0, 1)
        with pytest.raises(ValueError):
            _philox_keys(0, (2, -3), 0, 1)


class TestStandardNormalRows:
    @pytest.mark.parametrize("seed, prefix", [(0, ()), (2**70 + 3, (11,)), (9, (3, 2**33 + 1))])
    def test_one_dimensional_rows_equal_substreams(self, seed, prefix):
        out = standard_normal_rows(np.empty((5, 300)), seed, *prefix, start=7)
        for i, row in enumerate(out):
            assert np.array_equal(row, substream(seed, *prefix, 7 + i).standard_normal(300))

    def test_matrix_rows_equal_substreams(self):
        out = standard_normal_rows(np.empty((4, 3, 250)), 5, start=2)
        for i, row in enumerate(out):
            assert np.array_equal(row, substream(5, 2 + i).standard_normal((3, 250)))

    def test_scalar_rows_equal_substreams(self):
        out = standard_normal_rows(np.empty(6), 4, 1)
        assert np.array_equal(out, [substream(4, 1, i).standard_normal() for i in range(6)])

    def test_indices_up_to_the_last_word(self):
        out = standard_normal_rows(np.empty((2, 10)), 1, 7, start=LAST - 1)
        for i, row in enumerate(out):
            assert np.array_equal(row, substream(1, 7, LAST - 1 + i).standard_normal(10))

    def test_index_two_to_the_32_refused(self):
        with pytest.raises(ValueError, match="not below 2\\^32"):
            standard_normal_rows(np.empty((2, 10)), 1, start=LAST)
        with pytest.raises(ValueError, match="not below 2\\^32"):
            standard_normal_rows(np.empty((1, 10)), 1, start=2**32)

    def test_empty_out(self):
        out = np.empty((0, 3, 10))
        assert standard_normal_rows(out, 1, 2) is out

    def test_bad_out_refused(self):
        with pytest.raises(ValueError):
            standard_normal_rows(np.empty((10, 4))[:, ::2], 1)
        with pytest.raises(ValueError):
            standard_normal_rows(np.empty((2, 4), dtype=np.float32), 1)
        with pytest.raises(ValueError):
            standard_normal_rows(np.empty((2, 4)), 1, start=-1)


class TestCpuCount:
    """Rows split over CPUs are the serial rows, bit for bit."""

    # 7 rows of 600 floats, the shortest that are split: 3 CPUs take 2, 2 and 3
    SHAPE = (7, 2, 300)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_same_bits_at_any_cpu_count(self, monkeypatch, cpus):
        monkeypatch.setattr(rng, "_cpus", lambda: cpus)
        real = rng._row_drawer
        threads = set()  # Thread objects: a finished thread's ident may be reused

        def traced():
            threads.add(threading.current_thread())
            return real()

        monkeypatch.setattr(rng, "_row_drawer", traced)
        out = standard_normal_rows(np.empty(self.SHAPE), 3, 7, start=5)
        assert len(threads) == cpus
        for i, row in enumerate(out):
            assert np.array_equal(row, substream(3, 7, 5 + i).standard_normal(self.SHAPE[1:]))

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_failure_is_reraised_and_every_thread_joined(self, monkeypatch, failing):
        caller = threading.current_thread()
        real = rng._row_drawer

        class Failure(Exception):
            pass

        def failing_drawer():
            if (threading.current_thread() is caller) == (failing == "caller"):
                raise Failure
            return real()

        monkeypatch.setattr(rng, "_cpus", lambda: 2)
        monkeypatch.setattr(rng, "_row_drawer", failing_drawer)
        before = threading.active_count()
        with pytest.raises(Failure):
            standard_normal_rows(np.empty(self.SHAPE), 3)
        assert threading.active_count() == before

    def test_more_workers_than_cpus_with_frequent_switches(self, monkeypatch):
        monkeypatch.setattr(rng, "_cpus", lambda: 1)
        serial = standard_normal_rows(np.empty((40, 600)), 2)
        monkeypatch.setattr(rng, "_cpus", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            split = standard_normal_rows(np.empty((40, 600)), 2)
        finally:
            sys.setswitchinterval(interval)
        assert split.tobytes() == serial.tobytes()

    @pytest.mark.parametrize(
        "cpus, shape",
        [(1, (7, 600)), (3, (7, 599)), (3, (7, 2, 299)), (3, (1, 600)), (3, (0, 600))],
        ids=["one-cpu", "short-rows", "short-matrix-rows", "one-row", "no-rows"],
    )
    def test_no_thread_on_one_cpu_below_the_crossover_or_for_one_row(
        self, monkeypatch, cpus, shape
    ):
        def refused(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(rng, "_cpus", lambda: cpus)
        monkeypatch.setattr(threading, "Thread", refused)
        out = standard_normal_rows(np.empty(shape), 4, 1)
        for i, row in enumerate(out):
            assert np.array_equal(row, substream(4, 1, i).standard_normal(shape[1:]))


class TestBlockReplications:
    @pytest.mark.parametrize(
        "kind, d, gamma, horizon",
        [
            (CritValKind.OFFLINE_MAX, 2, 0.0, None),
            (CritValKind.ONLINE_STANDARD, 3, 0.25, None),
            (CritValKind.ONLINE_RATIO, 2, 0.45, 1.5),
        ],
    )
    def test_block_rows_equal_single_replications(self, kind, d, gamma, horizon):
        req = CritValRequest(
            kind=kind, alpha=0.05, d=d, gamma=gamma, grid_steps=120,
            replications=1000, horizon_T=horizon, seed=6,
        )
        block = _kernel(req)(_paths(req, 40, 47))
        assert block.shape == (7,)
        assert np.array_equal(block, [replication_stat(req, rep) for rep in range(40, 47)])

    def test_offline_rows_equal_the_one_substream_formula(self):
        req = CritValRequest(
            kind=CritValKind.OFFLINE_MAX, alpha=0.05, d=2, grid_steps=150,
            replications=1000, seed=6,
        )
        t = np.arange(1, 151) / 150
        for rep, stat in zip(range(40, 47), _kernel(req)(_paths(req, 40, 47))):
            increments = substream(6, rep).standard_normal((2, 150)) * np.sqrt(1 / 150)
            w = np.cumsum(increments, axis=1)
            bridge = w - t * w[:, -1:]
            assert stat == np.max(np.sum(bridge * bridge, axis=0))


def test_reduced_table_is_byte_identical_to_the_per_replication_build(tmp_path):
    # every kind, d 1-3 and every table gamma, at grid 200 and 1000 replications;
    # the hash is that of the file built one substream per replication
    path = tmp_path / "table.csv"
    build_table(path, grid_steps=200, replications=1000)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "366c3435970cb5b5535b759f3127e72b8b71dfff8c3be076b147d80a87df9cbf"
