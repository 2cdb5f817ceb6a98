import hashlib

import numpy as np
import pytest

from cpstream.critvals import (
    CritValKind,
    CritValRequest,
    _paths,
    _stats,
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
        block = _stats(req, _paths(req, 40, 47))
        assert block.shape == (7,)
        assert np.array_equal(block, [replication_stat(req, rep) for rep in range(40, 47)])

    def test_offline_rows_equal_the_one_substream_formula(self):
        req = CritValRequest(
            kind=CritValKind.OFFLINE_MAX, alpha=0.05, d=2, grid_steps=150,
            replications=1000, seed=6,
        )
        t = np.arange(1, 151) / 150
        for rep, stat in zip(range(40, 47), _stats(req, _paths(req, 40, 47))):
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
