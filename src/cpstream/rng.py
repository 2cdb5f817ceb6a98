"""Deterministic substream derivation for reproducible simulations.

Every stochastic component draws from a Philox (counter-based) generator
keyed by a root seed plus an integer path, e.g. (replication,) or
(replication, node). Streams depend only on (seed, path), never on the
order in which they are consumed, so simulations give identical results at
any level of parallelism (Salmon et al., "Parallel random numbers: as easy
as 1, 2, 3", SC 2011).

:func:`substream` builds one such generator. :func:`standard_normal_rows`
fills many consecutive substreams at once: a path's Philox key is the
``SeedSequence`` hash of its words, and that hash is the same few uint32
operations for every path, so the keys of a whole index column come from
one vectorised pass. One Philox generator is then re-keyed per row, which
costs a state assignment of Python ints instead of a new ``SeedSequence``
and ``Philox``; that loop is :func:`_row_drawer`'s, one per thread.

Rows of at least ``_PARALLEL_ROW_FLOATS`` floats are split into contiguous
ranges, one per CPU in the process's affinity mask (:func:`_cpus`), which
:func:`_in_ranges` runs on the calling thread and a thread each. A row is
pure in its key, so the rows are the same at any number of CPUs. The
Monte-Carlo critical values split their replications with the same helper.
"""

from __future__ import annotations

import math
import os
import threading
from typing import Callable, Iterator

import numpy as np

__all__ = ["substream", "standard_normal_rows"]

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx); the
# pool holds four uint32 words and Philox takes its key as two uint64s
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF

# Floats per row (a trace row, or d x path steps of a Monte-Carlo path) from
# which rows are split over CPUs. Re-keying a row holds the GIL (about
# 0.5 us), and every GIL hand-over between threads costs a wake-up; below this
# length the row's GIL-free draw (and, for a path, its kernel) is too short
# to repay that. Two workers on two CPUs, against one: Monte-Carlo paths
# 0.97x at 512 floats, 1.05x at 550, 1.28x at 600 and 1.5x at 1 000 (timed
# when a re-key took 2 us); 900 trace rows of 600 floats 1.2-1.6x.
_PARALLEL_ROW_FLOATS = 600


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream addressed by ``path`` under ``seed``."""
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(seq))


def _words(value: int) -> list[int]:
    """The little-endian uint32 words SeedSequence makes of a non-negative int."""
    value = int(value)
    if value < 0:
        raise ValueError(f"seed and path entries must be non-negative, got {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hash_consts(init: int, mult: int) -> Iterator[int]:
    """The running hash constant of a SeedSequence pass: init, init*mult, ... (mod 2^32)."""
    const = init
    while True:
        yield const
        const = const * mult & _MASK32


def _hashmix(word: int, consts: Iterator[int]) -> int:
    const = next(consts)
    word = (word ^ const) * (const * _MULT_A & _MASK32) & _MASK32
    return word ^ word >> 16


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def _philox_keys(seed: int, prefix: tuple[int, ...], start: int, n: int) -> np.ndarray:
    """(n, 2) uint64 keys of the substreams (seed, *prefix, start + i), i < n.

    Row i equals ``SeedSequence(entropy=seed, spawn_key=(*prefix, start + i))
    .generate_state(2, np.uint64)``. The entropy words before the index (the
    seed, padded to the pool size as spawn keys require, then the prefix) are
    the same for every row, so the pool they leave is hashed once in Python
    ints; the index column is then mixed into it and hashed out to the state
    as (pool word, row) uint32 arrays, each pool word with its own constants.

    Raises:
        ValueError: an index at or above 2^32 (it would hash as two words).
    """
    if start + n > 2**32:
        raise ValueError(f"substream index {start + n - 1} is not below 2^32")
    words = _words(seed)
    words += [0] * (_POOL_SIZE - len(words))
    words += [w for p in prefix for w in _words(p)]
    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = [_hashmix(w, consts) for w in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for w in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(w, consts))

    def column(values) -> np.ndarray:
        return np.array(list(values), dtype=np.uint32)[:, None]

    def chain(init: int, mult: int) -> tuple[np.ndarray, np.ndarray]:
        # word j of a pass XORs constant j and multiplies by constant j + 1
        seq = _hash_consts(init, mult)
        c = [next(seq) for _ in range(_POOL_SIZE + 1)]
        return column(c[:-1]), column(c[1:])

    shift = np.uint32(16)
    index = np.arange(start, start + n, dtype=np.uint64).astype(np.uint32)
    xor, mult = chain(next(consts), _MULT_A)
    hashed = (index ^ xor) * mult
    hashed ^= hashed >> shift
    mixed = column(_MIX_MULT_L * p & _MASK32 for p in pool) - np.uint32(_MIX_MULT_R) * hashed
    mixed ^= mixed >> shift
    xor, mult = chain(_INIT_B, _MULT_B)
    state = (mixed ^ xor) * mult
    state ^= state >> shift
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _in_ranges(
    work: Callable[[int, int], Iterator[None]], n: int, row_floats: int, unit: int = 1
) -> None:
    """Exhaust ``work(lo, hi)`` over ranges of whole ``unit``-row blocks that cover rows 0..n-1.

    One range per CPU, or one in all when a row of ``row_floats`` floats is
    shorter than ``_PARALLEL_ROW_FLOATS``; the first runs on this thread,
    each other on a thread of its own. ``work`` yields after each unit of
    work (a block, a range). Once any range has raised, the others stop at
    their next yield; every thread is joined before this returns, and the
    first exception raised is re-raised.
    """
    blocks = -(-n // unit)
    workers = max(1, min(_cpus(), blocks)) if row_floats >= _PARALLEL_ROW_FLOATS else 1
    bounds = [min(blocks * i // workers * unit, n) for i in range(workers + 1)]
    errors = []

    def run(lo: int, hi: int) -> None:
        try:
            for _ in work(lo, hi):
                if errors:
                    return
        except BaseException as exc:
            errors.append(exc)

    threads = []
    try:
        for lo, hi in zip(bounds[1:], bounds[2:]):
            thread = threading.Thread(target=run, args=(lo, hi))
            thread.start()
            threads.append(thread)
        run(bounds[0], bounds[1])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def standard_normal_rows(out: np.ndarray, seed: int, *prefix: int, start: int = 0) -> np.ndarray:
    """Fill row i of ``out`` from the substream (seed, *prefix, start + i); return ``out``.

    Row i holds exactly what ``substream(seed, *prefix, start + i)
    .standard_normal(out.shape[1:])`` draws. Rows of at least
    ``_PARALLEL_ROW_FLOATS`` floats are drawn in one contiguous range per CPU
    (see the module docstring); the result does not depend on how many.

    Raises:
        ValueError: ``out`` is not a C-contiguous float64 array with at least
            one axis; an index at or above 2^32 (it would hash as two words);
            or a negative seed, prefix entry or start.
    """
    if out.dtype != np.float64 or not out.flags.c_contiguous or out.ndim < 1:
        raise ValueError("out must be a C-contiguous float64 array with at least one axis")
    n = out.shape[0]
    if start < 0:
        raise ValueError(f"start must be non-negative, got {start}")
    keys = _philox_keys(seed, prefix, start, n)

    def draw(lo: int, hi: int) -> Iterator[None]:
        _row_drawer()(out[lo:hi], keys[lo:hi])
        yield

    _in_ranges(draw, n, math.prod(out.shape[1:]))
    return out


def _row_drawer() -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """A function that fills row i of a C-contiguous float64 ``out`` from Philox key ``keys[i]``.

    Row i holds what a fresh generator under that key draws first. The
    function re-keys one Philox generator of its own per row, so it serves
    one thread at a time; numpy draws each row with the GIL released.
    """
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    # a fresh generator's state, counter 0 and an empty buffer, under each
    # row's key; its words as Python ints, which the setter reads faster
    # than numpy scalars
    state = bitgen.state
    philox = state["state"]
    philox["counter"] = philox["counter"].tolist()
    state["buffer"] = state["buffer"].tolist()

    def draw(out: np.ndarray, keys: np.ndarray) -> np.ndarray:
        # a row's draws fill it in C order, so each row may be drawn flat
        for row, key in zip(out.reshape(len(out), math.prod(out.shape[1:])), keys.tolist()):
            philox["key"] = key
            bitgen.state = state
            gen.standard_normal(out=row)
        return out

    return draw
