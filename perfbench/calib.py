"""Machine-speed calibration: a fixed reference kernel timed next to every operation.

The benchmark runs on shared virtual machines whose speed drifts by a
fifth or more over tens of seconds, with the same inputs and the same
code. That drift would swamp any change in the program, so the end-to-end
set-up and operation times are calibrated: the harness times
:func:`reference`, a fixed computation that uses no cpstream code, right
before and right after each of them, and divides the time by the mean of
the two. Multiplied by ``NOMINAL_S`` the ratio reads as seconds at the
machine's nominal speed.

The kernel mixes what cpstream spends its time on: an interpreted loop
over floats (the monitor loop), many numpy calls on a few hundred values
(the per-sample detector, segmentation), normal draws with cumulative sums
(Monte-Carlo critical values) and small symmetric eigenproblems (the
long-run variance). It never changes with the program, so a program that
gets faster or slower moves the calibrated time by the same share.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# median time of one reference() call on the 2-vCPU VM (Intel Xeon,
# 2.1 GHz, Python 3.11, one BLAS thread) the benchmark was tuned on
NOMINAL_S = 0.05
# reference calls per calibration point; a single call (tens of ms) is
# too short to average out the machine's sub-second speed bursts
CALLS = 3


def reference() -> float:
    """The fixed reference computation, about 50 ms; returns a checksum."""
    rng = np.random.default_rng(12345)
    acc, hits = 0.0, []
    for i in range(60000):
        acc = 0.3 * acc + (i % 7) - 3.0
        if acc > 2.0:
            hits.append(i)
    total = float(len(hits))
    x = rng.standard_normal(256)
    for _ in range(3000):
        total += float(np.abs(np.cumsum(x)).max())
        x[0] += 1e-9
    for _ in range(20):
        total += float(np.cumsum(rng.standard_normal(20000)).std())
    m = rng.standard_normal((6, 6))
    m = m @ m.T
    for _ in range(500):
        total += float(np.linalg.eigvalsh(m)[0])
    return total


def reference_s() -> float:
    """Mean time of ``CALLS`` reference calls in a row, in seconds."""
    t0 = perf_counter()
    for _ in range(CALLS):
        reference()
    return (perf_counter() - t0) / CALLS


def calibrated(times: list[float], refs: list[float]) -> list[float]:
    """Times at nominal speed; ``times[i]`` ran between ``refs[i]`` and ``refs[i + 1]``."""
    return [t * 2 * NOMINAL_S / (before + after) for t, before, after in zip(times, refs, refs[1:])]
