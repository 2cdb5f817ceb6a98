"""Shared fixtures: cheap critical values reused across test modules.

The acceptance suite recomputes the headline critical values at the full
simulation budget; everything else runs on these reduced budgets, which are
accurate to a few hundredths and take a couple of seconds each.
"""

import numpy as np
import pytest

from cpstream.critvals import (
    CritValKind,
    CritValRequest,
    MonteCarloProvider,
    compute_critval,
)
from cpstream.timeseries import TimeSeries


@pytest.fixture(scope="session")
def cv_offline_d1():
    return compute_critval(
        CritValRequest(
            kind=CritValKind.OFFLINE_MAX,
            alpha=0.05,
            d=1,
            grid_steps=2000,
            replications=20_000,
            seed=0,
        )
    )


@pytest.fixture(scope="session")
def cv_offline_d2():
    return compute_critval(
        CritValRequest(
            kind=CritValKind.OFFLINE_MAX,
            alpha=0.05,
            d=2,
            grid_steps=1000,
            replications=10_000,
            seed=0,
        )
    )


@pytest.fixture(scope="session")
def cv_standard_d1():
    return compute_critval(
        CritValRequest(
            kind=CritValKind.ONLINE_STANDARD,
            alpha=0.05,
            d=1,
            gamma=0.0,
            grid_steps=2000,
            replications=20_000,
            seed=0,
        )
    )


@pytest.fixture(scope="session")
def cv_ratio_d1():
    return compute_critval(
        CritValRequest(
            kind=CritValKind.ONLINE_RATIO,
            alpha=0.05,
            d=1,
            gamma=0.0,
            grid_steps=400,
            replications=4000,
            horizon_T=10.0,
            seed=3,
        )
    )


@pytest.fixture(scope="session")
def cheap_provider():
    """Memoised provider with test-sized budgets."""
    return MonteCarloProvider(seed=0, grid_steps=1000, replications=5000)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def d1_edge_windows():
    """One-column windows at the edges of the d = 1 routes, as (name, series) pairs.

    Constant windows, whose long-run variance is exactly 0; near-constant
    windows at tiny scales, whose variance underflows to a subnormal or to
    0; every length 4..12, where the Bartlett bandwidth is 0 or 1; strided
    and reversed 1-D views; and segments of a longer series.
    """
    gen = np.random.default_rng(20)
    windows = []
    for n in (4, 9, 10, 57, 1000):
        for level in (0.0, 0.1, -3.7, 12345.678):
            windows.append((f"constant {level} x {n}", np.full(n, level)))
    for n in (10, 200, 1500):
        for exponent in (-140, -150, -155, -160, -170):
            scale = 10.0**exponent
            windows.append((f"1e{exponent} level x {n}",
                            scale * (1.0 + 1e-15 * gen.standard_normal(n))))
            windows.append((f"1e{exponent} noise x {n}", scale * gen.standard_normal(n)))
    for n in range(4, 13):
        windows.append((f"noise x {n}", gen.standard_normal(n) * 10.0 ** gen.uniform(-3, 3)))
    long = gen.standard_normal(6000) + 2.0
    windows += [
        ("every third", long[::3][:700]),
        ("every seventh from 5", long[5::7]),
        ("reversed every second", long[::-2][:1200]),
        ("column 1 of 3", long[:4500].reshape(-1, 3)[:, 1]),
    ]
    series = TimeSeries(long)
    windows += [(f"segment [{lo}, {hi}]", series.values[lo - 1 : hi])
                for lo, hi in ((1, 4), (17, 29), (300, 1299), (2001, 6000), (5990, 6000))]
    # the monitor's case: row slices of an (capacity, 1) sample buffer, at
    # lengths on both sides of numpy's 8-way unrolled and 128-block pairwise sum
    buf = (gen.standard_normal(8192) * 0.37 + 41.5).reshape(-1, 1)
    windows += [(f"buffer rows [{lo}:{hi}]", buf[lo:hi])
                for lo, hi in ((1, 5), (3, 130), (37, 165), (100, 1124), (511, 4607), (1000, 8191))]
    return windows
