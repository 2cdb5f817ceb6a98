import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpstream.longrun import (
    RIDGE_RTOL,
    SINGULAR_RTOL,
    ZERO_TRACE_RIDGE,
    autocov,
    bartlett_bandwidth,
    bartlett_lrv,
    bartlett_weight,
    inverse,
    inverse_sqrt,
    regularize_spd,
)
from cpstream.critvals import CritValKind, CritValRequest, compute_critval
from cpstream.offline import offline_test
from cpstream.online import DetectorKind, train
from cpstream.rng import substream
from cpstream.timeseries import TimeSeries


def brute_autocov(values, lag):
    # textbook double loop, divisor N
    n, d = values.shape
    mean = values.mean(axis=0)
    acc = np.zeros((d, d))
    for i in range(lag, n):
        acc += np.outer(values[i] - mean, values[i - lag] - mean)
    return acc / n


class TestAutocov:
    def test_constant_series_zero(self):
        ts = TimeSeries(np.full((20, 2), 3.0))
        for lag in (0, 1, 5):
            assert np.all(autocov(ts, lag) == 0.0)

    def test_alternating_hand_value(self):
        ts = TimeSeries(np.array([1.0, -1.0, 1.0, -1.0]))
        assert autocov(ts, 1)[0, 0] == pytest.approx(-0.75, abs=1e-15)

    def test_matches_brute_force(self, rng):
        values = rng.normal(size=(30, 3))
        got = autocov(TimeSeries(values), 2)
        assert np.allclose(got, brute_autocov(values, 2), rtol=1e-12, atol=1e-14)

    def test_lag_bounds(self):
        ts = TimeSeries(np.arange(5.0))
        with pytest.raises(ValueError):
            autocov(ts, 5)
        with pytest.raises(ValueError):
            autocov(ts, -1)


class TestBandwidth:
    @pytest.mark.parametrize("n,expected", [(1, 0), (9, 0), (10, 1), (99, 1), (100, 2), (1000, 3)])
    def test_examples(self, n, expected):
        assert bartlett_bandwidth(n) == expected

    def test_matches_floor_log10(self):
        for n in list(range(1, 2000)) + [10**5, 10**6, 10**6 - 1]:
            assert bartlett_bandwidth(n) == math.floor(math.log10(n))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bartlett_bandwidth(0)


class TestBartlettWeights:
    def test_endpoints(self):
        assert bartlett_weight(0.0) == 1.0
        assert bartlett_weight(1.0) == 0.0
        assert bartlett_weight(1.5) == 0.0

    def test_strictly_decreasing_over_lags(self):
        L = 7
        weights = [bartlett_weight(l / (L + 1)) for l in range(1, L + 1)]
        assert all(a > b for a, b in zip(weights, weights[1:]))


class TestBartlettLrv:
    def test_bandwidth_zero_equals_lag0_autocov(self, rng):
        ts = TimeSeries(rng.normal(size=(25, 2)))
        assert np.array_equal(bartlett_lrv(ts, 0), autocov(ts, 0))

    def test_constant_series_zero_matrix(self):
        assert np.all(bartlett_lrv(TimeSeries(np.full(50, 2.0)), 3) == 0.0)

    def test_iid_unit_variance_recovered(self):
        series = TimeSeries(substream(99, 0).standard_normal(100_000))
        assert 0.9 <= bartlett_lrv(series, 5)[0, 0] <= 1.1

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_scalar_formula_equivalence(self, rng, d):
        # S0 + sum w_l (S_l + S_l^T); for d=1 it collapses to S0 + 2 sum w_l S_l
        ts = TimeSeries(rng.normal(size=(60, d)))
        L = 4
        reference = autocov(ts, 0) + sum(
            bartlett_weight(l / (L + 1)) * (autocov(ts, l) + autocov(ts, l).T)
            for l in range(1, L + 1)
        )
        assert np.allclose(bartlett_lrv(ts, L), reference, rtol=1e-12, atol=0.0)

    def test_bandwidth_bounds(self):
        ts = TimeSeries(np.arange(5.0))
        with pytest.raises(ValueError):
            bartlett_lrv(ts, 5)

    def test_default_bandwidth_used(self, rng):
        ts = TimeSeries(rng.normal(size=200))
        assert np.array_equal(bartlett_lrv(ts), bartlett_lrv(ts, 2))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(10, 40),
        st.integers(1, 3),
        st.floats(0.0, 0.8),
    )
    def test_symmetric_psd_property(self, seed, n, d, phi):
        gen = substream(seed, 1)
        eps = gen.normal(size=(n, d))
        values = np.empty_like(eps)
        values[0] = eps[0]
        for t in range(1, n):
            values[t] = phi * values[t - 1] + eps[t]
        omega = bartlett_lrv(TimeSeries(values))
        scale = max(np.max(np.abs(omega)), 1e-30)
        assert np.max(np.abs(omega - omega.T)) <= 1e-10 * scale
        trace = np.trace(omega)
        assert np.linalg.eigvalsh(omega).min() >= -1e-10 * max(trace, 0.0)


class TestRegularization:
    def test_well_conditioned_untouched(self):
        m = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert np.array_equal(regularize_spd(m), m)

    def test_near_singular_gets_ridge(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank 1
        fixed = regularize_spd(m)
        assert np.linalg.eigvalsh(fixed).min() > 0
        assert fixed[0, 0] == pytest.approx(1.0 + 1e-8, rel=1e-6)

    def test_zero_matrix_gets_absolute_floor(self):
        fixed = regularize_spd(np.zeros((2, 2)))
        assert np.linalg.eigvalsh(fixed).min() > 0

    def test_inverse_and_inverse_sqrt(self, rng):
        a = rng.normal(size=(3, 3))
        m = a @ a.T + np.eye(3)
        assert np.allclose(inverse(m) @ m, np.eye(3), atol=1e-10)
        half = inverse_sqrt(m)
        assert np.allclose(half @ m @ half, np.eye(3), atol=1e-10)
        assert np.allclose(half, half.T, atol=1e-12)

    def test_rounding_negative_eigenvalue_absorbed(self):
        # symmetric, smallest eigenvalue about -5e-14: the case rounding can
        # leave in a Bartlett estimate of a rank-deficient series
        m = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-13]])
        assert np.linalg.eigvalsh(m).min() < 0
        assert np.linalg.eigvalsh(regularize_spd(m)).min() > 0
        assert np.all(np.isfinite(inverse(m)))
        assert np.all(np.isfinite(inverse_sqrt(m)))

    def test_negative_eigenvalue_beyond_ridge_lifted(self):
        # -1e-3 dwarfs the relative ridge RIDGE_RTOL * trace / d (about 5e-9),
        # so only adding its magnitude makes the result positive definite
        m = np.diag([1.0, -1e-3])
        relative_ridge = RIDGE_RTOL * np.trace(m) / 2
        assert -np.linalg.eigvalsh(m).min() > relative_ridge
        smallest = np.linalg.eigvalsh(regularize_spd(m)).min()
        assert smallest >= relative_ridge * (1 - 1e-6)


def mixed_stack():
    """Well-conditioned, near-singular, beyond-ridge negative and all-zero 2 x 2 matrices."""
    return np.array([
        [[2.0, 0.3], [0.3, 1.0]],
        [[1.0, 1.0], [1.0, 1.0]],
        np.diag([1.0, -1e-3]),
        np.zeros((2, 2)),
    ])


class TestStacks:
    """A (..., d, d) or (S, n, d) stack gives, slice for slice, the single-matrix result."""

    @pytest.mark.parametrize("fn", [regularize_spd, inverse, inverse_sqrt])
    def test_mixed_stack_matches_slices(self, fn):
        stack = mixed_stack()
        out = fn(stack)
        assert out.shape == stack.shape
        for i, matrix in enumerate(stack):
            assert np.array_equal(out[i], fn(matrix))

    def test_well_conditioned_stack_untouched(self):
        stack = mixed_stack()[:1].repeat(3, axis=0)
        assert np.array_equal(regularize_spd(stack), stack)

    @pytest.mark.parametrize("bandwidth", [None, 0, 2])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bartlett_stack_matches_slices(self, d, bandwidth):
        gen = substream(d, 71)
        # a slow random walk on top of noise: serially dependent series
        walk = gen.standard_normal((6, 150, d)).cumsum(axis=1)
        stack = 0.1 * walk + gen.standard_normal((6, 150, d))
        stack[1] = 4.0  # constant series
        if d > 1:
            stack[2, :, 1] = 3.0 * stack[2, :, 0]  # rank-deficient series
        omega = bartlett_lrv(stack, bandwidth)
        half = inverse_sqrt(omega)
        assert omega.shape == half.shape == (6, d, d)
        for i, series in enumerate(stack):
            assert np.array_equal(omega[i], bartlett_lrv(series, bandwidth))
            assert np.array_equal(half[i], inverse_sqrt(bartlett_lrv(series, bandwidth)))


class TestRankDeficientSeries:
    """Column 2 = 3 x column 1: the estimate is singular and only regularize_spd guards it."""

    @pytest.fixture()
    def series(self):
        x = substream(5, 70).standard_normal(300)
        return TimeSeries(np.column_stack([x, 3.0 * x]))

    def test_offline_statistic_finite(self, series, cv_offline_d2):
        result = offline_test(series, 0.05, cv_offline_d2)
        assert np.isfinite(result.statistic_m)

    def test_standard_training_finite(self, series):
        cv = compute_critval(
            CritValRequest(
                kind=CritValKind.ONLINE_STANDARD,
                alpha=0.05,
                d=2,
                gamma=0.0,
                grid_steps=100,
                replications=1000,
                seed=0,
            )
        )
        state = train(series.segment(1, 200), DetectorKind.STANDARD, 0.0, cv)
        assert np.all(np.isfinite(state.omega_inv_sqrt))


def matmul_lrv(x, bandwidth):
    """The (d, d) matrix route: autocov's matmul products, weighted and symmetrised in order."""
    omega = autocov(x, 0)
    for lag in range(1, bandwidth + 1):
        gamma = autocov(x, lag)
        omega = omega + bartlett_weight(lag / (bandwidth + 1)) * (gamma + gamma.T)
    return (omega + omega.T) / 2.0


def lapack_regularized(matrix):
    """regularize_spd's eigenvalue test and ridge on one matrix, through np.linalg."""
    d = matrix.shape[-1]
    trace = np.trace(matrix)
    smallest = np.linalg.eigvalsh(matrix).min()
    if trace > 0 and smallest >= SINGULAR_RTOL * trace:
        return matrix
    ridge = RIDGE_RTOL * trace / d
    ridge = ridge if ridge > 0 else ZERO_TRACE_RIDGE
    if smallest < 0:
        ridge = ridge + -smallest
    return matrix + ridge * np.eye(d)


def lapack_inverse_sqrt(matrix):
    eigvals, eigvecs = np.linalg.eigh(matrix)
    return (eigvecs * (1.0 / np.sqrt(eigvals))) @ eigvecs.T


# positive, tiny, subnormal, huge, zero and rounding-negative 1 x 1 entries
ENTRIES = [1.0, 3.7, 1e-300, 2.2250738585072014e-308, 1e-310, 5e-324, 1.7e308,
           np.finfo(float).max, 0.0, -0.0, -1e-17, -3e-15]


class TestScalarRoute:
    """d = 1 takes scalar arithmetic; every result equals the matrix route bit for bit."""

    def test_bartlett_lrv_matches_matmul_route(self):
        gen = substream(3, 72)
        for _ in range(300):
            n = int(gen.integers(8, 5001))
            x = gen.standard_normal((n, 1)) * 10.0 ** gen.uniform(-2, 2) + gen.uniform(-50, 50)
            bandwidth = int(gen.integers(0, bartlett_bandwidth(n) + 1))
            omega = bartlett_lrv(x, bandwidth)
            assert omega.shape == (1, 1)
            assert omega.tobytes() == matmul_lrv(x, bandwidth).tobytes()
        assert bartlett_lrv(x).tobytes() == matmul_lrv(x, bartlett_bandwidth(n)).tobytes()

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_one_by_one_matches_lapack(self, entry):
        m = np.array([[entry]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no warning that the LAPACK route does not give
            safe = lapack_regularized(m)
            assert regularize_spd(m).tobytes() == safe.tobytes()
            assert inverse(m).tobytes() == np.linalg.inv(safe).tobytes()
            assert inverse_sqrt(m).tobytes() == lapack_inverse_sqrt(safe).tobytes()

    def test_positive_entry_is_its_own_eigenvalue(self):
        for entry in ENTRIES[:8]:
            m = np.array([[entry]])
            assert np.linalg.eigvalsh(m)[0] == entry
            assert regularize_spd(m) is m

    # a stack with a zero or negative entry ridges every slice and keeps the
    # untouched ones; a huge slice's ridged copy overflows, as it always did
    @pytest.mark.parametrize(
        "entries", [ENTRIES[:8], ENTRIES[:6] + ENTRIES[8:]], ids=["positive", "mixed"]
    )
    def test_stack_matches_lapack(self, entries):
        stack = np.array(entries).reshape(-1, 1, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            safe = np.array([lapack_regularized(m) for m in stack])
            assert regularize_spd(stack).tobytes() == safe.tobytes()
            assert inverse(stack).tobytes() == np.linalg.inv(safe).tobytes()
            expected = np.array([lapack_inverse_sqrt(m) for m in safe])
            assert inverse_sqrt(stack).tobytes() == expected.tobytes()

    def test_random_entries_match_lapack(self):
        entries = 10.0 ** substream(4, 72).uniform(-323, 308, 2000)
        for entry in entries:
            m = np.array([[entry]])
            assert inverse(m).tobytes() == np.linalg.inv(m).tobytes()
            assert inverse_sqrt(m).tobytes() == lapack_inverse_sqrt(m).tobytes()
