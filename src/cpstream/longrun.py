"""Long-run (asymptotic) covariance estimation with the Bartlett kernel.

The long-run covariance of a stationary series is the sum of its
autocovariances over all lags; it is what normalises CUSUM statistics when
observations are serially dependent. The estimator used throughout is the
kernel-truncated sum

    Omega_hat = S_0 + sum_{l=1..L} w(l / (L + 1)) * (S_l + S_l^T)

with triangular (Bartlett) weights w(x) = 1 - |x|, which keeps the result
symmetric positive semidefinite by construction (Newey & West 1987).
:func:`bartlett_lrv` returns that symmetric matrix as a plain ndarray; the
inversion sites (:func:`inverse`, :func:`inverse_sqrt`) regularize it via
:func:`regularize_spd`, the one place that handles a near-singular estimate
or one whose smallest eigenvalue rounding pushed below zero.

A one-dimensional series (d = 1) takes a scalar route through the same
algebra, bit for bit equal to the matrix route. Each centred lag product is
then one dot product of the centred column, which numpy's ``matmul``
computes by the same BLAS dot as ``np.dot`` of the 1-D column. A 1 x 1
matrix's eigenvalue is its entry and its eigenvector is 1.0 exactly (LAPACK
returns both unchanged for order 1), so the "untouched" test reduces to
"entry > 0", the inverse square root is ``1.0 / sqrt(entry)``, and the
inverse is ``1.0 / entry``, what the LU solve of a 1 x 1 system against the
identity computes. Entries that are zero, negative or NaN take the matrix
route, so they meet the same ridge and the same LAPACK errors as before.
"""

from __future__ import annotations

import numpy as np

from .timeseries import SeriesLike, as_matrix

__all__ = [
    "autocov",
    "bartlett_bandwidth",
    "bartlett_weight",
    "bartlett_lrv",
    "regularize_spd",
    "inverse",
    "inverse_sqrt",
]

# A matrix counts as numerically singular when its smallest eigenvalue drops
# below SINGULAR_RTOL * trace; inversion sites then add RIDGE_RTOL * trace / d
# to the diagonal. ZERO_TRACE_RIDGE covers the all-constant-input case where
# the trace itself is zero and a relative ridge would vanish.
SINGULAR_RTOL = 1e-10
RIDGE_RTOL = 1e-8
ZERO_TRACE_RIDGE = 1e-12


def autocov(s: SeriesLike, lag: int) -> np.ndarray:
    """Empirical autocovariance matrix at a given lag.

    Computes (1/N) * sum_{n=lag+1..N} (X_n - mean)(X_{n-lag} - mean)^T.
    The divisor is N, not N - lag. Not symmetric for lag > 0.
    """
    mat = as_matrix(s)
    n = mat.shape[0]
    if lag < 0:
        raise ValueError("lag must be non-negative")
    if lag >= n:
        raise ValueError(f"lag {lag} must be smaller than the sample count {n}")
    centered = mat - mat.mean(axis=0)
    return centered[lag:].T @ centered[: n - lag] / n


def bartlett_bandwidth(n: int) -> int:
    """Default truncation lag floor(log10(N)), computed exactly on integers."""
    if n < 1:
        raise ValueError("sample count must be positive")
    level, power = 0, 10
    while power <= n:
        level += 1
        power *= 10
    return level


def bartlett_weight(x: float) -> float:
    """Triangular kernel: 1 - |x| inside [-1, 1], zero outside."""
    return max(0.0, 1.0 - abs(x))


def bartlett_lrv(s: SeriesLike, bandwidth: int | None = None) -> np.ndarray:
    """Bartlett estimate of the long-run covariance of a series, as a (d, d) matrix.

    ``bandwidth`` is the truncation lag L; when omitted it defaults to
    ``bartlett_bandwidth(N)``. The result is symmetric and positive
    semidefinite up to rounding. A (near-)singular estimate is not an error
    here; inversion sites regularize via :func:`regularize_spd`.

    An (S, N, d) stack of equal-length series gives an (S, d, d) stack whose
    slice i equals, bit for bit, the estimate of series i alone.
    """
    mat = as_matrix(s)
    n = mat.shape[-2]
    if bandwidth is None:
        bandwidth = bartlett_bandwidth(n)
    if bandwidth < 0:
        raise ValueError("bandwidth must be non-negative")
    if bandwidth >= n:
        raise ValueError(f"bandwidth {bandwidth} must be smaller than the sample count {n}")
    # the same centred products as autocov, from one centring of the sample;
    # matmul over a stack makes the per-slice product of a single series.
    # sum / n is how ndarray.mean computes the mean, without its call overhead
    centered = mat - mat.sum(axis=-2, keepdims=True) / n
    if centered.ndim == 2 and centered.shape[1] == 1:
        # the same operations in the same order, on the 1-D column
        col = centered[:, 0]
        o = np.dot(col, col) / n
        for lag in range(1, bandwidth + 1):
            g = np.dot(col[lag:], col[: n - lag]) / n
            o = o + bartlett_weight(lag / (bandwidth + 1)) * (g + g)
        return np.array([[(o + o) / 2.0]])
    transposed = centered.swapaxes(-1, -2)
    omega = np.matmul(transposed, centered) / n
    for lag in range(1, bandwidth + 1):
        gamma = np.matmul(transposed[..., lag:], centered[..., : n - lag, :]) / n
        omega = omega + bartlett_weight(lag / (bandwidth + 1)) * (gamma + gamma.swapaxes(-1, -2))
    return (omega + omega.swapaxes(-1, -2)) / 2.0


def regularize_spd(matrix: np.ndarray) -> np.ndarray:
    """Ridge a symmetric PSD matrix just enough to make it safely invertible.

    Leaves well-conditioned input untouched. Near-singular input (smallest
    eigenvalue below SINGULAR_RTOL * trace) gains RIDGE_RTOL * trace / d on
    the diagonal, plus the magnitude of a smallest eigenvalue that rounding
    left negative; an exactly zero matrix gains the absolute floor
    ZERO_TRACE_RIDGE so that quadratic forms over zero vectors stay zero
    instead of dividing by zero. A (..., d, d) stack is decided matrix by
    matrix, each slice exactly as on its own.
    """
    matrix = np.asarray(matrix, dtype=float)
    d = matrix.shape[-1]
    if _positive_scalars(matrix):
        return matrix
    trace = np.trace(matrix, axis1=-2, axis2=-1)
    smallest = np.linalg.eigvalsh(matrix).min(axis=-1)
    untouched = (trace > 0) & (smallest >= SINGULAR_RTOL * trace)
    if untouched.all():
        return matrix
    ridge = RIDGE_RTOL * trace / d
    ridge = np.where(ridge > 0, ridge, ZERO_TRACE_RIDGE)
    ridge = np.where(smallest < 0, ridge + -smallest, ridge)
    ridged = matrix + ridge[..., None, None] * np.eye(d)
    return np.where(untouched[..., None, None], matrix, ridged)


def _positive_scalars(matrix: np.ndarray) -> bool:
    """Whether ``matrix`` is a 1 x 1 matrix, or a stack of them, with every entry > 0."""
    if matrix.shape[-2:] != (1, 1):
        return False
    if matrix.ndim == 2:
        return matrix.item() > 0
    return bool((matrix > 0).all())


def inverse(matrix: np.ndarray) -> np.ndarray:
    """Regularized inverse of a symmetric PSD matrix, or of each in a stack."""
    safe = regularize_spd(matrix)
    if _positive_scalars(safe):
        # LAPACK overflows a subnormal entry to inf without a warning, and so does this
        with np.errstate(over="ignore"):
            return 1.0 / safe
    return np.linalg.inv(safe)


def inverse_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Regularized inverse square root via symmetric eigendecomposition, matrix by matrix."""
    safe = regularize_spd(matrix)
    if _positive_scalars(safe):
        return 1.0 / np.sqrt(safe)
    eigvals, eigvecs = np.linalg.eigh(safe)
    return np.matmul(eigvecs * (1.0 / np.sqrt(eigvals))[..., None, :], eigvecs.swapaxes(-1, -2))
