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
algebra, bit for bit equal to the matrix route. It centres the 1-D column
itself, ``col - col.sum() / N``: a column's sum is the (N, 1) matrix's
axis-0 sum, because numpy reduces both by one pairwise sum over the same
strided samples. Each centred lag product is then one dot product of the
centred column, which numpy's ``matmul`` computes by the same BLAS dot as
``np.dot`` of the 1-D column, and the weighted lag sum is Python float
arithmetic; only the result is made a 1 x 1 matrix.

Inversion has one rule: :func:`inverse` and :func:`inverse_sqrt` divide a
1 x 1 matrix whose entry is above zero in Python floats, and
:func:`inverse_sqrt` divides a stack of them in numpy, as stacked standard
training makes. All else (a zero, negative or NaN entry, any stack given to
:func:`inverse`, and any d > 1) goes through :func:`regularize_spd` and
LAPACK, which agree with the division bit for bit on a positive entry:
LAPACK returns it as the eigenvalue, with eigenvector 1.0 exactly, so the
ridge leaves it alone, and the inverse square root and the LU solve are
``1.0 / sqrt(entry)`` and ``1.0 / entry``, overflowing a tiny entry to the
same inf with no warning.
"""

from __future__ import annotations

import math

import numpy as np

from .timeseries import SeriesLike, as_matrix

__all__ = [
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
    # every lag product from one centring of the sample, divided by N (not
    # N - lag); matmul over a stack makes the per-slice product of one series.
    # sum / n is how ndarray.mean computes the mean, without its call overhead
    if mat.ndim == 2 and mat.shape[1] == 1:
        # the same operations in the same order, on the 1-D column, in floats
        col = mat[:, 0]
        col = col - col.sum() / n
        o = float(np.dot(col, col)) / n
        for lag in range(1, bandwidth + 1):
            g = float(np.dot(col[lag:], col[: n - lag])) / n
            o = o + bartlett_weight(lag / (bandwidth + 1)) * (g + g)
        return np.array([[(o + o) / 2.0]])
    centered = mat - mat.sum(axis=-2, keepdims=True) / n
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


def inverse(matrix: np.ndarray) -> np.ndarray:
    """Regularized inverse of a symmetric PSD matrix, or of each in a stack."""
    if matrix.shape == (1, 1) and (entry := matrix.item()) > 0:
        return np.array([[1.0 / entry]])
    return np.linalg.inv(regularize_spd(matrix))


def inverse_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Regularized inverse square root via symmetric eigendecomposition, matrix by matrix."""
    if matrix.shape == (1, 1) and (entry := matrix.item()) > 0:
        return np.array([[1.0 / math.sqrt(entry)]])
    # a stack of positive 1 x 1 matrices, as stacked standard training makes
    if matrix.shape[-2:] == (1, 1) and (matrix > 0).all():
        return 1.0 / np.sqrt(matrix)
    eigvals, eigvecs = np.linalg.eigh(regularize_spd(matrix))
    return np.matmul(eigvecs * (1.0 / np.sqrt(eigvals))[..., None, :], eigvecs.swapaxes(-1, -2))
