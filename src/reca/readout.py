"""Linear readout: least-squares fit with intercept, prediction, binarization.

Feature bits enter the regression as 0.0/1.0. The solve goes through the
normal equations with a tiny ridge term (1e-8 times the mean squared column
norm of the design matrix, intercept column included) so that the very
common rank-deficient case, e.g. constant CA columns, stays solvable while
well-conditioned solutions are perturbed far below test tolerances.

Both ``fit`` and ``predict`` stream the design matrix in row blocks, so
neither ever holds a float copy of all of it. Every BLAS and LAPACK call goes
through scipy: numpy's ``@`` would run in numpy's own OpenBLAS copy, and two
OpenBLAS thread pools in one process spin against each other for the cores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

RIDGE_SCALE = 1e-8
BLOCK_ELEMENTS = 2**19  # values converted to float per fit or predict block
MAX_FIT_ROWS = 2**24  # float32 counts are exact below this


@dataclass(frozen=True, eq=False)
class ReadoutModel:
    """Affine readout weights; the last row of ``weights`` is the intercept."""

    weights: np.ndarray  # shape (feature_length + 1, output_width), float64

    @property
    def feature_length(self) -> int:
        return self.weights.shape[0] - 1

    @property
    def output_width(self) -> int:
        return self.weights.shape[1]


def fit(features: np.ndarray, targets: np.ndarray, ridge: float = RIDGE_SCALE) -> ReadoutModel:
    """Least-squares fit of an affine map from feature rows to target rows.

    Args:
        features: (N, p) binary matrix.
        targets: (N, k) binary matrix.
        ridge: relative ridge strength added to the normal-equation diagonal.

    Row blocks of about ``BLOCK_ELEMENTS`` values are copied into one reused
    float32 buffer laid out as ``[X_b 1 Y_b]``, and one ``ssyrk`` per block
    adds its Gram matrix to the upper triangle of the Gram of ``[X 1 Y]``:
    X^T X, the column sums, N and X^T Y. With 0/1 entries each is an integer
    count <= N, exact in float32 for N < 2^24, so the blocking does not move
    the result. Memory beside the design is O((p + k)^2). The solve is
    float64.
    """
    x = np.asarray(features)
    y = np.asarray(targets)
    if x.ndim != 2 or y.ndim != 2:
        raise ValueError("features and targets must be 2-D")
    if x.shape[0] != y.shape[0]:
        raise ValueError("features and targets must have the same row count")
    if x.shape[0] < 1:
        raise ValueError("at least one training row is required")
    if x.shape[0] >= MAX_FIT_ROWS:
        raise ValueError(
            f"{x.shape[0]} rows: the float32 Gram counts are exact only "
            f"below {MAX_FIT_ROWS} rows"
        )

    n, p = x.shape
    m = p + 1 + y.shape[1]
    rows = min(n, max(1, BLOCK_ELEMENTS // m))
    buf = np.empty((rows, m), dtype=np.float32)
    buf[:, p] = 1.0
    gram = np.zeros((m, m), dtype=np.float32, order="F")
    for lo in range(0, n, rows):
        # C-ordered, so ``block.T`` is F-ordered and ssyrk reads it uncopied
        block = buf[: min(rows, n - lo)]
        np.copyto(block[:, :p], x[lo : lo + rows], casting="unsafe")
        np.copyto(block[:, p + 1 :], y[lo : lo + rows], casting="unsafe")
        # block.T @ block, upper triangle only, added to ``gram`` in place
        gram = scipy.linalg.blas.ssyrk(1.0, block.T, beta=1.0, c=gram, overwrite_c=1)
    del buf

    # Only the upper triangle of ``a`` is ever read (cho_factor(lower=False)),
    # so the Gram matrix is not mirrored. ``a`` is F-ordered like ``gram``, so
    # the copy below is not transposed and the factor is in place.
    a = np.array(gram[: p + 1, : p + 1], dtype=np.float64, order="F")
    b = np.array(gram[: p + 1, p + 1 :], dtype=np.float64)
    del gram

    alpha = ridge * np.trace(a) / (p + 1)
    a[np.diag_indices_from(a)] += alpha

    cho = scipy.linalg.cho_factor(a, lower=False, overwrite_a=True, check_finite=False)
    weights = scipy.linalg.cho_solve(cho, b, check_finite=False)
    return ReadoutModel(weights)


def predict(model: ReadoutModel, features: np.ndarray) -> np.ndarray:
    """Affine map of one feature vector or a batch of feature rows.

    Rows are converted to float64 in blocks of about
    ``BLOCK_ELEMENTS`` values (4 MB), so the float copy of a large
    design matrix never exists whole. With two or more rows and outputs the
    result is bit-identical to
    ``features.astype(float64) @ weights[:-1] + weights[-1]`` (with one,
    numpy's ``@`` switches to a matrix-vector product).
    """
    x = np.asarray(features)
    if x.ndim == 1:
        x = x[None]
        squeeze = True
    elif x.ndim == 2:
        squeeze = False
    else:
        raise ValueError("features must be 1-D or 2-D")
    if x.shape[1] != model.feature_length:
        raise ValueError(
            f"feature length {x.shape[1]} does not match model "
            f"({model.feature_length})"
        )
    n, p = x.shape
    rows = max(1, BLOCK_ELEMENTS // max(p, 1))
    # The last block takes the remainder, so no block is much smaller than
    # ``rows``: OpenBLAS sends small products to a kernel that sums in a
    # different order, and a short tail would not match the one-shot product.
    n_blocks = min(n, max(1, n // rows))
    out = np.empty((n, model.output_width), dtype=np.float64)
    block = np.empty((n - (n_blocks - 1) * rows, p), dtype=np.float64)  # the largest
    # out_b.T = w.T @ block_b.T in column-major order: the dgemm that numpy's
    # ``block_b @ w`` makes. The transpose flag follows w's layout as numpy's
    # does, because OpenBLAS also picks its small-product kernel by that flag.
    w = model.weights[:-1]
    if w.strides[1] == w.itemsize:
        a, trans_a = w.T, 0
    else:
        a, trans_a = np.asfortranarray(w), 1
    for i in range(n_blocks):
        lo = i * rows
        hi = n if i == n_blocks - 1 else lo + rows
        np.copyto(block[: hi - lo], x[lo:hi])
        scipy.linalg.blas.dgemm(
            1.0, a, block[: hi - lo].T, c=out[lo:hi].T, trans_a=trans_a, overwrite_c=1
        )
    out += model.weights[-1]
    return out[0] if squeeze else out


def binarize(value: float) -> int:
    """Threshold one regression output: 0 below 0.5, 1 at or above it."""
    if not np.isfinite(value):
        raise ValueError(f"cannot binarize non-finite value {value!r}")
    return 0 if value < 0.5 else 1


def binarize_array(values: np.ndarray) -> np.ndarray:
    """Elementwise binarize; rejects non-finite entries."""
    v = np.asarray(values)
    if not np.all(np.isfinite(v)):
        raise ValueError("cannot binarize non-finite values")
    return (v >= 0.5).astype(np.uint8)
