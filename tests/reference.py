"""Independent brute-force oracles used by the test suite only."""

from __future__ import annotations

import numpy as np
import scipy.linalg


def naive_step(state, rule_number: int):
    """Per-cell table lookup with explicit wrap-around; no vectorization."""
    table = [(rule_number >> n) & 1 for n in range(8)]
    width = len(state)
    out = []
    for i in range(width):
        left = state[(i - 1) % width]
        center = state[i]
        right = state[(i + 1) % width]
        out.append(table[4 * left + 2 * center + right])
    return np.array(out, dtype=np.uint8)


def normal_equations_fit(features, targets, ridge=1e-8):
    """Regularized normal-equations solve built straight from the design matrix.

    Independent of the production fit path: augments the intercept column
    explicitly, forms A^T A in float64, and solves with np.linalg.solve.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    design = np.hstack([x, np.ones((x.shape[0], 1))])
    gram = design.T @ design
    alpha = ridge * np.trace(gram) / gram.shape[0]
    return np.linalg.solve(gram + alpha * np.eye(gram.shape[0]), design.T @ y)


def exact_integer_fit(features, targets, ridge=1e-8):
    """The production solve on normal equations counted exactly.

    Forms [X 1]^T [X 1] and [X 1]^T Y with scipy's float64 ``dgemm``: on
    0/1 data every product and partial sum is an integer below 2^53, so the
    counts are exact whatever order the BLAS sums in. It then applies the
    same ridge, ``cho_factor`` and ``cho_solve``, so the weights must equal
    the production fit bit for bit.
    """
    x = np.asarray(features, dtype=np.float64)
    design = np.asfortranarray(np.hstack([x, np.ones((x.shape[0], 1))]))
    y = np.asfortranarray(targets, dtype=np.float64)
    a = scipy.linalg.blas.dgemm(1.0, design, design, trans_a=1)
    b = scipy.linalg.blas.dgemm(1.0, design, y, trans_a=1)
    a[np.diag_indices_from(a)] += ridge * np.trace(a) / a.shape[0]
    cho = scipy.linalg.cho_factor(a, lower=False, check_finite=False)
    return scipy.linalg.cho_solve(cho, b, check_finite=False)


def normal_equations_predict(weights, features):
    x = np.asarray(features, dtype=np.float64)
    return np.hstack([x, np.ones((x.shape[0], 1))]) @ weights
