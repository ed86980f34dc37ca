"""Independent brute-force oracles used by the test suite only."""

from __future__ import annotations

from fractions import Fraction

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

    Forms the Gram matrix of [X 1 Y] with scipy's float64 ``dgemm``: on 0/1
    data every product and partial sum is an integer below 2^53, so the
    counts are exact whatever order the BLAS sums in. It then takes the
    production steps: ``dtrttf`` packs the upper triangle, the same ridge
    goes on the first p + 1 diagonal entries and the same shift, N + 1, on
    the last k, ``dpftrf`` factors it, and two ``dtfsm`` solves map
    [X^T Y; 0] to the weights. So they must equal the production fit bit
    for bit.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    n, p = x.shape
    q = p + 1
    m = q + y.shape[1]
    design = np.asfortranarray(np.hstack([x, np.ones((n, 1)), y]))
    gram = scipy.linalg.blas.dgemm(1.0, design, design, trans_a=1)
    b = np.zeros_like(gram[:, q:], order="F")
    b[:q] = gram[:q, q:]
    packed, info = scipy.linalg.lapack.dtrttf(gram)
    assert info == 0
    diagonal = rfp_diagonal(m)
    packed[diagonal[:q]] += ridge * packed[diagonal[:q]].sum() / q
    packed[diagonal[q:]] += n + 1
    factor, info = scipy.linalg.lapack.dpftrf(m, packed)
    assert info == 0
    b = scipy.linalg.lapack.dtfsm(1.0, factor, b, trans="T")
    b[q:] = 0.0
    return scipy.linalg.lapack.dtfsm(1.0, factor, b)[:q]


def rfp_diagonal(n):
    """Indices of an n x n matrix's diagonal in ``dtrttf``'s packed array, found by packing."""
    packed, info = scipy.linalg.lapack.dtrttf(np.diag(np.arange(1.0, n + 1)))
    assert info == 0
    return np.argsort(packed)[-n:]


def exact_ridge_bits(features, targets, alpha):
    """Bits of the exact ridge readout's predictions, ŷ >= 1/2, on every row.

    The ridge fit of [X 1] to Y with penalty ``alpha`` on every weight,
    intercept included, solved in rational arithmetic on the distinct rows
    of [X Y] in the dual form: with Z_u = [X_u 1] the distinct rows, C their
    counts and K = Z_u Z_u^T (exact integers),
    ŷ_u = Y_u - alpha C^-1 (C K + alpha I)^-1 C Y_u. ``alpha`` is a float,
    taken exactly. Returns an (N, k) uint8 array.
    """
    x = np.asarray(features, dtype=np.uint8)
    y = np.asarray(targets, dtype=np.uint8)
    xy = np.hstack([x, y])
    # one np.void a row: np.unique(axis=0) sorts these 50x slower
    _, first, inverse, counts = np.unique(
        xy.view(np.dtype((np.void, xy.shape[1])))[:, 0],
        return_index=True, return_inverse=True, return_counts=True,
    )
    rows = xy[first].astype(np.int64)
    z = np.hstack([rows[:, : x.shape[1]], np.ones((len(rows), 1), dtype=np.int64)])
    y_u = rows[:, x.shape[1] :].tolist()
    kernel = (z @ z.T).tolist()
    counts = counts.tolist()
    alpha = Fraction(alpha)
    a, d = alpha.numerator, alpha.denominator
    n = len(rows)
    # d (C K + alpha I) s = d C Y_u: an integer system
    system = [
        [d * counts[i] * kernel[i][j] + (a if i == j else 0) for j in range(n)]
        + [d * counts[i] * v for v in y_u[i]]
        for i in range(n)
    ]
    s = _bareiss_solve(system, n)
    bits = [[y_u[i][j] - alpha * s[i][j] / counts[i] >= Fraction(1, 2)
             for j in range(y.shape[1])] for i in range(n)]
    return np.array(bits, dtype=np.uint8)[inverse.ravel()]


def _bareiss_solve(augmented, n):
    """Exact solution of an n x n integer system given as rows [M | B], as Fractions.

    Fraction-free (Bareiss) elimination without pivoting, so every leading
    principal minor of M must be nonzero, then back substitution.
    """
    rows = [list(row) for row in augmented]
    previous = 1
    for i in range(n):
        pivot = rows[i][i]
        if pivot == 0:
            raise ZeroDivisionError(f"leading minor {i + 1} is zero")
        for r in range(i + 1, n):
            lead = rows[r][i]
            rows[r] = [0] * (i + 1) + [
                (pivot * rows[r][c] - lead * rows[i][c]) // previous
                for c in range(i + 1, len(rows[r]))
            ]
        previous = pivot
    solution = [None] * n
    for i in reversed(range(n)):
        solution[i] = [
            (Fraction(rows[i][n + j]) - sum(rows[i][c] * solution[c][j] for c in range(i + 1, n)))
            / rows[i][i]
            for j in range(len(rows[i]) - n)
        ]
    return solution


def normal_equations_predict(weights, features):
    x = np.asarray(features, dtype=np.float64)
    return np.hstack([x, np.ones((x.shape[0], 1))]) @ weights
