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

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

RIDGE_SCALE = 1e-8
BLOCK_ELEMENTS = 2**19  # values converted to float per fit or predict block
MAX_FIT_ROWS = 2**24  # float32 counts are exact below this
SKIP_FRACTION = 16  # skip repeated rows only if at least 1/16 of all rows can go
CHUNK_BYTES = 2**20  # feature bytes hashed at a time
PREFIX_FEATURES = 64  # features of each row hashed first, to bound its repeats


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
        features: (N, p) matrix of 0s and 1s.
        targets: (N, k) matrix of 0s and 1s.
        ridge: relative ridge strength added to the normal-equation diagonal.

    The normal equations come from the Gram matrix of ``[X 1 Y]``: X^T X, the
    column sums, N and X^T Y. With 0/1 entries each is an integer count
    <= N, exact in float32 for N < 2^24, so neither the order of the sum nor
    the integer row weights below can move the result.

    When at least 1/``SKIP_FRACTION`` of the rows can go, a group of c > 4
    identical rows of ``[X Y]`` is fed as at most four of its members,
    scaled by integers whose squares sum to c (Lagrange's four-square
    theorem), and the others are skipped. The fed rows are copied in blocks
    of about ``BLOCK_ELEMENTS`` values into the head of one buffer, and one
    ``ssyrk`` per block adds their Gram matrix to the upper triangle of the
    float32 Gram at its tail. The head then becomes the float64 normal
    matrix, and the Gram is widened into it in place, so the fit holds
    about max(8 (p + 1)^2, 4 m (m + block rows)) bytes beside its inputs,
    m = p + 1 + k, and one block more while it widens (``working_bytes``).
    The solve is float64.
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
    x = _as_bits(x, "features")
    y = _as_bits(y, "targets")
    if y.max(initial=0) > 1:
        raise ValueError("targets must hold only 0s and 1s")

    p, k = x.shape[1], y.shape[1]
    q = p + 1  # columns of [X 1]
    m = q + k
    rows, scales = _row_scales(x, y)

    block_rows, words = _fit_layout(x.shape[0] if rows is None else len(rows), p, k)
    buffer = np.zeros(words, dtype=np.float64)
    gram = buffer.view(np.float32)[-m * m :].reshape(m, m, order="F")
    block_buffer = buffer.view(np.float32)[: block_rows * m].reshape(block_rows, m)
    gram = _add_gram(gram, block_buffer, x, y, rows, scales)
    del block_buffer
    a = buffer[: q * q].reshape(q, q, order="F")
    b = np.array(gram[:q, q:], dtype=np.float64, order="F")
    step = _widen_columns(q)
    for j in range(0, q, step):
        columns = slice(j, min(j + step, q))
        # These columns of ``a`` overlap their own source. numpy would buffer
        # the overlap itself, but in float64; the float32 copy is half that.
        a[:, columns] = gram[:q, columns].copy(order="F")
    del gram

    # Only the upper triangle of ``a`` is ever read (cho_factor(lower=False)),
    # so the Gram matrix is not mirrored, and the factor is in place.
    alpha = ridge * np.trace(a) / q
    a[np.diag_indices_from(a)] += alpha

    cho = scipy.linalg.cho_factor(a, lower=False, overwrite_a=True, check_finite=False)
    weights = scipy.linalg.cho_solve(cho, b, check_finite=False)
    return ReadoutModel(weights)


def _fit_layout(n_fed: int, p: int, k: int) -> tuple[int, int]:
    """Rows per block and float64 words of ``fit``'s one buffer, for ``n_fed`` fed rows.

    The F-ordered float32 Gram of [X 1 Y] sits at the buffer's tail, from
    byte t on, and the row blocks are copied into its head, which later
    becomes the F-ordered float64 normal matrix ``a``. Column j of ``a``
    ends at byte 8q(j + 1), and Gram column j + 1 starts at byte
    t + 4m(j + 1); t >= 4(q - k)(q - 1) keeps the first at or below the
    second for every j + 1 < q, so widening the columns from the left never
    overwrites one still unread.
    """
    q, m = p + 1, p + 1 + k
    block_rows = min(n_fed, max(1, BLOCK_ELEMENTS // m))
    size = max(8 * q * q, 4 * m * m + 4 * max(q - k, 0) * (q - 1), 4 * m * (m + block_rows))
    return block_rows, -(-size // 8)


def _widen_columns(q: int) -> int:
    """Columns of the Gram widened to float64 at a time, through a float32 copy."""
    return max(1, BLOCK_ELEMENTS // q)


def working_bytes(n_rows: int, feature_length: int, output_width: int) -> int:
    """Most bytes ``fit`` or ``predict`` holds beside an (n_rows, p) design.

    ``fit``: its one buffer (``_fit_layout``, every row fed), the float32
    columns it widens through, ``b``, and the fed rows' indices and scales.
    ``predict``: its float64 block, which holds under two blocks' rows, and
    its output. The two never run at once.
    """
    p, k = feature_length, output_width
    q = p + 1
    _, words = _fit_layout(n_rows, p, k)
    fit_bytes = 8 * words + 4 * q * _widen_columns(q) + 8 * q * k + 12 * n_rows
    predict_rows = min(n_rows, 2 * max(1, BLOCK_ELEMENTS // max(p, 1)))
    predict_bytes = 8 * predict_rows * p + 8 * n_rows * k
    return max(fit_bytes, predict_bytes)


def _add_gram(gram: np.ndarray, buf: np.ndarray, x: np.ndarray, y: np.ndarray,
              rows: np.ndarray | None, scales: np.ndarray | None) -> np.ndarray:
    """Add the Gram matrix of the scaled rows ``[X 1 Y][rows]`` to ``gram``'s upper triangle.

    ``rows`` None means every row, in order and unscaled. One ``ssyrk`` per
    block of ``len(buf)`` rows, each copied into the C-ordered float32
    ``buf``; returns the updated ``gram``. A feature value other than 0 or 1
    is a ValueError. Only the fed rows are checked: every row that
    ``_row_scales`` skips is byte-identical to a fed one.
    """
    p = x.shape[1]
    n = x.shape[0] if rows is None else len(rows)
    buf[:, p] = 1.0
    for lo in range(0, n, len(buf)):
        hi = min(lo + len(buf), n)
        index = slice(lo, hi) if rows is None else rows[lo:hi]
        # C-ordered, so ``block.T`` is F-ordered and ssyrk reads it uncopied
        block = buf[: hi - lo]
        source = x[index]
        np.copyto(block[:, :p], source, casting="unsafe")
        if source.max(initial=0) > 1:  # the copy brought ``source`` into cache
            raise ValueError("features must hold only 0s and 1s")
        np.copyto(block[:, p + 1 :], y[index], casting="unsafe")
        if scales is not None:
            block *= scales[lo:hi, None]
        # block.T @ block, upper triangle only, added to ``gram`` in place
        gram = scipy.linalg.blas.ssyrk(1.0, block.T, beta=1.0, c=gram, overwrite_c=1)
        if scales is not None:
            block[:, p] = 1.0
    return gram


def _as_bits(values: np.ndarray, name: str) -> np.ndarray:
    """``values`` as uint8; a ValueError unless every value is 0 or 1.

    uint8 input is returned unchecked, for ``fit`` checks it where it reads
    it anyway.
    """
    if values.dtype == np.bool_:
        return values.view(np.uint8)
    if values.dtype != np.uint8 and not ((values == 0) | (values == 1)).all():
        raise ValueError(f"{name} must hold only 0s and 1s")
    return values.astype(np.uint8, copy=False)


def _row_scales(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The rows of ``[X Y]`` to feed, ascending, and their integer scales as float32.

    Identical rows are found by sorting a hash of the rows; rows next to
    each other in that order with equal hashes are compared byte for byte,
    so a hash collision can only leave a group split, never join rows that
    differ. A group of c > 4 identical rows is fed as at most four of its
    members, scaled by integers whose squares sum to c, and its other
    members are skipped, so the weighted Gram matrix is the full one. Other
    rows keep scale 1. If fewer than 1/``SKIP_FRACTION`` of the rows would
    be skipped, every row is fed as it is, and both are None: feeding rows
    out of order costs a gather per block, more than a few skipped rows save.
    On the (6720, 2560) and (32320, 640) designs of rule 90, on a 2-vCPU
    Xeon VM, a gather of every row adds 3-6% to the stream, one that skips
    1/64 of the rows 1-4%, and one that skips 1/16 of them breaks even.
    """
    n = x.shape[0]
    feed_all = None, None
    # Identical rows of [X Y] share a bucket of even a hash of their first
    # PREFIX_FEATURES features, so the buckets bound the rows that can go
    # from above, for a read of a row's first 64 bytes and no sort. Only a
    # design that may pass the threshold has its whole rows hashed.
    bits = n.bit_length()  # about one bucket a row, by a hash's top bits
    prefix_keys = _row_keys(x[:, :PREFIX_FEATURES], y[:, :0])
    prefix_keys >>= np.uint64(64 - bits)
    buckets = np.bincount(prefix_keys.view(np.int64), minlength=1 << bits)
    del prefix_keys
    if (buckets[buckets > 4] - 1).sum() < n // SKIP_FRACTION:
        return feed_all
    del buckets

    keys = _row_keys(x, y)
    order = np.argsort(keys)
    keys = keys[order]
    same = keys[1:] == keys[:-1]  # same[i]: sorted rows i and i + 1 are one row
    del keys
    pairs = np.flatnonzero(same)
    chunk = max(1, BLOCK_ELEMENTS // (x.shape[1] + y.shape[1]))
    for lo in range(0, len(pairs), chunk):
        pair = pairs[lo : lo + chunk]
        first, second = order[pair], order[pair + 1]
        same[pair] = (x[first] == x[second]).all(axis=1) & (y[first] == y[second]).all(axis=1)

    starts = np.flatnonzero(np.concatenate(([True], ~same)))
    counts = np.diff(starts, append=n)
    scale = np.ones(n, dtype=np.float32)  # by sorted position
    for count in np.unique(counts[counts > 4]).tolist():
        terms = np.zeros(count, dtype=np.float32)
        squares = _square_terms(count)
        terms[: len(squares)] = squares
        scale[starts[counts == count][:, None] + np.arange(count)] = terms
    scale_at = np.empty(n, dtype=np.float32)
    scale_at[order] = scale
    rows = np.flatnonzero(scale_at)
    if n - len(rows) < n // SKIP_FRACTION:
        return feed_all
    return rows, scale_at[rows]


def _row_keys(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each row of ``[X Y]``.

    The row of X is packed to bits (any nonzero value is a 1) and read as
    64-bit words, zero-padded to whole words; its words and the values of Y
    are multiplied by fixed odd numbers and summed. X is read in chunks of
    about ``CHUNK_BYTES``, so its packed copies stay small.
    """
    n, p = x.shape
    words = -(-p // 64)
    odd = _odd_multipliers(words + y.shape[1])
    keys = np.empty(n, dtype=np.uint64)
    chunk = max(1, CHUNK_BYTES // max(1, p))
    for lo in range(0, n, chunk):
        part = keys[lo : lo + chunk]
        packed = np.packbits(x[lo : lo + chunk], axis=1)
        if packed.shape[1] != 8 * words:
            packed = np.pad(packed, ((0, 0), (0, 8 * words - packed.shape[1])))
        np.sum(packed.view(np.uint64) * odd[:words], axis=1, out=part)
        for j in range(y.shape[1]):
            part += y[lo : lo + chunk, j].astype(np.uint64) * odd[words + j]
    return keys


def _odd_multipliers(n: int) -> np.ndarray:
    """``n`` fixed pseudo-random odd uint64 numbers.

    splitmix64's first ``n`` outputs from seed 0, each with its low bit set.
    """
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z | np.uint64(1)


def _square_terms(count: int) -> list[int]:
    """The fewest positive integers whose squares sum to ``count`` >= 1.

    Four always suffice (Lagrange's four-square theorem).
    """
    if _needs_four_squares(count):
        return _squares(count, 4)
    return _squares(count, 1) or _squares(count, 2) or _squares(count, 3)


def _squares(count: int, n_terms: int) -> list[int] | None:
    """``n_terms`` positive integers, largest first, whose squares sum to ``count``."""
    root = math.isqrt(count)
    if n_terms == 1:
        return [root] if root * root == count else None
    if n_terms == 3 and _needs_four_squares(count):
        return None
    for first in range(root, 0, -1):
        rest = count - first * first
        terms = _squares(rest, n_terms - 1) if rest else None
        if terms:
            return [first, *terms]
    return None


def _needs_four_squares(count: int) -> bool:
    """Whether ``count`` is 4^a (8b + 7), no sum of three squares (Legendre)."""
    while count % 4 == 0:
        count //= 4
    return count % 8 == 7


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
