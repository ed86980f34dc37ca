"""Linear readout: least-squares fit with intercept, prediction, binarization.

Feature bits enter the regression as 0.0/1.0. The solve goes through the
normal equations with a tiny ridge term (1e-8 times the mean squared column
norm of the design matrix, intercept column included) so that the very
common rank-deficient case, e.g. constant CA columns, stays solvable while
well-conditioned solutions are perturbed far below test tolerances.

Both ``fit`` and ``predict`` stream the design matrix in row blocks, so
neither holds a float copy of all of it; ``fit`` streams each distinct row of
``[X Y]`` once, weighted by its count, when many repeat.

All BLAS and LAPACK work is five routines of scipy's OpenBLAS: ``ssyrk``
and ``dgemm`` from the compiled ``scipy.linalg._fblas``; ``strttf``,
``dpftrf`` and ``dtfsm`` from ``scipy.linalg._flapack`` (both shipped since
scipy 1.10). numpy's ``@`` would run in numpy's own OpenBLAS, and two
OpenBLAS thread pools in one process spin against each other. The two
modules are loaded from scipy's
``linalg`` directory directly, so ``scipy/linalg/__init__.py`` never runs: its
array-API support imports ``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``,
and on a 2-vCPU VM ``scipy.linalg`` took 181 ms of a 271 ms ``import
reca.cli``; the two modules and ``import scipy`` take about 13 ms.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
from dataclasses import dataclass
from types import ModuleType

import numpy as np
import scipy

RIDGE_SCALE = 1e-8
BLOCK_ELEMENTS = 2**19  # values fit converts to float32, or packs to bits, per block
SMALL_BLOCK_ELEMENTS = 2**16  # values predict maps per block: 0.5 MB of float64
MAX_FIT_ROWS = 2**24  # float32 counts are exact below this
SKIP_FRACTION = 16  # skip repeated rows only if at least 1/16 of all rows can go
END_FEATURES = 64  # features at each end of a row packed first, to bound its repeats


def _load_linalg_module(name: str) -> ModuleType:
    """scipy's compiled ``scipy.linalg.<name>``, loaded without ``scipy/linalg/__init__.py``."""
    spec = importlib.machinery.PathFinder.find_spec(
        f"scipy.linalg.{name}", [f"{scipy.__path__[0]}/linalg"]
    )
    if spec is None:
        raise ImportError(
            f"scipy {scipy.__version__} has no compiled scipy.linalg.{name} "
            f"(reca needs scipy>=1.10)",
            name=f"scipy.linalg.{name}",
        )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_fblas = _load_linalg_module("_fblas")  # ssyrk, dgemm
_flapack = _load_linalg_module("_flapack")  # strttf, dpftrf, dtfsm


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
        ridge: relative ridge strength added to the normal-equation diagonal;
            a ValueError unless finite and >= 0.

    The normal equations come from the Gram matrix of ``[X 1 Y]``: X^T X, the
    column sums, N and X^T Y. With 0/1 entries each is an integer count
    <= N, exact in float32 for N < 2^24, so the order of the sum cannot move
    the result. When at least 1/``SKIP_FRACTION`` of the rows can go, each
    group of c identical rows of ``[X Y]`` is fed as one member, and the
    members of all groups of one size c go through ``ssyrk`` with alpha = c:
    every term and partial sum is still an integer <= N.

    The fed rows are copied in blocks of about ``BLOCK_ELEMENTS`` values
    into the head of one buffer, and one ``ssyrk`` per block adds their Gram
    matrix to the upper triangle of the float32 Gram at its tail. ``strttf``
    then packs that triangle, m = p + 1 + k columns, into LAPACK's
    rectangular full packed (RFP) format, m (m + 1) / 2 values, and the
    packed triangle is widened to float64 into the buffer's head. The solve
    is float64: the ridge goes on the first p + 1 diagonal entries and a
    shift of N + 1 on the last k, ``dpftrf`` factors the whole matrix, and
    two triangular solves with its factor (``dtfsm``) give the weights. So
    the fit holds 4 m (m + block rows) bytes, and the 2 m (m + 1) bytes of
    the packed float32 copy, beside its inputs, and the grouping of its rows
    up to about N (p + k) / 2 bytes (``working_bytes``); never a (p + 1)^2
    square.
    """
    x = np.asarray(features)
    y = np.asarray(targets)
    if x.ndim != 2 or y.ndim != 2:
        raise ValueError("features and targets must be 2-D")
    if x.shape[0] != y.shape[0]:
        raise ValueError("features and targets must have the same row count")
    if x.shape[0] < 1:
        raise ValueError("at least one training row is required")
    if not (ridge >= 0 and np.isfinite(ridge)):
        raise ValueError(f"ridge must be finite and >= 0, not {ridge}")
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
    groups = _row_groups(x, y)

    block_rows, words = _fit_layout(x.shape[0] if groups is None else len(groups[0]), p, k)
    buffer = np.zeros(words, dtype=np.float64)
    gram = buffer.view(np.float32)[-m * m :].reshape(m, m, order="F")
    block_buffer = buffer.view(np.float32)[: block_rows * m].reshape(block_rows, m)
    if groups is None:
        gram = _add_gram(gram, block_buffer, x, y)
    else:
        members, sizes = groups
        # return_counts keeps np.unique off the path that imports numpy.ma
        for size in np.unique(sizes, return_counts=True)[0].tolist():
            rows = members[sizes == size]
            rows.sort()
            gram = _add_gram(gram, block_buffer, x, y, rows, size)
    del block_buffer
    # X^T Y, copied before packing: in the RFP array (and in the factor) it
    # is one slice only while the Y columns sit in its second half, and at
    # p = 1, k = 9 they do not.
    b = np.zeros((m, k), dtype=np.float64, order="F")
    b[:q] = gram[:q, q:]
    packed, info = _flapack.strttf(gram)  # its own array: the upper triangle, packed
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of strttf")
    del gram
    a = buffer[: m * (m + 1) // 2]
    a[:] = packed
    del packed

    diagonal = _rfp_diagonal(m)
    alpha = ridge * a[diagonal[:q]].sum() / q
    a[diagonal[:q]] += alpha
    # The trailing (Y) block's Schur complement is Y^T Y less its fitted part,
    # zero when a target is fitted exactly; the shift keeps it positive and
    # moves neither the leading factor nor W.
    a[diagonal[q:]] += x.shape[0] + 1

    factor, info = _flapack.dpftrf(m, a, overwrite_a=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite"
        )
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpftrf")
    # With U^T U the factor, U^T z = [X^T Y; 0] gives z's first q rows as
    # U11^-T X^T Y; with the rest set to 0, U w = z gives w's first q rows as
    # the solution of the leading q x q system, and its last k rows as 0.
    b = _flapack.dtfsm(1.0, factor, b, trans="T", overwrite_b=1)
    b[q:] = 0.0
    b = _flapack.dtfsm(1.0, factor, b, overwrite_b=1)
    return ReadoutModel(b[:q].copy(order="F"))


def _fit_layout(n_fed: int, p: int, k: int) -> tuple[int, int]:
    """Rows per block and float64 words of ``fit``'s one buffer, for ``n_fed`` fed rows.

    The F-ordered float32 Gram of [X 1 Y] (4 m^2 bytes) sits at the
    buffer's tail and the float32 row blocks (4 m r bytes, r rows) at its
    head, so they never overlap. Once the Gram is packed into an array of
    its own, the buffer's head takes the packed triangle widened to float64,
    8 m (m + 1) / 2 bytes.

    The one buffer is what keeps the process's RSS down, not its traced
    peak. Three arrays of their own (Gram, row block, packed triangle as
    float64) gave bit-identical weights over 211 fits and a tracemalloc
    peak of 39.52 MB against 41.60 at (8,8), but perfbench single-8x8 read
    ``peak_rss_mb`` 139.1-139.7 against 115.0-115.3 (2-vCPU VM, 4
    alternating 15-s pairs, seeds 21101-21104).
    """
    m = p + 1 + k
    block_rows = min(n_fed, max(1, BLOCK_ELEMENTS // m))
    size = max(4 * m * (m + block_rows), 8 * (m * (m + 1) // 2))
    return block_rows, -(-size // 8)


def _rfp_diagonal(n: int) -> np.ndarray:
    """Indices of an n x n matrix's diagonal in LAPACK's RFP array (TRANSR 'N', UPLO 'U').

    The array is lda = n + 1 (n even) or n (n odd) rows by n - n // 2
    columns, F-ordered. With n1 = n // 2, diagonal entry j < n1 sits at row
    lda - n1 + j, column j; entry j >= n1 at row j, column j - n1.
    """
    n1 = n // 2
    lda = n + 1 - n % 2
    j = np.arange(n)
    return (lda + 1) * j + np.where(j < n1, lda - n1, -lda * n1)


def working_bytes(n_rows: int, feature_length: int, output_width: int) -> int:
    """Most bytes ``fit`` or ``predict`` holds beside an (n_rows, p) design.

    ``fit``: grouping the rows (``_row_groups``) holds up to four packed
    copies of them and six 8-byte words a row; then its one buffer
    (``_fit_layout``, every row fed), the float32 packed triangle that
    ``strttf`` returns (4 m (m + 1) / 2 bytes), ``b`` and the weights, and
    the fed rows' indices and group sizes with one size's mask and indices.
    ``predict``: ``_predict_bytes``. No two of these run at once.
    """
    p, k = feature_length, output_width
    q, m = p + 1, p + 1 + k
    group_bytes = n_rows * (4 * (-(-p // 8) + -(-k // 8)) + 48)
    _, words = _fit_layout(n_rows, p, k)
    fit_bytes = 8 * words + 4 * (m * (m + 1) // 2) + 8 * (m + q) * k + 25 * n_rows
    return max(group_bytes, fit_bytes, _predict_bytes(n_rows, p, k))


def _predict_bytes(n_rows: int, feature_length: int, output_width: int) -> int:
    """Most bytes ``predict`` holds: its float64 block, its output, its copy
    of the weights and 4 KB for the views and array headers of its loop."""
    p, k = feature_length, output_width
    return 8 * (_predict_rows(n_rows, p) * p + n_rows * k + p * k) + 4096


def _add_gram(gram: np.ndarray, buf: np.ndarray, x: np.ndarray, y: np.ndarray,
              rows: np.ndarray | None = None, alpha: float = 1.0) -> np.ndarray:
    """Add ``alpha`` times the Gram matrix of ``[X 1 Y][rows]`` to ``gram``'s upper triangle.

    ``rows`` None means every row, in order. One ``ssyrk`` per block of
    ``len(buf)`` rows, each copied into the C-ordered float32 ``buf``;
    returns the updated ``gram``. A feature other than 0 or 1 is a
    ValueError; ``_row_groups`` checks every row before it leaves any out.
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
        # alpha * block.T @ block, upper triangle only, added to ``gram`` in place
        gram = _fblas.ssyrk(alpha, block.T, beta=1.0, c=gram, overwrite_c=1)
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


def _row_groups(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """One member of each group of identical rows of ``[X Y]``, and the group's size.

    Rows are grouped by their exact packed bits; each member is its group's
    first row. A feature other than 0 or 1 is a ValueError, as packing would
    read it as a 1. None if fewer than 1/``SKIP_FRACTION`` of the rows can
    go: every row is then fed in order, as a gather per block costs more than
    a few rows save. On rule 90's (6720, 2560) and (32320, 640) designs, on 2
    vCPUs, a gather of every row adds 3-6% to the stream, and one that leaves
    out 1/16 of them breaks even.
    """
    n = x.shape[0]
    # Identical rows share both ends: distinct ends bound the rows that can go.
    last = _packed(x[:, -END_FEATURES:], np.zeros((n, 8), np.uint8)).view(np.uint64)[:, 0]
    if n - 1 - np.count_nonzero(np.diff(np.sort(last))) < n // SKIP_FRACTION:
        return None
    first = _packed(x[:, :END_FEATURES], np.zeros((n, 8), np.uint8)).view(np.uint64)[:, 0]
    # One 64-bit mix a pair: a collision only merges pairs, so the count of
    # rows that can go stays an upper bound. Sorting it took 0.3 ms at
    # 32,320 rows, against 6.3 ms for a lexsort of the pairs.
    pairs = np.sort(first * np.uint64(0x9E3779B97F4A7C15) ^ last)
    if n - 1 - np.count_nonzero(np.diff(pairs)) < n // SKIP_FRACTION:
        return None
    del last, first, pairs

    if x.max(initial=0) > 1:
        raise ValueError("features must hold only 0s and 1s")
    x_bytes = -(-x.shape[1] // 8)
    packed = np.empty((n, x_bytes + -(-y.shape[1] // 8)), dtype=np.uint8)
    chunk = max(1, BLOCK_ELEMENTS // max(1, x.shape[1]))
    for lo in range(0, n, chunk):
        _packed(x[lo : lo + chunk], packed[lo : lo + chunk, :x_bytes])
    _packed(y, packed[:, x_bytes:])  # whole: numpy caches freed buffers < 1 KB
    # np.unique sorts stably when it returns indices: each member is a first row
    rows = packed.view(np.dtype((np.void, packed.shape[1])))[:, 0]
    members, sizes = np.unique(rows, return_index=True, return_counts=True)[1:]
    del packed, rows
    if n - len(members) < n // SKIP_FRACTION:
        return None
    # Copied: made above np.unique's freed row copies and held through the fit,
    # they raised peak RSS ~3 MB at rule 90 (4,4), T_d=1000 (glibc heap).
    return members.copy(), sizes.copy()


def _packed(bits: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out`` with each row of ``bits`` packed 8 bits a byte into its leading bytes."""
    packed = np.packbits(bits, axis=1)  # any nonzero value packs as a 1
    out[:, : packed.shape[1]] = packed
    return out


def predict(model: ReadoutModel, features: np.ndarray) -> np.ndarray:
    """Affine map of one feature vector or a batch of feature rows.

    Rows are converted to float64 and mapped by one scipy ``dgemm`` in
    blocks of about ``SMALL_BLOCK_ELEMENTS`` values (0.5 MB), so the float
    copy of a large design matrix never exists whole. A block that small
    stays in L2, and with a few outputs its product is under OpenBLAS's
    small-matrix threshold, so ``dgemm`` does not pack it first. On a
    2-vCPU VM, rule 90's (32320, 640) design took 27-30 ms in 4 MB blocks
    and 16-18 ms in these; its (6720, 2560) one 22-25 and 12-15 ms.

    The small-matrix kernel adds in its own order, so the result is not
    bit-identical to ``features.astype(float64) @ weights[:-1] +
    weights[-1]``. Each output sums p + 1 terms, the products of the
    features with their weights and the intercept, and is within
    (p + 1) u / (1 - (p + 1) u) times the sum of the terms' magnitudes of
    their exact sum, u = 2**-53: the standard forward-error bound of a sum.
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
    rows = _predict_rows(n, p)
    out = np.empty((n, model.output_width), dtype=np.float64)
    block = np.empty((rows, p), dtype=np.float64)
    # out_b.T = w.T @ block_b.T + out_b.T in column-major order, each block
    # of ``out`` set to the intercept first (``out += intercept`` would
    # allocate numpy's 64 KB ufunc buffers); w is copied once to F order.
    w = np.asfortranarray(model.weights[:-1])
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        np.copyto(block[: hi - lo], x[lo:hi])
        out[lo:hi] = model.weights[-1]
        _fblas.dgemm(1.0, w, block[: hi - lo].T, beta=1.0, c=out[lo:hi].T, trans_a=1,
                     overwrite_c=1)
    return out[0] if squeeze else out


def _predict_rows(n_rows: int, feature_length: int) -> int:
    """Rows per block of ``predict``."""
    return max(1, min(n_rows, SMALL_BLOCK_ELEMENTS // max(feature_length, 1)))


def binarize_array(values: np.ndarray) -> np.ndarray:
    """Elementwise binarize; rejects non-finite entries."""
    v = np.asarray(values)
    if not np.all(np.isfinite(v)):
        raise ValueError("cannot binarize non-finite values")
    return (v >= 0.5).astype(np.uint8)
