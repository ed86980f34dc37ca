import ast
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reca import pipeline, readout
from reca.encoding import generate_mappings
from reca.readout import (
    BLOCK_ELEMENTS,
    MAX_FIT_ROWS,
    SMALL_BLOCK_ELEMENTS,
    ReadoutModel,
    binarize_array,
    fit,
    predict,
)
from reca.reservoir import run_sequences
from reference import (
    exact_integer_fit,
    exact_ridge_bits,
    normal_equations_fit,
    normal_equations_predict,
)


def random_batch(rng, n=50, p=20, k=3):
    x = rng.integers(0, 2, size=(n, p)).astype(np.uint8)
    y = rng.integers(0, 2, size=(n, k)).astype(np.uint8)
    return x, y


def test_fit_constant_zero_targets():
    rng = np.random.default_rng(0)
    x, _ = random_batch(rng)
    model = fit(x, np.zeros((50, 2), dtype=np.uint8))
    assert np.allclose(predict(model, x), 0.0, atol=1e-6)


def test_fit_interpolates_one_hot_features():
    x = np.eye(8, dtype=np.uint8)
    rng = np.random.default_rng(1)
    y = rng.integers(0, 2, size=(8, 3)).astype(np.uint8)
    model = fit(x, y)
    assert np.allclose(predict(model, x), y, atol=1e-4)


def test_fit_matches_normal_equations_oracle():
    rng = np.random.default_rng(2)
    x, y = random_batch(rng)
    model = fit(x, y)
    oracle_w = normal_equations_fit(x, y)
    ours = predict(model, x)
    theirs = normal_equations_predict(oracle_w, x)
    scale = max(1.0, np.abs(theirs).max())
    assert np.abs(ours - theirs).max() / scale < 1e-6


def test_fit_beats_zero_model_residual():
    rng = np.random.default_rng(3)
    x, y = random_batch(rng)
    model = fit(x, y)
    fitted = np.square(predict(model, x) - y).sum()
    zero = np.square(y.astype(float)).sum()
    assert fitted <= zero


def test_fit_least_squares_optimality_against_perturbations():
    rng = np.random.default_rng(4)
    x, y = random_batch(rng, n=40, p=10, k=2)
    model = fit(x, y)
    best = np.square(predict(model, x) - y).sum()
    for _ in range(20):
        perturbed = ReadoutModel(model.weights + rng.normal(0, 0.05, model.weights.shape))
        assert best <= np.square(predict(perturbed, x) - y).sum() + 1e-9


def test_fit_handles_rank_deficiency():
    # duplicated and constant columns, the typical CA feature pathology
    rng = np.random.default_rng(5)
    base = rng.integers(0, 2, size=(30, 5)).astype(np.uint8)
    x = np.hstack([base, base, np.ones((30, 2), dtype=np.uint8)])
    y = rng.integers(0, 2, size=(30, 3)).astype(np.uint8)
    model = fit(x, y)
    assert np.all(np.isfinite(model.weights))


def test_fit_is_deterministic():
    rng = np.random.default_rng(6)
    x, y = random_batch(rng)
    assert np.array_equal(fit(x, y).weights, fit(x, y).weights)


@pytest.mark.parametrize("p", [20, 640])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("blocks,tail", [(0, 57), (2, 0), (3, 11)])
def test_streamed_fit_equals_exact_integer_oracle(p, k, blocks, tail):
    # Below one row block, exactly two blocks, and three blocks plus a short tail.
    rng = np.random.default_rng(9)
    n = blocks * (BLOCK_ELEMENTS // (p + 1 + k)) + tail
    x, y = random_batch(rng, n=n, p=p, k=k)
    assert np.array_equal(fit(x, y).weights, exact_integer_fit(x, y))


def test_fit_accepts_bool_and_float_inputs():
    rng = np.random.default_rng(10)
    x, y = random_batch(rng)
    weights = fit(x, y).weights
    assert np.array_equal(fit(x.astype(bool), y.astype(np.int64)).weights, weights)
    assert np.array_equal(fit(x.astype(np.float64), y.astype(np.float32)).weights, weights)


BITS = np.array([[0, 1], [1, 0]], dtype=np.uint8)
BIT_TARGETS = np.array([[1], [0]], dtype=np.uint8)


@pytest.mark.parametrize(
    "features,targets",
    [
        (np.array([[0, 2], [1, 0]], dtype=np.uint8), BIT_TARGETS),
        (np.array([[0, 0.5], [1, 0]]), BIT_TARGETS),
        (BITS, np.array([[2], [0]], dtype=np.uint8)),
        (BITS, np.array([[0.5], [0]])),
    ],
)
def test_fit_rejects_non_binary_values(features, targets):
    with pytest.raises(ValueError, match="only 0s and 1s"):
        fit(features, targets)


@pytest.mark.parametrize("ridge", [float("nan"), float("inf"), -float("inf"), -1e-3])
def test_fit_rejects_a_ridge_that_is_not_finite_and_non_negative(ridge):
    x, y = random_batch(np.random.default_rng(21))
    with pytest.raises(ValueError, match="ridge"):
        fit(x, y, ridge=ridge)


def test_unregularized_fit_of_an_all_zero_column_is_not_positive_definite():
    # Without a ridge, the normal matrix of a design with an all-zero column
    # has a zero pivot: the Cholesky factorization must fail, not return weights.
    x, y = random_batch(np.random.default_rng(22))
    x[:, 5] = 0
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        fit(x, y, ridge=0.0)


def test_unregularized_fit_of_targets_that_are_exact_features_does_not_raise():
    # Targets that the features fit exactly, among them an all-zero one,
    # leave a zero Schur complement in the Y block of the [X 1 Y] normal
    # matrix: only the shift on its diagonal lets the factorization through.
    x, _ = random_batch(np.random.default_rng(23))
    y = np.column_stack([x[:, 0], 1 - x[:, 1], np.zeros(len(x), dtype=np.uint8)])
    model = fit(x, y, ridge=0.0)
    assert np.abs(predict(model, x) - y).max() < 1e-9


@pytest.mark.parametrize("n", range(1, 10))
def test_rfp_diagonal_matches_dtrttf(n):
    # Odd and even orders: LAPACK lays the two out differently.
    packed, info = readout._flapack.dtrttf(np.diag(np.arange(1.0, n + 1)))
    assert info == 0
    assert np.array_equal(packed[readout._rfp_diagonal(n)], np.arange(1.0, n + 1))


def repeated_design(rng, p, k, distinct, n, singles):
    """``distinct`` random rows repeated to ``n`` rows, plus ``singles`` more, shuffled."""
    base = rng.integers(0, 2, size=(distinct, p + k), dtype=np.uint8)
    counts = 1 + rng.multinomial(n - distinct, np.ones(distinct) / distinct)
    rows = np.vstack([np.repeat(base, counts, axis=0),
                      rng.integers(0, 2, size=(singles, p + k), dtype=np.uint8)])
    rows = rows[rng.permutation(len(rows))]
    return np.ascontiguousarray(rows[:, :p]), np.ascontiguousarray(rows[:, p:])


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(1, 70),
    k=st.sampled_from([1, 2, 3, 9]),  # 9: the targets pack into two bytes
    distinct=st.integers(1, 6),
    blocks=st.sampled_from([0, 1, 2]),
    with_singles=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_of_repeated_rows_equals_exact_integer_oracle(
    p, k, distinct, blocks, with_singles, seed
):
    # N in the first, second or third row block; with singles, the fed rows
    # of size one alone span more than one block, beside groups of other sizes.
    rng = np.random.default_rng(seed)
    block_rows = BLOCK_ELEMENTS // (p + 1 + k)
    n = max(distinct, blocks * block_rows + int(rng.integers(1, block_rows)))
    singles = block_rows + 7 if with_singles else 0
    x, y = repeated_design(rng, p, k, distinct, n, singles)
    assert np.array_equal(fit(x, y).weights, exact_integer_fit(x, y))


def test_fit_feeds_each_row_present_twice_once_at_alpha_two(monkeypatch):
    # Every group holds exactly two rows: the bound must still see that half
    # of the rows can go, and each group is fed once, at alpha 2.
    rng = np.random.default_rng(14)
    n, p, k = 3000, 200, 3
    rows = np.repeat(rng.integers(0, 2, size=(n, p + k), dtype=np.uint8), 2, axis=0)
    rows = rows[rng.permutation(2 * n)]
    x, y = np.ascontiguousarray(rows[:, :p]), np.ascontiguousarray(rows[:, p:])
    fed = []
    ssyrk = readout._fblas.ssyrk

    def counting_ssyrk(alpha, a, *args, **kwargs):
        fed.append((alpha, a.shape[1]))
        return ssyrk(alpha, a, *args, **kwargs)

    monkeypatch.setattr(readout._fblas, "ssyrk", counting_ssyrk)
    weights = fit(x, y).weights
    assert {alpha for alpha, _ in fed} == {2.0}
    assert sum(rows for _, rows in fed) == n
    assert np.array_equal(weights, exact_integer_fit(x, y))


def test_fit_rejects_a_two_that_packs_like_a_repeated_row():
    # A 2 packs to a 1 bit: the row that holds it must not be grouped with,
    # and left out behind, the earlier row of 0s and 1s it would pack like.
    rng = np.random.default_rng(15)
    x, y = repeated_design(rng, 37, 3, 5, 4000, 0)
    twin = int(np.flatnonzero((x == x[0]).all(axis=1) & (y == y[0]).all(axis=1))[-1])
    assert twin > 0
    x[twin, np.flatnonzero(x[twin])[0]] = 2
    with pytest.raises(ValueError, match="only 0s and 1s"):
        fit(x, y)


@pytest.mark.parametrize("repeated_end", ["first", "last"])
def test_rows_that_repeat_only_at_one_end_are_streamed_whole(monkeypatch, repeated_end):
    # Four patterns in 64 features at one end of each row, random bits at
    # the other, so no row repeats: one row end repeats, but no pair of
    # ends does, and no whole row is packed.
    rng = np.random.default_rng(13)
    n = 3000
    repeated = rng.integers(0, 2, size=(4, 64), dtype=np.uint8)[rng.integers(0, 4, size=n)]
    random = rng.integers(0, 2, size=(n, 64), dtype=np.uint8)
    x = np.hstack([repeated, random] if repeated_end == "first" else [random, repeated])
    y = rng.integers(0, 2, size=(n, 3), dtype=np.uint8)
    fed, packed = [], []
    ssyrk, pack = readout._fblas.ssyrk, readout._packed

    def counting_ssyrk(alpha, a, *args, **kwargs):
        fed.append((alpha, a.shape[1]))
        return ssyrk(alpha, a, *args, **kwargs)

    def counting_pack(bits, out):
        packed.append(bits.shape[1])
        return pack(bits, out)

    monkeypatch.setattr(readout._fblas, "ssyrk", counting_ssyrk)
    monkeypatch.setattr(readout, "_packed", counting_pack)
    weights = fit(x, y).weights
    assert {alpha for alpha, _ in fed} == {1.0}
    assert sum(rows for _, rows in fed) == n
    assert max(packed) == readout.END_FEATURES
    assert np.array_equal(weights, exact_integer_fit(x, y))


@pytest.mark.parametrize("distinct", [None, 300, 1])
def test_fit_peak_allocation_is_the_normal_matrix_and_one_block(distinct):
    # Random rows (nothing to skip), 300 repeated rows, one repeated row.
    rng = np.random.default_rng(11)
    n, p, k = 20000, 640, 3
    if distinct is None:
        x, y = random_batch(rng, n=n, p=p, k=k)
    else:
        x, y = repeated_design(rng, p, k, distinct, n, 0)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fit(x, y)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    normal_matrix = 8 * (p + 1) ** 2
    block = 5 * BLOCK_ELEMENTS  # float32 values in flight and gathered uint8 rows
    row_keys = 16 * n  # each fed row's index and group size
    assert peak <= normal_matrix + block + row_keys
    # the memory check before a run counts at least what the fit holds
    assert peak <= readout.working_bytes(n, p, k)


def test_wide_fit_peak_is_below_the_square_normal_matrix():
    # At the paper's (8,8) width the fit holds the packed triangle of the
    # [X 1 Y] Gram, never a (p + 1)^2 float64 square.
    rng = np.random.default_rng(24)
    n, p, k = 300, 2560, 3
    x, y = random_batch(rng, n=n, p=p, k=k)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fit(x, y)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 8 * (p + 1) ** 2
    assert peak <= readout.working_bytes(n, p, k)


def test_fit_peak_allocation_is_below_the_design_size():
    rng = np.random.default_rng(11)
    x, y = random_batch(rng, n=20000, p=640, k=3)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fit(x, y)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes


def test_exact_ridge_oracle_matches_a_float_solve_away_from_ties():
    rng = np.random.default_rng(25)
    x, y = random_batch(rng, n=40, p=6, k=2)
    ridge = 1e-2
    y_hat = normal_equations_predict(normal_equations_fit(x, y, ridge=ridge), x)
    assert np.abs(y_hat - 0.5).min() > 1e-6
    alpha = ridge * float(x.sum() + len(x)) / (x.shape[1] + 1)
    assert np.array_equal(exact_ridge_bits(x, y, alpha), binarize_array(y_hat))


@pytest.mark.parametrize("seed", [1, 2])
def test_readout_bits_equal_exact_arithmetic_on_a_design_with_ties(seed):
    # Layer 2 of a layered rule-180 (8,8) run: 50 (seed 1) and 27 (seed 2)
    # distinct rows, and 320 bits whose ŷ is within 1e-6 of 1/2, where the
    # ridge alone decides the bit. Every production bit must be the bit of
    # the exact ridge solution at the production alpha.
    config = pipeline.build_config(180, 8, 8, layer2_rule=180, seed=seed)
    _, inputs, targets = pipeline._task_arrays(config)
    layer1 = pipeline._run_layer(inputs, targets, config.layer1)
    features, _ = run_sequences(layer1, config.layer2, generate_mappings(config.layer2))
    x = features.reshape(-1, features.shape[-1])
    y = targets.reshape(len(x), -1)
    y_hat = predict(fit(x, y), x)
    assert np.count_nonzero(np.abs(y_hat - 0.5) < 1e-6) >= 100
    # fit's alpha: the ridge times the trace of [X 1]^T [X 1] over p + 1
    alpha = readout.RIDGE_SCALE * float(x.sum(dtype=np.int64) + len(x)) / (x.shape[1] + 1)
    assert np.array_equal(binarize_array(y_hat), exact_ridge_bits(x, y, alpha))


def test_fit_rejects_row_counts_past_float32_exactness():
    # Broadcast views: neither array allocates its 2**24 rows.
    x = np.broadcast_to(np.zeros((1, 4), dtype=np.uint8), (MAX_FIT_ROWS, 4))
    y = np.broadcast_to(np.zeros((1, 3), dtype=np.uint8), (MAX_FIT_ROWS, 3))
    with pytest.raises(ValueError, match="exact"):
        fit(x, y)


def test_predict_zero_weights():
    model = ReadoutModel(np.zeros((6, 2)))
    assert np.allclose(predict(model, np.ones(5)), 0.0)


def test_predict_intercept_only_constant_model():
    x = np.zeros((10, 4), dtype=np.uint8)
    y = np.ones((10, 1), dtype=np.uint8)
    model = fit(x, y)
    assert np.allclose(predict(model, np.array([1, 1, 0, 1])), 1.0, atol=1e-6)


def test_predict_is_linear_in_features():
    rng = np.random.default_rng(7)
    model = ReadoutModel(rng.normal(size=(9, 2)))
    a = rng.normal(size=8)
    b = rng.normal(size=8)
    zero = predict(model, np.zeros(8))
    lhs = predict(model, a + b) - zero
    rhs = (predict(model, a) - zero) + (predict(model, b) - zero)
    assert np.allclose(lhs, rhs)


@pytest.mark.parametrize("p", [320, 640, 2560])
def test_blocked_predict_equals_dense_product(p):
    # A row count that is no multiple of the block, so the tail block is
    # short. Each output is a sum of the weights of the row's set bits and
    # the intercept; OpenBLAS's small-matrix kernel adds them in its own
    # order, so the reference is their exactly rounded sum, and the bound
    # is the forward error of a (p + 1)-term sum.
    rng = np.random.default_rng(8)
    n = 3 * (SMALL_BLOCK_ELEMENTS // p) + 37
    x = rng.integers(0, 2, size=(n, p), dtype=np.uint8)
    model = ReadoutModel(rng.normal(size=(p + 1, 3)))
    u = 2.0**-53
    gamma = (p + 1) * u / (1 - (p + 1) * u)
    y = predict(model, x)
    for row, bits in zip(y, x):
        terms = np.vstack([model.weights[:-1][bits == 1], model.weights[-1]])
        for value, column in zip(row, terms.T):
            exact = math.fsum(column)
            assert abs(value - exact) <= gamma * math.fsum(abs(column))


@pytest.mark.parametrize("p", [640, 2560])
def test_predict_peak_allocation_is_one_block_and_its_output(p):
    rng = np.random.default_rng(9)
    n, k = 20000, 3
    x = rng.integers(0, 2, size=(n, p), dtype=np.uint8)
    # F-ordered, as fit returns them
    model = ReadoutModel(np.asfortranarray(rng.normal(size=(p + 1, k))))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        y = predict(model, x)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak >= y.nbytes
    assert peak <= readout._predict_bytes(n, p, k)
    # the memory check before a run counts at least what predict holds
    assert peak <= readout.working_bytes(n, p, k)


def test_predict_rejects_wrong_length():
    model = ReadoutModel(np.zeros((6, 2)))
    with pytest.raises(ValueError):
        predict(model, np.zeros(7))


def test_fit_rejects_mismatched_rows():
    with pytest.raises(ValueError):
        fit(np.zeros((4, 3), dtype=np.uint8), np.zeros((5, 2), dtype=np.uint8))


@pytest.mark.parametrize(
    "value,expected", [(0.49, 0), (0.5, 1), (-3.2, 0), (0.51, 1), (1.0, 1)]
)
def test_binarize_threshold(value, expected):
    assert binarize_array(np.array([value])).tolist() == [expected]


def test_binarize_rejects_non_finite():
    for value in [float("nan"), float("inf"), float("-inf")]:
        with pytest.raises(ValueError):
            binarize_array(np.array([0.2, value]))


def test_binarize_is_monotone():
    bits = binarize_array(np.linspace(-2, 2, 101)).tolist()
    assert bits == sorted(bits)


NUMPY_BLAS = {"dot", "matmul", "einsum", "inner", "vdot", "tensordot"}
SRC = Path(__file__).resolve().parent.parent / "src" / "reca"


def numpy_blas_uses(tree):
    """``@``, ``np.<NUMPY_BLAS>`` and ``np.linalg.*`` nodes, except ``np.linalg.LinAlgError``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node, "@"
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in ("np", "numpy") and node.attr in NUMPY_BLAS | {"linalg"}:
                yield node, f"np.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.linalg"):
            for alias in node.names:
                if node.module == "numpy.linalg" or alias.name in NUMPY_BLAS | {"linalg"}:
                    yield node, f"from {node.module} import {alias.name}"


def test_numpy_blas_uses_finds_every_form():
    source = (
        "a @ b\na @= b\nnp.dot(a, b)\nnumpy.matmul(a, b)\nnp.einsum('ij', a)\n"
        "np.linalg.solve(a, b)\nfrom numpy import inner\nfrom numpy.linalg import norm\n"
    )
    assert len(list(numpy_blas_uses(ast.parse(source)))) == 8


def test_src_makes_no_numpy_blas_call():
    # numpy and scipy each load their own OpenBLAS; one process that calls
    # both runs two thread pools that contend for the cores. All BLAS and
    # LAPACK work goes through scipy's compiled _fblas and _flapack modules,
    # which readout loads itself.
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {
            id(node.value)  # the ``np.linalg`` inside ``np.linalg.LinAlgError``
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "LinAlgError"
        }
        for node, what in numpy_blas_uses(tree):
            if id(node) not in allowed:
                found.append(f"{path.name}:{node.lineno}: {what}")
    assert found == []


def test_importing_the_cli_skips_scipy_linalg_and_numpy_test_tools():
    # scipy.linalg's __init__ imports numpy.f2py, numpy.testing and numpy.ma
    # through scipy's array-API support, over half of the CLI's import time.
    # A layered run at one worker, whose layer-2 fit groups its rows, then
    # needs neither numpy.ma (np.unique without counts imports it) nor the
    # worker pool's modules. run_once runs every layer; run_batch may skip
    # a layer 2 that cannot succeed. A fresh interpreter: this one has
    # imported them all already.
    heavy = ["scipy.linalg", "numpy.f2py", "numpy.testing"]
    unused = ["numpy.ma", "multiprocessing", "concurrent.futures"]
    code = (
        "import sys, reca.cli\n"
        f"print([m for m in {heavy!r} if m in sys.modules])\n"
        "from reca.pipeline import build_config, run_batch, run_once\n"
        "config = build_config(rule=90, iterations=2, mappings=2, diffuse=10, distractor=20,\n"
        "                      layer2_rule=90)\n"
        "run_batch(config, 2, workers=1)\n"
        "run_once(config)\n"
        f"print([m for m in {unused!r} if m in sys.modules])\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env=env).stdout
    assert out.split() == ["[]", "[]"]
