"""Tests of the benchmark's independent reference (bench_oracle).

Run with ``python3 -m pytest perfbench -q``. Only the last test imports reca,
to show that the reference and the program agree on a small run.
"""

import numpy as np
import pytest

import bench_oracle as oracle


def random_rows(seed, shape=(16, 37)):
    return np.random.default_rng(seed).integers(0, 2, size=shape, dtype=np.uint8)


def test_rule_90_is_xor_of_the_two_neighbours():
    s = random_rows(1)
    assert np.array_equal(oracle.step(s, 90), np.roll(s, 1, axis=1) ^ np.roll(s, -1, axis=1))


def test_rule_150_is_xor_of_all_three():
    s = random_rows(2)
    want = np.roll(s, 1, axis=1) ^ s ^ np.roll(s, -1, axis=1)
    assert np.array_equal(oracle.step(s, 150), want)


def test_rule_204_is_the_identity():
    s = random_rows(3)
    assert np.array_equal(oracle.step(s, 204), s)


def test_step_reads_the_wolfram_numbering():
    # A single live cell under rule 2 (only neighbourhood 001 -> 1) moves left.
    s = np.zeros((1, 5), dtype=np.uint8)
    s[0, 2] = 1
    assert oracle.step(s, 2).tolist() == [[0, 1, 0, 0, 0]]


def test_task_streams_shape_and_replay():
    inputs, targets = oracle.task_streams(7)
    assert inputs.shape == (32, 17, 4) and targets.shape == (32, 17, 3)
    assert inputs[:, :, 3].sum(axis=1).tolist() == [1] * 32  # one cue per pattern
    cue = int(np.argmax(inputs[0, :, 3]))
    assert np.array_equal(targets[:, cue + 1 :, :2], inputs[:, :5, :2])
    assert (inputs[:, :5, 0] + inputs[:, :5, 1] == 1).all()
    assert len({row.tobytes() for row in inputs[:, :5, 0]}) == 32


def test_mapping_positions_are_distinct_within_each_segment():
    positions = oracle.mapping_positions(5, 4, 6, 10).reshape(6, 4)
    for r, row in enumerate(positions):
        assert len(set(row.tolist())) == 4
        assert ((row >= r * 10) & (row < (r + 1) * 10)).all()


def test_features_follow_rule_accepts_the_reservoir_and_rejects_a_flip():
    inputs, _ = oracle.task_streams(6)
    positions = oracle.mapping_positions(9, 4, 3, 8)
    features = oracle.reservoir(inputs, 110, 3, positions, 24)
    assert oracle.features_follow_rule(inputs, features, 110, 3, positions, 24)
    features[4, 5, 30] ^= 1
    assert not oracle.features_follow_rule(inputs, features, 110, 3, positions, 24)


def test_ridge_fit_meets_its_optimality_condition_and_matches_lstsq():
    rng = np.random.default_rng(4)
    x = rng.integers(0, 2, size=(200, 12)).astype(np.uint8)
    y = rng.integers(0, 2, size=(200, 3)).astype(np.uint8)
    w = oracle.ridge_fit(x, y)
    assert oracle.ridge_residual(x, y, w) < 1e-10
    design = np.hstack([x, np.ones((200, 1))])
    w_ls = np.linalg.lstsq(design, y.astype(float), rcond=None)[0]
    assert np.allclose(w, w_ls, atol=1e-5)  # a full-rank design: the ridge is negligible
    assert oracle.ridge_residual(x, y, w + 1e-3) > 1e-6


def test_ridge_fit_solves_a_rank_deficient_design():
    x = np.zeros((50, 4), dtype=np.uint8)
    x[:, 0] = 1  # a constant column duplicates the intercept; one column is all zero
    x[::2, 1] = 1
    y = x[:, 1:2].copy()
    w = oracle.ridge_fit(x, y)
    assert np.isfinite(w).all()
    assert np.array_equal(oracle.ridge_predict(w, x) >= 0.5, y.astype(bool))


def test_replay_agrees_with_reca_on_a_small_layered_run():
    reca = pytest.importorskip("reca")
    config = reca.build_config(rule=90, iterations=2, mappings=4, distractor=5, seed=3,
                               layer2_rule=90)
    result = reca.pipeline.run_once(config)
    specs = [oracle.LayerSpec(90, 2, 4, 40, config.layer1.seed),
             oracle.LayerSpec(90, 2, 4, 40, config.layer2.seed)]
    ref = oracle.replay(specs, 5)
    assert [r.correct_bits for r in ref] == [
        result.layer1_eval.correct_bits, result.layer2_eval.correct_bits]
