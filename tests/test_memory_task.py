import numpy as np
import pytest

from reca.memory_task import all_patterns, evaluate, generate


def test_sequence_length():
    assert generate(0, 200).inputs.shape[0] == 210
    assert generate(0, 3).inputs.shape[0] == 13


def test_cue_position_short_distractor():
    # distractor 3: cue fires at step 8 (1-indexed), replay starts at step 9
    seq = generate(5, 3)
    cue_steps = np.flatnonzero(seq.inputs[:, 3])
    assert cue_steps.tolist() == [7]
    assert seq.targets[7, 2] == 1
    assert seq.targets[8, 2] == 0


def test_one_hot_rows_everywhere():
    for t_d in (1, 3, 200):
        for pid in (0, 7, 31):
            seq = generate(pid, t_d)
            assert np.all(seq.inputs.sum(axis=1) == 1)
            assert np.all(seq.targets.sum(axis=1) == 1)


def test_message_encoding_big_endian():
    seq = generate(0b10110, 10)
    assert seq.inputs[:5, 0].tolist() == [1, 0, 1, 1, 0]
    assert seq.inputs[:5, 1].tolist() == [0, 1, 0, 0, 1]
    assert not seq.inputs[:5, 2:].any()


def test_distractor_signal_holds_except_cue():
    seq = generate(3, 20)
    cue = 20 + 5
    for t in range(5, seq.inputs.shape[0]):
        if t == cue - 1:
            assert seq.inputs[t].tolist() == [0, 0, 0, 1]
        else:
            assert seq.inputs[t].tolist() == [0, 0, 1, 0]


def test_waiting_target_until_cue_inclusive():
    seq = generate(12, 30)
    cue = 30 + 5
    assert np.all(seq.targets[:cue, 2] == 1)
    assert not seq.targets[:cue, :2].any()
    assert not seq.targets[cue:, 2].any()


def test_replay_targets_equal_first_five_input_pairs():
    for pid in range(32):
        seq = generate(pid, 17)
        cue = 17 + 5
        assert np.array_equal(seq.targets[cue:, :2], seq.inputs[:5, :2])


def test_generate_rejects_bad_pattern_id():
    with pytest.raises(ValueError):
        generate(32, 10)
    with pytest.raises(ValueError):
        generate(-1, 10)


def test_all_patterns_count_and_distinctness():
    tasks = all_patterns(6)
    assert len(tasks) == 32
    heads = {task.inputs[:5, 0].tobytes() for task in tasks}
    assert len(heads) == 32


def test_pattern_0_and_31_are_complements():
    a = generate(0, 5)
    b = generate(31, 5)
    assert np.array_equal(a.inputs[:5, 0], 1 - b.inputs[:5, 0])
    assert np.array_equal(a.inputs[:5, 1], 1 - b.inputs[:5, 1])


def test_evaluate_perfect_predictions():
    tasks = all_patterns(200)
    preds = np.stack([task.targets for task in tasks])
    result = evaluate(preds, tasks)
    assert result.total_bits == 3 * 210 * 32 == 20160
    assert result.correct_bits == 20160
    assert result.success


def test_evaluate_single_flipped_bit():
    tasks = all_patterns(200)
    preds = np.stack([task.targets for task in tasks]).copy()
    preds[4, 100, 1] ^= 1
    result = evaluate(preds, tasks)
    assert result.correct_bits == 20159
    assert not result.success


def test_evaluate_all_zero_predictions_fail():
    tasks = all_patterns(50)
    preds = np.zeros((32, 60, 3), dtype=np.uint8)
    result = evaluate(preds, tasks)
    assert not result.success
    # every target row has exactly one 1, so exactly one third of bits miss
    assert result.correct_bits == result.total_bits * 2 // 3


def test_evaluate_rejects_shape_mismatch():
    tasks = all_patterns(10)
    with pytest.raises(ValueError):
        evaluate(np.zeros((32, 19, 3), dtype=np.uint8), tasks)


@pytest.mark.parametrize(
    "value,dtype", [(256, np.int64), (-1, np.int64), (0.7, np.float64), (2, np.uint8)]
)
def test_evaluate_rejects_predictions_other_than_0_or_1(value, dtype):
    # A cast to uint8 would read 256 as 0 and 0.7 as 0, a match for a 0 target.
    tasks = all_patterns(3)
    preds = np.stack([task.targets for task in tasks]).astype(dtype)
    preds[0, 0, 0] = value
    with pytest.raises(ValueError, match="only 0s and 1s"):
        evaluate(preds, tasks)
