"""The 5-bit memory task: sequence generation and scoring.

Each of the 32 patterns is a length T = T_d + 10 sequence of 4-bit input
signal vectors and 3-bit target signal vectors. Steps 1-5 present the 5-bit
message on input bits 1 and 2 (bit 2 is the complement of bit 1). The
distractor signal (bit 3) then holds until the cue (bit 4) fires once at
step T_d + 5, after which the targets replay the message on bits 1 and 2.
Until and including the cue step the target is the waiting signal (bit 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

N_PATTERNS = 32
INPUT_WIDTH = 4
OUTPUT_WIDTH = 3
MESSAGE_LEN = 5


@dataclass(frozen=True, eq=False)
class TaskSequence:
    pattern_id: int
    inputs: np.ndarray  # (T, 4) uint8
    targets: np.ndarray  # (T, 3) uint8
    distractor: int


@dataclass(frozen=True)
class EvaluationResult:
    total_bits: int
    correct_bits: int

    @property
    def success(self) -> bool:
        return self.correct_bits == self.total_bits

    @property
    def accuracy(self) -> float:
        return self.correct_bits / self.total_bits


def generate(pattern_id: int, distractor: int) -> TaskSequence:
    """Build the input/target streams for one pattern.

    The pattern's 5-bit big-endian expansion drives input bit 1 over the
    first five steps; bit 2 is its complement.
    """
    if not 0 <= pattern_id < N_PATTERNS:
        raise ValueError(f"pattern_id must be in [0, {N_PATTERNS}), got {pattern_id}")
    if distractor < 1:
        raise ValueError("distractor period must be >= 1")

    seq_len = distractor + 2 * MESSAGE_LEN
    cue = distractor + MESSAGE_LEN  # 1-indexed step of the cue signal
    inputs = np.zeros((seq_len, INPUT_WIDTH), dtype=np.uint8)
    targets = np.zeros((seq_len, OUTPUT_WIDTH), dtype=np.uint8)

    message = np.array(
        [(pattern_id >> (MESSAGE_LEN - 1 - k)) & 1 for k in range(MESSAGE_LEN)],
        dtype=np.uint8,
    )
    inputs[:MESSAGE_LEN, 0] = message
    inputs[:MESSAGE_LEN, 1] = 1 - message
    inputs[MESSAGE_LEN:, 2] = 1
    inputs[cue - 1, 2] = 0
    inputs[cue - 1, 3] = 1

    targets[:cue, 2] = 1
    targets[cue:, 0] = message
    targets[cue:, 1] = 1 - message
    return TaskSequence(pattern_id, inputs, targets, distractor)


def all_patterns(distractor: int) -> list[TaskSequence]:
    """All 32 task sequences for one distractor period."""
    return [generate(pid, distractor) for pid in range(N_PATTERNS)]


def evaluate(predictions: np.ndarray, tasks: list[TaskSequence]) -> EvaluationResult:
    """Count exact bit matches of predictions against the 32 target streams.

    Args:
        predictions: (n_sequences, T, 3) array of 0s and 1s, one row of 3
            bits per time step per sequence, in pattern order; any other
            value is a ValueError.
        tasks: the sequences the predictions answer.
    """
    preds = np.asarray(predictions)
    targets = np.stack([task.targets for task in tasks])
    if preds.shape != targets.shape:
        raise ValueError(
            f"predictions shape {preds.shape} does not match targets {targets.shape}"
        )
    if not ((preds == 0) | (preds == 1)).all():
        raise ValueError("predictions must hold only 0s and 1s")
    total = int(targets.size)
    correct = int(np.count_nonzero(preds == targets))
    return EvaluationResult(total_bits=total, correct_bits=correct)
