"""Independent reference for the benchmark's output checks.

Written from the method as the reca README describes it, not from reca's
code: nothing here imports reca. The stepper, the encoder, the reservoir, the
ridge readout and the task streams are re-derived, so a fault in one of
reca's modules cannot hide behind the same fault in the reference.

- Cells live on a ring; bit n of the rule number is the next state of the
  neighbourhood left*4 + centre*2 + right.
- Each of the R mappings scatters the input bits onto distinct cells of its
  own L_d-cell segment, drawn with ``numpy.random.default_rng(seed).choice``
  without replacement, one mapping after the other.
- Per time step the input is written over the previous step's last row
  (zeros before the first step) and the rule is applied I times; the I rows
  are the step's features.
- The readout is a float64 ridge solve on [X 1] with
  alpha = 1e-8 * trace([X 1]^T [X 1]) / (p + 1) on every diagonal entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

N_PATTERNS = 32
INPUT_WIDTH = 4
OUTPUT_WIDTH = 3
MESSAGE_LEN = 5
RIDGE_SCALE = 1e-8


def task_streams(distractor: int) -> tuple[np.ndarray, np.ndarray]:
    """Inputs (32, T, 4) and targets (32, T, 3) of the 5-bit memory task."""
    seq_len = distractor + 2 * MESSAGE_LEN
    cue = distractor + MESSAGE_LEN - 1  # 0-based index of the cue step
    shifts = np.arange(MESSAGE_LEN - 1, -1, -1)
    message = ((np.arange(N_PATTERNS)[:, None] >> shifts) & 1).astype(np.uint8)

    inputs = np.zeros((N_PATTERNS, seq_len, INPUT_WIDTH), dtype=np.uint8)
    inputs[:, :MESSAGE_LEN, 0] = message
    inputs[:, :MESSAGE_LEN, 1] = 1 - message
    inputs[:, MESSAGE_LEN:, 2] = 1
    inputs[:, cue, 2] = 0
    inputs[:, cue, 3] = 1

    targets = np.zeros((N_PATTERNS, seq_len, OUTPUT_WIDTH), dtype=np.uint8)
    targets[:, : cue + 1, 2] = 1
    targets[:, cue + 1 :, 0] = message
    targets[:, cue + 1 :, 1] = 1 - message
    return inputs, targets


def step(states: np.ndarray, rule: int) -> np.ndarray:
    """One synchronous update of every row of ``states`` on its own ring."""
    s = np.asarray(states, dtype=np.uint8)
    padded = np.concatenate([s[..., -1:], s, s[..., :1]], axis=-1)
    neighbourhood = 4 * padded[..., :-2] + 2 * padded[..., 1:-1] + padded[..., 2:]
    return np.right_shift(np.uint8(rule), neighbourhood) & np.uint8(1)


def mapping_positions(
    seed: int, input_width: int, mapping_count: int, diffuse: int
) -> np.ndarray:
    """Absolute cells of the concatenated ring, in (segment, input bit) order."""
    rng = np.random.default_rng(seed)
    cells = [
        rng.choice(diffuse, size=input_width, replace=False) + r * diffuse
        for r in range(mapping_count)
    ]
    return np.concatenate(cells).astype(np.int64)


def overwrite(states: np.ndarray, inputs: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Copy of ``states`` with the input bits written at every mapping."""
    out = np.array(states, dtype=np.uint8)
    count = positions.size // inputs.shape[-1]
    out[..., positions] = np.tile(inputs, count)
    return out


def reservoir(
    inputs: np.ndarray, rule: int, iterations: int, positions: np.ndarray, width: int
) -> np.ndarray:
    """Features (n, T, I*width) of a batch of input sequences (n, T, L_in)."""
    n_seq, seq_len, _ = inputs.shape
    state = np.zeros((n_seq, width), dtype=np.uint8)
    features = np.empty((n_seq, seq_len, iterations * width), dtype=np.uint8)
    for t in range(seq_len):
        state = overwrite(state, inputs[:, t], positions)
        for k in range(iterations):
            state = step(state, rule)
            features[:, t, k * width : (k + 1) * width] = state
    return features


def _design(features: np.ndarray) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    return np.hstack([x, np.ones((x.shape[0], 1))])


def ridge_fit(features: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Weights (p+1, k) of the documented ridge; the last row is the intercept."""
    design = _design(features)
    gram = design.T @ design
    gram[np.diag_indices_from(gram)] += RIDGE_SCALE * np.trace(gram) / gram.shape[0]
    return np.linalg.solve(gram, design.T @ np.asarray(targets, dtype=np.float64))


def ridge_predict(weights: np.ndarray, features: np.ndarray) -> np.ndarray:
    return np.asarray(features, dtype=np.float64) @ weights[:-1] + weights[-1]


def ridge_residual(features: np.ndarray, targets: np.ndarray, weights: np.ndarray) -> float:
    """||D^T (D w - y) + alpha w|| / ||D^T y|| with D = [X 1].

    Zero exactly at the ridge optimum, whatever solver produced ``w``.
    """
    design = _design(features)
    y = np.asarray(targets, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    alpha = RIDGE_SCALE * float(np.einsum("ij,ij->", design, design)) / design.shape[1]
    grad = design.T @ (design @ w - y) + alpha * w
    return float(np.linalg.norm(grad) / np.linalg.norm(design.T @ y))


def features_follow_rule(
    inputs: np.ndarray, features: np.ndarray, rule: int, iterations: int,
    positions: np.ndarray, width: int,
) -> bool:
    """Every feature row is the rule applied to the row before it.

    The row before the first iteration of step t is the last row of step
    t-1 (zeros for t = 0) with step t's inputs written at the mappings.
    """
    n_seq, seq_len, _ = features.shape
    rows = features.reshape(n_seq, seq_len, iterations, width)
    before = np.empty_like(rows)
    before[:, :, 1:] = rows[:, :, :-1]
    carried = np.zeros((n_seq, seq_len, width), dtype=np.uint8)
    carried[:, 1:] = rows[:, :-1, -1]
    before[:, :, 0] = overwrite(carried, inputs, positions)
    return bool(np.array_equal(step(before, rule), rows))


@dataclass(frozen=True)
class LayerSpec:
    rule: int
    iterations: int
    mappings: int
    diffuse: int
    seed: int


@dataclass(frozen=True)
class LayerOutcome:
    correct_bits: int
    total_bits: int
    margin: float  # smallest |y_hat - 0.5| over every predicted bit

    @property
    def success(self) -> bool:
        return self.correct_bits == self.total_bits


def replay(layers: list[LayerSpec], distractor: int) -> list[LayerOutcome]:
    """One train-and-test run, layer after layer; layer k+1 reads layer k's bits."""
    inputs, targets = task_streams(distractor)
    y = targets.reshape(-1, OUTPUT_WIDTH)
    outcomes = []
    for spec in layers:
        width = spec.mappings * spec.diffuse
        positions = mapping_positions(spec.seed, inputs.shape[2], spec.mappings, spec.diffuse)
        features = reservoir(inputs, spec.rule, spec.iterations, positions, width)
        x = features.reshape(y.shape[0], -1)
        raw = ridge_predict(ridge_fit(x, y), x)
        bits = (raw >= 0.5).astype(np.uint8)
        outcomes.append(LayerOutcome(
            correct_bits=int(np.count_nonzero(bits == y)),
            total_bits=int(y.size),
            margin=float(np.min(np.abs(raw - 0.5))),
        ))
        inputs = bits.reshape(targets.shape)
    return outcomes
