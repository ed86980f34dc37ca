"""Drive a CA reservoir over input sequences and collect feature vectors.

Per time step the input is written onto the automaton (onto zeros at t=0,
onto the previous step's last iteration afterwards), the rule is applied I
times, and the I evolved rows are concatenated into one feature vector of
I*R*L_d bits. The pre-evolution row is not part of the features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ca import evolve, make_rule


@dataclass(frozen=True)
class ReservoirParams:
    """One layer: its rule, I, R, L_d, input width and the seed of its R mappings."""

    rule: int
    iterations: int
    mapping_count: int
    diffuse_length: int
    input_width: int
    seed: int

    def __post_init__(self):
        if not 0 <= self.rule <= 255:
            raise ValueError(f"rule must be in [0, 255], got {self.rule}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.input_width < 1:
            raise ValueError("input_width must be >= 1")
        if self.mapping_count < 1:
            raise ValueError("mapping_count must be >= 1")
        if self.diffuse_length < self.input_width:
            raise ValueError("diffuse_length must be >= input_width")

    @property
    def state_width(self) -> int:
        return self.mapping_count * self.diffuse_length

    @property
    def feature_length(self) -> int:
        return self.iterations * self.state_width


def run_sequences(
    inputs: np.ndarray, params: ReservoirParams, maps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Run a batch of independent sequences through one reservoir.

    Args:
        inputs: (n_sequences, T, L_in) array of 0s and 1s; any other value
            is a ValueError.
        params: the layer's one description.
        maps: the layer's (R, L_in) draw, ``generate_mappings(params)``:
            ``maps[r, j]`` is the cell of segment r that receives input bit
            j. Another shape, a value outside [0, L_d), a value repeated
            within a row or a non-integer array is a ValueError.

    Returns:
        (features, finals): features has shape (n_sequences, T, I*R*L_d);
        finals holds each sequence's last evolved automaton row.
    """
    x = np.asarray(inputs)
    if x.ndim != 3 or x.shape[2] != params.input_width:
        raise ValueError(f"inputs must have shape (n, T, {params.input_width})")
    if x.shape[1] < 1:
        raise ValueError("inputs must hold at least one time step")
    m = np.asarray(maps)
    shape = (params.mapping_count, params.input_width)
    if m.shape != shape:
        raise ValueError(f"maps must have shape (R, L_in) = {shape}")
    if m.dtype.kind not in "iu":
        raise ValueError(f"maps must be integers, not {m.dtype}")
    if m.min() < 0 or m.max() >= params.diffuse_length:
        raise ValueError("map positions must lie in [0, diffuse_length)")
    if (np.diff(np.sort(m, axis=1), axis=1) == 0).any():
        raise ValueError("positions within one mapping must be distinct")

    # the cell of the concatenated automaton that each (segment, bit) pair writes
    offsets = params.diffuse_length * np.arange(params.mapping_count)[:, None]
    positions = (m.astype(np.int64) + offsets).ravel()
    features = evolve(x, positions, make_rule(params.rule), params.iterations, params.state_width)
    return features, features[:, -1, -params.state_width :].copy()
