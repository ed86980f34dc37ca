"""Drive a CA reservoir over input sequences and collect feature vectors.

Per time step the input is written onto the automaton (onto zeros at t=0,
onto the previous step's last iteration afterwards), the rule is applied I
times, and the I evolved rows are concatenated into one feature vector of
I*R*L_d bits. The pre-evolution row is not part of the features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ca import LANES, MIN_WIDTH, LaneStepper, make_rule
from .encoding import EncoderConfig, MappingSet, generate_mappings


@dataclass(frozen=True)
class ReservoirParams:
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

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(
            self.input_width, self.diffuse_length, self.mapping_count, self.seed
        )


def make_mappings(params: ReservoirParams) -> MappingSet:
    return generate_mappings(params.encoder_config())


def run_sequences(
    inputs: np.ndarray, params: ReservoirParams, mappings: MappingSet
) -> tuple[np.ndarray, np.ndarray]:
    """Run a batch of independent sequences through one reservoir.

    Args:
        inputs: (n_sequences, T, L_in) array of 0s and 1s; any other value
            is a ValueError.
        params: reservoir parameters; ``mappings`` must match them.
        mappings: the fixed random mappings.

    Returns:
        (features, finals): features has shape (n_sequences, T, I*R*L_d);
        finals holds each sequence's last evolved automaton row.
    """
    x = np.asarray(inputs)
    if x.ndim != 3 or x.shape[2] != params.input_width:
        raise ValueError(f"inputs must have shape (n, T, {params.input_width})")
    if x.shape[1] < 1:
        raise ValueError("inputs must hold at least one time step")
    if not ((x == 0) | (x == 1)).all():
        raise ValueError("inputs must be binary")
    if (
        mappings.input_width != params.input_width
        or mappings.count != params.mapping_count
        or mappings.diffuse_length != params.diffuse_length
    ):
        raise ValueError("mappings are inconsistent with reservoir params")

    n_seq, seq_len, _ = x.shape
    width = params.state_width
    if width < MIN_WIDTH:
        raise ValueError(f"state width must be >= {MIN_WIDTH}, got {width}")
    iterations = params.iterations
    groups = -(-n_seq // LANES)

    # Sequence s = LANES*g + j is bit j of the words of lane group g.
    lanes = np.zeros((groups * LANES, seq_len, params.input_width), dtype=np.uint8)
    lanes[:n_seq] = x
    packed = np.packbits(
        lanes.reshape(groups, LANES, seq_len, -1), axis=1, bitorder="little"
    )
    words = np.ascontiguousarray(packed.transpose(2, 0, 3, 1)).view("<u4")[..., 0]
    tiled = np.tile(words, (1, 1, mappings.count))  # (T, groups, R*L_in)

    stepper = LaneStepper(make_rule(params.rule), groups, width)
    history = np.empty((seq_len, iterations, groups, width), dtype=np.uint32)
    for t in range(seq_len):
        stepper.state[:, mappings.positions] = tiled[t]
        for k in range(iterations):
            stepper.advance(history[t, k])

    # Byte b of a word holds lanes 8b..8b+7: split the words into contiguous
    # (T, I, width) byte planes, then peel one bit per sequence off them.
    as_bytes = history.astype("<u4", copy=False).view(np.uint8)
    planes = np.ascontiguousarray(
        as_bytes.reshape(seq_len, iterations, groups, width, 4).transpose(2, 4, 0, 1, 3)
    )
    features = np.empty((n_seq, seq_len, params.feature_length), dtype=np.uint8)
    shifted = np.empty(planes.shape[2:], dtype=np.uint8)
    for s in range(n_seq):
        group, lane = divmod(s, LANES)
        byte, bit = divmod(lane, 8)
        np.right_shift(planes[group, byte], bit, out=shifted)
        np.bitwise_and(shifted, 1, out=features[s].reshape(shifted.shape))
    return features, features[:, -1, -width:].copy()
