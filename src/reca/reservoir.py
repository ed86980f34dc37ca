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
    if (
        mappings.input_width != params.input_width
        or mappings.count != params.mapping_count
        or mappings.diffuse_length != params.diffuse_length
    ):
        raise ValueError("mappings are inconsistent with reservoir params")

    features = evolve(
        x, mappings.positions, make_rule(params.rule), params.iterations, params.state_width
    )
    return features, features[:, -1, -params.state_width :].copy()
