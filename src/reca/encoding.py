"""Random-mapping input encoder.

Each of the R mappings scatters the L_in input bits onto distinct positions
of an otherwise untouched segment of L_d cells. The R segments are
concatenated into a single automaton of width R*L_d before any evolution.
Mappings are drawn once per layer, from the seed in the layer's
``ReservoirParams``, and never change afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .reservoir import ReservoirParams


@dataclass(frozen=True, eq=False)
class MappingSet:
    """R fixed injections of input positions into L_d-cell segments.

    ``maps[r][j]`` is the cell (within segment r) that receives input bit j.
    """

    input_width: int
    diffuse_length: int
    maps: np.ndarray  # shape (R, L_in), int64
    # Absolute cell positions in the concatenated automaton, one entry per
    # (segment, input bit) pair; precomputed for the write-heavy paths.
    positions: np.ndarray = field(init=False)

    def __post_init__(self):
        maps = np.asarray(self.maps, dtype=np.int64)
        if maps.ndim != 2 or maps.shape[1] != self.input_width:
            raise ValueError("maps must have shape (R, input_width)")
        if maps.min() < 0 or maps.max() >= self.diffuse_length:
            raise ValueError("map positions must lie in [0, diffuse_length)")
        for row in maps:
            if len(set(row.tolist())) != self.input_width:
                raise ValueError("positions within one mapping must be distinct")
        offsets = np.arange(maps.shape[0], dtype=np.int64) * self.diffuse_length
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "positions", (maps + offsets[:, None]).ravel())

    @property
    def count(self) -> int:
        return self.maps.shape[0]


def generate_mappings(params: ReservoirParams) -> MappingSet:
    """Draw the R random injections of one layer; deterministic in its seed."""
    rng = np.random.default_rng(params.seed)
    maps = np.stack(
        [
            rng.choice(params.diffuse_length, size=params.input_width, replace=False)
            for _ in range(params.mapping_count)
        ]
    )
    return MappingSet(params.input_width, params.diffuse_length, maps)
