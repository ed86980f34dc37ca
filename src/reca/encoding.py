"""Random-mapping input encoder.

Each of the R mappings scatters the L_in input bits onto distinct positions
of an otherwise untouched segment of L_d cells. The R segments are
concatenated into a single automaton of width R*L_d before any evolution.
A layer's draw is fixed by its ``ReservoirParams`` alone (R, L_in, L_d and
the seed) and never changes afterwards.
"""

from __future__ import annotations

import numpy as np

from .reservoir import ReservoirParams


def generate_mappings(params: ReservoirParams) -> np.ndarray:
    """Draw the R random injections of one layer; deterministic in its seed.

    Returns the (R, L_in) int64 draw ``maps``: ``maps[r, j]`` is the cell of
    segment r that receives input bit j.
    """
    rng = np.random.default_rng(params.seed)
    return np.stack(
        [
            rng.choice(params.diffuse_length, size=params.input_width, replace=False)
            for _ in range(params.mapping_count)
        ]
    )
