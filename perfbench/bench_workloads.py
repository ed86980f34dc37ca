"""The benchmark's workloads and how a ``--seed`` becomes their run seeds.

The 32 task sequences are fixed by the task; what varies between runs is the
run seed, which draws the random mappings of every layer. Seed ``n`` gives
the run seeds ``n * SEED_STRIDE``, ``n * SEED_STRIDE + 1``, ... in order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

DIFFUSE = 40
SEED_STRIDE = 100_000
# deep-sweep's timed sweeps run at one worker. At nproc workers each forked
# worker's OpenBLAS starts its own threads and the same sweep takes anywhere
# from 4.4 s to 10.3 s on a 2-core box, too unsteady to gate on; the nproc
# form is still run on every deep-sweep run as an output check (its CSV must
# equal the one-worker CSV byte for byte) and timed in the traced run
# (cli.sweep_s, pipeline.parallel_efficiency).
TIMED_SWEEP_WORKERS = 1


@dataclass(frozen=True)
class Cell:
    rule: int
    iterations: int
    mappings: int


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple[Cell, ...]
    distractor: int
    layered: bool
    # > 0: the workload is `reca sweep` through the CLI, this many runs per
    # cell, back to back; 0: a closed loop of one caller calling
    # pipeline.run_once, one seed after another.
    sweep_runs: int = 0

    @property
    def seq_len(self) -> int:
        return self.distractor + 10

    @property
    def runs_per_op(self) -> int:
        """Train-and-test runs in one timed operation (a run or a sweep)."""
        return self.sweep_runs * len(self.cells) if self.sweep_runs else 1


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's headline configuration; the wide readout (p = 2560)
        # makes readout.fit most of each run.
        Workload("single-8x8", (Cell(90, 8, 8),), distractor=200, layered=False),
        # Tall, narrow design (N = 32320, p = 640) and 4040 CA steps per run:
        # the reservoir and memory that grow with T show here.
        Workload("long-distractor", (Cell(90, 4, 4),), distractor=1000, layered=False),
        # The deep-vs-single comparison through the CLI, run_batch and layer 2,
        # with runs small enough that fixed per-run costs matter.
        Workload(
            "deep-sweep",
            (Cell(165, 2, 4), Cell(165, 4, 4), Cell(90, 2, 4), Cell(90, 4, 4)),
            distractor=200, layered=True, sweep_runs=2,
        ),
    )
}


def base_seed(seed: int) -> int:
    return seed * SEED_STRIDE


def cpu_count() -> int:
    """CPUs this process may run on, as `nproc` counts them."""
    return len(os.sched_getaffinity(0))


def sweep_config(workload: Workload, runs: int) -> dict:
    """The `reca sweep --config` file for the workload's grid."""
    return {
        "rules": list(dict.fromkeys(c.rule for c in workload.cells)),
        "combos": [list(pair) for pair in
                   dict.fromkeys((c.iterations, c.mappings) for c in workload.cells)],
        "runs": runs,
        "diffuse": DIFFUSE,
        "distractor": workload.distractor,
    }
