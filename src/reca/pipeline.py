"""End-to-end train-and-test runs: single reservoir and the two-layer stack.

One run: generate the 32 task sequences, draw the fixed mappings from the
run seed, push every sequence through the reservoir, fit one readout on all
32*T (feature, target) rows, predict on those same rows, binarize, and
score. Train equals test on purpose; the protocol measures whether the
reservoir projection makes the targets linearly separable, not
generalization.

In the layered variant the binarized 3-bit predictions of layer 1 become
the input sequences of a second encoder/reservoir/readout stage, fitted
towards the same targets; the layer-2 evaluation is the deep result.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from multiprocessing import get_context, resource_tracker

import numpy as np

from .memory_task import (
    INPUT_WIDTH,
    MESSAGE_LEN,
    N_PATTERNS,
    OUTPUT_WIDTH,
    EvaluationResult,
    all_patterns,
    evaluate,
)
from .readout import binarize_array, fit, predict, working_bytes
from .reservoir import ReservoirParams, make_mappings, run_sequences

# Fixed offset separating the layer-2 mapping seed from the layer-1 seed,
# which equals the run seed. Keeps batch seeds (seed, seed+1, ...) disjoint
# from the second layer's stream for any sane batch size.
LAYER2_SEED_OFFSET = 1_000_003


@dataclass(frozen=True)
class RunConfig:
    layer1: ReservoirParams
    layer2: ReservoirParams | None = None
    distractor: int = 200
    run_seed: int = 0

    def __post_init__(self):
        if self.layer2 is not None and self.layer2.input_width != OUTPUT_WIDTH:
            raise ValueError(
                f"layer-2 input width must be {OUTPUT_WIDTH} "
                "(the binarized layer-1 outputs)"
            )

    @property
    def layers(self) -> tuple[ReservoirParams, ...]:
        """The reservoir stages in run order."""
        return (self.layer1,) if self.layer2 is None else (self.layer1, self.layer2)


@dataclass(frozen=True)
class RunResult:
    evals: tuple[EvaluationResult, ...]  # one per layer, in run order
    timing: dict[str, float]

    @property
    def layer1_eval(self) -> EvaluationResult:
        return self.evals[0]

    @property
    def layer2_eval(self) -> EvaluationResult | None:
        return self.evals[1] if len(self.evals) > 1 else None

    @property
    def success(self) -> bool:
        return self.evals[-1].success


@dataclass(frozen=True)
class BatchResult:
    successes: tuple[list[bool], ...]  # one list per layer, indexed by run

    @property
    def n_runs(self) -> int:
        return len(self.successes[0])

    @property
    def rates(self) -> list[float]:
        """Percentage of successful runs, one entry per layer."""
        return [100.0 * sum(layer) / self.n_runs for layer in self.successes]


def build_config(
    rule: int,
    iterations: int,
    mappings: int,
    diffuse: int = 40,
    distractor: int = 200,
    seed: int = 0,
    layer2_rule: int | None = None,
    layer2_iterations: int | None = None,
    layer2_mappings: int | None = None,
    layer2_diffuse: int | None = None,
) -> RunConfig:
    """Assemble a RunConfig; layer-2 parameters default to layer 1's.

    Pass ``layer2_rule`` (or any other layer-2 override) to get a layered
    config; leave them all None for a single-layer one. Layer seeds derive
    from ``seed`` by fixed offsets.
    """
    layer1 = ReservoirParams(
        rule=rule,
        iterations=iterations,
        mapping_count=mappings,
        diffuse_length=diffuse,
        input_width=INPUT_WIDTH,
        seed=seed,
    )
    layered = any(
        v is not None
        for v in (layer2_rule, layer2_iterations, layer2_mappings, layer2_diffuse)
    )
    layer2 = None
    if layered:
        layer2 = ReservoirParams(
            rule=rule if layer2_rule is None else layer2_rule,
            iterations=iterations if layer2_iterations is None else layer2_iterations,
            mapping_count=mappings if layer2_mappings is None else layer2_mappings,
            diffuse_length=diffuse if layer2_diffuse is None else layer2_diffuse,
            input_width=OUTPUT_WIDTH,
            seed=seed + LAYER2_SEED_OFFSET,
        )
    return RunConfig(layer1=layer1, layer2=layer2, distractor=distractor, run_seed=seed)


def config_with_seed(config: RunConfig, seed: int) -> RunConfig:
    """Same architecture, reseeded.

    Layer k, counted from 0, gets seed ``seed + k * LAYER2_SEED_OFFSET``.
    """
    layers = {
        f"layer{k + 1}": replace(params, seed=seed + k * LAYER2_SEED_OFFSET)
        for k, params in enumerate(config.layers)
    }
    return replace(config, run_seed=seed, **layers)


def run_bytes(config: RunConfig) -> int:
    """Peak bytes one run of ``config`` holds, from the shapes alone.

    Its largest layer's uint8 features (32 * T * I * R * L_d bytes) plus
    what that layer's readout holds beside them.
    """
    n_rows = N_PATTERNS * (config.distractor + 2 * MESSAGE_LEN)
    return max(
        n_rows * params.feature_length
        + working_bytes(n_rows, params.feature_length, OUTPUT_WIDTH)
        for params in config.layers
    )


def _task_arrays(config: RunConfig):
    """The 32 task sequences, their stacked (32, T, 4) inputs and (32, T, 3) targets."""
    tasks = all_patterns(config.distractor)
    inputs = np.stack([task.inputs for task in tasks])
    targets = np.stack([task.targets for task in tasks])
    return tasks, inputs, targets


def _run_layer(
    inputs: np.ndarray, targets: np.ndarray, params: ReservoirParams
) -> tuple[np.ndarray, dict[str, float]]:
    """Train and self-test one encoder/reservoir/readout stage.

    Returns the binarized predictions with shape (n_sequences, T, 3) and
    per-phase wall-clock timings. The layer's features are freed on return,
    before the next layer runs.
    """
    t0 = time.perf_counter()
    mappings = make_mappings(params)
    features, _ = run_sequences(inputs, params, mappings)
    reservoir_s = time.perf_counter() - t0
    preds, timing = _fit_readout(features, targets)
    return preds, {"reservoir": reservoir_s, **timing}


def _fit_readout(
    features: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, dict[str, float]]:
    """Fit one readout on a layer's (n_sequences, T, p) features.

    Returns its binarized predictions on those same features, shaped
    (n_sequences, T, 3), and the fit and predict timings.
    """
    timing = {}
    n_seq, seq_len, feat_len = features.shape
    x = features.reshape(n_seq * seq_len, feat_len)
    y = targets.reshape(n_seq * seq_len, OUTPUT_WIDTH)

    t0 = time.perf_counter()
    model = fit(x, y)
    timing["fit"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    raw = predict(model, x)
    preds = binarize_array(raw).reshape(n_seq, seq_len, OUTPUT_WIDTH)
    timing["predict"] = time.perf_counter() - t0
    return preds, timing


def run_once(config: RunConfig) -> RunResult:
    """One full train-and-test run; each layer eats the previous layer's predictions."""
    tasks, inputs, targets = _task_arrays(config)
    evals = []
    timing = {}
    for k, params in enumerate(config.layers, start=1):
        inputs, layer_timing = _run_layer(inputs, targets, params)
        evals.append(evaluate(inputs, tasks))
        timing.update({f"layer{k}_{name}": v for name, v in layer_timing.items()})
    return RunResult(tuple(evals), timing)


def _batch_worker(args: tuple[RunConfig, int]) -> tuple[bool, ...]:
    config, seed = args
    return tuple(ev.success for ev in run_once(config_with_seed(config, seed)).evals)


def _map_in_pool(jobs: list, workers: int) -> list:
    """``_batch_worker`` over ``jobs`` on one pool of spawned workers.

    Each worker runs one BLAS thread: OpenBLAS reads its thread count only
    when it loads, so the workers are started while the parent's environment
    holds ``OPENBLAS_NUM_THREADS=1`` and ``OMP_NUM_THREADS=1``, and the
    parent's values are restored before this returns. No process the pool
    started outlives this call.
    """
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    saved = {name: os.environ.get(name) for name in names}
    # The pool's semaphores start multiprocessing's resource tracker process
    # if it is not running yet; that one is stopped again below.
    tracker = resource_tracker._resource_tracker
    tracker_was_running = tracker._fd is not None
    pool = ProcessPoolExecutor(workers, mp_context=get_context("spawn"))
    try:
        with pool:
            try:
                os.environ.update(dict.fromkeys(names, "1"))
                # submit() starts the workers, so every one starts in here
                futures = [pool.submit(_batch_worker, job) for job in jobs]
            finally:
                for name, value in saved.items():
                    if value is None:
                        os.environ.pop(name, None)
                    else:
                        os.environ[name] = value
            return [future.result() for future in futures]
    finally:
        del pool  # frees the pool's semaphores, which unregisters them
        if not tracker_was_running:
            tracker._stop()


def run_batches(
    configs: list[RunConfig], n_runs: int, workers: int = 1
) -> list[BatchResult]:
    """``n_runs`` runs of each config, seeds run_seed, run_seed+1, ...

    Every run of every config is one job on one pool of ``workers``
    processes, each with one BLAS thread; ``workers=1`` runs them in this
    process. Results are keyed by (config, run index), so the outcome is
    independent of worker scheduling.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    jobs = [(config, config.run_seed + i) for config in configs for i in range(n_runs)]
    workers = min(workers, len(jobs))
    if workers > 1:
        outcomes = _map_in_pool(jobs, workers)
    else:
        outcomes = [_batch_worker(job) for job in jobs]
    return [
        BatchResult(tuple(list(layer) for layer in zip(*outcomes[lo : lo + n_runs])))
        for lo in range(0, len(jobs), n_runs)
    ]


def run_batch(config: RunConfig, n_runs: int, workers: int = 1) -> BatchResult:
    """Execute ``n_runs`` runs with seeds run_seed, run_seed+1, ...

    Results are keyed by run index, so the outcome is independent of worker
    scheduling.
    """
    return run_batches([config], n_runs, workers)[0]


def space_time_grids(config: RunConfig, pattern_id: int = 0) -> list[np.ndarray]:
    """Space-time diagrams of one pattern's run, one (T*I, R*L_d) grid per layer.

    A later layer's band depends on the previous layer's predictions, which
    in turn depend on the joint fit over all 32 sequences, so this replays a
    full run; the last layer's readout is not fitted, as no band needs it.
    """
    tasks, inputs, targets = _task_arrays(config)
    if not 0 <= pattern_id < len(tasks):
        raise ValueError(f"pattern_id must be in [0, {len(tasks)})")

    grids = []
    for k, params in enumerate(config.layers, start=1):
        features, _ = run_sequences(inputs, params, make_mappings(params))
        # a copy, so that a grid does not keep its layer's features alive
        grids.append(features[pattern_id].reshape(-1, params.state_width).copy())
        if k < len(config.layers):
            inputs, _ = _fit_readout(features, targets)
    return grids
