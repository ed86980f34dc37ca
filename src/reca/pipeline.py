"""End-to-end train-and-test runs: single reservoir and the two-layer stack.

One run: generate the 32 task sequences, draw each layer's fixed (R, L_in)
mappings from its ``ReservoirParams``, push every sequence through the
reservoir, fit one readout on all 32*T (feature, target) rows, predict on
those same rows, binarize, and score. Train equals test on purpose; the
protocol measures whether the reservoir projection makes the targets
linearly separable, not generalization.

In the layered variant the binarized 3-bit predictions of layer 1 become
the input sequences of a second encoder/reservoir/readout stage, fitted
towards the same targets; the layer-2 evaluation is the deep result.

``run_once`` and a batch's runs each go through ``config.layers`` in one
loop, and ``run_once`` always runs every layer. Run i of a batch
(``run_batches``, ``run_batch``) shifts every layer's own seed by i, so run
0 is the config as given. The batch runs return only verdicts, so they
stop before a run's final layer when its inputs prove it fails
(``prefix_conflict``): two sequences whose inputs agree through step t but
whose targets differ at t. A reservoir starts every sequence from the same
zero state and is deterministic, so their feature rows at t are equal; the
readout maps equal rows to equal predictions, and one of the two is wrong
whatever the rule, mappings or (I,R). The skipped layer's verdict is False,
as a full run would find.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .encoding import generate_mappings
from .memory_task import (
    INPUT_WIDTH,
    MESSAGE_LEN,
    N_PATTERNS,
    OUTPUT_WIDTH,
    EvaluationResult,
    all_patterns,
    evaluate,
)
from .readout import MAX_FIT_ROWS, binarize_array, fit, predict, working_bytes
from .reservoir import ReservoirParams, run_sequences

# Fixed offset of ``build_config``'s layer-2 mapping seed from its layer-1
# seed. A batch shifts both by the run index, so layer 1's seeds (seed,
# seed+1, ...) stay disjoint from layer 2's for any sane batch size.
LAYER2_SEED_OFFSET = 1_000_003


@dataclass(frozen=True)
class RunConfig:
    """One run: its reservoir layers in run order, and the distractor period T_d.

    Layer 1 reads the 4 task input bits, and each later layer the previous
    layer's binarized 3-bit predictions. Run i of a batch adds i to every
    layer's own seed. A config that a run would reject, a T_d too long for
    the readout included, is a ValueError here.
    """

    layers: tuple[ReservoirParams, ...]
    distractor: int = 200

    def __post_init__(self):
        if not self.layers:
            raise ValueError("a run needs at least one layer")
        if self.distractor < 1:
            raise ValueError("distractor period must be >= 1")
        if self.n_rows >= MAX_FIT_ROWS:
            longest = (MAX_FIT_ROWS - 1) // N_PATTERNS - 2 * MESSAGE_LEN
            raise ValueError(f"distractor period must be <= {longest} (the readout fits fewer "
                             f"than {MAX_FIT_ROWS} rows), got {self.distractor}")
        if self.layers[0].input_width != INPUT_WIDTH:
            raise ValueError(f"layer-1 input width must be {INPUT_WIDTH} (the task inputs)")
        for k, params in enumerate(self.layers[1:], start=2):
            if params.input_width != OUTPUT_WIDTH:
                raise ValueError(f"layer-{k} input width must be {OUTPUT_WIDTH} "
                                 f"(the binarized layer-{k - 1} outputs)")

    @property
    def n_rows(self) -> int:
        """Rows of every layer's readout design: 32 sequences of T_d + 10 steps."""
        return N_PATTERNS * (self.distractor + 2 * MESSAGE_LEN)

    @property
    def layer1(self) -> ReservoirParams:
        return self.layers[0]

    @property
    def layer2(self) -> ReservoirParams | None:
        return self.layers[1] if len(self.layers) > 1 else None


@dataclass(frozen=True)
class RunResult:
    evals: tuple[EvaluationResult, ...]  # one per layer, in run order

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
    layer1 = ReservoirParams(rule=rule, iterations=iterations, mapping_count=mappings,
                             diffuse_length=diffuse, input_width=INPUT_WIDTH, seed=seed)
    given = dict(rule=layer2_rule, iterations=layer2_iterations,
                 mapping_count=layer2_mappings, diffuse_length=layer2_diffuse)
    overrides = {name: value for name, value in given.items() if value is not None}
    if not overrides:
        return RunConfig((layer1,), distractor)
    layer2 = replace(layer1, input_width=OUTPUT_WIDTH, seed=seed + LAYER2_SEED_OFFSET,
                     **overrides)
    return RunConfig((layer1, layer2), distractor)


def run_bytes(config: RunConfig) -> int:
    """Peak bytes one run of ``config`` holds, from the shapes alone.

    Its largest layer's uint8 features (32 * T * I * R * L_d bytes) plus
    what that layer's readout holds beside them.
    """
    return max(
        config.n_rows * params.feature_length
        + working_bytes(config.n_rows, params.feature_length, OUTPUT_WIDTH)
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
) -> np.ndarray:
    """Train and self-test one encoder/reservoir/readout stage.

    Draws the layer's mappings from ``params`` and returns the binarized
    predictions with shape (n_sequences, T, 3). The layer's features are
    freed on return, before the next layer runs.
    """
    features, _ = run_sequences(inputs, params, generate_mappings(params))
    return _fit_readout(features, targets)


def _fit_readout(features: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Fit one readout on a layer's (n_sequences, T, p) features.

    Returns its binarized predictions on those same features, shaped
    (n_sequences, T, 3).
    """
    n_seq, seq_len, feat_len = features.shape
    x = features.reshape(n_seq * seq_len, feat_len)
    y = targets.reshape(n_seq * seq_len, OUTPUT_WIDTH)
    model = fit(x, y)
    return binarize_array(predict(model, x)).reshape(n_seq, seq_len, OUTPUT_WIDTH)


def prefix_conflict(inputs: np.ndarray, targets: np.ndarray) -> int | None:
    """First step at which two sequences share an input prefix but not a target.

    ``inputs`` (n_sequences, T, w) and ``targets`` (n_sequences, T, 3) are a
    layer's inputs and targets. Returns the smallest t such that two
    sequences have equal inputs at every step <= t and different targets at
    t, or None. Such a layer cannot succeed (module docstring).

    Sorted lexicographically by their inputs, the sequences that share a
    prefix through t are contiguous, so a pair that conflicts at t implies
    a neighbouring pair that conflicts at t or earlier: comparing neighbours
    is exact. A pair conflicts iff its targets differ before its inputs do.
    """
    n_seq, seq_len = inputs.shape[:2]
    x = np.ascontiguousarray(inputs, dtype=np.uint8).reshape(n_seq, -1)
    y = np.ascontiguousarray(targets, dtype=np.uint8).reshape(n_seq, -1)
    order = np.argsort(x.view(np.dtype((np.void, x.shape[1]))).ravel())
    a, b = order[:-1], order[1:]

    def first_difference(rows):
        """Per neighbouring pair, the first step at which they differ; T if none."""
        differ = rows[a] != rows[b]
        step = differ.argmax(axis=1) // (rows.shape[1] // seq_len)
        return np.where(differ.any(axis=1), step, seq_len)

    first_target = first_difference(y)
    conflicts = first_target[first_target < first_difference(x)]
    return int(conflicts.min()) if conflicts.size else None


def run_once(config: RunConfig) -> RunResult:
    """One full train-and-test run, every layer of it, scored layer by layer."""
    tasks, inputs, targets = _task_arrays(config)
    evals = []
    for params in config.layers:
        inputs = _run_layer(inputs, targets, params)
        evals.append(evaluate(inputs, tasks))
    return RunResult(tuple(evals))


def _batch_worker(args: tuple[RunConfig, int]) -> tuple[bool, ...]:
    """Run i of ``config``, every layer's seed + i: its per-layer verdicts.

    They equal ``run_once``'s successes on that config. The final layer is
    not run when ``prefix_conflict`` proves it fails.
    """
    config, i = args
    tasks, inputs, targets = _task_arrays(config)
    verdicts = []
    for k, params in enumerate(config.layers, start=1):
        if k == len(config.layers) and prefix_conflict(inputs, targets) is not None:
            return (*verdicts, False)
        inputs = _run_layer(inputs, targets, replace(params, seed=params.seed + i))
        verdicts.append(evaluate(inputs, tasks).success)
    return tuple(verdicts)


def _usable_cpus() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_size(workers: int, n_jobs: int) -> int:
    """``workers``, cut to the ``n_jobs`` jobs and the usable CPUs: a batch's pool size.

    Fewer than one is a ValueError; more would only add interpreter starts and contention.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return min(workers, n_jobs, _usable_cpus())


def _map_in_pool(jobs: list, workers: int) -> list:
    """``_batch_worker`` over ``jobs`` on one pool of spawned workers.

    Each worker runs one BLAS thread: OpenBLAS reads its thread count only
    when it loads, so the workers are started while the parent's environment
    holds ``OPENBLAS_NUM_THREADS=1`` and ``OMP_NUM_THREADS=1``, and the
    parent's values are restored before this returns. No process the pool
    started outlives this call.

    The pool's modules are imported here, not with this module, as a run
    at one worker never needs them.
    """
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context, resource_tracker

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
    """``n_runs`` runs of each config; run i adds i to every layer's seed.

    Run 0 is the config as given. Every run of every config is one job on
    one pool of ``pool_size(workers, jobs)`` processes, each with one BLAS
    thread; one worker runs them in this process. Results are keyed by
    (config, run index), so the outcome is independent of worker scheduling.

    Only verdicts are kept, so a run stops before its final layer when that
    layer's inputs prove it fails (``prefix_conflict``, module docstring).
    Its verdict is then False, exactly what ``run_once``, which always runs
    every layer, would report.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    jobs = [(config, i) for config in configs for i in range(n_runs)]
    workers = pool_size(workers, len(jobs))
    if workers > 1:
        outcomes = _map_in_pool(jobs, workers)
    else:
        outcomes = [_batch_worker(job) for job in jobs]
    return [
        BatchResult(tuple(list(layer) for layer in zip(*outcomes[lo : lo + n_runs])))
        for lo in range(0, len(jobs), n_runs)
    ]


def run_batch(config: RunConfig, n_runs: int, workers: int = 1) -> BatchResult:
    """Execute ``n_runs`` runs of ``config``, run i with every layer's seed + i.

    Results are keyed by run index, so the outcome is independent of worker
    scheduling. As in ``run_batches``, a run skips a final layer that its
    inputs prove fails; the verdicts equal ``run_once``'s.
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
        features, _ = run_sequences(inputs, params, generate_mappings(params))
        # a copy, so that a grid does not keep its layer's features alive
        grids.append(features[pattern_id].reshape(-1, params.state_width).copy())
        if k < len(config.layers):
            inputs = _fit_readout(features, targets)
    return grids
