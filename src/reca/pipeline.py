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

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .memory_task import INPUT_WIDTH, OUTPUT_WIDTH, EvaluationResult, all_patterns
from .readout import binarize_array, fit, predict
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


@dataclass(frozen=True)
class RunResult:
    layer1_eval: EvaluationResult
    layer2_eval: EvaluationResult | None
    timing: dict[str, float]

    @property
    def success(self) -> bool:
        final = self.layer2_eval if self.layer2_eval is not None else self.layer1_eval
        return final.success


@dataclass(frozen=True)
class BatchResult:
    layer1_successes: list[bool]
    layer2_successes: list[bool] | None

    @property
    def n_runs(self) -> int:
        return len(self.layer1_successes)

    @property
    def layer1_rate(self) -> float:
        return 100.0 * sum(self.layer1_successes) / self.n_runs

    @property
    def layer2_rate(self) -> float | None:
        if self.layer2_successes is None:
            return None
        return 100.0 * sum(self.layer2_successes) / self.n_runs


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
    """Same architecture, reseeded; layer seeds re-derive from ``seed``."""
    layer1 = replace(config.layer1, seed=seed)
    layer2 = None
    if config.layer2 is not None:
        layer2 = replace(config.layer2, seed=seed + LAYER2_SEED_OFFSET)
    return replace(config, layer1=layer1, layer2=layer2, run_seed=seed)


def _run_layer(
    inputs: np.ndarray, targets: np.ndarray, params: ReservoirParams
) -> tuple[EvaluationResult, np.ndarray, dict[str, float]]:
    """Train and self-test one encoder/reservoir/readout stage.

    Returns the evaluation, the binarized predictions with shape
    (n_sequences, T, 3), and per-phase wall-clock timings.
    """
    t0 = time.perf_counter()
    mappings = make_mappings(params)
    features, _ = run_sequences(inputs, params, mappings)
    reservoir_s = time.perf_counter() - t0
    evaluation, preds, timing = _fit_readout(features, targets)
    return evaluation, preds, {"reservoir": reservoir_s, **timing}


def _fit_readout(
    features: np.ndarray, targets: np.ndarray
) -> tuple[EvaluationResult, np.ndarray, dict[str, float]]:
    """Fit one readout on a layer's (n_sequences, T, p) features and self-test it."""
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

    total = int(y.size)
    correct = int(np.count_nonzero(preds.reshape(-1, OUTPUT_WIDTH) == y))
    return EvaluationResult(total, correct), preds, timing


def run_single(config: RunConfig) -> RunResult:
    """One full train-and-test run of the single-layer system."""
    tasks = all_patterns(config.distractor)
    inputs = np.stack([task.inputs for task in tasks])
    targets = np.stack([task.targets for task in tasks])
    evaluation, _, timing = _run_layer(inputs, targets, config.layer1)
    return RunResult(evaluation, None, {f"layer1_{k}": v for k, v in timing.items()})


def run_layered(config: RunConfig) -> RunResult:
    """One full run of the two-layer system; layer 2 eats layer 1's predictions."""
    if config.layer2 is None:
        raise ValueError("run_layered requires a layer-2 configuration")
    tasks = all_patterns(config.distractor)
    inputs = np.stack([task.inputs for task in tasks])
    targets = np.stack([task.targets for task in tasks])

    eval1, preds1, timing1 = _run_layer(inputs, targets, config.layer1)
    eval2, _, timing2 = _run_layer(preds1, targets, config.layer2)
    timing = {f"layer1_{k}": v for k, v in timing1.items()}
    timing.update({f"layer2_{k}": v for k, v in timing2.items()})
    return RunResult(eval1, eval2, timing)


def run_once(config: RunConfig) -> RunResult:
    """Dispatch to run_single or run_layered based on the config."""
    if config.layer2 is None:
        return run_single(config)
    return run_layered(config)


def _batch_worker(args: tuple[RunConfig, int]) -> tuple[bool, bool | None]:
    config, seed = args
    result = run_once(config_with_seed(config, seed))
    eval2 = result.layer2_eval
    return result.layer1_eval.success, None if eval2 is None else eval2.success


def run_batch(config: RunConfig, n_runs: int, workers: int = 1) -> BatchResult:
    """Execute ``n_runs`` runs with seeds run_seed, run_seed+1, ...

    Results are keyed by run index, so the outcome is independent of worker
    scheduling.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    jobs = [(config, config.run_seed + i) for i in range(n_runs)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_batch_worker, jobs, chunksize=1))
    else:
        outcomes = [_batch_worker(job) for job in jobs]

    layer1 = [ok1 for ok1, _ in outcomes]
    layer2 = None
    if config.layer2 is not None:
        layer2 = [bool(ok2) for _, ok2 in outcomes]
    return BatchResult(layer1, layer2)


def space_time_grids(config: RunConfig, pattern_id: int = 0) -> list[np.ndarray]:
    """Space-time diagrams of one pattern's run, one (T*I, R*L_d) grid per layer.

    The layer-2 band depends on layer-1 predictions, which in turn depend on
    the joint fit over all 32 sequences, so this replays a full run.
    """
    tasks = all_patterns(config.distractor)
    inputs = np.stack([task.inputs for task in tasks])
    targets = np.stack([task.targets for task in tasks])
    if not 0 <= pattern_id < len(tasks):
        raise ValueError(f"pattern_id must be in [0, {len(tasks)})")

    mappings1 = make_mappings(config.layer1)
    features1, _ = run_sequences(inputs, config.layer1, mappings1)
    grids = [features1[pattern_id].reshape(-1, config.layer1.state_width)]
    if config.layer2 is None:
        return grids

    _, preds1, _ = _fit_readout(features1, targets)
    mappings2 = make_mappings(config.layer2)
    features2, _ = run_sequences(preds1, config.layer2, mappings2)
    grids.append(features2[pattern_id].reshape(-1, config.layer2.state_width))
    return grids
