import importlib.util
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import reca.pipeline
import reca.readout
from reca.memory_task import all_patterns, evaluate
from reca.pipeline import (
    LAYER2_SEED_OFFSET,
    RunConfig,
    build_config,
    prefix_conflict,
    run_batch,
    run_batches,
    run_once,
    space_time_grids,
)
from reca.reservoir import ReservoirParams

# Short distractor keeps unit-test pipeline runs cheap; the paper-scale
# T_d=200 protocol is exercised by the acceptance suite.
FAST = dict(diffuse=40, distractor=20, seed=7)


def test_rule_0_always_fails():
    config = build_config(rule=0, iterations=2, mappings=2, **FAST)
    result = run_once(config)
    assert not result.layer1_eval.success
    assert result.layer2_eval is None


def test_rule_90_8_8_succeeds():
    config = build_config(rule=90, iterations=8, mappings=8, **FAST)
    result = run_once(config)
    assert result.layer1_eval.success
    assert result.layer1_eval.total_bits == 3 * 30 * 32


def test_run_is_reproducible():
    config = build_config(rule=150, iterations=4, mappings=4, **FAST)
    a = run_once(config)
    b = run_once(config)
    assert a.layer1_eval == b.layer1_eval


def test_layered_run_evaluates_both_layers():
    config = build_config(rule=90, iterations=4, mappings=4,
                          layer2_rule=90, **FAST)
    result = run_once(config)
    assert result.layer2_eval is not None
    assert result.layer2_eval.total_bits == result.layer1_eval.total_bits


def test_layer1_eval_matches_single_run_with_same_seed():
    single = build_config(rule=102, iterations=4, mappings=4, **FAST)
    layered = build_config(rule=102, iterations=4, mappings=4,
                           layer2_rule=102, **FAST)
    assert run_once(layered).layer1_eval == run_once(single).layer1_eval


def test_layer2_input_width_is_three():
    config = build_config(rule=90, iterations=2, mappings=2, **FAST,
                          layer2_rule=90)
    assert config.layer2.input_width == 3
    assert config.layer1.input_width == 4


def test_layer_seeds_are_independent_draws():
    config = build_config(rule=90, iterations=2, mappings=2, **FAST,
                          layer2_rule=90)
    assert config.layer2.seed == config.layer1.seed + LAYER2_SEED_OFFSET


def test_run_once_dispatches():
    single = build_config(rule=90, iterations=2, mappings=2, **FAST)
    layered = build_config(rule=90, iterations=2, mappings=2, **FAST,
                           layer2_rule=90)
    assert single.layers == (single.layer1,)
    assert layered.layers == (layered.layer1, layered.layer2)
    assert run_once(single).layer2_eval is None
    assert run_once(layered).layer2_eval is not None


def record_mapping_seeds(monkeypatch):
    """The seed of every layer whose mappings the pipeline draws, in order."""
    seeds = []
    generate_mappings = reca.pipeline.generate_mappings

    def recording(params):
        seeds.append(params.seed)
        return generate_mappings(params)

    monkeypatch.setattr(reca.pipeline, "generate_mappings", recording)
    return seeds


@pytest.mark.parametrize(
    "config,seeds",
    [
        (RunConfig((ReservoirParams(90, 2, 2, 10, 4, 5),), distractor=20), [5, 6]),
        (RunConfig((ReservoirParams(90, 4, 4, 40, 4, 5), ReservoirParams(90, 4, 4, 40, 3, 9)),
                   distractor=20), [5, 9, 6, 10]),
        (build_config(rule=90, iterations=4, mappings=4, layer2_rule=90, **FAST),
         [7, 7 + LAYER2_SEED_OFFSET, 8, 8 + LAYER2_SEED_OFFSET]),
    ],
    ids=["one-layer-by-hand", "two-layers-by-hand", "build_config"],
)
def test_batch_run_i_adds_i_to_every_layer_seed(monkeypatch, config, seeds):
    # Run 0 is the config as given, so its verdicts are run_once's. No run
    # here skips its final layer, so every layer of both runs draws.
    drawn = record_mapping_seeds(monkeypatch)
    batch = run_batch(config, 2)
    assert drawn == seeds
    drawn.clear()
    result = run_once(config)
    assert drawn == seeds[: len(config.layers)]
    assert [layer[0] for layer in batch.successes] == [ev.success for ev in result.evals]


def test_run_batch_single_run_rate_is_zero_or_hundred():
    config = build_config(rule=90, iterations=2, mappings=2, **FAST)
    batch = run_batch(config, 1)
    assert len(batch.rates) == 1
    assert batch.rates[0] in (0.0, 100.0)


@pytest.mark.parametrize("layered", [False, True])
def test_run_batch_uses_sequential_seeds(monkeypatch, layered):
    # Layered, layer 1's predictions hold a prefix conflict on 1 of these 8
    # seeds, so that run's final layer is skipped.
    def config(seed):
        return build_config(rule=90, iterations=4, mappings=4,
                            layer2_rule=90 if layered else None, **dict(FAST, seed=seed))

    expected = [[ev.success for ev in run_once(config(i)).evals] for i in range(8)]
    layer_runs = []
    run_sequences = reca.pipeline.run_sequences

    def counting_run_sequences(*args, **kwargs):
        layer_runs.append(args[0].shape)
        return run_sequences(*args, **kwargs)

    monkeypatch.setattr(reca.pipeline, "run_sequences", counting_run_sequences)
    batch = run_batch(config(0), 8)
    assert batch.successes == tuple(list(layer) for layer in zip(*expected))
    assert layer_runs.count((32, 30, 4)) == 8  # layer 1 always runs
    skipped = 8 * (2 if layered else 1) - len(layer_runs)
    assert skipped == (1 if layered else 0)


@pytest.mark.parametrize("workers", [0, -1])
def test_run_batches_rejects_fewer_than_one_worker(monkeypatch, workers):
    def no_run(job):
        raise AssertionError("a run started")

    monkeypatch.setattr(reca.pipeline, "_batch_worker", no_run)
    config = build_config(rule=90, iterations=2, mappings=2, **FAST)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        run_batches([config], 2, workers=workers)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        run_batch(config, 2, workers=workers)


def conflict_arrays(seq_len=8, width=5):
    """Inputs that differ between every two sequences at step 0, random targets."""
    rng = np.random.default_rng(16)
    inputs = rng.integers(0, 2, size=(32, seq_len, width), dtype=np.uint8)
    inputs[:, 0, :] = (np.arange(32)[:, None] >> np.arange(width)) & 1
    targets = rng.integers(0, 2, size=(32, seq_len, 3), dtype=np.uint8)
    return inputs, targets


def test_prefix_conflict_fires_on_a_shared_prefix_and_a_target_difference():
    inputs, targets = conflict_arrays()
    assert prefix_conflict(inputs, targets) is None
    for t in (0, 3, 7):
        a, b = inputs.copy(), targets.copy()
        a[17, : t + 1] = a[3, : t + 1]
        b[17, :t] = b[3, :t]
        b[17, t] = 1 - b[3, t]
        assert prefix_conflict(a, b) == t


def test_prefix_conflict_is_silent_when_the_inputs_split_first():
    inputs, targets = conflict_arrays()
    t = 5
    for split in (1, 4):  # steps before t at which the inputs differ
        a, b = inputs.copy(), targets.copy()
        a[17, : t + 1] = a[3, : t + 1]
        a[17, split, 0] = 1 - a[3, split, 0]
        b[17, : t + 1] = b[3, : t + 1]
        b[17, t] = 1 - b[3, t]  # equal inputs at t alone prove nothing
        assert prefix_conflict(a, b) is None


def test_prefix_conflict_is_silent_when_the_targets_agree():
    inputs, targets = conflict_arrays()
    inputs[17] = inputs[3]
    targets[17] = targets[3]
    assert prefix_conflict(inputs, targets) is None


def test_prefix_conflict_is_the_first_conflict_over_all_pairs():
    rng = np.random.default_rng(17)
    fired = 0
    for _ in range(40):
        # two input bits a step, so many sequences share short prefixes
        inputs = rng.integers(0, 2, size=(32, 8, 2), dtype=np.uint8)
        # targets that follow from the input prefix, then a few flipped bits
        targets = np.repeat(np.bitwise_xor.accumulate(inputs[..., :1], axis=1), 3, axis=2)
        for _ in range(rng.integers(0, 3)):
            targets[rng.integers(32), rng.integers(8), rng.integers(3)] ^= 1
        same_prefix = np.logical_and.accumulate(
            (inputs[:, None] == inputs[None]).all(axis=3), axis=2)
        differ = (targets[:, None] != targets[None]).any(axis=3)
        steps = np.flatnonzero((same_prefix & differ).any(axis=(0, 1)))
        expected = int(steps[0]) if steps.size else None
        assert prefix_conflict(inputs, targets) == expected
        fired += expected is not None
    assert 10 < fired < 30


@pytest.mark.parametrize("distractor", [1, 20, 200])
def test_prefix_conflict_never_fires_on_the_task_inputs(distractor):
    tasks = all_patterns(distractor)
    inputs = np.stack([task.inputs for task in tasks])
    targets = np.stack([task.targets for task in tasks])
    assert prefix_conflict(inputs, targets) is None


def two_usable_cpus(monkeypatch):
    """Let ``run_batches`` start a pool of two whatever the host's CPU count."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def test_run_batches_clamps_workers_to_usable_cpus(monkeypatch):
    seen = []

    def serial_pool(jobs, workers):
        seen.append(workers)
        return [reca.pipeline._batch_worker(job) for job in jobs]

    monkeypatch.setattr(reca.pipeline, "_map_in_pool", serial_pool)
    two_usable_cpus(monkeypatch)
    config = build_config(rule=90, iterations=2, mappings=2, **FAST)
    batch = run_batch(config, 4, workers=64)
    assert seen == [2]
    assert batch.successes == run_batch(config, 4, workers=1).successes


def test_run_batch_parallel_matches_serial(monkeypatch):
    two_usable_cpus(monkeypatch)
    config = build_config(rule=150, iterations=2, mappings=4, **FAST)
    serial = run_batch(config, 4, workers=1)
    parallel = run_batch(config, 4, workers=2)
    assert serial.successes == parallel.successes


class OneBlasThreadConfig(RunConfig):
    """A config that fails to unpickle unless its process was started with one BLAS thread."""

    def __setstate__(self, state):
        seen = {name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        if seen != {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}:
            raise RuntimeError(f"worker environment: {seen}")
        self.__dict__.update(state)


def child_pids():
    """Live children of this process, where Linux lists them (else empty)."""
    return {
        pid
        for path in Path("/proc/self/task").glob("*/children")
        for pid in path.read_text().split()
    }


def test_run_batch_workers_start_with_one_blas_thread(monkeypatch):
    two_usable_cpus(monkeypatch)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    before = dict(os.environ)
    children = child_pids()
    config = build_config(rule=90, iterations=2, mappings=2, **FAST)
    config = OneBlasThreadConfig(config.layers, config.distractor)
    batch = run_batch(config, 2, workers=2)
    assert batch.n_runs == 2
    assert dict(os.environ) == before
    assert child_pids() <= children  # the workers and the resource tracker are gone


def test_trainable_parameter_count_matches_feature_size():
    config = build_config(rule=90, iterations=8, mappings=8, diffuse=40,
                          distractor=20, seed=0)
    assert config.layer1.feature_length == 2560


def test_space_time_grids_shapes():
    config = build_config(rule=90, iterations=8, mappings=8, **FAST,
                          layer2_rule=90)
    grids = space_time_grids(config, pattern_id=0)
    assert len(grids) == 2
    assert grids[0].shape == (30 * 8, 320)
    assert grids[1].shape == (30 * 8, 320)
    assert all(grid.base is None for grid in grids)  # no grid pins its layer's features


def test_space_time_grid_matches_reservoir_record():
    from reca.encoding import generate_mappings
    from reca.reservoir import run_sequences

    config = build_config(rule=110, iterations=3, mappings=2, **FAST)
    grids = space_time_grids(config, pattern_id=4)
    inputs = np.stack([task.inputs for task in all_patterns(config.distractor)])
    features, _ = run_sequences(inputs, config.layer1, generate_mappings(config.layer1))
    expected = features[4].reshape(-1, config.layer1.state_width)
    assert np.array_equal(grids[0], expected)


def test_layer2_config_rejects_wrong_input_width():
    layer1 = ReservoirParams(90, 2, 2, 10, 4, 0)
    bad_layer2 = ReservoirParams(90, 2, 2, 10, 4, 1)
    with pytest.raises(ValueError, match="layer-2 input width must be 3"):
        RunConfig((layer1, bad_layer2), distractor=20)
    good_layer2 = replace(bad_layer2, input_width=3)
    with pytest.raises(ValueError, match="layer-3 input width must be 3 .*layer-2 outputs"):
        RunConfig((layer1, good_layer2, bad_layer2), distractor=20)
    assert RunConfig((layer1, good_layer2), distractor=20).layer2 == good_layer2


def test_layer1_config_rejects_other_than_the_task_inputs():
    # A run would fail only inside run_sequences, a batch after starting its pool.
    with pytest.raises(ValueError, match="layer-1 input width must be 4"):
        RunConfig((ReservoirParams(90, 2, 2, 10, 3, 0),), distractor=5)


def test_config_rejects_a_distractor_the_readout_cannot_fit():
    # 32 (T_d + 10) rows must stay below readout.MAX_FIT_ROWS; built, never run.
    layer1 = ReservoirParams(90, 1, 1, 4, 4, 0)
    assert RunConfig((layer1,), distractor=524_277).n_rows == reca.readout.MAX_FIT_ROWS - 32
    with pytest.raises(ValueError, match="distractor period must be <= 524277"):
        RunConfig((layer1,), distractor=524_278)


def test_run_config_needs_a_layer():
    with pytest.raises(ValueError, match="at least one layer"):
        RunConfig(())


# The layer phases the benchmark times, by defining module, in call order.
TRACED = [
    ("encoding", "generate_mappings"),
    ("reservoir", "run_sequences"),
    ("readout", "fit"),
    ("readout", "predict"),
    ("readout", "binarize_array"),
    ("memory_task", "evaluate"),
]


def record_calls(monkeypatch, calls):
    """Swap a recording wrapper in wherever a reca module holds a traced function."""
    for module_name, name in TRACED:
        original = getattr(importlib.import_module(f"reca.{module_name}"), name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            result = _original(*args, **kwargs)
            calls.append((_name, args, result))
            return result

        for qualname, module in list(sys.modules.items()):
            if qualname == "reca" or qualname.startswith("reca."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, wrapper)


@pytest.mark.parametrize("layered", [False, True])
def test_run_once_calls_each_layer_phase_once_per_layer(monkeypatch, layered):
    calls = []
    record_calls(monkeypatch, calls)
    config = build_config(rule=90, iterations=2, mappings=2,
                          layer2_rule=90 if layered else None, **FAST)
    result = run_once(config)

    n_layers = len(config.layers)
    assert [name for name, _, _ in calls] == [name for _, name in TRACED] * n_layers
    inputs = [args[0] for name, args, _ in calls if name == "run_sequences"]
    assert [x.shape for x in inputs] == [(32, 30, 4), (32, 30, 3)][:n_layers]
    first_bits = next(out for name, _, out in calls if name == "binarize_array")
    tasks = all_patterns(config.distractor)
    evaluation = evaluate(first_bits.reshape(len(tasks), -1, 3), tasks)
    assert evaluation.correct_bits == result.layer1_eval.correct_bits
    if layered:  # layer 2 reads layer 1's binarized predictions
        assert np.array_equal(inputs[1], first_bits.reshape(len(tasks), -1, 3))


def test_each_layer_call_is_a_direct_child_of_the_traced_run(monkeypatch):
    # perfbench's traced run times a layer's calls only where they are direct
    # children of pipeline.run_once's span, and reads run_sequences' result[0]
    path = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"
    spec = importlib.util.spec_from_file_location("bench_trace", path)
    bench_trace = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_trace", bench_trace)
    spec.loader.exec_module(bench_trace)

    layer_calls = [f"{module}.{name}" for module, name in TRACED[:5]]
    tracer = bench_trace.Tracer()
    tracer.capturing = True
    undo = bench_trace.instrument(tracer, ["pipeline.run_once", *layer_calls])
    try:
        config = build_config(rule=90, iterations=2, mappings=2, layer2_rule=90, **FAST)
        reca.pipeline.run_once(config)
    finally:
        undo()

    (root,) = tracer.by_name("pipeline.run_once")
    children = [s.name for s in tracer.spans if s.parent_id == root.span_id]
    assert children == layer_calls * len(config.layers)
    assert len(tracer.spans) == 1 + len(children)  # no layer call nested in another
    seq_len = all_patterns(config.distractor)[0].inputs.shape[0]
    runs = tracer.calls["reservoir.run_sequences"]
    for params, (_, result) in zip(config.layers, runs, strict=True):
        assert result[0].shape == (32, seq_len, params.feature_length)


def test_layer2_fit_skips_repeated_rows(monkeypatch):
    # Before the cue all 32 sequences see the same waiting signal, so layer
    # 2's design is mostly repeated rows; its fit streams each distinct row
    # of [X Y] once.
    fed = []  # rows streamed through ssyrk, one entry per fit
    distinct = []  # distinct rows of [X Y], one entry per fit
    ssyrk = reca.readout._fblas.ssyrk
    fit = reca.pipeline.fit

    def counting_ssyrk(alpha, a, *args, **kwargs):
        fed[-1] += a.shape[1]
        return ssyrk(alpha, a, *args, **kwargs)

    def counting_fit(x, y, *args, **kwargs):
        fed.append(0)
        distinct.append(len(np.unique(np.hstack([x, y]), axis=0)))
        return fit(x, y, *args, **kwargs)

    monkeypatch.setattr(reca.readout._fblas, "ssyrk", counting_ssyrk)
    monkeypatch.setattr(reca.pipeline, "fit", counting_fit)
    config = build_config(rule=90, iterations=4, mappings=4, diffuse=40,
                          distractor=200, seed=1, layer2_rule=90)
    run_once(config)
    assert fed[0] == 32 * 210  # layer 1 has too few repeats to skip any
    assert fed[1] == distinct[1] < fed[0] // 10
