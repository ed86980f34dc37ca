import importlib
import os
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg.blas

import reca.pipeline
from reca.memory_task import all_patterns, evaluate
from reca.pipeline import (
    LAYER2_SEED_OFFSET,
    RunConfig,
    build_config,
    config_with_seed,
    run_batch,
    run_once,
    space_time_grids,
)

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


def test_config_with_seed_rederives_layer_seeds():
    config = build_config(rule=90, iterations=2, mappings=2, **FAST,
                          layer2_rule=90)
    reseeded = config_with_seed(config, 99)
    assert reseeded.layer1.seed == 99
    assert reseeded.layer2.seed == 99 + LAYER2_SEED_OFFSET
    assert reseeded.run_seed == 99


def test_run_batch_single_run_rate_is_zero_or_hundred():
    config = build_config(rule=90, iterations=2, mappings=2, **FAST)
    batch = run_batch(config, 1)
    assert len(batch.rates) == 1
    assert batch.rates[0] in (0.0, 100.0)


def test_run_batch_uses_sequential_seeds():
    config = build_config(rule=90, iterations=4, mappings=4, **FAST)
    batch = run_batch(config, 4)
    expected = [
        run_once(config_with_seed(config, config.run_seed + i)).layer1_eval.success
        for i in range(4)
    ]
    assert batch.successes == (expected,)


def test_run_batch_parallel_matches_serial():
    config = build_config(rule=150, iterations=2, mappings=4, **FAST)
    serial = run_batch(config, 4, workers=1)
    parallel = run_batch(config, 4, workers=2)
    assert serial.successes == parallel.successes


class OneBlasThreadConfig(RunConfig):
    """A config whose run fails unless its process was started with one BLAS thread."""

    @property
    def layers(self):
        seen = {name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        if seen != {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}:
            raise RuntimeError(f"worker environment: {seen}")
        return super().layers


def child_pids():
    """Live children of this process, where Linux lists them (else empty)."""
    return {
        pid
        for path in Path("/proc/self/task").glob("*/children")
        for pid in path.read_text().split()
    }


def test_run_batch_workers_start_with_one_blas_thread(monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    before = dict(os.environ)
    children = child_pids()
    config = build_config(rule=90, iterations=2, mappings=2, **FAST)
    config = OneBlasThreadConfig(config.layer1, config.layer2, config.distractor, config.run_seed)
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
    from reca.reservoir import make_mappings, run_sequences

    config = build_config(rule=110, iterations=3, mappings=2, **FAST)
    grids = space_time_grids(config, pattern_id=4)
    inputs = np.stack([task.inputs for task in all_patterns(config.distractor)])
    features, _ = run_sequences(inputs, config.layer1, make_mappings(config.layer1))
    expected = features[4].reshape(-1, config.layer1.state_width)
    assert np.array_equal(grids[0], expected)


def test_layer2_config_rejects_wrong_input_width():
    from reca.pipeline import RunConfig
    from reca.reservoir import ReservoirParams

    layer1 = ReservoirParams(90, 2, 2, 10, 4, 0)
    bad_layer2 = ReservoirParams(90, 2, 2, 10, 4, 1)
    with pytest.raises(ValueError):
        RunConfig(layer1=layer1, layer2=bad_layer2, distractor=20)


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


def test_layer2_fit_skips_repeated_rows(monkeypatch):
    # Before the cue all 32 sequences see the same waiting signal, so layer
    # 2's design is mostly repeated rows; its fit must not stream them all.
    fed = []  # rows streamed through ssyrk, one entry per fit
    ssyrk = scipy.linalg.blas.ssyrk
    fit = reca.pipeline.fit

    def counting_ssyrk(alpha, a, *args, **kwargs):
        fed[-1] += a.shape[1]
        return ssyrk(alpha, a, *args, **kwargs)

    def counting_fit(x, y, *args, **kwargs):
        fed.append(0)
        return fit(x, y, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg.blas, "ssyrk", counting_ssyrk)
    monkeypatch.setattr(reca.pipeline, "fit", counting_fit)
    config = build_config(rule=90, iterations=4, mappings=4, diffuse=40,
                          distractor=200, seed=1, layer2_rule=90)
    run_once(config)
    n_rows = 32 * 210
    assert fed[0] == n_rows  # layer 1 has too few repeats to skip any
    assert 0 < fed[1] <= n_rows // 10
