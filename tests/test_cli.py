import concurrent.futures
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

import reca.cli
import reca.pipeline
from reca.cli import main
from reca.render import grid_to_ascii, grid_to_pgm


def write_config(path, **kwargs):
    path.write_text(json.dumps(kwargs))
    return str(path)


def strip_comments(text):
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def test_run_success_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", rule=90, iterations=8, mappings=8,
                       diffuse=40, distractor=20, seed=1)
    assert main(["run", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "success=True" in out


def test_run_failure_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", rule=0, iterations=2, mappings=2,
                       distractor=20)
    assert main(["run", "--config", cfg]) == 1
    assert "success=False" in capsys.readouterr().out


def test_run_missing_config_is_usage_error(capsys):
    assert main(["run", "--config", "/nonexistent/cfg.json"]) == 2
    assert "not found" in capsys.readouterr().err


def test_run_malformed_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path)]) == 2


def test_run_requires_a_rule(capsys):
    assert main(["run"]) == 2


@pytest.mark.parametrize("command", ["run", "sweep", "render"])
@pytest.mark.parametrize(
    "cfg,key",
    [
        ({"rule": 90, "iteration": 4}, "iteration"),
        ({"rule": 90, "layer2": {"rule": 90, "mapping": 2}}, "mapping"),
    ],
)
def test_unknown_config_keys_are_usage_errors(tmp_path, monkeypatch, capsys, command, cfg, key):
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran with an unknown config key")

    for name in ("run_once", "run_batches", "space_time_grids"):
        monkeypatch.setattr(reca.cli, name, must_not_run)
    path = write_config(tmp_path / "cfg.json", **cfg)
    assert main([command, "--config", path]) == 2
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize(
    "layer2", [[90], None, False, 0, "", []],
    ids=["list", "null", "false", "zero", "empty-string", "empty-list"],
)
def test_layer2_config_must_be_an_object(tmp_path, capsys, layer2):
    # a falsy value is not an absent block: it must not run a single layer
    path = write_config(tmp_path / "cfg.json", rule=90, layer2=layer2)
    assert main(["run", "--config", path]) == 2
    assert "layer2" in capsys.readouterr().err


def test_empty_layer2_block_makes_the_run_layered(tmp_path, capsys):
    path = write_config(tmp_path / "cfg.json", rule=90, iterations=2, mappings=2,
                        distractor=20, layer2={})
    assert main(["run", "--config", path]) in (0, 1)
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["layer 1", "layer 2"]


@pytest.mark.parametrize("command", ["run", "sweep", "render"])
@pytest.mark.parametrize(
    "cfg,key",
    [
        ({"rule": 90, "iterations": 2.7}, "iterations"),
        ({"rule": 90, "layer2": {"iterations": 2.5}}, "iterations"),
        ({"rule": 90, "iterations": True}, "iterations"),
        ({"rules": [90], "combos": [[2, 4.0]]}, "combos"),
        ({"rule": 90, "layered": "false"}, "layered"),
        ({"rule": 90, "out": 5}, "out"),
        ({"rule": 90, "runs": 2.5}, "runs"),
        ({"rule": 90, "seed": True}, "seed"),
        ({"rule": 90, "workers": "2"}, "workers"),
        ({"rules": 90}, "rules"),
    ],
)
def test_non_integer_config_values_are_usage_errors(
    tmp_path, monkeypatch, capsys, command, cfg, key
):
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran with a non-integer config value")

    for name in ("run_once", "run_batches", "space_time_grids"):
        monkeypatch.setattr(reca.cli, name, must_not_run)
    path = write_config(tmp_path / "cfg.json", **cfg)
    assert main([command, "--config", path]) == 2
    assert repr(key) in capsys.readouterr().err


def test_flags_override_config_file(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", rule=0, iterations=2, mappings=2,
                       distractor=20)
    # override the dead rule with rule 90 at (8,8): should now succeed
    assert main(["run", "--config", cfg, "--rule", "90", "--iterations", "8",
                 "--mappings", "8"]) == 0


def test_sweep_writes_csv_with_metadata(tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert main(["sweep", "--rule", "90", "--iterations", "4", "--mappings", "4",
                 "--distractor", "20", "--runs", "2", "--seed", "3",
                 "--out", str(out), "--no-timestamp", "--workers", "1"]) == 0
    text = out.read_text()
    assert "# ld=40" in text and "# td=20" in text
    assert "# runs=2" in text and "# seed=3" in text
    assert "timestamp" not in text
    rows = strip_comments(text)
    assert rows[0] == 'rule,"(4,4)"'
    rule, value = rows[1].split(",")
    assert rule == "90"
    assert float(value) in {0.0, 50.0, 100.0}


def test_sweep_is_deterministic_without_timestamp(tmp_path):
    args = ["sweep", "--rule", "150", "--iterations", "2", "--mappings", "4",
            "--distractor", "20", "--runs", "3", "--seed", "11",
            "--no-timestamp", "--workers", "1"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_timestamp_line_present_by_default(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["sweep", "--rule", "90", "--iterations", "2", "--mappings", "2",
                 "--distractor", "20", "--runs", "1", "--out", str(out),
                 "--workers", "1"]) == 0
    assert re.search(r"^# timestamp=", out.read_text(), re.MULTILINE)


def test_layered_sweep_emits_two_tables(tmp_path):
    out = tmp_path / "deep.csv"
    assert main(["sweep", "--rule", "90", "--iterations", "2", "--mappings", "2",
                 "--distractor", "20", "--runs", "1", "--layered",
                 "--out", str(out), "--no-timestamp", "--workers", "1"]) == 0
    text = out.read_text()
    assert "# layer=1" in text and "# layer=2" in text
    assert len([l for l in text.splitlines() if l.startswith("rule,")]) == 2


def test_sweep_config_file_grid(tmp_path):
    out = tmp_path / "grid.csv"
    cfg = write_config(tmp_path / "sweep.json", rules=[90, 150],
                       combos=[[2, 2], [2, 4]], runs=1, distractor=20,
                       seed=5, out=str(out))
    assert main(["sweep", "--config", cfg, "--no-timestamp", "--workers", "1"]) == 0
    rows = strip_comments(out.read_text())
    assert rows[0] == 'rule,"(2,2)","(2,4)"'
    assert [r.split(",")[0] for r in rows[1:]] == ["90", "150"]


GOLDEN_SWEEP = Path(__file__).with_name("golden_sweep.csv")


def test_sweep_matches_golden_csv(tmp_path):
    # 11 default rules x (2,4),(4,4), layered, T_d=50, seed 7: any verdict
    # that moves changes a cell of this file. In-process, on a pool of two
    # and at the default worker count.
    cfg = write_config(tmp_path / "golden.json", combos=[[2, 4], [4, 4]], runs=2,
                       distractor=50, seed=7)
    out = tmp_path / "sweep.csv"
    for workers in (["--workers", "1"], ["--workers", "2"], []):
        assert main(["sweep", "--config", cfg, "--layered", "--no-timestamp",
                     "--out", str(out)] + workers) == 0
        assert out.read_text() == GOLDEN_SWEEP.read_text(), workers


@pytest.mark.parametrize("layered", [False, True])
def test_sweep_applies_layer2_block(tmp_path, monkeypatch, layered):
    configs = []

    def recording_batches(cell_configs, n_runs, workers=1):
        configs.extend(cell_configs)
        return [
            reca.pipeline.BatchResult(tuple([True] * n_runs for _ in config.layers))
            for config in cell_configs
        ]

    monkeypatch.setattr(reca.cli, "run_batches", recording_batches)
    layer2 = {"rule": 180, "iterations": 1, "mappings": 1, "diffuse": 4}
    cfg = write_config(tmp_path / "sweep.json", rules=[90, 165], combos=[[2, 4]],
                       runs=2, layered=layered, layer2=layer2)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--no-timestamp", "--workers", "1",
                 "--out", str(out)]) == 0
    assert [c.layer1.rule for c in configs] == [90, 165]
    for config in configs:
        assert (config.layer1.iterations, config.layer1.mapping_count) == (2, 4)
        l2 = config.layer2
        assert l2 is not None
        assert (l2.rule, l2.iterations, l2.mapping_count, l2.diffuse_length) == (180, 1, 1, 4)
    assert "# layer=2" in out.read_text()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_rejects_workers_below_one(monkeypatch, capsys, workers):
    # Checked before the memory check and the banner.
    for name in ("run_batches", "_check_memory"):
        monkeypatch.setattr(reca.cli, name, refuse_to_run)
    assert main(["sweep", "--rule", "90", "--iterations", "2", "--mappings", "2",
                 "--runs", "2", "--workers", workers]) == 2
    err = capsys.readouterr().err
    assert f"error: workers must be >= 1, got {workers}" in err
    assert "sweep:" not in err


@pytest.mark.parametrize("source", ["--runs 0", "--runs -2", "config"])
def test_sweep_rejects_runs_below_one_before_the_banner(tmp_path, monkeypatch, capsys, source):
    # Checked before the worker count, the memory check and the banner.
    for name in ("run_batches", "_check_memory"):
        monkeypatch.setattr(reca.cli, name, refuse_to_run)
    if source == "config":
        argv = ["sweep", "--config", write_config(tmp_path / "cfg.json", rule=90, runs=0)]
    else:
        argv = ["sweep", "--rule", "90", *source.split()]
    assert main([*argv, "--iterations", "2", "--mappings", "2"]) == 2
    err = capsys.readouterr().err
    assert "runs must be >= 1" in err
    assert "sweep:" not in err


def recording_workers(seen):
    """A ``run_batches`` stub that records its worker count; every run succeeds."""

    def fake_batches(configs, n_runs, workers=1):
        seen.append(workers)
        return [reca.pipeline.BatchResult(([True] * n_runs,)) for _ in configs]

    return fake_batches


def test_sweep_clamps_workers_to_run_count(tmp_path, monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(reca.cli, "run_batches", recording_workers(seen))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    assert main(["sweep", "--rule", "90", "--iterations", "2", "--mappings", "2",
                 "--runs", "3", "--workers", "64", "--no-timestamp"]) == 0
    assert main(["sweep", "--rule", "90", "--iterations", "2", "--mappings", "2",
                 "--runs", "3", "--workers", "2", "--no-timestamp"]) == 0
    # 2 rules x 1 combo x 2 runs: 4 jobs on one pool
    cfg = write_config(tmp_path / "sweep.json", rules=[90, 150], combos=[[2, 2]], runs=2)
    assert main(["sweep", "--config", cfg, "--workers", "64", "--no-timestamp"]) == 0
    assert seen == [3, 2, 4]


def test_sweep_default_workers_are_the_usable_cpus(monkeypatch):
    seen = []
    monkeypatch.setattr(reca.cli, "run_batches", recording_workers(seen))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert main(["sweep", "--rule", "90", "--iterations", "2", "--mappings", "2",
                 "--runs", "8", "--no-timestamp"]) == 0
    assert seen == [3]


def test_sweep_clamps_workers_to_usable_cpus(monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(reca.cli, "run_batches", recording_workers(seen))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert main(["sweep", "--rule", "90", "--iterations", "2", "--mappings", "2",
                 "--runs", "8", "--workers", "64", "--no-timestamp"]) == 0
    assert seen == [2]
    assert "on 2 worker(s)" in capsys.readouterr().err


def refuse_to_run(*args, **kwargs):
    raise AssertionError("a run started")


@pytest.mark.parametrize(
    "command,stub",
    [(["run"], "run_once"), (["sweep", "--runs", "2", "--workers", "1"], "run_batches"),
     (["render"], "space_time_grids")],
)
def test_runs_that_do_not_fit_in_memory_are_usage_errors(
    tmp_path, monkeypatch, capsys, command, stub
):
    monkeypatch.setattr(reca.cli, "_available_bytes", lambda: 50 * 10**6)
    monkeypatch.setattr(reca.cli, stub, refuse_to_run)
    argv = [*command, "--rule", "90", "--iterations", "8", "--mappings", "8"]
    if command != ["run"]:  # run writes no file
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "not enough memory" in err
    needed = reca.pipeline.run_bytes(reca.pipeline.build_config(90, 8, 8))
    assert f"{needed / 1e6:.0f} MB" in err and "50 MB is available" in err


@pytest.mark.parametrize("command", ["run", "sweep", "render"])
@pytest.mark.parametrize(
    "cfg,message",
    [
        ({"rule": 300}, "rule must be in [0, 255], got 300"),
        ({"rule": 90, "layer2": {"rule": -1}}, "rule must be in [0, 255], got -1"),
        ({"rule": 90, "seed": -2}, "seed must be >= 0, got -2"),
        ({"rule": 90, "distractor": 0}, "distractor period must be >= 1"),
        ({"rule": 90, "distractor": 524_278}, "distractor period must be <= 524277"),
    ],
)
def test_bad_rule_or_seed_is_a_usage_error_before_any_run(
    tmp_path, monkeypatch, capsys, command, cfg, message
):
    for name in ("run_once", "run_batches", "space_time_grids", "_check_memory"):
        monkeypatch.setattr(reca.cli, name, refuse_to_run)
    path = write_config(tmp_path / "cfg.json", **cfg)
    assert main([command, "--config", path]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "sweep:" not in err


def test_run_has_no_out_option(tmp_path, monkeypatch, capsys):
    # run writes nothing, so --out is a usage error, not a silently ignored flag.
    for name in ("run_once", "_check_memory"):
        monkeypatch.setattr(reca.cli, name, refuse_to_run)
    out = tmp_path / "result.txt"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--rule", "90", "--iterations", "2", "--mappings", "2",
              "--distractor", "5", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    assert not out.exists()


def test_bad_rule_or_seed_flags_run_nothing(tmp_path, monkeypatch, capsys):
    # The bad rule is in the sweep's last cell: every cell is checked before
    # the first one runs.
    for name in ("run_once", "run_batches"):
        monkeypatch.setattr(reca.cli, name, refuse_to_run)
    path = write_config(tmp_path / "cfg.json", rules=[90, 300], combos=[[2, 4]], runs=3)
    assert main(["sweep", "--config", path, "--no-timestamp"]) == 2
    assert main(["sweep", "--rule", "90", "--seed", "-2", "--runs", "3"]) == 2
    assert main(["run", "--rule", "90", "--seed", "-2"]) == 2
    err = capsys.readouterr().err
    assert err.count("got 300") == 1 and err.count("seed must be >= 0, got -2") == 2


def test_sweep_memory_need_counts_every_worker(monkeypatch, capsys):
    # One (4,4) run needs about 9.1 MB: one worker fits in 12 MB, two do not.
    monkeypatch.setattr(reca.cli, "_available_bytes", lambda: 12 * 10**6)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    seen = []
    monkeypatch.setattr(reca.cli, "run_batches", recording_workers(seen))
    argv = ["sweep", "--rule", "90", "--iterations", "4", "--mappings", "4",
            "--runs", "2", "--no-timestamp"]
    assert main([*argv, "--workers", "1"]) == 0
    assert main([*argv, "--workers", "2"]) == 2
    assert seen == [1]
    assert "2 run(s) at once" in capsys.readouterr().err


def test_memory_check_is_skipped_where_availability_is_unknown(monkeypatch):
    monkeypatch.setattr(reca.cli, "_available_bytes", lambda: None)
    seen = []
    monkeypatch.setattr(reca.cli, "run_batches", recording_workers(seen))
    assert main(["sweep", "--rule", "90", "--iterations", "8", "--mappings", "8",
                 "--distractor", "100000", "--runs", "1", "--no-timestamp"]) == 0
    assert seen == [1]


def test_sweep_on_one_usable_cpu_runs_in_process(monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        raise AssertionError("started a worker pool")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert main(["sweep", "--rule", "90", "--iterations", "2", "--mappings", "2",
                 "--distractor", "20", "--runs", "2", "--no-timestamp"]) == 0
    assert "on 1 worker" in capsys.readouterr().err


def test_failed_fit_exits_1_not_usage(monkeypatch, capsys):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(reca.pipeline, "fit", singular)
    assert main(["run", "--rule", "90", "--iterations", "2", "--mappings", "2",
                 "--distractor", "20"]) == 1
    assert "not positive definite" in capsys.readouterr().err


def test_render_outputs_pgm_and_ascii(tmp_path, capsys):
    base = tmp_path / "st"
    assert main(["render", "--rule", "90", "--iterations", "8", "--mappings", "8",
                 "--distractor", "20", "--seed", "1", "--out", str(base)]) == 0
    pgm = (tmp_path / "st_layer1.pgm").read_bytes()
    assert pgm.startswith(b"P5\n320 240\n255\n")
    assert len(pgm) == len(b"P5\n320 240\n255\n") + 320 * 240
    txt = (tmp_path / "st_layer1.txt").read_text().splitlines()
    assert len(txt) == 240 and set("".join(txt)) <= {"#", "."}


def test_render_layered_emits_band_per_layer(tmp_path):
    base = tmp_path / "deep"
    assert main(["render", "--rule", "90", "--iterations", "2", "--mappings", "2",
                 "--distractor", "20", "--layered", "--out", str(base)]) == 0
    assert (tmp_path / "deep_layer1.pgm").exists()
    assert (tmp_path / "deep_layer2.pgm").exists()


def test_render_rule_0_is_all_white(tmp_path):
    base = tmp_path / "blank"
    assert main(["render", "--rule", "0", "--iterations", "2", "--mappings", "2",
                 "--distractor", "20", "--out", str(base)]) == 0
    pgm = (tmp_path / "blank_layer1.pgm").read_bytes()
    body = pgm.split(b"\n", 3)[3]
    assert set(body) == {255}


def test_render_matches_record_space_time(tmp_path):
    from reca.encoding import generate_mappings
    from reca.memory_task import all_patterns
    from reca.pipeline import build_config
    from reca.reservoir import run_sequences

    base = tmp_path / "check"
    assert main(["render", "--rule", "110", "--iterations", "3", "--mappings", "2",
                 "--diffuse", "10", "--distractor", "20", "--seed", "4",
                 "--out", str(base)]) == 0
    config = build_config(rule=110, iterations=3, mappings=2, diffuse=10,
                          distractor=20, seed=4)
    inputs = np.stack([task.inputs for task in all_patterns(20)])
    features, _ = run_sequences(inputs, config.layer1, generate_mappings(config.layer1))
    grid = features[0].reshape(-1, config.layer1.state_width)
    assert (tmp_path / "check_layer1.pgm").read_bytes() == grid_to_pgm(grid)
    assert (tmp_path / "check_layer1.txt").read_text() == grid_to_ascii(grid) + "\n"


def test_rule_info_output(capsys):
    assert main(["rule-info", "110"]) == 0
    out = capsys.readouterr().out
    assert "lambda: 0.625" in out
    assert out.count("->") == 8


def test_rule_info_equivalents(capsys):
    assert main(["rule-info", "102"]) == 0
    out = capsys.readouterr().out
    assert "mirror equivalent: 60" in out
    assert "complement equivalent: 153" in out
    assert "mirror+complement equivalent: 195" in out


def test_rule_info_self_mirror(capsys):
    assert main(["rule-info", "204"]) == 0
    assert "mirror equivalent: 204" in capsys.readouterr().out


def test_rule_info_rejects_out_of_range(capsys):
    assert main(["rule-info", "300"]) == 2


def test_pgm_encodes_live_as_black():
    grid = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    body = grid_to_pgm(grid).split(b"\n", 3)[3]
    assert list(body) == [0, 255, 255, 0]
