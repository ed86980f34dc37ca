"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete. The statistical criteria replicate randomized
benchmark percentages, so they run 1,330 train-and-test runs in this
process; criteria 1-5 took 127 s in total on a 2-vCPU VM with OpenBLAS.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from reca.ca import complement_rule, lambda_param, make_rule, mirror_rule, step_rows
from reca.memory_task import all_patterns, evaluate
from reca.pipeline import build_config, run_batch
from reca.readout import fit, predict
from reference import naive_step, normal_equations_fit, normal_equations_predict


def report(criterion: int, ok: bool, detail: str):
    line = f"ACCEPTANCE {criterion:2d}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line, file=sys.stderr)
    assert ok, line


def batch_rates(rule, iterations, mappings, n_runs, seed, layered=False):
    config = build_config(
        rule=rule, iterations=iterations, mappings=mappings,
        diffuse=40, distractor=200, seed=seed,
        layer2_rule=rule if layered else None,
    )
    rates = run_batch(config, n_runs).rates
    return rates[0], rates[1] if layered else None


def test_criterion_6_stepper_matches_naive_oracle():
    rng = np.random.default_rng(600)
    widths = rng.integers(3, 257, size=200)
    ok = True
    for number in range(256):
        rule = make_rule(number)
        for width in widths:
            state = rng.integers(0, 2, size=int(width), dtype=np.uint8)
            stepped = step_rows(state[None], rule)[0]
            if not np.array_equal(stepped, naive_step(state, number)):
                ok = False
                break
        if not ok:
            break
    report(6, ok, "vectorized stepper == naive lookup, 256 rules x 200 states")


def test_criterion_7_rule_algebra():
    ok = (
        complement_rule(make_rule(102)).number == 153
        and mirror_rule(make_rule(102)).number == 60
        and mirror_rule(complement_rule(make_rule(102))).number == 195
    )
    rng = np.random.default_rng(700)
    for number in range(256):
        if not ok:
            break
        rule = make_rule(number)
        mirrored = mirror_rule(rule)
        comp = complement_rule(rule)
        ok = ok and mirror_rule(mirrored).number == number
        ok = ok and complement_rule(comp).number == number
        ok = ok and mirror_rule(comp).number == complement_rule(mirrored).number
        # 100 states a rule, stepped in one call per rule and direction
        states = np.stack([rng.integers(0, 2, size=31, dtype=np.uint8) for _ in range(100)])
        stepped = step_rows(states, rule)
        ok = ok and np.array_equal(stepped[:, ::-1], step_rows(states[:, ::-1], mirrored))
        ok = ok and np.array_equal(1 - stepped, step_rows(1 - states, comp))
    report(7, ok, "102->153/60/195; involution and commutation over all rules")


def test_criterion_8_lambda_values():
    ok = (
        lambda_param(make_rule(110)) == 0.625
        and lambda_param(make_rule(0)) == 0.0
        and lambda_param(make_rule(255)) == 1.0
    )
    report(8, ok, "lambda(110)=0.625, lambda(0)=0, lambda(255)=1")


def test_criterion_9_task_structure():
    tasks = all_patterns(200)
    ok = len(tasks) == 32
    for task in tasks:
        ok = ok and task.inputs.shape[0] == 210
        ok = ok and bool(np.all(task.inputs.sum(axis=1) == 1))
        ok = ok and bool(np.all(task.targets.sum(axis=1) == 1))
        ok = ok and np.flatnonzero(task.inputs[:, 3]).tolist() == [204]
        ok = ok and np.array_equal(task.targets[205:, :2], task.inputs[:5, :2])
    result = evaluate(np.stack([t.targets for t in tasks]), tasks)
    ok = ok and result.total_bits == 20160
    report(9, ok, "T=210, one-hot rows, cue at 205, replay correct, 20160 bits")


def test_criterion_10_readout_oracle():
    rng = np.random.default_rng(1000)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(10, 101))
        p = int(rng.integers(5, 51))
        x = rng.integers(0, 2, size=(n, p)).astype(np.uint8)
        y = rng.integers(0, 2, size=(n, 3)).astype(np.uint8)
        model = fit(x, y)
        oracle = normal_equations_predict(normal_equations_fit(x, y), x)
        scale = max(1.0, float(np.abs(oracle).max()))
        worst = max(worst, float(np.abs(predict(model, x) - oracle).max()) / scale)
    report(10, worst < 1e-6, f"fit vs normal-equations oracle, worst rel err {worst:.2e}")


def test_criterion_11_deterministic_csv(tmp_path):
    args = [
        sys.executable, "-m", "reca.cli", "sweep",
        "--rule", "90", "--iterations", "2", "--mappings", "4",
        "--distractor", "200", "--runs", "3", "--seed", "42",
        "--no-timestamp", "--workers", "1",
    ]
    # the child imports reca from this checkout's src, installed or not
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    subprocess.run(args + ["--out", str(a)], check=True, capture_output=True, env=env)
    subprocess.run(args + ["--out", str(b)], check=True, capture_output=True, env=env)
    ok = a.read_bytes() == b.read_bytes()
    report(11, ok, "repeated sweep produces byte-identical CSV")


def test_criterion_1_rule_90_8_8_near_perfect():
    rate, _ = batch_rates(90, 8, 8, n_runs=30, seed=100)
    successes = round(rate * 30 / 100)
    report(1, successes >= 28, f"rule 90 (8,8): {successes}/30 runs succeeded (paper: 100%)")


def test_criterion_2_rule_90_4_8_rate():
    rate, _ = batch_rates(90, 4, 8, n_runs=200, seed=200)
    report(2, 54.1 <= rate <= 78.1, f"rule 90 (4,8): {rate:.1f}% (paper: 66.1 +/- 12)")


def test_criterion_3_rule_180_never_succeeds():
    rate44, _ = batch_rates(180, 4, 4, n_runs=100, seed=300)
    rate88, _ = batch_rates(180, 8, 8, n_runs=100, seed=300)
    ok = rate44 == 0.0 and rate88 == 0.0
    report(3, ok, f"rule 180: (4,4)={rate44}%, (8,8)={rate88}% (paper: 0)")


def test_criterion_4_deep_improvement_rule_165():
    rate1, rate2 = batch_rates(165, 4, 4, n_runs=300, seed=400, layered=True)
    ok = rate2 > rate1 and 6.6 <= rate1 <= 22.6
    report(4, ok, f"rule 165 (4,4): layer1 {rate1:.1f}% -> layer2 {rate2:.1f}% "
                  "(paper: 14.6 -> 22.4)")


@pytest.mark.parametrize("rule", [90, 150, 60])
def test_criterion_5_deep_no_catastrophic_regression(rule):
    rate1, rate2 = batch_rates(rule, 4, 8, n_runs=200, seed=500 + rule, layered=True)
    ok = rate2 >= rate1 - 5.0
    report(5, ok, f"rule {rule} (4,8): layer1 {rate1:.1f}% vs layer2 {rate2:.1f}%")
