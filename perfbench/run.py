"""reca benchmark: one workload, timed end to end (--trace 0) or per module (--trace 1).

Run from the root of a checkout:

    python3 perfbench/run.py --workload single-8x8 --seed 1 --seconds 15 --trace 0

The program under test is the checkout's ``src/reca``, put on ``PYTHONPATH``
for every interpreter the benchmark starts. No BLAS thread variable is set;
the ones found are recorded. The last line of stdout is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Details (per-operation records, checks, spans) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import bench_oracle as oracle
from bench_worker import Checks, layer_specs, run_cli_sweep
from bench_workloads import DIFFUSE, WORKLOADS, Cell, Workload, cpu_count

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
# Set-up is timed this many times per run (the timed run's own set-up is the
# last sample) and reported as the median.
SETUP_SAMPLES = 5
# A reference run whose smallest |y_hat - 0.5| is below this may disagree
# with reca on a bit without counting as wrong: two correct solvers may put
# such a near-tie on different sides. Today reca's predictions and the
# reference's differ by at most ~1e-11.
NEAR_TIE = 1e-6
CHILD_TIMEOUT_S = 170
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "GOTO_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here (no program, a crashed set-up)."""


def log(msg: str) -> None:
    print(f"[bench] {msg}", file=sys.stderr, flush=True)


def start_worker(root: Path, workload: str, seed: int, seconds: float, phase: str):
    """Start a worker interpreter; return (process, set-up seconds up to READY)."""
    cmd = [sys.executable, str(HERE / "bench_worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--phase", phase,
           "--out-dir", str(OUT_DIR)]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup_s = perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise BenchError(f"{phase} worker did not get ready (first line {line!r})")
    return proc, setup_s


def finish_worker(proc, expect_result: bool = True) -> dict | None:
    """Wait for a worker; return the JSON of its last stdout line."""
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker timed out")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]) if expect_result else None


# -- checks of a timed run, outside the timed part ---------------------------

def compare_with_reference(checks: Checks, workload: Workload, cell: Cell, run_seed: int,
                           layers: list[dict], layer2_offset: int) -> int:
    """Replay one run with the reference; returns 1 if it was excused as a near-tie."""
    ref = oracle.replay(layer_specs(cell, run_seed, len(layers), layer2_offset),
                        workload.distractor)
    got = [(r["correct_bits"], r["success"]) for r in layers]
    want = [(r.correct_bits, r.success) for r in ref]
    margin = min(r.margin for r in ref)
    if got == want:
        checks.add("matches_reference", True, [run_seed, got])
        return 0
    near_tie = margin < NEAR_TIE
    checks.add("matches_reference", near_tie, [run_seed, got, want, margin])
    return int(near_tie)


def check_serial(workload: Workload, ops: list[dict], layer2_offset: int) -> tuple[Checks, int]:
    checks = Checks()
    total = 3 * 32 * workload.seq_len
    for op in ops:
        for layer in op.get("layers", []):
            checks.add("bits_in_range", 0 <= layer["correct_bits"] <= layer["total_bits"] == total
                       and layer["success"] == (layer["correct_bits"] == total), op["seed"])
    done = [op for op in ops if "layers" in op]
    sampled = sorted({0, len(done) // 2}) if done else []  # the first and the middle run
    near_ties = sum(
        compare_with_reference(checks, workload, workload.cells[0], done[i]["seed"],
                               done[i]["layers"], layer2_offset)
        for i in sampled)
    return checks, near_ties


def parse_sweep_csv(text: str) -> tuple[dict, dict]:
    """(metadata, {(layer, rule, "(I,R)"): cell text}) of a `reca sweep` CSV."""
    meta, cells, layer, header = {}, {}, None, None
    for line in text.splitlines():
        if line.startswith("# layer="):
            layer, header = int(line.split("=", 1)[1]), None
        elif line.startswith("# "):
            key, value = line[2:].split("=", 1)
            meta[key] = value
        elif line:
            row = next(csv.reader(io.StringIO(line)))
            if header is None:
                header = row
            else:
                for combo, value in zip(header[1:], row[1:]):
                    cells[(layer, int(row[0]), combo)] = value
    return meta, cells


def rate_text(successes: int, runs: int) -> str:
    return f"{100.0 * successes / runs:.1f}"


def combo_text(cell: Cell) -> str:
    return f"({cell.iterations},{cell.mappings})"


def check_sweeps(workload: Workload, ops: list[dict], seed: int, layer2_offset: int) -> tuple[Checks, int]:
    checks = Checks()
    runs = workload.sweep_runs
    allowed = {rate_text(k, runs) for k in range(runs + 1)}
    n_layers = 2 if workload.layered else 1
    good = [op for op in ops if op["returncode"] == 0]
    for op in good:
        meta, cells = parse_sweep_csv(op["csv"])
        checks.add("csv_metadata", meta == {"ld": str(DIFFUSE), "td": str(workload.distractor),
                                            "runs": str(runs), "seed": str(op["seed"])}, meta)
        expected = {(layer, c.rule, combo_text(c))
                    for layer in range(1, n_layers + 1) for c in workload.cells}
        checks.add("csv_cells_present", set(cells) == expected, op["seed"])
        checks.add("csv_cells_are_k_over_runs", set(cells.values()) <= allowed,
                   sorted(set(cells.values()) - allowed))
    near_ties = 0
    if not good:
        return checks, near_ties
    # One cell of the first sweep, rotating with --seed, against the reference.
    first = good[0]
    _, cells = parse_sweep_csv(first["csv"])
    cell = workload.cells[seed % len(workload.cells)]
    outcomes = [oracle.replay(layer_specs(cell, first["seed"] + k, n_layers, layer2_offset),
                              workload.distractor)
                for k in range(runs)]
    ties = sum(min(r.margin for r in o) < NEAR_TIE for o in outcomes)
    for layer in range(n_layers):
        want = rate_text(sum(o[layer].success for o in outcomes), runs)
        got = cells.get((layer + 1, cell.rule, combo_text(cell)))
        ok = got == want
        if not ok and ties:  # each near-tie run may have flipped either way
            wins = sum(o[layer].success for o in outcomes)
            ok = got in {rate_text(wins + d, runs) for d in range(-ties, ties + 1)}
            near_ties += ties
        checks.add("cell_matches_reference", ok,
                   [first["seed"], cell.rule, combo_text(cell), layer + 1, got, want])
    # The same sweep through the process pool must give the same bytes.
    _, code, pooled, err = run_cli_sweep(OUT_DIR / "sweep.json", OUT_DIR / "sweep-pool.csv",
                                         first["seed"], cpu_count(), workload.layered)
    same = code == 0 and pooled == first["csv"]
    checks.add("csv_same_at_nproc_workers", same, [first["seed"], cpu_count(), code, err])
    return checks, near_ties


# -- the two kinds of run -----------------------------------------------------

def timed_run(root: Path, workload: Workload, seed: int, seconds: float) -> dict:
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, setup_s = start_worker(root, workload.name, seed, seconds, "setup")
        finish_worker(proc, expect_result=False)
        setups.append(setup_s)
    proc, setup_s = start_worker(root, workload.name, seed, seconds, "timed")
    setups.append(setup_s)
    result = finish_worker(proc)
    ops = result["ops"]

    layer2_offset = result["layer2_seed_offset"]
    if workload.sweep_runs:
        ok_ops = [op for op in ops if op["returncode"] == 0]
        checks, near_ties = check_sweeps(workload, ops, seed, layer2_offset)
    else:
        ok_ops = [op for op in ops if "layers" in op]
        checks, near_ties = check_serial(workload, ops, layer2_offset)

    runs = workload.runs_per_op
    attempted = runs * len(ops)
    failed = runs * (len(ops) - len(ok_ops))
    wall = sum(op["seconds"] for op in ops)
    per_op = [op["seconds"] for op in ok_ops]
    metrics = {
        "runs_per_s": {"value": runs / statistics.median(per_op) if per_op else 0.0,
                       "unit": "runs/s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }
    detail = {"setup_samples_s": setups, "timed_wall_s": wall,
              "host_steal_share": result["steal_share"],
              "runs_per_s_count_over_wall": runs * len(ok_ops) / wall,
              "near_ties": near_ties, "checks": checks.results, "ops": ops}
    return {"correct": checks.ok, "attempted": attempted, "failed": failed,
            "metrics": metrics, "detail": detail}


def traced_run(root: Path, workload: Workload, seed: int, seconds: float) -> dict:
    proc, _ = start_worker(root, workload.name, seed, seconds, "trace")
    result = finish_worker(proc)
    ok = all(entry["ok"] for entry in result["checks"].values())
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["metrics"].items()}
    return {"correct": ok, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics, "detail": {"checks": result["checks"], "spans": result["spans"],
                                           "n_spans": result["n_spans"]}}


def host_info() -> dict:
    import numpy as np

    info = {"host": platform.node(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__,
            "cpu_count": cpu_count(),
            "blas_thread_env": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "reca" / "__init__.py").is_file():
        log(f"no program to measure: {root / 'src' / 'reca'} is missing; "
            "run from the root of a reca checkout")
        return 2
    if args.seed < 0 or args.seconds <= 0:
        log("--seed must be >= 0 and --seconds > 0")
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    # Every interpreter started from here runs the checkout's reca.
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(root / "src") + (os.pathsep + old if old else "")
    workload = WORKLOADS[args.workload]
    info = host_info()
    log(f"{workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace} "
        f"cpus={info['cpu_count']} blas={info['blas']} blas_thread_env={info['blas_thread_env']}")
    try:
        run = (traced_run if args.trace else timed_run)(root, workload, args.seed, args.seconds)
    except BenchError as exc:
        log(f"error: {exc}")
        return 1

    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": info, **run}
    path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    for name, metric in run["metrics"].items():
        log(f"{name} = {metric['value']:.6g} {metric['unit']}")
    failed_checks = [k for k, v in run["detail"]["checks"].items() if not v["ok"]]
    log(f"attempted={run['attempted']} failed={run['failed']} correct={run['correct']} "
        f"failed_checks={failed_checks} "
        f"host_steal_share={run['detail'].get('host_steal_share')} details in {path}")
    print(json.dumps({k: run[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
