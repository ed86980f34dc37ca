"""One fresh interpreter of the benchmark: set-up, then a timed or a traced run.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's ``src``.
It prints ``READY`` on stdout once set-up is done (run.py times set-up up to
that line), then, unless the phase is ``setup``, one JSON line with what it
measured. Everything else goes to stderr.

Phases:
  setup  import reca and reca.cli, build the task inputs, one untimed warm-up
         run of the workload's first configuration; then exit.
  timed  set-up, then the workload for --seconds with tracing off.
  trace  set-up, then the workload for --seconds with spans around every
         call into reca's modules, plus the per-module probes.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

import numpy as np

import bench_oracle as oracle
from bench_trace import Tracer, instrument
from bench_workloads import (
    DIFFUSE, TIMED_SWEEP_WORKERS, WORKLOADS, Cell, Workload, base_seed, cpu_count, sweep_config,
)

# Functions wrapped in the traced run. pipeline.run_once is the operation;
# the others are the layer calls it makes (evaluate is called by the
# benchmark on each run's layer-1 predictions).
TRACED = [
    "pipeline.run_once",
    "memory_task.all_patterns",
    "encoding.generate_mappings",
    "reservoir.run_sequences",
    "readout.fit",
    "readout.predict",
    "readout.binarize_array",
    "memory_task.evaluate",
]
# Tolerance of the ridge optimality check, relative to ||D^T y||. The
# production solve (exact float32 Gram, float64 Cholesky) lands near 1e-15.
RIDGE_RESIDUAL_TOL = 1e-9
CLI_TIMEOUT_S = 150


def log(msg: str) -> None:
    print(f"[bench_worker] {msg}", file=sys.stderr, flush=True)


def make_config(reca, workload: Workload, cell: Cell, seed: int, layered: bool | None = None):
    layered = workload.layered if layered is None else layered
    return reca.build_config(
        rule=cell.rule, iterations=cell.iterations, mappings=cell.mappings,
        diffuse=DIFFUSE, distractor=workload.distractor, seed=seed,
        layer2_rule=cell.rule if layered else None,
    )


def layer_records(result) -> list[dict]:
    evals = [result.layer1_eval, result.layer2_eval]
    return [
        {"correct_bits": ev.correct_bits, "total_bits": ev.total_bits, "success": ev.success}
        for ev in evals if ev is not None
    ]


def peak_rss_mb() -> float:
    """Highest resident set of this process or any waited-for descendant."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def cpu_jiffies() -> list[int] | None:
    """The machine's aggregate CPU counters from /proc/stat, where there is one."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before: list[int] | None, after: list[int] | None) -> float | None:
    """Share of CPU time the hypervisor gave to other guests between two readings.

    Host contention slows every timed figure; this says how much there was.
    """
    if not before or not after or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else None


def run_cli_sweep(cfg_path: Path, out_csv: Path, seed: int, workers: int,
                  layered: bool) -> tuple[float, int, str, str]:
    """``reca sweep`` in a fresh interpreter; returns (wall s, exit code, CSV, stderr)."""
    if out_csv.exists():
        out_csv.unlink()
    cmd = [sys.executable, "-m", "reca.cli", "sweep", "--config", str(cfg_path),
           "--no-timestamp", "--workers", str(workers), "--seed", str(seed),
           "--out", str(out_csv)]
    if layered:
        cmd.append("--layered")
    t0 = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    seconds = perf_counter() - t0
    csv_text = out_csv.read_text(encoding="utf-8") if proc.returncode == 0 else ""
    return seconds, proc.returncode, csv_text, proc.stderr[-2000:]


def timed_serial(reca, workload: Workload, seed: int, seconds: float) -> list[dict]:
    cell = workload.cells[0]
    ops = []
    run_seed = base_seed(seed)
    deadline = perf_counter() + seconds
    while True:
        t0 = perf_counter()
        record = {"seed": run_seed}
        try:
            result = reca.pipeline.run_once(make_config(reca, workload, cell, run_seed))
            record["layers"] = layer_records(result)
        except Exception as exc:  # an operation that raises is a failed operation
            record["error"] = repr(exc)
        end = perf_counter()
        record["seconds"] = end - t0
        ops.append(record)
        run_seed += 1
        if end >= deadline:
            return ops


def timed_sweep(workload: Workload, seed: int, seconds: float, cfg_path: Path,
                out_dir: Path) -> list[dict]:
    ops = []
    run_seed = base_seed(seed)
    deadline = perf_counter() + seconds
    while True:
        wall, code, csv_text, err = run_cli_sweep(
            cfg_path, out_dir / "sweep.csv", run_seed, TIMED_SWEEP_WORKERS, workload.layered)
        ops.append({"seed": run_seed, "seconds": wall, "returncode": code,
                    "csv": csv_text, "stderr": err if code else ""})
        run_seed += workload.sweep_runs
        if perf_counter() >= deadline:
            return ops


def median_cli_import_s(samples: int = 3) -> float:
    """Import time of reca.cli in fresh interpreters, timed inside each."""
    code = ("import time; t = time.perf_counter(); import reca.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(samples):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=60)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def layer_specs(cell: Cell, run_seed: int, n_layers: int, layer2_offset: int):
    """The reference's view of a run's layers; layer 2 shares layer 1's shape."""
    seeds = [run_seed, run_seed + layer2_offset][:n_layers]
    return [oracle.LayerSpec(cell.rule, cell.iterations, cell.mappings, DIFFUSE, s)
            for s in seeds]


class Checks:
    """Named output checks; a name passes only if every instance of it passed."""

    def __init__(self):
        self.results: dict[str, dict] = {}

    def add(self, name: str, ok: bool, detail) -> None:
        entry = self.results.setdefault(name, {"ok": True, "detail": []})
        entry["ok"] = entry["ok"] and bool(ok)
        entry["detail"].append(detail)

    @property
    def ok(self) -> bool:
        return all(entry["ok"] for entry in self.results.values())


class TraceRun:
    """The traced run: spans, the probes, and the checks on captured calls."""

    def __init__(self, reca, workload: Workload, seed: int, out_dir: Path):
        self.reca = reca
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.tracer = Tracer()
        self.tasks = reca.memory_task.all_patterns(workload.distractor)
        self.attempted = 0
        self.failed = 0
        self.checks = Checks()
        self.metrics: dict[str, tuple[float, str]] = {}
        self.captured = []  # (cell, seed, layered, calls) of the first round and the probe
        self.op_cell: dict[int, Cell] = {}  # tracer op -> cell, the workload's own runs
        self.probe_op: int | None = None  # the layered run of a single-layer workload

    # -- the operations -------------------------------------------------

    def one_op(self, cell: Cell, run_seed: int, layered: bool, keep: bool) -> float | None:
        reca, tracer = self.reca, self.tracer
        tracer.op += 1
        tracer.calls = {}
        tracer.capturing = True
        self.attempted += 1
        try:
            result = reca.pipeline.run_once(
                make_config(reca, self.workload, cell, run_seed, layered))
            bits = tracer.calls["readout.binarize_array"][0][1]
            evaluation = reca.memory_task.evaluate(
                bits.reshape(len(self.tasks), -1, 3), self.tasks)
        except Exception as exc:
            self.failed += 1
            log(f"traced run {cell} seed {run_seed} failed: {exc!r}")
            return None
        finally:
            tracer.capturing = False
        self.checks.add("evaluate_matches_run_once",
                   evaluation.correct_bits == result.layer1_eval.correct_bits,
                   [run_seed, evaluation.correct_bits, result.layer1_eval.correct_bits])
        if keep:
            self.captured.append((cell, run_seed, layered, tracer.calls))
        return tracer.by_name("pipeline.run_once")[-1].duration

    def untraced_op(self, cell: Cell, run_seed: int) -> float | None:
        """The same run with the wrappers passing straight through."""
        self.tracer.enabled = False
        self.attempted += 1
        try:
            t0 = perf_counter()
            self.reca.pipeline.run_once(make_config(self.reca, self.workload, cell, run_seed))
            return perf_counter() - t0
        except Exception as exc:
            self.failed += 1
            log(f"untraced run {cell} seed {run_seed} failed: {exc!r}")
            return None
        finally:
            self.tracer.enabled = True

    def run(self, seconds: float) -> None:
        """Rounds of one run per cell; every third round untraced, for the overhead."""
        workload, cells = self.workload, self.workload.cells
        first_seed = base_seed(self.seed)
        times = {True: {cell: [] for cell in cells}, False: {cell: [] for cell in cells}}
        undo = instrument(self.tracer, TRACED)
        try:
            deadline = perf_counter() + seconds
            rounds = 0
            while rounds < 3 or perf_counter() < deadline:
                traced = rounds % 3 != 2
                for cell in cells:
                    if traced:
                        duration = self.one_op(cell, first_seed + rounds, workload.layered,
                                               keep=rounds == 0)
                        if duration is not None:
                            self.op_cell[self.tracer.op] = cell
                    else:
                        duration = self.untraced_op(cell, first_seed + rounds)
                    if duration is not None:
                        times[traced][cell].append(duration)
                rounds += 1
            # A second layer's calls at the workload's shape, for the layer-2
            # metrics of the single-layer workloads.
            if not workload.layered:
                if self.one_op(cells[0], first_seed, True, keep=True) is not None:
                    self.probe_op = self.tracer.op
        finally:
            undo()
        traced_s, untraced_s = (sum(statistics.median(v) for v in times[flag].values())
                                for flag in (True, False))
        self.metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")

    # -- metrics from the spans -----------------------------------------

    def layer_spans(self, ops: list[int], name: str, layer: int) -> list:
        """The ``layer``-th call of ``name`` made under each run_once of ``ops``."""
        out = []
        roots = {s.span_id: s.op for s in self.tracer.by_name("pipeline.run_once")
                 if s.op in ops}
        per_root: dict[int, list] = {}
        for span in self.tracer.by_name(name):
            if span.parent_id in roots:
                per_root.setdefault(span.parent_id, []).append(span)
        for spans in per_root.values():
            if len(spans) > layer:
                out.append(spans[layer])
        return out

    def span_metrics(self) -> None:
        m, wl = self.metrics, self.workload
        ops = list(self.op_cell)
        layer2_ops = ops if wl.layered else [self.probe_op]
        med = lambda spans: statistics.median(s.duration for s in spans)  # noqa: E731

        res1 = self.layer_spans(ops, "reservoir.run_sequences", 0)
        m["reservoir.layer1_s"] = (med(res1), "s")
        m["reservoir.layer2_s"] = (med(self.layer_spans(layer2_ops, "reservoir.run_sequences", 1)), "s")
        rows = len(self.tasks) * wl.seq_len  # N, the readout's row count
        width = {op: c.iterations * c.mappings * DIFFUSE for op, c in self.op_cell.items()}  # p
        m["reservoir.cell_updates_per_s"] = (
            sum(rows * width[s.op] for s in res1) / sum(s.duration for s in res1), "1/s")
        m["reservoir.features_mb"] = (rows * max(width.values()) / 1e6, "MB")

        fit1 = self.layer_spans(ops, "readout.fit", 0)
        m["readout.layer1.fit_s"] = (med(fit1), "s")
        m["readout.layer2.fit_s"] = (med(self.layer_spans(layer2_ops, "readout.fit", 1)), "s")
        m["readout.layer1.predict_s"] = (med(self.layer_spans(ops, "readout.predict", 0)), "s")
        m["readout.layer2.predict_s"] = (
            med(self.layer_spans(layer2_ops, "readout.predict", 1)), "s")
        m["readout.binarize_s"] = (med(self.layer_spans(ops, "readout.binarize_array", 0)), "s")
        flops = sum(rows * width[s.op] ** 2 for s in fit1)
        m["readout.fit_gflops_computed"] = (flops / sum(s.duration for s in fit1) / 1e9, "GFLOP/s")

        m["encoding.generate_mappings_s"] = (
            med(self.layer_spans(ops, "encoding.generate_mappings", 0)), "s")
        m["memory_task.all_patterns_s"] = (
            med(self.layer_spans(ops, "memory_task.all_patterns", 0)), "s")
        m["memory_task.evaluate_s"] = (med(self.tracer.by_name("memory_task.evaluate")), "s")
        roots = [s for s in self.tracer.by_name("pipeline.run_once") if s.op in ops]
        m["pipeline.self_s"] = (statistics.median(self.tracer.self_time(s) for s in roots), "s")

    # -- probes outside the spans ---------------------------------------

    def step_rows_probe(self) -> None:
        """One reca.ca.step_rows call on (32, R*L_d) rows the run produced."""
        cell, _, _, calls = self.captured[0]
        width = cell.mappings * DIFFUSE
        features = calls["reservoir.run_sequences"][0][1][0]
        states = features[:, features.shape[1] // 2, :width].copy()
        rule = self.reca.ca.make_rule(cell.rule)
        step_rows = self.reca.ca.step_rows
        per_call = []
        for _ in range(7):
            t0 = perf_counter()
            for _ in range(200):
                step_rows(states, rule)
            per_call.append((perf_counter() - t0) / 200)
        self.metrics["ca.step_rows_us"] = (statistics.median(per_call) * 1e6, "us")

    def memory_probe(self) -> None:
        """tracemalloc peaks of readout.fit and readout.predict, in their own pass."""
        _, _, _, calls = max(self.captured[: len(self.workload.cells)],
                             key=lambda c: c[3]["readout.fit"][0][0][0].shape[1])
        x, y = calls["readout.fit"][0][0][:2]
        readout = self.reca.readout
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            model = readout.fit(x, y)
            fit_peak = tracemalloc.get_traced_memory()[1] - start
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            readout.predict(model, x)
            predict_peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        self.metrics["readout.fit_peak_mb"] = (fit_peak / 1e6, "MB")
        self.metrics["readout.predict_peak_mb"] = (predict_peak / 1e6, "MB")

    def sweep_probe(self) -> None:
        """cli.sweep_s at nproc workers and the parallel efficiency against 1 worker."""
        wl = self.workload
        runs = wl.sweep_runs or cpu_count()
        cfg_path = self.out_dir / "trace-sweep.json"
        cfg_path.write_text(json.dumps(sweep_config(wl, runs)), encoding="utf-8")
        n_runs = runs * len(wl.cells)
        seed = base_seed(self.seed)
        results = {}
        for workers in (cpu_count(), 1):
            wall, code, csv_text, err = run_cli_sweep(
                cfg_path, self.out_dir / f"trace-sweep-{workers}.csv", seed, workers, wl.layered)
            self.attempted += n_runs
            if code:
                self.failed += n_runs
                log(f"sweep at {workers} workers exited {code}: {err}")
            results[workers] = (wall, code, csv_text)
        wall_n, code_n, csv_n = results[cpu_count()]
        wall_1, code_1, csv_1 = results[1]
        self.metrics["cli.sweep_s"] = (wall_n, "s")
        self.metrics["pipeline.parallel_efficiency"] = (wall_1 / (cpu_count() * wall_n), "ratio")
        if code_n == 0 and code_1 == 0:
            self.checks.add("sweep_csv_same_at_1_and_nproc_workers", csv_n == csv_1, seed)

    def render_probe(self) -> None:
        """One layered render of the first cell: grids, then PGM and ASCII files."""
        reca, cell = self.reca, self.workload.cells[0]
        run_seed = base_seed(self.seed)
        config = make_config(reca, self.workload, cell, run_seed, layered=True)
        t0 = perf_counter()
        grids = reca.pipeline.space_time_grids(config, pattern_id=0)
        t1 = perf_counter()
        paths = []
        for layer, grid in enumerate(grids, start=1):
            pgm = self.out_dir / f"render_layer{layer}.pgm"
            txt = self.out_dir / f"render_layer{layer}.txt"
            reca.render.write_pgm(pgm, grid)
            txt.write_text(reca.render.grid_to_ascii(grid) + "\n", encoding="utf-8")
            paths += [pgm, txt]
        t2 = perf_counter()
        for path in paths:
            path.unlink()
        self.metrics["render.space_time_grids_s"] = (t1 - t0, "s")
        self.metrics["render.write_s"] = (t2 - t1, "s")
        # Layer 1's band is the reservoir's evolution of pattern 0.
        spec = layer_specs(cell, run_seed, 1, reca.pipeline.LAYER2_SEED_OFFSET)[0]
        inputs, _ = oracle.task_streams(self.workload.distractor)
        width = cell.mappings * DIFFUSE
        positions = oracle.mapping_positions(spec.seed, oracle.INPUT_WIDTH, cell.mappings, DIFFUSE)
        expected = oracle.reservoir(inputs[:1], cell.rule, cell.iterations, positions, width)
        self.checks.add("render_layer1_is_reservoir_evolution",
                   np.array_equal(grids[0], expected[0].reshape(-1, width)), run_seed)

    # -- checks on the captured calls -----------------------------------

    def captured_checks(self) -> None:
        for cell, run_seed, layered, calls in self.captured:
            n_layers = 2 if layered else 1
            specs = layer_specs(cell, run_seed, n_layers, self.reca.pipeline.LAYER2_SEED_OFFSET)
            for layer, spec in enumerate(specs):
                inputs = calls["reservoir.run_sequences"][layer][0][0]
                features = calls["reservoir.run_sequences"][layer][1][0]
                width = spec.mappings * spec.diffuse
                positions = oracle.mapping_positions(
                    spec.seed, inputs.shape[2], spec.mappings, spec.diffuse)
                self.checks.add("feature_rows_follow_rule", oracle.features_follow_rule(
                    inputs, features, spec.rule, spec.iterations, positions, width),
                    [run_seed, layer + 1])
                (x, y), model = calls["readout.fit"][layer][0][:2], calls["readout.fit"][layer][1]
                residual = oracle.ridge_residual(x, y, model.weights)
                self.checks.add("ridge_optimality", residual < RIDGE_RESIDUAL_TOL,
                           [run_seed, layer + 1, residual])


def set_up(workload: Workload, seed: int, out_dir: Path):
    """Import reca, build the task inputs, warm up on the first configuration."""
    import reca
    import reca.cli  # noqa: F401  (the CLI module is part of what users import)

    reca.memory_task.all_patterns(workload.distractor)
    cfg_path = None
    if workload.sweep_runs:
        cfg_path = out_dir / "sweep.json"
        cfg_path.write_text(json.dumps(sweep_config(workload, workload.sweep_runs)),
                            encoding="utf-8")
    reca.pipeline.run_once(make_config(reca, workload, workload.cells[0], base_seed(seed)))
    return reca, cfg_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--phase", required=True, choices=["setup", "timed", "trace"])
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    out_dir = Path(args.out_dir)

    reca, cfg_path = set_up(workload, args.seed, out_dir)
    print("READY", flush=True)
    if args.phase == "setup":
        return 0

    if args.phase == "timed":
        before = cpu_jiffies()
        if workload.sweep_runs:
            ops = timed_sweep(workload, args.seed, args.seconds, cfg_path, out_dir)
        else:
            ops = timed_serial(reca, workload, args.seed, args.seconds)
        print(json.dumps({"ops": ops, "peak_rss_mb": peak_rss_mb(),
                          "steal_share": steal_share(before, cpu_jiffies()),
                          "layer2_seed_offset": reca.pipeline.LAYER2_SEED_OFFSET}), flush=True)
        return 0

    cli_import_s = median_cli_import_s()
    trace = TraceRun(reca, workload, args.seed, out_dir)
    trace.run(args.seconds)
    trace.span_metrics()
    trace.step_rows_probe()
    trace.memory_probe()
    trace.sweep_probe()
    trace.render_probe()
    trace.captured_checks()
    trace.metrics["cli.import_s"] = (cli_import_s, "s")
    spans_path = out_dir / f"trace-{workload.name}-seed{args.seed}.jsonl"
    trace.tracer.write_jsonl(spans_path)
    print(json.dumps({
        "metrics": trace.metrics, "attempted": trace.attempted, "failed": trace.failed,
        "checks": trace.checks.results, "spans": str(spans_path), "n_spans": len(trace.tracer.spans),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
