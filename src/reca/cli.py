"""Command-line front end: run, sweep, render, rule-info."""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from .ca import complement_rule, lambda_param, make_rule, mirror_rule
from .pipeline import (
    RunConfig,
    _usable_cpus,
    build_config,
    run_batches,
    run_bytes,
    run_once,
    space_time_grids,
)
from .render import grid_to_ascii, write_pgm

DEFAULT_RULES = [90, 150, 182, 22, 60, 102, 105, 153, 165, 180, 195]
DEFAULT_COMBOS = [(2, 4), (2, 8), (4, 4), (4, 8), (8, 8)]

EXIT_SUCCESS = 0
EXIT_FAILED_RUN = 1
EXIT_USAGE = 2


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_combo(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(map(_is_int, value))


# Each key a config file may hold: a check of its value, and what the value
# must be, in words. Numbers must be JSON integers: 2.7 or true is not an I.
# A flag of the same name overrides the file's value.
_INTEGER = (_is_int, "an integer")
CONFIG_TYPES = {
    "rule": _INTEGER,
    "iterations": _INTEGER,
    "mappings": _INTEGER,
    "diffuse": _INTEGER,
    "distractor": _INTEGER,
    "runs": _INTEGER,
    "seed": _INTEGER,
    "out": (lambda v: isinstance(v, str), "a string"),
    "workers": _INTEGER,
    "layered": (lambda v: isinstance(v, bool), "true or false"),
    "rules": (lambda v: isinstance(v, list) and all(map(_is_int, v)), "a list of integers"),
    "combos": (
        lambda v: isinstance(v, list) and all(map(_is_combo, v)),
        "a list of [I, R] integer pairs",
    ),
    "layer2": (lambda v: isinstance(v, dict), "a JSON object"),
}
LAYER2_TYPES = {key: CONFIG_TYPES[key] for key in ("rule", "iterations", "mappings", "diffuse")}


class ConfigError(Exception):
    pass


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a JSON object")
    _check_values(data, CONFIG_TYPES, "config file")
    _check_values(data.get("layer2", {}), LAYER2_TYPES, "config 'layer2'")
    return data


def _check_values(data: dict, types: dict, where: str) -> None:
    """Reject keys that ``types`` does not list, then values that fail their check."""
    unknown = sorted(set(data) - set(types))
    if unknown:
        raise ConfigError(
            f"unknown key(s) in {where}: {', '.join(map(repr, unknown))} "
            f"(allowed: {', '.join(sorted(types))})"
        )
    for key, value in data.items():
        check, wanted = types[key]
        if not check(value):
            raise ConfigError(
                f"key {key!r} in {where} must be {wanted}, got {json.dumps(value)}"
            )


def _merged(args: argparse.Namespace) -> dict:
    """File values overlaid with any flags the user actually passed."""
    cfg = _load_config_file(args.config)
    for key in CONFIG_TYPES:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _run_config_from(cfg: dict) -> RunConfig:
    if "rule" not in cfg:
        raise ConfigError("a rule number is required (--rule or config file)")
    layered = cfg.get("layered", False) or "layer2" in cfg
    layer2 = cfg.get("layer2", {})
    try:
        return build_config(
            rule=cfg["rule"],
            iterations=cfg.get("iterations", 8),
            mappings=cfg.get("mappings", 8),
            diffuse=cfg.get("diffuse", 40),
            distractor=cfg.get("distractor", 200),
            seed=cfg.get("seed", 0),
            layer2_rule=layer2.get("rule", cfg["rule"]) if layered else None,
            layer2_iterations=layer2.get("iterations"),
            layer2_mappings=layer2.get("mappings"),
            layer2_diffuse=layer2.get("diffuse"),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def _available_bytes() -> int | None:
    """``MemAvailable`` from /proc/meminfo, or None where it cannot be read."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _check_memory(configs: list[RunConfig], workers: int) -> None:
    """Refuse to start runs that cannot fit in the available memory.

    Each of ``workers`` concurrent runs is taken to need as much as the
    largest of ``configs``.
    """
    available = _available_bytes()
    if available is None:
        return
    needed = workers * max(run_bytes(config) for config in configs)
    if needed > available:
        raise ConfigError(
            f"not enough memory: {workers} run(s) at once need about "
            f"{needed / 1e6:.0f} MB, and {available / 1e6:.0f} MB is available"
        )


def cmd_run(args: argparse.Namespace) -> int:
    config = _run_config_from(_merged(args))
    _check_memory([config], 1)
    result = run_once(config)
    for layer, ev in enumerate(result.evals, start=1):
        print(
            f"layer {layer}: {ev.correct_bits}/{ev.total_bits} bits "
            f"({100.0 * ev.accuracy:.2f}%), success={ev.success}"
        )
    return EXIT_SUCCESS if result.success else EXIT_FAILED_RUN


def _sweep_tables(cfg: dict):
    """Run every (rule, combo) cell of the sweep.

    Returns the metadata, the rules, the combos and each cell's success
    rates, one per layer.
    """
    rules = [cfg["rule"]] if "rule" in cfg else cfg.get("rules", DEFAULT_RULES)
    combos = [tuple(pair) for pair in cfg.get("combos", DEFAULT_COMBOS)]
    if "iterations" in cfg or "mappings" in cfg:
        combos = [(cfg.get("iterations", 8), cfg.get("mappings", 8))]
    if not rules or not combos:
        raise ConfigError("sweep needs at least one rule and one (I, R) combo")
    n_runs = cfg.get("runs", 100)
    if n_runs < 1:
        raise ConfigError(f"runs must be >= 1, got {n_runs}")
    cells = [(rule, i_, r_) for rule in rules for i_, r_ in combos]
    workers = cfg.get("workers", _usable_cpus())
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    # more workers than cores only add interpreter starts and contention
    workers = min(workers, n_runs * len(cells), _usable_cpus())

    configs = [
        _run_config_from({**cfg, "rule": rule, "iterations": i_, "mappings": r_})
        for rule, i_, r_ in cells
    ]
    _check_memory(configs, workers)
    print(
        f"sweep: {len(cells)} cells x{n_runs} runs on {workers} worker(s)",
        file=sys.stderr,
    )
    batches = run_batches(configs, n_runs, workers=workers)
    rates = {cell: batch.rates for cell, batch in zip(cells, batches)}

    layer1 = configs[0].layer1
    meta = {
        "ld": layer1.diffuse_length,
        "td": configs[0].distractor,
        "runs": n_runs,
        "seed": layer1.seed,
    }
    return meta, rules, combos, rates


def _format_sweep_csv(meta: dict, rules, combos, rates, timestamp: bool) -> str:
    """Metadata lines, then one rule-by-combo table of success rates per layer."""
    buf = io.StringIO()
    for key, value in meta.items():
        buf.write(f"# {key}={value}\n")
    if timestamp:
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        buf.write(f"# timestamp={stamp}\n")
    n_layers = len(next(iter(rates.values())))
    for k in range(n_layers):
        if k:
            buf.write("\n")
        buf.write(f"# layer={k + 1}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["rule"] + [f"({i_},{r_})" for i_, r_ in combos])
        for rule in rules:
            writer.writerow(
                [rule] + [f"{rates[(rule, i_, r_)][k]:.1f}" for i_, r_ in combos]
            )
    return buf.getvalue()


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _merged(args)
    text = _format_sweep_csv(*_sweep_tables(cfg), timestamp=not args.no_timestamp)
    out = cfg.get("out")
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {out}: {exc}", file=sys.stderr)
            return EXIT_FAILED_RUN
        print(f"wrote {out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return EXIT_SUCCESS


def cmd_render(args: argparse.Namespace) -> int:
    config = _run_config_from(_merged(args))
    _check_memory([config], 1)
    grids = space_time_grids(config, pattern_id=args.pattern)
    base = args.out or "spacetime"
    for layer, grid in enumerate(grids, start=1):
        pgm_path = f"{base}_layer{layer}.pgm"
        txt_path = f"{base}_layer{layer}.txt"
        try:
            write_pgm(pgm_path, grid)
            with open(txt_path, "w", encoding="utf-8") as fh:
                fh.write(grid_to_ascii(grid) + "\n")
        except OSError as exc:
            print(f"error: cannot write diagram: {exc}", file=sys.stderr)
            return EXIT_FAILED_RUN
        height, width = grid.shape
        print(f"layer {layer}: {width}x{height} -> {pgm_path}, {txt_path}")
    return EXIT_SUCCESS


def cmd_rule_info(args: argparse.Namespace) -> int:
    rule = make_rule(args.number)
    mirror = mirror_rule(rule)
    comp = complement_rule(rule)
    both = mirror_rule(comp)
    print(f"rule {rule.number}")
    print(f"lambda: {lambda_param(rule)}")
    print(f"mirror equivalent: {mirror.number}")
    print(f"complement equivalent: {comp.number}")
    print(f"mirror+complement equivalent: {both.number}")
    print("transitions:")
    for n in range(7, -1, -1):
        print(f"  {n:03b} -> {rule.table[n]}")
    return EXIT_SUCCESS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reca",
        description="Cellular-automata reservoir computing on the 5-bit memory task.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--rule", type=int, help="CA rule number (0-255)")
        p.add_argument("--iterations", type=int, help="CA iterations per step (I)")
        p.add_argument("--mappings", type=int, help="number of random mappings (R)")
        p.add_argument("--diffuse", type=int, help="diffuse length (L_d)")
        p.add_argument("--distractor", type=int, help="distractor period (T_d)")
        p.add_argument("--seed", type=int, help="base seed")
        p.add_argument("--layered", action="store_true", default=None,
                       help="stack a second reservoir")
        p.add_argument("--out", help="output path")

    p_run = sub.add_parser("run", help="one train-and-test run")
    add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="rules x (I,R) grid, CSV output")
    add_common(p_sweep)
    p_sweep.add_argument("--runs", type=int, help="runs per cell")
    p_sweep.add_argument("--workers", type=int, help="parallel worker count")
    p_sweep.add_argument("--no-timestamp", action="store_true",
                         help="omit the timestamp metadata line")
    p_sweep.set_defaults(func=cmd_sweep)

    p_render = sub.add_parser("render", help="space-time diagrams (PGM + ASCII)")
    add_common(p_render)
    p_render.add_argument("--pattern", type=int, default=0,
                          help="task pattern to visualize (0-31)")
    p_render.set_defaults(func=cmd_render)

    p_info = sub.add_parser("rule-info", help="lambda, equivalents, transitions")
    p_info.add_argument("number", type=int, help="CA rule number (0-255)")
    p_info.set_defaults(func=cmd_rule_info)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except np.linalg.LinAlgError as exc:  # a ValueError, but not a usage error
        print(f"error: readout fit failed: {exc}", file=sys.stderr)
        return EXIT_FAILED_RUN
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
