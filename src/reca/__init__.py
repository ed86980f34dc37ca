"""Cellular-automata reservoir computing with a trained linear readout."""

from .ca import Rule, complement_rule, lambda_param, make_rule, mirror_rule
from .encoding import generate_mappings
from .memory_task import EvaluationResult, TaskSequence, all_patterns, evaluate, generate
from .pipeline import (
    BatchResult,
    RunConfig,
    RunResult,
    build_config,
    run_batch,
    run_batches,
    run_once,
)
from .readout import ReadoutModel, binarize_array, fit, predict
from .reservoir import ReservoirParams, run_sequences

__all__ = [
    "Rule",
    "make_rule",
    "lambda_param",
    "mirror_rule",
    "complement_rule",
    "generate_mappings",
    "ReservoirParams",
    "run_sequences",
    "ReadoutModel",
    "fit",
    "predict",
    "binarize_array",
    "TaskSequence",
    "EvaluationResult",
    "generate",
    "all_patterns",
    "evaluate",
    "RunConfig",
    "RunResult",
    "BatchResult",
    "build_config",
    "run_once",
    "run_batch",
    "run_batches",
]
