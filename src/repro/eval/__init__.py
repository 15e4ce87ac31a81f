"""Evaluation: the paper's metrics, the experiment harness, and report
tables."""

from .harness import (
    SystemResult,
    final_estimates_from_sink,
    run_factored,
    run_naive,
    run_smurf,
    run_uniform,
)
from .metrics import (
    ErrorSummary,
    error_reduction,
    inference_error,
    mean_error_reduction,
    within_accuracy,
)
from .report import format_table

__all__ = [
    "ErrorSummary",
    "SystemResult",
    "error_reduction",
    "final_estimates_from_sink",
    "format_table",
    "inference_error",
    "mean_error_reduction",
    "run_factored",
    "run_naive",
    "run_smurf",
    "run_uniform",
    "within_accuracy",
]
