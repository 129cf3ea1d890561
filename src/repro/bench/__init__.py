"""Benchmark harness: regenerate every table and figure of the paper.

:mod:`~repro.bench.harness` runs the full loop — generate workload, run,
analyze with BlockOptR, apply recommended optimizations, re-run — and
formats paper-style rows (success throughput / average latency / success
rate, without vs with).  :mod:`~repro.bench.experiments` holds the
experiment definitions and the paper's reported values for comparison.
"""

from repro.bench.cache import ResultCache
from repro.bench.executor import (
    ExperimentExecutionError,
    SuiteReport,
    run_spec,
    run_suite,
)
from repro.bench.harness import (
    ExperimentOutcome,
    RunRow,
    default_recommendation,
    execute_experiment,
    run_usecase_demo,
)
from repro.bench.matrix import (
    MatrixError,
    MatrixRun,
    MatrixSpec,
    expand,
    load_matrix,
    matrix_from_dict,
)
from repro.bench.registry import ExperimentSpec, UnknownSelectionError
from repro.bench.tables import format_outcome, format_paper_comparison

__all__ = [
    "ExperimentExecutionError",
    "ExperimentOutcome",
    "ExperimentSpec",
    "MatrixError",
    "MatrixRun",
    "MatrixSpec",
    "ResultCache",
    "RunRow",
    "SuiteReport",
    "UnknownSelectionError",
    "default_recommendation",
    "execute_experiment",
    "expand",
    "format_outcome",
    "format_paper_comparison",
    "load_matrix",
    "matrix_from_dict",
    "run_spec",
    "run_suite",
    "run_usecase_demo",
]
