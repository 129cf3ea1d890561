"""BlockOptR core: metrics, the nine recommendation rules, and appliers.

The paper's contribution (Section 4): derive metrics from the blockchain
log (:mod:`~repro.core.metrics`), evaluate the formalized necessary
conditions of Table 1 (:mod:`~repro.core.rules`) under configurable
thresholds (:mod:`~repro.core.thresholds`), orchestrate the Figure 5
workflow (:mod:`~repro.core.recommender`), and implement the Table 4
optimization settings (:mod:`~repro.core.apply`).
"""

from repro.core.apply import ApplyResult, apply_recommendations
from repro.core.insights import LogInsights, derive_insights, render_insights
from repro.core.metrics import (
    ConflictPair,
    LogMetrics,
    MetricsAccumulator,
    compute_metrics,
)
from repro.core.recommendations import Level, OptimizationKind, Recommendation
from repro.core.recommender import AnalysisReport, BlockOptR
from repro.core.report import render_report
from repro.core.rules import ALL_RULES, evaluate_rules
from repro.core.thresholds import Thresholds

__all__ = [
    "ALL_RULES",
    "LogInsights",
    "derive_insights",
    "render_insights",
    "AnalysisReport",
    "ApplyResult",
    "BlockOptR",
    "ConflictPair",
    "Level",
    "LogMetrics",
    "MetricsAccumulator",
    "OptimizationKind",
    "Recommendation",
    "Thresholds",
    "apply_recommendations",
    "compute_metrics",
    "evaluate_rules",
    "render_report",
]
