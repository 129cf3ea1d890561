"""Failure forensics (``repro.analysis``).

Post-processes finished runs into structured failure-forensics reports —
abort-cause taxonomy, hot-key attribution, per-org policy-failure
breakdown, intervention-aligned failure-rate series, retry accounting.
:class:`OutcomeTally` is the one fold that classifies a finished
transaction; the forensics accumulator, the shard channel summaries and
the controller's windowed monitor all count through it.  The taxonomy
itself is documented in docs/FAILURES.md; ``python -m repro analyze
--cached <exp_id>`` renders a cached run's report.
"""

from repro.analysis.forensics import (
    CAUSES,
    ForensicsAccumulator,
    ForensicsReport,
    OutcomeTally,
    RetryStats,
    TimeBucket,
    classify_transaction,
    forensics_report,
    report_digest,
)
from repro.analysis.report import render_cause_summary, render_forensics

__all__ = [
    "CAUSES",
    "ForensicsAccumulator",
    "ForensicsReport",
    "OutcomeTally",
    "RetryStats",
    "TimeBucket",
    "classify_transaction",
    "forensics_report",
    "render_cause_summary",
    "render_forensics",
    "report_digest",
]
