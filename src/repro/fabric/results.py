"""Run-level performance summaries.

Mirrors what the paper reports for every experiment: *success throughput*
(committed successful transactions per second of run makespan), *average
latency* of successful transactions (client submission to block commit),
and *success rate* (successful / submitted: every issued transaction but
the chaincode-stage aborts, which never reached ordering).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.forensics import ForensicsAccumulator
    from repro.fabric.network import StreamedRunStats

#: Makespan floor when computing throughput, so an empty or instant run
#: never divides by zero.
MIN_MAKESPAN = 1e-9


@dataclass
class RunResult:
    """Outcome of one simulated workload execution."""

    total_issued: int
    success_count: int
    success_throughput: float
    avg_latency: float
    success_rate: float
    blocks: int
    early_aborts: int = 0

    @staticmethod
    def from_outcomes(
        outcomes: "ForensicsAccumulator", stats: "StreamedRunStats"
    ) -> "RunResult":
        """The result of the run ``stats`` describes, read off its outcome fold.

        ``FabricNetwork.run`` keeps the fold as ``network.outcomes``; the
        transaction and block counts and the last commit come from the
        run's ``StreamedRunStats``.  Like Caliper, the success rate's
        denominator (``outcomes.submitted``) excludes endorsement-stage
        aborts, which never reached ordering (they still count in
        ``early_aborts``).
        """
        makespan = max(stats.last_commit - stats.first_submit, MIN_MAKESPAN)
        # Summed in ascending order: the pinned results depend on this
        # order of float additions.
        latencies = sorted(outcomes.latencies)
        success = outcomes.successes
        submitted = outcomes.submitted
        return RunResult(
            total_issued=stats.committed + stats.aborted,
            success_count=success,
            success_throughput=success / makespan,
            avg_latency=sum(latencies) / len(latencies) if latencies else 0.0,
            success_rate=success / submitted if submitted else 0.0,
            blocks=stats.data_blocks,
            early_aborts=stats.aborted,
        )

    def summary_row(self) -> dict[str, float]:
        """The three headline numbers, as the paper's figures report them."""
        return {
            "success_throughput_tps": round(self.success_throughput, 1),
            "avg_latency_s": round(self.avg_latency, 2),
            "success_rate_pct": round(self.success_rate * 100.0, 1),
        }

    def __str__(self) -> str:  # pragma: no cover - convenience
        row = self.summary_row()
        return (
            f"tput={row['success_throughput_tps']} tps "
            f"lat={row['avg_latency_s']} s "
            f"success={row['success_rate_pct']}%"
        )
