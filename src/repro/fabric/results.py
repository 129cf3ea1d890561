"""Run-level performance summaries.

Mirrors what the paper reports for every experiment: *success throughput*
(committed successful transactions per second of run makespan), *average
latency* of successful transactions (client submission to block commit),
and *success rate* (successful / all issued, early aborts included).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fabric.ledger import Ledger
from repro.fabric.transaction import Transaction, TxStatus

#: Makespan floor when computing throughput, so an empty or instant run
#: never divides by zero.
MIN_MAKESPAN = 1e-9


@dataclass
class RunResult:
    """Outcome of one simulated workload execution."""

    ledger: Ledger
    total_issued: int
    success_count: int
    failure_counts: dict[str, int]
    makespan: float
    success_throughput: float
    avg_latency: float
    p95_latency: float
    success_rate: float
    blocks: int
    avg_block_size: float
    cut_reasons: dict[str, int] = field(default_factory=dict)
    utilization: dict[str, float] = field(default_factory=dict)
    early_aborts: int = 0

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


def summarize_run(
    ledger: Ledger,
    aborted: list[Transaction],
    first_submit: float,
    last_commit: float,
    cut_reasons: dict[str, int] | None = None,
    utilization: dict[str, float] | None = None,
) -> RunResult:
    """Compute a :class:`RunResult` from a completed run's artifacts."""
    committed = [tx for tx in ledger.transactions(include_config=False)]
    all_txs = committed + aborted
    total = len(all_txs)

    failure_counts: dict[str, int] = {}
    latencies: list[float] = []
    success = 0
    submitted = 0
    for tx in all_txs:
        status = tx.status if tx.status is not None else TxStatus.EARLY_ABORT
        # Endorsement-phase aborts never reach the ordering service; like
        # Caliper, the success rate is computed over submitted transactions
        # only (the aborts are still reported via ``early_aborts``).
        if tx.abort_stage != "endorsement":
            submitted += 1
        if status is TxStatus.SUCCESS:
            success += 1
            if tx.latency is not None:
                latencies.append(tx.latency)
        else:
            failure_counts[status.value] = failure_counts.get(status.value, 0) + 1

    makespan = max(last_commit - first_submit, MIN_MAKESPAN)
    latencies.sort()
    avg_latency = sum(latencies) / len(latencies) if latencies else 0.0
    p95 = latencies[int(0.95 * (len(latencies) - 1))] if latencies else 0.0

    data_blocks = [block for block in ledger if any(not tx.is_config for tx in block.transactions)]
    avg_block_size = (
        sum(len(block) for block in data_blocks) / len(data_blocks) if data_blocks else 0.0
    )

    return RunResult(
        ledger=ledger,
        total_issued=total,
        success_count=success,
        failure_counts=failure_counts,
        makespan=makespan,
        success_throughput=success / makespan,
        avg_latency=avg_latency,
        p95_latency=p95,
        success_rate=success / submitted if submitted else 0.0,
        blocks=len(data_blocks),
        avg_block_size=avg_block_size,
        cut_reasons=dict(cut_reasons or {}),
        utilization=dict(utilization or {}),
        early_aborts=len(aborted),
    )
