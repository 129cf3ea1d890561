"""Bounded per-channel summaries and the cross-channel stitcher.

The whole point of a sharded run is that nothing O(transactions) is ever
held: each channel registers two accumulators on its
:class:`~repro.logs.stream.RunStream` —

* :class:`RunStatsAccumulator` (transaction consumer: sees commits *and*
  aborts) folds the headline numbers, the abort-cause taxonomy of
  :mod:`repro.analysis.forensics`, conflict hot keys and per-org policy
  failures; state is bounded by the key space and org count, never by
  the transaction count;
* :class:`RateSeriesAccumulator` (record consumer) bins committed
  records into fixed-width wall-clock intervals with
  :func:`repro.logs.blockchain_log.interval_index` — the robust binning
  that :func:`~repro.logs.blockchain_log.slice_by_interval` uses — so
  state is bounded by the run's duration.

:func:`stitch` merges the per-channel :class:`ChannelSummary` objects
into one :class:`StitchedSummary`, whose :meth:`~StitchedSummary.digest`
is a SHA-256 over its canonical JSON — the fingerprint the large-scale
digest goldens pin (see docs/SCALING.md).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.analysis.forensics import (
    CAUSES,
    KEYED_CAUSES,
    classify_transaction,
    top_hits,
)
from repro.fabric.results import MIN_MAKESPAN
from repro.fabric.transaction import Transaction, TxStatus
from repro.logs.blockchain_log import LogRecord, interval_index
from repro.logs.eventlog import key_family
from repro.shard.plan import ChannelPlan, ShardPlan


class RunStatsAccumulator:
    """Streaming headline stats + abort taxonomy for one channel.

    Implements the transaction-consumer protocol: committed and aborted
    transactions are folded in as the run surfaces them.  Latency is
    accumulated as (sum, count, max) over successful transactions so the
    stitcher can merge channels exactly.
    """

    def __init__(self) -> None:
        self.total = 0
        self.submitted = 0
        self.successes = 0
        self.cause_counts = {cause: 0 for cause in CAUSES}
        self.key_hits: dict[str, int] = {}
        self.family_hits: dict[str, int] = {}
        self.org_failures: dict[str, int] = {}
        self.max_attempt = 1
        self.latency_sum = 0.0
        self.latency_count = 0
        self.latency_max = 0.0

    def consume(self, tx: Transaction) -> None:
        """Fold one finished (committed or aborted) transaction in."""
        self.total += 1
        if tx.attempt > self.max_attempt:
            self.max_attempt = tx.attempt
        if tx.abort_stage != "endorsement":
            self.submitted += 1
        cause = classify_transaction(tx)
        if cause is None:
            self.successes += 1
            latency = tx.latency
            if latency is not None:
                self.latency_sum += latency
                self.latency_count += 1
                if latency > self.latency_max:
                    self.latency_max = latency
            return
        self.cause_counts[cause] += 1
        if cause in KEYED_CAUSES and tx.conflict_key is not None:
            self.key_hits[tx.conflict_key] = self.key_hits.get(tx.conflict_key, 0) + 1
            parsed = key_family(tx.conflict_key)
            if parsed is not None:
                self.family_hits[parsed[0]] = self.family_hits.get(parsed[0], 0) + 1
        if tx.status is TxStatus.ENDORSEMENT_FAILURE:
            for org in tx.missing_endorsements:
                self.org_failures[org] = self.org_failures.get(org, 0) + 1


class RateSeriesAccumulator:
    """Commit/failure counts per fixed wall-clock interval.

    Record consumer over the committed chain.  Intervals share a fixed
    origin (t = 0, the simulation epoch) so every channel's series lines
    up index-for-index when stitched; state is one pair of counters per
    *occupied* interval — bounded by run duration, not transactions.
    """

    def __init__(self, interval_seconds: float) -> None:
        if interval_seconds <= 0:
            raise ValueError(
                f"interval_seconds must be positive, got {interval_seconds}"
            )
        self.interval_seconds = interval_seconds
        self.totals: dict[int, int] = {}
        self.failures: dict[int, int] = {}

    def consume(self, record: LogRecord) -> None:
        """Bin one committed record by its client submit time."""
        index = interval_index(record.client_timestamp, 0.0, self.interval_seconds)
        self.totals[index] = self.totals.get(index, 0) + 1
        if record.is_failure:
            self.failures[index] = self.failures.get(index, 0) + 1

    def series(self) -> list[list[int]]:
        """``[interval index, committed, failed]`` rows, index-ascending."""
        return [
            [index, self.totals[index], self.failures.get(index, 0)]
            for index in sorted(self.totals)
        ]


@dataclass(frozen=True)
class ChannelSummary:
    """Everything one channel's run left behind — all of it bounded."""

    name: str
    seed: int
    planned_transactions: int
    issued: int
    committed: int
    aborted: int
    blocks: int
    data_blocks: int
    max_block_transactions: int
    cut_reasons: dict[str, int]
    submitted: int
    successes: int
    failures: int
    cause_counts: dict[str, int]
    #: Conflict-attributed keys, most-failed first: ``[key, failures]``.
    hot_keys: list[list]
    key_families: list[list]
    org_policy_failures: dict[str, int]
    max_attempt: int
    latency_sum: float
    latency_count: int
    latency_max: float
    first_submit: float
    last_commit: float
    #: ``[interval index, committed, failed]`` rows, index-ascending.
    rate_series: list[list[int]]

    @property
    def makespan(self) -> float:
        """First submission to last commit, floored like ``summarize_run``."""
        return max(self.last_commit - self.first_submit, MIN_MAKESPAN)

    @property
    def success_rate(self) -> float:
        """Successes over submitted (endorsement-stage aborts excluded)."""
        return self.successes / self.submitted if self.submitted else 0.0

    @property
    def throughput(self) -> float:
        """Successful transactions per second of makespan."""
        return self.successes / self.makespan

    @property
    def avg_latency(self) -> float:
        """Mean end-to-end latency of successful transactions."""
        return self.latency_sum / self.latency_count if self.latency_count else 0.0

    def to_dict(self) -> dict:
        """Canonical JSON-able form (digest input — field set is pinned)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "planned_transactions": self.planned_transactions,
            "issued": self.issued,
            "committed": self.committed,
            "aborted": self.aborted,
            "blocks": self.blocks,
            "data_blocks": self.data_blocks,
            "max_block_transactions": self.max_block_transactions,
            "cut_reasons": dict(sorted(self.cut_reasons.items())),
            "submitted": self.submitted,
            "successes": self.successes,
            "failures": self.failures,
            "cause_counts": dict(self.cause_counts),
            "hot_keys": [list(item) for item in self.hot_keys],
            "key_families": [list(item) for item in self.key_families],
            "org_policy_failures": dict(sorted(self.org_policy_failures.items())),
            "max_attempt": self.max_attempt,
            "latency_sum": round(self.latency_sum, 9),
            "latency_count": self.latency_count,
            "latency_max": round(self.latency_max, 9),
            "first_submit": round(self.first_submit, 9),
            "last_commit": round(self.last_commit, 9),
            "rate_series": [list(row) for row in self.rate_series],
        }


def summarize_channel(
    channel: ChannelPlan,
    stats,
    run_stats: RunStatsAccumulator,
    rates: RateSeriesAccumulator,
    ledger,
) -> ChannelSummary:
    """Assemble one channel's :class:`ChannelSummary` after its run.

    ``stats`` is the :class:`~repro.fabric.network.StreamedRunStats` the
    run returned; ``ledger`` the channel's
    :class:`~repro.logs.stream.StreamingLedger` (counters only).
    """
    return ChannelSummary(
        name=channel.name,
        seed=channel.seed,
        planned_transactions=channel.transactions,
        issued=stats.issued,
        committed=stats.committed,
        aborted=stats.aborted,
        blocks=stats.blocks,
        data_blocks=stats.data_blocks,
        max_block_transactions=ledger.max_block_transactions,
        cut_reasons=dict(ledger.cut_reason_counts),
        submitted=run_stats.submitted,
        successes=run_stats.successes,
        failures=run_stats.total - run_stats.successes,
        cause_counts=dict(run_stats.cause_counts),
        hot_keys=[list(item) for item in top_hits(run_stats.key_hits)],
        key_families=[list(item) for item in top_hits(run_stats.family_hits)],
        org_policy_failures=dict(run_stats.org_failures),
        max_attempt=run_stats.max_attempt,
        latency_sum=run_stats.latency_sum,
        latency_count=run_stats.latency_count,
        latency_max=run_stats.latency_max,
        first_submit=stats.first_submit,
        last_commit=stats.last_commit,
        rate_series=rates.series(),
    )


@dataclass(frozen=True)
class StitchedSummary:
    """The merged report of one sharded run, digestable for goldens."""

    base: str
    seed: int
    total_transactions: int
    interval_seconds: float
    channels: list[ChannelSummary]

    # -- merged totals ----------------------------------------------------------

    @property
    def issued(self) -> int:
        return sum(channel.issued for channel in self.channels)

    @property
    def committed(self) -> int:
        return sum(channel.committed for channel in self.channels)

    @property
    def aborted(self) -> int:
        return sum(channel.aborted for channel in self.channels)

    @property
    def submitted(self) -> int:
        return sum(channel.submitted for channel in self.channels)

    @property
    def successes(self) -> int:
        return sum(channel.successes for channel in self.channels)

    @property
    def failures(self) -> int:
        return sum(channel.failures for channel in self.channels)

    @property
    def blocks(self) -> int:
        return sum(channel.blocks for channel in self.channels)

    @property
    def data_blocks(self) -> int:
        return sum(channel.data_blocks for channel in self.channels)

    @property
    def success_rate(self) -> float:
        """Successes over submitted, across all channels."""
        return self.successes / self.submitted if self.submitted else 0.0

    @property
    def makespan(self) -> float:
        """Earliest submission to latest commit across channels.

        Channels run concurrently in wall-clock terms (each has its own
        kernel timeline starting at t = 0), so the sharded run's span is
        the max, not the sum.
        """
        if not self.channels:
            return MIN_MAKESPAN
        first = min(channel.first_submit for channel in self.channels)
        last = max(channel.last_commit for channel in self.channels)
        return max(last - first, MIN_MAKESPAN)

    @property
    def throughput(self) -> float:
        """Aggregate successful transactions per second of makespan."""
        return self.successes / self.makespan

    @property
    def avg_latency(self) -> float:
        """Exact cross-channel mean latency (merged from channel sums).

        The merge divides by the summed *latency count*, never by the
        committed-transaction total, and degrades to 0.0 when no channel
        committed anything — an all-aborts run under a harsh fault
        scenario must stitch to defined values, not raise
        ``ZeroDivisionError`` (``tests/test_shard.py`` pins this).
        """
        count = sum(channel.latency_count for channel in self.channels)
        if not count:
            return 0.0
        return sum(channel.latency_sum for channel in self.channels) / count

    def cause_counts(self) -> dict[str, int]:
        """Merged abort-cause taxonomy (every cause, zeros included)."""
        merged = {cause: 0 for cause in CAUSES}
        for channel in self.channels:
            for cause, count in channel.cause_counts.items():
                merged[cause] += count
        return merged

    def hot_keys(self) -> list[list]:
        """Top conflict keys merged from the per-channel tops.

        Each channel reports its own top ``TOP_N``, so a key that is
        lukewarm everywhere can be under-counted — the bounded-memory
        trade documented in docs/SCALING.md.
        """
        merged: dict[str, int] = {}
        for channel in self.channels:
            for key, count in channel.hot_keys:
                merged[key] = merged.get(key, 0) + count
        return [list(item) for item in top_hits(merged)]

    def rate_series(self) -> list[list[int]]:
        """Per-interval ``[index, committed, failed]`` summed over channels."""
        totals: dict[int, int] = {}
        failures: dict[int, int] = {}
        for channel in self.channels:
            for index, committed, failed in channel.rate_series:
                totals[index] = totals.get(index, 0) + committed
                failures[index] = failures.get(index, 0) + failed
        return [
            [index, totals[index], failures.get(index, 0)]
            for index in sorted(totals)
        ]

    def to_dict(self) -> dict:
        """Canonical JSON-able form — the digest is computed over this."""
        org_failures: dict[str, int] = {}
        for channel in self.channels:
            for org, count in channel.org_policy_failures.items():
                org_failures[org] = org_failures.get(org, 0) + count
        return {
            "base": self.base,
            "seed": self.seed,
            "total_transactions": self.total_transactions,
            "interval_seconds": self.interval_seconds,
            "totals": {
                "issued": self.issued,
                "committed": self.committed,
                "aborted": self.aborted,
                "submitted": self.submitted,
                "successes": self.successes,
                "failures": self.failures,
                "blocks": self.blocks,
                "data_blocks": self.data_blocks,
                "success_rate": round(self.success_rate, 9),
                "makespan": round(self.makespan, 9),
                "throughput": round(self.throughput, 9),
                "avg_latency": round(self.avg_latency, 9),
                "cause_counts": self.cause_counts(),
                "hot_keys": self.hot_keys(),
                "org_policy_failures": dict(sorted(org_failures.items())),
                "rate_series": self.rate_series(),
            },
            "channels": [channel.to_dict() for channel in self.channels],
        }

    def digest(self) -> str:
        """SHA-256 over the canonical JSON form (the golden fingerprint)."""
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def stitch(plan: ShardPlan, summaries: list[ChannelSummary]) -> StitchedSummary:
    """Merge per-channel summaries into the run's :class:`StitchedSummary`."""
    if len(summaries) != len(plan.channels):
        raise ValueError(
            f"plan has {len(plan.channels)} channels, got {len(summaries)} summaries"
        )
    return StitchedSummary(
        base=plan.base,
        seed=plan.seed,
        total_transactions=plan.total_transactions,
        interval_seconds=plan.interval_seconds,
        channels=list(summaries),
    )
