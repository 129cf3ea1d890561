"""Windowed in-run observables for the SLO-guardian controller.

:class:`WindowedMonitor` implements the transaction-consumer protocol of
:class:`repro.logs.stream.RunStream` (``consume(tx)`` sees every finished
transaction — committed or aborted — as it happens).  In a batch run the
network feeds it directly from the commit/abort seams; in a streamed run
it is registered on the stream hub.  Either way the controller calls
:meth:`WindowedMonitor.snapshot` once per tick, closing a *tumbling*
window: every transaction that finished since the previous tick,
summarized into abort rate by taxonomy cause, retry rate, per-org
endorsement gaps, hot-key conflict share and latency quantiles.

Tumbling (rather than overlapping) windows keep the controller
deterministic and O(window) in memory: each transaction is folded into
exactly one snapshot, and a snapshot depends only on kernel-ordered
events before its tick.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.forensics import KEYED_CAUSES, classify_transaction
from repro.fabric.transaction import Transaction, TxStatus


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list (0 for an empty one)."""
    if not sorted_values:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q!r}")
    rank = min(len(sorted_values) - 1, max(0, int(round(q * len(sorted_values))) - 1))
    return sorted_values[rank]


@dataclass(frozen=True)
class WindowObservables:
    """One closed observation window, as the policy sees it."""

    index: int
    start: float
    end: float
    #: Finished transactions, endorsement-stage early aborts excluded
    #: (they were never submitted — same denominator as forensics).
    submitted: int
    successes: int
    aborted: int
    abort_rate: float
    #: Taxonomy cause -> count; only causes present in this window.
    causes: dict[str, int] = field(default_factory=dict)
    dominant_cause: str | None = None
    #: Fraction of this window's submissions that were client retries.
    retry_rate: float = 0.0
    #: Share of submissions lost to the single hottest conflicting key.
    hot_key_share: float = 0.0
    #: Org -> missing-endorsement count (the per-org endorsement gap).
    org_gaps: dict[str, int] = field(default_factory=dict)
    p50_latency: float = 0.0
    p95_latency: float = 0.0
    #: Committed transactions per second over the window.
    throughput: float = 0.0

    def to_dict(self) -> dict:
        """Plain-dict snapshot (JSON-ready, embedded in the timeline)."""
        return {
            "index": self.index,
            "start": round(self.start, 6),
            "end": round(self.end, 6),
            "submitted": self.submitted,
            "successes": self.successes,
            "aborted": self.aborted,
            "abort_rate": round(self.abort_rate, 6),
            "causes": dict(sorted(self.causes.items())),
            "dominant_cause": self.dominant_cause,
            "retry_rate": round(self.retry_rate, 6),
            "hot_key_share": round(self.hot_key_share, 6),
            "org_gaps": dict(sorted(self.org_gaps.items())),
            "p50_latency": round(self.p50_latency, 6),
            "p95_latency": round(self.p95_latency, 6),
            "throughput": round(self.throughput, 6),
        }


class WindowedMonitor:
    """Accumulate finished transactions; emit one window per controller tick."""

    def __init__(self) -> None:
        self._window_index = 0
        self._window_start = 0.0
        self._submitted = 0
        self._successes = 0
        self._retries = 0
        self._causes: dict[str, int] = {}
        self._key_hits: dict[str, int] = {}
        self._org_gaps: dict[str, int] = {}
        self._latencies: list[float] = []
        #: Finished transactions seen over the whole run (all windows).
        self.total_seen = 0

    def consume(self, tx: Transaction) -> None:
        """Fold one finished transaction into the open window."""
        self.total_seen += 1
        if tx.is_config or tx.abort_stage == "endorsement":
            return
        self._submitted += 1
        if tx.attempt > 1:
            self._retries += 1
        cause = classify_transaction(tx)
        if cause is None:
            self._successes += 1
            if tx.latency is not None:
                self._latencies.append(tx.latency)
            return
        self._causes[cause] = self._causes.get(cause, 0) + 1
        if cause in KEYED_CAUSES and tx.conflict_key is not None:
            self._key_hits[tx.conflict_key] = self._key_hits.get(tx.conflict_key, 0) + 1
        if tx.status is TxStatus.ENDORSEMENT_FAILURE:
            for org in tx.missing_endorsements:
                self._org_gaps[org] = self._org_gaps.get(org, 0) + 1

    def snapshot(self, now: float) -> WindowObservables:
        """Close the open window at simulated time ``now`` and start the next."""
        submitted = self._submitted
        aborted = submitted - self._successes
        duration = now - self._window_start
        latencies = sorted(self._latencies)
        dominant = None
        if self._causes:
            # Deterministic: highest count, cause name breaking ties.
            dominant = min(self._causes, key=lambda c: (-self._causes[c], c))
        hot_share = 0.0
        if self._key_hits and submitted:
            hot_share = max(self._key_hits.values()) / submitted
        window = WindowObservables(
            index=self._window_index,
            start=self._window_start,
            end=now,
            submitted=submitted,
            successes=self._successes,
            aborted=aborted,
            abort_rate=aborted / submitted if submitted else 0.0,
            causes=dict(self._causes),
            dominant_cause=dominant,
            retry_rate=self._retries / submitted if submitted else 0.0,
            hot_key_share=hot_share,
            org_gaps=dict(self._org_gaps),
            p50_latency=quantile(latencies, 0.50),
            p95_latency=quantile(latencies, 0.95),
            throughput=self._successes / duration if duration > 0 else 0.0,
        )
        self._window_index += 1
        self._window_start = now
        self._submitted = 0
        self._successes = 0
        self._retries = 0
        self._causes = {}
        self._key_hits = {}
        self._org_gaps = {}
        self._latencies = []
        return window
