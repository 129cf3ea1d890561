"""Windowed in-run observables for the SLO-guardian controller.

:class:`WindowedMonitor` implements the transaction-consumer protocol of
:class:`repro.logs.stream.RunStream` (``consume(tx)`` sees every finished
transaction — committed or aborted — as it happens).
:meth:`~repro.control.controller.SLOGuardian.install` registers it on the
network's stream, and the controller calls
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

from repro.analysis.forensics import OutcomeTally
from repro.fabric.transaction import Transaction


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
    """Accumulate finished transactions; emit one window per controller tick.

    Each window folds its transactions through a fresh
    :class:`~repro.analysis.forensics.OutcomeTally` — the same counts
    forensics reports — plus the window's success latencies.
    """

    def __init__(self) -> None:
        self._window_index = 0
        self._window_start = 0.0
        self._tally = OutcomeTally()
        self._latencies: list[float] = []
        #: Finished transactions seen over the whole run (all windows).
        self.total_seen = 0

    def consume(self, tx: Transaction) -> None:
        """Fold one finished transaction into the open window."""
        self.total_seen += 1
        if tx.is_config or tx.abort_stage == "endorsement":
            return
        if self._tally.consume(tx) is None:
            latency = tx.latency
            if latency is not None:
                self._latencies.append(latency)

    def snapshot(self, now: float) -> WindowObservables:
        """Close the open window at simulated time ``now`` and start the next."""
        tally = self._tally
        submitted = tally.submitted
        aborted = submitted - tally.successes
        duration = now - self._window_start
        latencies = sorted(self._latencies)
        causes = {cause: count for cause, count in tally.cause_counts.items() if count}
        dominant = None
        if causes:
            # Deterministic: highest count, cause name breaking ties.
            dominant = min(causes, key=lambda c: (-causes[c], c))
        hot_share = 0.0
        if tally.key_hits and submitted:
            hot_share = max(tally.key_hits.values()) / submitted
        window = WindowObservables(
            index=self._window_index,
            start=self._window_start,
            end=now,
            submitted=submitted,
            successes=tally.successes,
            aborted=aborted,
            abort_rate=aborted / submitted if submitted else 0.0,
            causes=causes,
            dominant_cause=dominant,
            retry_rate=tally.retries / submitted if submitted else 0.0,
            hot_key_share=hot_share,
            org_gaps=dict(tally.org_failures),
            p50_latency=quantile(latencies, 0.50),
            p95_latency=quantile(latencies, 0.95),
            throughput=tally.successes / duration if duration > 0 else 0.0,
        )
        self._window_index += 1
        self._window_start = now
        self._tally = OutcomeTally()
        self._latencies = []
        return window
