"""Failure forensics: post-process one run into a structured report.

The paper's headline metrics (throughput, latency, success rate) say *how
much* failed; this module says *why*, *where* and *when*:

* a per-abort-cause taxonomy (docs/FAILURES.md) finer than
  :class:`~repro.fabric.transaction.TxStatus` — endorsement-policy
  failures split into crashed-peer vs endorsement-timeout, early aborts
  split by pipeline stage;
* hot-key and key-family attribution of read-conflict failures, using
  the ``conflict_key`` the validator records;
* a per-organization breakdown of missing endorsements;
* a time-bucketed failure-rate series whose span lines up with the
  scenario engine's applied-intervention timeline, so a crash window is
  visible as the buckets it poisoned;
* retry-traffic accounting when a
  :class:`~repro.fabric.retry.RetryPolicy` is active.

Every report is deterministic per seed.  ``FabricNetwork.run`` folds
its run live into a :class:`ForensicsAccumulator` (``network.outcomes``);
:func:`forensics_report` is the reference that walks a kept chain instead.
:func:`report_digest` fingerprints a report for the determinism tests and
the golden forensics file.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.fabric.transaction import Transaction, TxStatus
from repro.logs.eventlog import key_family

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fabric.network import FabricNetwork

#: The failure taxonomy, in reporting order (definitions: docs/FAILURES.md).
CAUSES = (
    "mvcc_conflict",
    "phantom_conflict",
    "policy_endorsement_timeout",
    "policy_crashed_peer",
    "policy_unsatisfied",
    "early_abort_stale_read",
    "early_abort_scheduler",
    "early_abort_chaincode",
)

#: Causes attributable to a specific key (conflict_key is recorded).
KEYED_CAUSES = frozenset(
    {"mvcc_conflict", "phantom_conflict", "early_abort_stale_read"}
)

#: Default number of buckets in the failure-rate time series.
DEFAULT_BUCKETS = 12


def classify_transaction(tx: Transaction) -> str | None:
    """Map a finished transaction to its taxonomy cause (``None`` = success).

    Endorsement-policy failures are attributed to *why* the endorsement
    went missing: when both a timed-out and a crashed org contributed, the
    timeout wins — the client spent the full endorsement window waiting on
    it, so it is the operative cause of the transaction's fate and
    latency; a crashed peer is detected immediately.
    """
    if tx.status is None or tx.status is TxStatus.SUCCESS:
        return None
    if tx.status is TxStatus.MVCC_CONFLICT:
        return "mvcc_conflict"
    if tx.status is TxStatus.PHANTOM_CONFLICT:
        return "phantom_conflict"
    if tx.status is TxStatus.ENDORSEMENT_FAILURE:
        reasons = set(tx.missing_reasons)
        if "timeout" in reasons:
            return "policy_endorsement_timeout"
        if "crashed" in reasons:
            return "policy_crashed_peer"
        return "policy_unsatisfied"
    # EARLY_ABORT, by pipeline stage.
    if tx.abort_stage == "stale_read":
        return "early_abort_stale_read"
    if tx.abort_stage == "ordering":
        return "early_abort_scheduler"
    return "early_abort_chaincode"


@dataclass(frozen=True)
class TimeBucket:
    """One slot of the failure-rate series (bucketed by submit time)."""

    start: float
    end: float
    issued: int
    failed: int
    #: Taxonomy cause -> count, causes present in this bucket only.
    causes: dict[str, int]

    @property
    def failure_rate(self) -> float:
        """Failures as a share of this bucket's issued transactions."""
        return self.failed / self.issued if self.issued else 0.0

    def to_dict(self) -> dict:
        """JSON-able form."""
        return {
            "start": self.start,
            "end": self.end,
            "issued": self.issued,
            "failed": self.failed,
            "causes": dict(self.causes),
        }


@dataclass(frozen=True)
class RetryStats:
    """Retry-traffic accounting for one run (all zero without a policy)."""

    resubmissions: int = 0
    recovered: int = 0
    exhausted: int = 0
    max_attempt: int = 1

    def to_dict(self) -> dict:
        """JSON-able form."""
        return {
            "resubmissions": self.resubmissions,
            "recovered": self.recovered,
            "exhausted": self.exhausted,
            "max_attempt": self.max_attempt,
        }


@dataclass
class ForensicsReport:
    """The structured forensics output for one finished run."""

    scenario: str | None
    mitigation: str
    #: Transactions issued, client retries included.
    total_issued: int
    #: Denominator of failure rates: issued minus chaincode-stage aborts
    #: (the success rate's denominator, see :class:`OutcomeTally`).
    submitted: int
    successes: int
    failures: int
    #: Taxonomy cause -> count, every cause present (zeros included).
    cause_counts: dict[str, int]
    #: Conflict-attributed keys, most-failed first: ``(key, failures)``.
    hot_keys: list[tuple[str, int]]
    #: Conflict failures grouped by key family: ``(family, failures)``.
    key_families: list[tuple[str, int]]
    #: Organization -> number of transactions it failed to endorse.
    org_policy_failures: dict[str, int]
    buckets: list[TimeBucket]
    #: The scenario engine's applied-intervention timeline, when present.
    timeline: list[tuple[float, str, str]] = field(default_factory=list)
    retry: RetryStats = field(default_factory=RetryStats)

    @property
    def mvcc_abort_rate(self) -> float:
        """MVCC read conflicts as a share of submitted transactions."""
        if not self.submitted:
            return 0.0
        return self.cause_counts.get("mvcc_conflict", 0) / self.submitted

    def distinct_causes(self) -> list[str]:
        """The causes that actually occurred, in taxonomy order."""
        return [cause for cause in CAUSES if self.cause_counts.get(cause, 0) > 0]

    def to_dict(self) -> dict:
        """JSON-able form (cached with experiment outcomes)."""
        return {
            "scenario": self.scenario,
            "mitigation": self.mitigation,
            "total_issued": self.total_issued,
            "submitted": self.submitted,
            "successes": self.successes,
            "failures": self.failures,
            "cause_counts": dict(self.cause_counts),
            "hot_keys": [list(item) for item in self.hot_keys],
            "key_families": [list(item) for item in self.key_families],
            "org_policy_failures": dict(self.org_policy_failures),
            "buckets": [bucket.to_dict() for bucket in self.buckets],
            "timeline": [list(entry) for entry in self.timeline],
            "retry": self.retry.to_dict(),
        }

    @staticmethod
    def from_dict(data: dict) -> "ForensicsReport":
        """Inverse of :meth:`to_dict` (cache hydration)."""
        try:
            return ForensicsReport(
                scenario=data["scenario"],
                mitigation=data["mitigation"],
                total_issued=data["total_issued"],
                submitted=data["submitted"],
                successes=data["successes"],
                failures=data["failures"],
                cause_counts=dict(data["cause_counts"]),
                hot_keys=[(str(k), int(n)) for k, n in data["hot_keys"]],
                key_families=[(str(k), int(n)) for k, n in data["key_families"]],
                org_policy_failures=dict(data["org_policy_failures"]),
                buckets=[
                    TimeBucket(
                        start=b["start"],
                        end=b["end"],
                        issued=b["issued"],
                        failed=b["failed"],
                        causes=dict(b["causes"]),
                    )
                    for b in data["buckets"]
                ],
                timeline=[
                    (float(t), str(kind), str(detail))
                    for t, kind, detail in data["timeline"]
                ],
                retry=RetryStats(**data["retry"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed forensics report: {exc}") from exc


#: How many hot keys / families a report keeps.
TOP_N = 10


class OutcomeTally:
    """Outcome counts over finished transactions: the abort taxonomy, folded once.

    Implements the transaction-consumer protocol (``consume``): committed
    and aborted transactions are folded in as a run surfaces them, in any
    order.  It is the one place a finished transaction is classified and
    the one place the success count and the success-rate denominator
    (``submitted``) are kept — :class:`ForensicsAccumulator` (and through
    it every ``RunResult``), the shard channel summaries and the
    controller's windowed monitor all count through it.  State is bounded
    by the key space and org count, never by the transaction count.
    """

    def __init__(self) -> None:
        self.total = 0
        #: ``total`` minus chaincode-stage (endorsement) aborts.
        self.submitted = 0
        self.successes = 0
        #: Client retries (attempt > 1) among ``total``.
        self.retries = 0
        self.max_attempt = 1
        self.cause_counts = {cause: 0 for cause in CAUSES}
        self.key_hits: dict[str, int] = {}
        self.family_hits: dict[str, int] = {}
        #: Organization -> transactions it failed to endorse.
        self.org_failures: dict[str, int] = {}

    def consume(self, tx: Transaction) -> str | None:
        """Fold one finished transaction in; return its cause (``None`` = success)."""
        self.total += 1
        attempt = tx.attempt
        if attempt > 1:
            self.retries += 1
            if attempt > self.max_attempt:
                self.max_attempt = attempt
        if tx.abort_stage != "endorsement":
            self.submitted += 1
        cause = classify_transaction(tx)
        if cause is None:
            self.successes += 1
            return None
        self.cause_counts[cause] += 1
        if cause in KEYED_CAUSES and tx.conflict_key is not None:
            key_hits = self.key_hits
            key_hits[tx.conflict_key] = key_hits.get(tx.conflict_key, 0) + 1
            parsed = key_family(tx.conflict_key)
            if parsed is not None:
                family_hits = self.family_hits
                family_hits[parsed[0]] = family_hits.get(parsed[0], 0) + 1
        if tx.status is TxStatus.ENDORSEMENT_FAILURE:
            org_failures = self.org_failures
            for org in tx.missing_endorsements:
                org_failures[org] = org_failures.get(org, 0) + 1
        return cause


class ForensicsAccumulator(OutcomeTally):
    """Streaming forensics: fold finished transactions in, then :meth:`finish`.

    An :class:`OutcomeTally` that also keeps, per transaction, one
    timestamp double and one cause byte — the bucket series needs the
    global span before it can bin — and, per success, its latency double
    (``RunResult.avg_latency`` sums them in ascending order).  Every
    structure is insensitive to consumption order (counts, sorted tops,
    fixed-order cause maps), so feeding committed and aborted
    transactions interleaved — the way a live run surfaces them — yields
    the same :class:`ForensicsReport` as the committed-then-aborted walk
    of :func:`forensics_report`.
    """

    def __init__(self, buckets: int = DEFAULT_BUCKETS) -> None:
        if buckets < 1:
            raise ValueError(f"need at least one bucket, got {buckets}")
        super().__init__()
        self._buckets = buckets
        self._cause_index = {cause: i for i, cause in enumerate(CAUSES)}
        self._stamps = array("d")
        self._stamp_causes = array("b")
        #: Latency of each successful transaction, in consumption order.
        self.latencies = array("d")

    def consume(self, tx: Transaction) -> str | None:
        """Fold one finished (committed or aborted) transaction in."""
        # A direct base-class call: ``super()`` costs measurably more on
        # this per-transaction path.
        cause = OutcomeTally.consume(self, tx)
        self._stamps.append(tx.client_timestamp)
        if cause is None:
            self._stamp_causes.append(-1)
            self.latencies.append(tx.latency)
        else:
            self._stamp_causes.append(self._cause_index[cause])
        return cause

    def finish(
        self,
        scenario: str | None = None,
        mitigation: str = "none",
        timeline: list[tuple[float, str, str]] | None = None,
        resubmissions: int = 0,
        recovered: int = 0,
        exhausted: int = 0,
    ) -> ForensicsReport:
        """Close the stream and build the :class:`ForensicsReport`."""
        return ForensicsReport(
            scenario=scenario,
            mitigation=mitigation,
            total_issued=self.total,
            submitted=self.submitted,
            successes=self.successes,
            failures=self.total - self.successes,
            cause_counts=self.cause_counts,
            hot_keys=top_hits(self.key_hits),
            key_families=top_hits(self.family_hits),
            org_policy_failures=dict(sorted(self.org_failures.items())),
            buckets=self._series(),
            timeline=list(timeline) if timeline else [],
            retry=RetryStats(
                resubmissions=resubmissions,
                recovered=recovered,
                exhausted=exhausted,
                max_attempt=self.max_attempt,
            ),
        )

    def finish_run(self, network: "FabricNetwork") -> ForensicsReport:
        """:meth:`finish` with ``network``'s scenario, mitigation and retry counters.

        The scenario timeline is sorted by (time, kind), so the report
        does not depend on the order interventions were journaled in.
        """
        engine = network.scenario_engine
        return self.finish(
            scenario=engine.spec.name if engine is not None else None,
            mitigation=network.config.mitigation,
            timeline=(
                sorted(engine.timeline, key=lambda e: (e[0], e[1]))
                if engine is not None
                else []
            ),
            resubmissions=network.retries_issued,
            recovered=network.retries_recovered,
            exhausted=network.retries_exhausted,
        )

    def _series(self) -> list[TimeBucket]:
        """Bucket issued/failed counts by client submit time.

        Failures are attributed to the bucket the transaction was
        *submitted* in, not where it committed — a doomed transaction was
        doomed by the conditions at submission, which is what lines the
        series up with the intervention timeline.  The binning arithmetic
        is kept byte-identical to the pinned golden forensics report.
        """
        stamps = self._stamps
        if not stamps:
            return []
        start = min(stamps)
        end = max(stamps)
        buckets = self._buckets
        width = (end - start) / buckets if end > start else 0.0
        if width <= 0.0:
            buckets = 1

        issued = [0] * buckets
        failed = [0] * buckets
        causes: list[dict[str, int]] = [{} for _ in range(buckets)]
        for stamp, cause_index in zip(stamps, self._stamp_causes):
            if width > 0.0:
                index = min(buckets - 1, int((stamp - start) / width))
            else:
                index = 0
            issued[index] += 1
            if cause_index >= 0:
                failed[index] += 1
                cause = CAUSES[cause_index]
                causes[index][cause] = causes[index].get(cause, 0) + 1

        out = []
        for index in range(buckets):
            bucket_start = start + index * width
            bucket_end = end if index == buckets - 1 else start + (index + 1) * width
            out.append(
                TimeBucket(
                    start=bucket_start,
                    end=bucket_end,
                    issued=issued[index],
                    failed=failed[index],
                    causes={
                        cause: causes[index][cause]
                        for cause in CAUSES
                        if cause in causes[index]
                    },
                )
            )
        return out


def forensics_report(
    network: "FabricNetwork", buckets: int = DEFAULT_BUCKETS
) -> ForensicsReport:
    """Post-process a finished network into a :class:`ForensicsReport`.

    The reference walk: a fresh :class:`ForensicsAccumulator` over the
    kept chain (the ledger, then the aborted set) and the scenario
    timeline; mutates nothing.  A run's live ``network.outcomes`` gives
    the same report without a chain, and the fuzzer's ``stream_batch``
    oracle holds the two to each other.  ``buckets`` controls the
    resolution of the failure-rate series.
    """
    accumulator = ForensicsAccumulator(buckets=buckets)
    for tx in network.ledger.transactions(include_config=False):
        accumulator.consume(tx)
    for tx in network.aborted:
        accumulator.consume(tx)
    return accumulator.finish_run(network)


def top_hits(hits: dict[str, int], n: int = TOP_N) -> list[tuple[str, int]]:
    """Most-hit entries first; count desc, then key asc (deterministic)."""
    return sorted(hits.items(), key=lambda item: (-item[1], item[0]))[:n]


def report_digest(report: ForensicsReport | dict) -> str:
    """SHA-256 over the canonical JSON form of a report.

    Two runs are forensically identical iff their digests match — the
    determinism tests and the golden forensics file key on this.
    """
    data = report.to_dict() if isinstance(report, ForensicsReport) else report
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
