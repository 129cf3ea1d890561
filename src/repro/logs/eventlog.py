"""Event-log generation with automated CaseID derivation (Section 4.2).

Blockchain logs have no CaseID column, and usually no single attribute is
shared by all activities.  The paper derives a *common element* per use
case by analyzing function arguments and read-write sets; this module
automates that derivation:

1. Candidate *attribute families* are proposed from two sources —
   argument positions (``arg0``, ``arg1``, ...) and key families (the
   alphabetic prefix of accessed keys, e.g. ``product`` for
   ``product:P00042``).
2. Each family is scored by **activity coverage** (fraction of distinct
   activities whose transactions exhibit a value of the family), tie-broken
   by **granularity** (number of distinct values — the SCM productKey has
   thousands of products, while an employee attribute has a handful; finer
   granularity is the better case notion).
3. Every transaction is assigned the family's value as its CaseID; a trace
   is the sequence of activities sharing a CaseID, ordered by **commit
   order** (client timestamps do not survive ordering, Section 4.2).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Iterator

from repro.logs.blockchain_log import BlockchainLog, LogRecord

#: Keys look like ``family:value`` or ``family000123``; both yield a family.
_KEY_SPLIT_RE = re.compile(r"^([A-Za-z_]+)[:]?(.*)$")


@dataclass(frozen=True)
class Event:
    """One row of the derived event log."""

    case_id: str
    activity: str
    commit_order: int
    timestamp: float
    invoker: str
    status: str


@dataclass(frozen=True)
class CaseIdDerivation:
    """Result of the common-element analysis."""

    #: ``"arg:<i>"`` or ``"key:<family>"``.
    attribute: str
    coverage: float
    distinct_values: int
    scores: dict[str, tuple[float, int]] = field(default_factory=dict, hash=False)


@lru_cache(maxsize=65536)
def _key_family(key: str) -> tuple[str, str] | None:
    """Split ``key`` into ``(family, value)``; memoized — the same keys
    recur across thousands of records within one analysis.  Bounded so
    workloads with per-transaction-unique keys (DRM delta keys) cannot
    grow a long-lived suite worker's memory without limit."""
    match = _KEY_SPLIT_RE.match(key)
    if match is None:
        return None
    family, value = match.groups()
    if not family:
        return None
    return family, value or key


def key_family(key: str) -> tuple[str, str] | None:
    """Public form of the key-family split used across the analysis layers.

    ``key_family("asset:42")`` and ``key_family("asset000042")`` both
    return ``("asset", ...)``; keys with no recognizable family prefix
    return ``None``.  The forensics hot-key attribution
    (:mod:`repro.analysis.forensics`) groups conflicting keys with the
    same splitter the CaseID derivation uses, so both views agree on what
    a "key family" is.
    """
    return _key_family(key)


def _case_id(attribute: str, args: tuple[Any, ...], rw_keys: frozenset[str]) -> str | None:
    """The CaseID ``attribute`` gives one transaction, or ``None`` if none.

    An argument attribute reads that argument; a key family reads the
    value of the transaction's first key of that family in sorted order.
    """
    kind, _, name = attribute.partition(":")
    if kind == "arg":
        index = int(name)
        return str(args[index]) if index < len(args) else None
    first = None
    for key in rw_keys:
        parsed = _key_family(key)
        if parsed is not None and parsed[0] == name and (first is None or key < first):
            first = key
    return None if first is None else _key_family(first)[1]


class CaseDerivationAccumulator:
    """Streaming common-element analysis (record-consumer protocol).

    Folds one record at a time into per-candidate coverage/value sets and
    returns from :meth:`finish` the same :class:`CaseIdDerivation` the
    batch :func:`derive_case_attribute` computes.  State is bounded by the
    *distinct* activities, argument positions, key families and attribute
    values — never by the transaction count.
    """

    def __init__(self) -> None:
        self._total = 0
        self._max_args = 0
        self._activities: set[str] = set()
        self._arg_coverage: dict[int, set[str]] = {}
        self._arg_values: dict[int, set[str]] = {}
        self._family_coverage: dict[str, set[str]] = {}
        self._family_values: dict[str, set[str]] = {}

    def consume(self, record: LogRecord) -> None:
        """Fold one record's arguments and key families in."""
        self._total += 1
        activity = record.activity
        self._activities.add(activity)
        args = record.args
        if len(args) > self._max_args:
            self._max_args = len(args)
        for index, arg in enumerate(args):
            coverage = self._arg_coverage.get(index)
            if coverage is None:
                coverage = self._arg_coverage[index] = set()
                self._arg_values[index] = set()
            coverage.add(activity)
            self._arg_values[index].add(str(arg))
        for key in record.rw_keys:
            parsed = _key_family(key)
            if parsed is None:
                continue
            family, value = parsed
            coverage = self._family_coverage.get(family)
            if coverage is None:
                coverage = self._family_coverage[family] = set()
                self._family_values[family] = set()
            coverage.add(activity)
            self._family_values[family].add(value)

    def finish(self) -> CaseIdDerivation:
        """Score every candidate and pick the common element."""
        if not self._total:
            raise ValueError("cannot derive a case attribute from an empty log")
        candidates = [f"arg:{i}" for i in range(self._max_args)]
        candidates.extend(f"key:{family}" for family in sorted(self._family_coverage))
        n_activities = len(self._activities)
        scores: dict[str, tuple[float, int]] = {}
        for attribute in candidates:
            kind, _, name = attribute.partition(":")
            if kind == "arg":
                index = int(name)
                covered = self._arg_coverage.get(index, set())
                values = self._arg_values.get(index, set())
            else:
                covered = self._family_coverage[name]
                values = self._family_values[name]
            scores[attribute] = (len(covered) / n_activities, len(values))
        best = max(scores.items(), key=lambda item: (item[1][0], item[1][1], item[0]))
        attribute, (coverage, distinct) = best
        return CaseIdDerivation(
            attribute=attribute,
            coverage=coverage,
            distinct_values=distinct,
            scores=scores,
        )


def derive_case_attribute(log: BlockchainLog) -> CaseIdDerivation:
    """Find the common element best suited as the CaseID.

    Thin batch wrapper over :class:`CaseDerivationAccumulator`.  Raises
    ``ValueError`` on an empty log — there is nothing to derive.
    """
    accumulator = CaseDerivationAccumulator()
    for record in log.records:
        accumulator.consume(record)
    return accumulator.finish()


@dataclass
class EventLog:
    """Derived event log: events with CaseIDs, grouped into traces."""

    events: list[Event]
    derivation: CaseIdDerivation

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def cases(self) -> dict[str, list[Event]]:
        """Events grouped by case, each ordered by commit order."""
        grouped: dict[str, list[Event]] = {}
        for event in sorted(self.events, key=lambda e: e.commit_order):
            grouped.setdefault(event.case_id, []).append(event)
        return grouped

    def traces(self) -> list[tuple[str, ...]]:
        """Activity sequences of all cases (one tuple per case)."""
        return [
            tuple(event.activity for event in events)
            for events in self.cases().values()
        ]

    def trace_variants(self) -> dict[tuple[str, ...], int]:
        """Distinct traces with their frequencies, most frequent first."""
        variants: dict[tuple[str, ...], int] = {}
        for trace in self.traces():
            variants[trace] = variants.get(trace, 0) + 1
        return dict(sorted(variants.items(), key=lambda item: (-item[1], item[0])))

    def activities(self) -> list[str]:
        return sorted({event.activity for event in self.events})

    @staticmethod
    def from_blockchain_log(
        log: BlockchainLog,
        case_attribute: str | None = None,
        include_failures: bool = True,
    ) -> "EventLog":
        """Build the event log, deriving the CaseID attribute if not given.

        Thin batch wrapper over :class:`EventLogAccumulator`.
        Transactions with no value for the case attribute (e.g. a range
        read in an argument-based derivation) are assigned to their first
        matching value or skipped when none exists; ``include_failures``
        keeps failed transactions (they are real process steps and the
        evidence behind pruning recommendations).
        """
        accumulator = EventLogAccumulator(case_attribute, include_failures=include_failures)
        for record in log.records:
            accumulator.consume(record)
        return accumulator.finish()


class EventLogAccumulator:
    """Streaming event-log construction (record-consumer protocol).

    Each record is folded into a :class:`CaseDerivationAccumulator`
    (unless ``case_attribute`` forces the CaseID) and kept as one compact
    row: commit order, activity, timestamp, invoker, status, ``args`` and
    ``rw_keys``.  :meth:`finish` picks the attribute and turns the rows
    into events, so one pass over the log suffices.  The rows, like the
    event list they become, are O(transactions).
    """

    def __init__(self, case_attribute: str | None = None, include_failures: bool = True) -> None:
        self.case_attribute = case_attribute
        self.include_failures = include_failures
        self._derivation = CaseDerivationAccumulator() if case_attribute is None else None
        self._rows: list[tuple] = []

    def consume(self, record: LogRecord) -> None:
        """Fold the record into the derivation and keep its row."""
        if self._derivation is not None:
            self._derivation.consume(record)
        if not self.include_failures and record.is_failure:
            return
        self._rows.append(
            (
                record.commit_order,
                record.activity,
                record.client_timestamp,
                record.invoker,
                record.status.value,
                record.args,
                record.rw_keys,
            )
        )

    def finish(self) -> EventLog:
        """Pick the case attribute and turn the rows into events, in consumption order."""
        if self._derivation is None:
            derivation = CaseIdDerivation(
                attribute=self.case_attribute, coverage=0.0, distinct_values=0
            )
        else:
            derivation = self._derivation.finish()
        attribute = derivation.attribute
        events = []
        for order, activity, stamp, invoker, status, args, rw_keys in self._rows:
            case_id = _case_id(attribute, args, rw_keys)
            if case_id is not None:
                events.append(Event(case_id, activity, order, stamp, invoker, status))
        return EventLog(events=events, derivation=derivation)
