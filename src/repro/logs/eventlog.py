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
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import compress, repeat
from operator import is_not, itemgetter
from typing import Iterator, Sequence

from repro.logs.blockchain_log import BlockchainLog, RecordTable

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
def key_family(key: str) -> tuple[str, str] | None:
    """Split ``key`` into ``(family, value)``, the key-family split used
    across the analysis layers.

    ``key_family("asset:42")`` and ``key_family("asset000042")`` both
    return ``("asset", ...)``; keys with no recognizable family prefix
    return ``None``.  The forensics hot-key attribution
    (:mod:`repro.analysis.forensics`) groups conflicting keys with the
    same splitter the CaseID derivation uses, so both views agree on what
    a "key family" is.  Memoized, because the same keys recur across
    analyses; bounded, so workloads with per-transaction-unique keys (DRM
    delta keys) cannot grow a long-lived suite worker's memory without
    limit.
    """
    match = _KEY_SPLIT_RE.match(key)
    if match is None:
        return None
    family, value = match.groups()
    if not family:
        return None
    return family, value or key


def derive_case_attribute(log: BlockchainLog) -> CaseIdDerivation:
    """Find the common element best suited as the CaseID.

    Raises ``ValueError`` on an empty log — there is nothing to derive.
    """
    table = RecordTable(log.records)
    return _derive(table, _split_keys(table))


def _split_keys(table: RecordTable) -> dict[str, tuple[str, str]]:
    """``(family, value)`` of every key the table's transactions touch
    that belongs to a key family."""
    keys = set().union(*table.keys_by_activity.values())
    return {key: parsed for key in keys if (parsed := key_family(key)) is not None}


def _derive(table: RecordTable, split: dict[str, tuple[str, str]]) -> CaseIdDerivation:
    """Score every candidate attribute family and pick the common element.

    Reads per activity instead of per record: an argument position
    covers the activities whose transactions reach it, and a key family
    covers the activities that touch one of its keys.
    """
    if not table.statuses:
        raise ValueError("cannot derive a case attribute from an empty log")
    rows_by_activity = table.rows_by_activity
    n_activities = len(rows_by_activity)
    arities = list(map(len, table.args))
    widest = [max(map(arities.__getitem__, rows)) for rows in rows_by_activity.values()]
    scores: dict[str, tuple[float, int]] = {}
    for index in range(max(widest)):
        covered = sum(1 for arity in widest if arity > index)
        with_arg = compress(table.args, map(index.__lt__, arities))
        values = set(map(str, map(itemgetter(index), with_arg)))
        scores[f"arg:{index}"] = (covered / n_activities, len(values))
    family_of = {key: family for key, (family, _) in split.items()}
    family_coverage: dict[str, int] = {}
    for keys in table.keys_by_activity.values():
        for family in set(map(family_of.get, keys)) - {None}:
            family_coverage[family] = family_coverage.get(family, 0) + 1
    family_values: dict[str, set[str]] = {}
    for family, value in split.values():
        family_values.setdefault(family, set()).add(value)
    for family in sorted(family_values):
        scores[f"key:{family}"] = (
            family_coverage[family] / n_activities,
            len(family_values[family]),
        )
    if not scores:
        raise ValueError(
            "cannot derive a case attribute: no transaction has an argument or a key"
        )
    best = max(scores.items(), key=lambda item: (item[1][0], item[1][1], item[0]))
    attribute, (coverage, distinct) = best
    return CaseIdDerivation(
        attribute=attribute,
        coverage=coverage,
        distinct_values=distinct,
        scores=scores,
    )


def _case_ids(
    attribute: str, table: RecordTable, split: dict[str, tuple[str, str]]
) -> list[str | None]:
    """The CaseID ``attribute`` gives each record, or ``None`` if none.

    An argument attribute reads that argument; a key family reads the
    value of the transaction's first key of that family in sorted order.
    """
    kind, _, name = attribute.partition(":")
    if kind == "arg":
        index = int(name)
        return [str(args[index]) if index < len(args) else None for args in table.args]
    value_of = {key: value for key, (family, value) in split.items() if family == name}
    case_ids = []
    for keys in table.rw_keys:
        first = None
        for key in keys:
            if key in value_of and (first is None or key < first):
                first = key
        case_ids.append(value_of.get(first))
    return case_ids


class EventLog:
    """Derived event log: events with CaseIDs, grouped into traces.

    Held as one column per :class:`Event` field, in the order the records
    were consumed; ``len()`` and the traces read the columns, and the
    :class:`Event` rows are built only when :attr:`events` is read.
    """

    def __init__(self, derivation: CaseIdDerivation, columns: tuple[Sequence, ...]) -> None:
        self.derivation = derivation
        #: Case ids, activities, commit orders, timestamps, invokers and
        #: statuses, in :class:`Event` field order.
        self._columns = columns

    @cached_property
    def events(self) -> list[Event]:
        """Every event in log order, built from the columns on first read."""
        return list(map(Event, *self._columns))

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def cases(self) -> dict[str, list[Event]]:
        """Events grouped by case, each ordered by commit order."""
        grouped: dict[str, list[Event]] = {}
        for event in sorted(self.events, key=lambda e: e.commit_order):
            grouped.setdefault(event.case_id, []).append(event)
        return grouped

    def traces(self) -> list[tuple[str, ...]]:
        """Activity sequences of all cases (one tuple per case), in the
        order of each case's first event by commit order."""
        case_ids, activities, commit_orders = self._columns[:3]
        by_order = sorted(range(len(case_ids)), key=commit_orders.__getitem__)
        grouped: defaultdict[str, list[str]] = defaultdict(list)
        for case_id, activity in zip(
            map(case_ids.__getitem__, by_order), map(activities.__getitem__, by_order)
        ):
            grouped[case_id].append(activity)
        return list(map(tuple, grouped.values()))

    def trace_variants(self) -> dict[tuple[str, ...], int]:
        """Distinct traces with their frequencies, most frequent first."""
        variants = Counter(self.traces())
        return dict(sorted(variants.items(), key=lambda item: (-item[1], item[0])))

    def activities(self) -> list[str]:
        """The distinct activity names, sorted."""
        return sorted(set(self._columns[1]))

    @staticmethod
    def from_blockchain_log(
        log: BlockchainLog,
        case_attribute: str | None = None,
        include_failures: bool = True,
    ) -> "EventLog":
        """Build the event log, deriving the CaseID attribute if not given."""
        table = RecordTable(log.records)
        return EventLog.from_table(table, case_attribute, include_failures)

    @staticmethod
    def from_table(
        table: RecordTable,
        case_attribute: str | None = None,
        include_failures: bool = True,
    ) -> "EventLog":
        """The event log of a filled :class:`RecordTable`.

        Transactions with no value for the case attribute (e.g. a range
        read in an argument-based derivation) are skipped;
        ``include_failures`` keeps failed transactions (they are real
        process steps and the evidence behind pruning recommendations).
        A forced ``case_attribute`` skips the derivation.
        """
        split = _split_keys(table)
        if case_attribute is None:
            derivation = _derive(table, split)
        else:
            derivation = CaseIdDerivation(
                attribute=case_attribute, coverage=0.0, distinct_values=0
            )
        case_ids = _case_ids(derivation.attribute, table, split)
        keep = list(map(is_not, case_ids, repeat(None)))
        if not include_failures:
            keep = [kept and not failed for kept, failed in zip(keep, table.failed)]
        columns = (
            case_ids,
            table.activities,
            table.commit_orders,
            table.timestamps,
            table.invokers,
            table.statuses,
        )
        if not all(keep):
            columns = tuple(list(compress(column, keep)) for column in columns)
        return EventLog(derivation, columns)
