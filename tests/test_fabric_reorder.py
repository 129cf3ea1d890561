"""Unit + property tests for the Fabric++/FabricSharp schedulers.

The reference bodies at the end are the schedulers as they were before
one precedence pass replaced them (an all-pairs edge builder, a Kahn loop
per class that re-sorts the sources at every step, and a FabricSharp
window kept in three dicts with an expiry loop); hypothesis properties
hold the current schedulers to their exact output.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.fabric.reorder import (
    ConflictAwareScheduler,
    FabricPlusPlusScheduler,
    FabricSharpScheduler,
    FifoScheduler,
    make_scheduler,
)
from repro.fabric.transaction import RangeQueryInfo, ReadWriteSet, Transaction, Version


def _tx(tx_id, reads=(), writes=(), endorse_time=0.0, ranges=()):
    rwset = ReadWriteSet(
        reads={key: Version(0, 0) for key in reads},
        writes={key: 1 for key in writes},
        range_queries=[
            RangeQueryInfo(keys[0], keys[-1] + "~", tuple((key, Version(0, 0)) for key in keys))
            for keys in ranges
        ],
    )
    tx = Transaction(
        tx_id=tx_id,
        client_timestamp=0.0,
        activity="a",
        args=(),
        contract="c",
        invoker_client="cl",
        invoker_org="Org1",
        rwset=rwset,
    )
    tx.endorse_time = endorse_time
    return tx


class TestFifo:
    def test_passthrough(self):
        batch = [_tx("a"), _tx("b")]
        ordered, aborts = FifoScheduler().schedule(batch)
        assert [t.tx_id for t in ordered] == ["a", "b"]
        assert aborts == []


class TestFabricPlusPlus:
    def test_reader_moved_before_writer(self):
        writer = _tx("w", writes=["k"])
        reader = _tx("r", reads=["k"])
        ordered, aborts = FabricPlusPlusScheduler().schedule([writer, reader])
        assert [t.tx_id for t in ordered] == ["r", "w"]
        assert aborts == []

    def test_independent_txs_keep_arrival_order(self):
        batch = [_tx("a", writes=["x"]), _tx("b", writes=["y"]), _tx("c", reads=["z"])]
        ordered, aborts = FabricPlusPlusScheduler().schedule(batch)
        assert [t.tx_id for t in ordered] == ["a", "b", "c"]
        assert aborts == []

    def test_cycle_broken_with_abort(self):
        # a reads x writes y; b reads y writes x -> 2-cycle.
        a = _tx("a", reads=["x"], writes=["y"])
        b = _tx("b", reads=["y"], writes=["x"])
        ordered, aborts = FabricPlusPlusScheduler().schedule([a, b])
        assert len(ordered) == 1
        assert len(aborts) == 1

    def test_update_chain_orders_readers_first(self):
        u1 = _tx("u1", reads=["k"], writes=["k"])
        u2 = _tx("u2", reads=["k"], writes=["k"])
        ordered, aborts = FabricPlusPlusScheduler().schedule([u1, u2])
        # Two read-modify-writes of the same key form a cycle: one aborts.
        assert len(ordered) + len(aborts) == 2
        assert len(aborts) == 1

    def test_empty_and_single(self):
        assert FabricPlusPlusScheduler().schedule([]) == ([], [])
        single = [_tx("a")]
        ordered, aborts = FabricPlusPlusScheduler().schedule(single)
        assert ordered == single and aborts == []


class TestFabricSharp:
    def test_stale_read_aborted(self):
        sharp = FabricSharpScheduler(window=5)
        writer = _tx("w", writes=["k"], endorse_time=1.0)
        sharp.schedule([writer])
        stale = _tx("s", reads=["k"], endorse_time=0.5)  # endorsed before the write
        ordered, aborts = sharp.schedule([stale])
        assert ordered == []
        assert [t.tx_id for t in aborts] == ["s"]

    def test_fresh_read_passes(self):
        sharp = FabricSharpScheduler(window=5)
        sharp.schedule([_tx("w", writes=["k"], endorse_time=1.0)])
        fresh = _tx("f", reads=["k"], endorse_time=2.0)
        ordered, aborts = sharp.schedule([fresh])
        assert [t.tx_id for t in ordered] == ["f"]
        assert aborts == []

    def test_window_expiry_forgets_writes(self):
        sharp = FabricSharpScheduler(window=1)
        sharp.schedule([_tx("w", writes=["k"], endorse_time=1.0)])
        sharp.schedule([_tx("other", writes=["z"], endorse_time=2.0)])  # expires k
        stale = _tx("s", reads=["k"], endorse_time=0.5)
        ordered, aborts = sharp.schedule([stale])
        assert [t.tx_id for t in ordered] == ["s"]

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            FabricSharpScheduler(window=0)


def test_factory():
    assert isinstance(make_scheduler("fifo"), FifoScheduler)
    assert isinstance(make_scheduler("fabricpp"), FabricPlusPlusScheduler)
    sharp = make_scheduler("fabricsharp", window=3)
    assert isinstance(sharp, FabricSharpScheduler)
    assert sharp.window == 3
    with pytest.raises(ValueError):
        make_scheduler("bogus")


def _decode_tx(tx_id, code, names):
    """One transaction from one integer, each field a digit of ``code`` in
    a mixed radix: up to three point reads and two writes, a read-modify-
    write flag, a range read over up to six keys in a third of the
    transactions, and an endorse time that is ``None`` in one in fourteen."""

    def take(radix):
        nonlocal code
        code, digit = divmod(code, radix)
        return digit

    n = len(names)
    reads = {names[k] for k in (take(n + 1), take(n + 1), take(n + 1)) if k < n}
    writes = {names[k] for k in (take(n + 1), take(n + 1)) if k < n}
    if take(2):
        writes |= reads
    start, width = take(3 * n), take(6) + 1
    ranges = [names[start : start + width]] if start < n else []
    endorse = take(14)
    endorse_time = None if endorse == 13 else float(endorse)
    return _tx(tx_id, sorted(reads), sorted(writes), endorse_time, ranges)


@st.composite
def batches(draw, max_size=40):
    """0–40 transactions over 1–30 keys; few keys make dense conflict
    graphs, and two read-modify-writes of one key form a cycle."""
    names = [f"k{i:02d}" for i in range(draw(st.integers(min_value=1, max_value=30)))]
    size = draw(st.integers(min_value=0, max_value=max_size))
    codes = draw(st.lists(st.integers(0, 2**48 - 1), min_size=size, max_size=size))
    return [_decode_tx(f"t{i}", code, names) for i, code in enumerate(codes)]


def _ids(result):
    ordered, aborted = result
    return [tx.tx_id for tx in ordered], [tx.tx_id for tx in aborted]


@given(batches())
def test_property_fabricpp_preserves_multiset(batch):
    ordered, aborts = FabricPlusPlusScheduler().schedule(list(batch))
    assert sorted(t.tx_id for t in ordered + aborts) == sorted(t.tx_id for t in batch)


@given(batches())
def test_property_fabricpp_output_conflict_free(batch):
    """No surviving tx reads a key written by an *earlier* surviving tx."""
    ordered, _ = FabricPlusPlusScheduler().schedule(list(batch))
    written: set[str] = set()
    for tx in ordered:
        assert not (tx.rwset.read_keys & written)
        written |= tx.rwset.write_keys


@given(batches())
def test_property_fabricsharp_accounts_everything(batch):
    sharp = FabricSharpScheduler(window=3)
    ordered, aborts = sharp.schedule(list(batch))
    assert len(ordered) + len(aborts) == len(batch)


@settings(max_examples=300, deadline=None)
@given(batches())
def test_property_fabricpp_matches_reference(batch):
    assert _ids(FabricPlusPlusScheduler().schedule(batch)) == _ids(
        _reference_fabricpp(batch)
    )


@settings(max_examples=300, deadline=None)
@given(batches())
def test_property_conflict_aware_matches_reference(batch):
    assert _ids(ConflictAwareScheduler().schedule(batch)) == _ids(
        _reference_conflict_aware(batch)
    )


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=7),
    st.lists(batches(max_size=15), min_size=1, max_size=10),
)
def test_property_fabricsharp_matches_reference(window, sequence):
    sharp, reference = FabricSharpScheduler(window), _ReferenceFabricSharp(window)
    for batch in sequence:
        assert _ids(sharp.schedule(batch)) == _ids(reference.schedule(batch))


def test_cycle_rules_differ_only_on_cycles():
    """A 3-cycle a -> b -> c -> a plus a reader of a's write: Fabric++
    aborts the most conflicted member, the conflict-aware scheduler
    releases the earliest one; both match their reference."""
    batch = [
        _tx("a", reads=["x"], writes=["y"]),
        _tx("b", reads=["y"], writes=["z"]),
        _tx("c", reads=["z"], writes=["x"]),
        _tx("r", reads=["y"]),
    ]
    fabricpp = _ids(FabricPlusPlusScheduler().schedule(batch))
    aware = _ids(ConflictAwareScheduler().schedule(batch))
    assert fabricpp == _ids(_reference_fabricpp(batch))
    assert aware == _ids(_reference_conflict_aware(batch))
    assert len(fabricpp[1]) == 1 and aware[1] == []
    assert sorted(aware[0]) == ["a", "b", "c", "r"]


# -- Reference bodies: the schedulers before one precedence pass ----------------


def _reference_precedence(batch):
    reads = [tx.rwset.read_keys for tx in batch]
    writes = [tx.rwset.write_keys for tx in batch]
    successors = [set() for _ in batch]
    indegree = [0] * len(batch)
    for i, read in enumerate(reads):
        for j, write in enumerate(writes):
            if i != j and write & read:
                successors[i].add(j)
                indegree[j] += 1
    return successors, indegree


def _reference_fabricpp(batch):
    if len(batch) <= 1:
        return list(batch), []
    successors, indegree = _reference_precedence(batch)
    alive = set(range(len(batch)))
    aborted = []
    order = []
    while alive:
        sources = sorted(i for i in alive if indegree[i] == 0)
        if sources:
            node = sources[0]
            order.append(node)
        else:
            node = max(
                alive,
                key=lambda i: (len(successors[i] & alive) + indegree[i], i),
            )
            aborted.append(node)
        alive.discard(node)
        for succ in successors[node]:
            if succ in alive:
                indegree[succ] -= 1
    return [batch[i] for i in order], [batch[i] for i in sorted(aborted)]


def _reference_conflict_aware(batch):
    if len(batch) <= 1:
        return list(batch), []
    successors, indegree = _reference_precedence(batch)
    alive = set(range(len(batch)))
    order = []
    while alive:
        sources = sorted(i for i in alive if indegree[i] == 0)
        node = sources[0] if sources else min(alive)
        order.append(node)
        alive.discard(node)
        for succ in successors[node]:
            if succ in alive:
                indegree[succ] -= 1
    return [batch[i] for i in order], []


class _ReferenceFabricSharp:
    def __init__(self, window):
        self.window = window
        self._recent_writes = {}
        self._write_times = {}
        self._by_batch = {}
        self._next_batch = 0

    def schedule(self, batch):
        fresh = []
        aborted = []
        for tx in batch:
            if self._is_stale(tx):
                aborted.append(tx)
            else:
                fresh.append(tx)
        ordered, cycle_aborts = _reference_fabricpp(fresh)
        aborted.extend(cycle_aborts)
        index = self._next_batch
        self._next_batch += 1
        written = []
        for tx in ordered:
            endorsed_at = tx.endorse_time if tx.endorse_time is not None else 0.0
            for key in tx.rwset.write_keys:
                self._recent_writes[key] = index
                self._write_times[key] = endorsed_at
                written.append(key)
        self._by_batch[index] = written
        expired = index - self.window
        if expired in self._by_batch:
            for key in self._by_batch.pop(expired):
                if self._recent_writes.get(key) == expired:
                    del self._recent_writes[key]
                    del self._write_times[key]
        return ordered, aborted

    def _is_stale(self, tx):
        endorsed_at = tx.endorse_time
        if endorsed_at is None:
            return False
        keys = set(tx.rwset.reads)
        for query in tx.rwset.range_queries:
            keys.update(query.keys())
        for key in keys:
            if key not in self._recent_writes:
                continue
            if self._write_times[key] >= endorsed_at:
                return True
        return False
