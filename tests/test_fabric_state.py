"""Unit + property tests for the versioned world state."""

import pytest
from hypothesis import given, strategies as st

from repro.fabric.state import StateDatabase, VersionedValue, WorldState
from repro.fabric.transaction import DELETED, Version


def test_put_get_roundtrip():
    ws = WorldState()
    ws.put("a", 1, Version(1, 0))
    entry = ws.get("a")
    assert entry.value == 1
    assert entry.version == Version(1, 0)


def test_missing_key_returns_none():
    ws = WorldState()
    assert ws.get("missing") is None
    assert ws.version("missing") is None


def test_overwrite_bumps_version():
    ws = WorldState()
    ws.put("a", 1, Version(1, 0))
    ws.put("a", 2, Version(2, 3))
    assert ws.get("a").value == 2
    assert ws.version("a") == Version(2, 3)
    assert len(ws) == 1


def test_delete_removes_key_and_index():
    ws = WorldState()
    ws.put("a", 1, Version(1, 0))
    ws.put("b", 2, Version(1, 1))
    ws.delete("a")
    assert "a" not in ws
    assert ws.keys() == ["b"]


def test_deleted_sentinel_removes():
    ws = WorldState()
    ws.put("a", 1, Version(1, 0))
    ws.put("a", DELETED, Version(2, 0))
    assert "a" not in ws


def test_delete_missing_is_noop():
    ws = WorldState()
    ws.delete("nope")
    assert len(ws) == 0


def test_range_scan_half_open_and_ordered():
    ws = WorldState()
    for i, key in enumerate(["b", "d", "a", "c", "e"]):
        ws.put(key, i, Version(1, i))
    keys = [k for k, _ in ws.range_scan("a", "d")]
    assert keys == ["a", "b", "c"]


def test_range_scan_empty_range():
    ws = WorldState()
    ws.put("m", 1, Version(1, 0))
    assert list(ws.range_scan("x", "z")) == []
    assert list(ws.range_scan("m", "m")) == []


def test_state_database_namespace_isolation():
    db = StateDatabase()
    db.namespace("c1").put("k", 1, Version(1, 0))
    db.namespace("c2").put("k", 2, Version(1, 0))
    assert db.namespace("c1").get("k").value == 1
    assert db.namespace("c2").get("k").value == 2
    assert db.namespaces() == ["c1", "c2"]


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["put", "delete"]),
            st.text(alphabet="abcdef", min_size=1, max_size=4),
        ),
        max_size=80,
    )
)
def test_property_sorted_index_matches_dict(ops):
    """The incremental sorted-key index always equals sorted(dict keys)."""
    ws = WorldState()
    model: dict[str, int] = {}
    version = 0
    for op, key in ops:
        if op == "put":
            ws.put(key, version, Version(1, version))
            model[key] = version
        else:
            ws.delete(key)
            model.pop(key, None)
        version += 1
    assert ws.keys() == sorted(model)


@given(
    st.dictionaries(
        st.text(alphabet="abcdefgh", min_size=1, max_size=5),
        st.integers(),
        max_size=40,
    ),
    st.text(alphabet="abcdefgh", min_size=1, max_size=5),
    st.text(alphabet="abcdefgh", min_size=1, max_size=5),
)
def test_property_range_scan_equals_filter(data, start, end):
    ws = WorldState()
    for index, (key, value) in enumerate(data.items()):
        ws.put(key, value, Version(1, index))
    scanned = {k: e.value for k, e in ws.range_scan(start, end)}
    expected = {k: v for k, v in data.items() if start <= k < end}
    assert scanned == expected


@given(
    st.lists(
        st.tuples(st.text(alphabet="abcdef", min_size=1, max_size=4), st.integers()),
        unique_by=lambda item: item[0],
        max_size=60,
    )
)
def test_property_load_equals_puts_in_the_same_order(items):
    """One ``load`` gives the entries, dict order and sorted index that
    one ``put`` per entry gives, whatever order the entries come in."""
    entries = {
        key: VersionedValue(value, Version(0, index))
        for index, (key, value) in enumerate(items)
    }
    put = WorldState()
    for key, entry in entries.items():
        put.put(key, entry.value, entry.version)
    loaded = WorldState()
    loaded.load(entries)
    assert list(loaded._data.items()) == list(put._data.items())
    assert loaded.keys() == put.keys()


def test_load_refuses_a_non_empty_namespace_and_copies_its_entries():
    entries = {"b": VersionedValue(2, Version(0, 0))}
    ws = WorldState("ns")
    ws.put("a", 1, Version(1, 0))
    with pytest.raises(ValueError, match="'ns' is not empty"):
        ws.load(entries)
    assert ws.keys() == ["a"]
    fresh = WorldState("ns")
    fresh.load(entries)
    fresh.put("c", 3, Version(1, 0))
    fresh.delete("b")
    assert entries == {"b": VersionedValue(2, Version(0, 0))}
    assert fresh.keys() == ["c"]
