"""Versioned world-state database with ordered range scans.

Each smart contract gets its own namespace (its own world state), which is
what makes the paper's *smart contract partitioning* optimization work:
after a split, the two contracts' keys live in disjoint namespaces and can
no longer conflict.
"""

from __future__ import annotations

import bisect
from typing import Any, NamedTuple

from repro.fabric.transaction import DELETED, Version


class VersionedValue(NamedTuple):
    """A committed value together with the version that wrote it (an
    immutable pair, so a genesis snapshot can be shared between networks)."""

    value: Any
    version: Version


class WorldState:
    """A single namespace's key-value store with Fabric-style versions.

    Keys are kept in a sorted index (maintained incrementally with
    ``bisect``) so range scans are ``O(log n + k)``, mirroring the ordered
    iterators of LevelDB/CouchDB backing real Fabric peers.
    """

    def __init__(self, namespace: str = "default") -> None:
        self.namespace = namespace
        self._data: dict[str, VersionedValue] = {}
        self._sorted_keys: list[str] = []

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def get(self, key: str) -> VersionedValue | None:
        """Committed value+version for ``key``, or ``None`` if absent."""
        return self._data.get(key)

    def version(self, key: str) -> Version | None:
        """The committed version of ``key``, or ``None`` if absent."""
        entry = self._data.get(key)
        return entry.version if entry is not None else None

    def put(self, key: str, value: Any, version: Version) -> None:
        """Commit ``value`` at ``version``; ``DELETED`` removes the key."""
        if value == DELETED:
            self.delete(key)
            return
        if key not in self._data:
            bisect.insort(self._sorted_keys, key)
        self._data[key] = VersionedValue(value, version)

    def load(self, entries: dict[str, VersionedValue]) -> None:
        """Fill this empty namespace with ``entries`` in one step, as one
        ``put`` per entry in dict order would; ``entries`` (which may be
        shared) is copied, never written.  A non-empty namespace raises."""
        if self._data:
            raise ValueError(f"namespace {self.namespace!r} is not empty")
        self._data = dict(entries)
        self._sorted_keys = sorted(self._data)

    def delete(self, key: str) -> None:
        """Remove ``key`` from the namespace (committed deletion)."""
        if key in self._data:
            del self._data[key]
            index = bisect.bisect_left(self._sorted_keys, key)
            # The key is guaranteed present at `index` by the sorted invariant.
            del self._sorted_keys[index]

    def range_scan(self, start: str, end: str) -> list[tuple[str, VersionedValue]]:
        """A list of ``(key, entry)`` for keys in ``[start, end)`` in order
        (every caller reads the whole scan, so it is built in one pass)."""
        keys, data = self._sorted_keys, self._data
        lo = bisect.bisect_left(keys, start)
        hi = bisect.bisect_left(keys, end)
        return [(key, data[key]) for key in keys[lo:hi]]

    def keys(self) -> list[str]:
        """All keys in sorted order (copy)."""
        return list(self._sorted_keys)


class StateDatabase:
    """All namespaces of one peer / channel.

    Real Fabric scopes chaincode state by chaincode name; we do the same so
    that contract partitioning produces genuinely independent stores.
    """

    def __init__(self) -> None:
        self._namespaces: dict[str, WorldState] = {}

    def namespace(self, name: str) -> WorldState:
        """The :class:`WorldState` for ``name``, created on first use."""
        if name not in self._namespaces:
            self._namespaces[name] = WorldState(namespace=name)
        return self._namespaces[name]

    def namespaces(self) -> list[str]:
        """All contract namespaces created so far."""
        return sorted(self._namespaces)
