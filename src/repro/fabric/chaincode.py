"""Chaincode (smart contract) runtime.

Contracts are plain Python classes whose transaction functions are marked
with :func:`contract_function`.  During endorsement a function executes
against a :class:`ChaincodeContext` bound to the committed world state; the
context records every read (with its version), write (with its value) and
range scan into a :class:`~repro.fabric.transaction.ReadWriteSet` — exactly
the artifact real Fabric endorsers sign and validators check.

A contract function may raise :class:`ChaincodeAbort` to fail the
transaction during endorsement (the paper's *process model pruning*
implemented "directly in the smart contract by early aborting anomalous
transactions during the endorsement phase").
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.fabric.state import WorldState
from repro.fabric.transaction import DELETED, RangeQueryInfo, ReadWriteSet, Version


class ChaincodeError(Exception):
    """Base class for chaincode execution problems."""


class ChaincodeAbort(ChaincodeError):
    """Raised by a contract function to early-abort the transaction."""


class UnknownFunctionError(ChaincodeError):
    """The invoked activity does not exist on the contract."""


#: Version recorded for reads of keys that do not exist yet.  Fabric encodes
#: absent keys as a nil version; a later write to the key still invalidates
#: the read, which this sentinel reproduces.
MISSING_VERSION = Version(block=-1, tx=-1)


@dataclass(slots=True)
class ChaincodeContext:
    """Execution context handed to contract functions during endorsement
    (the endorser passes the transaction's own ``rwset`` to record into)."""

    state: WorldState
    rwset: ReadWriteSet = field(default_factory=ReadWriteSet)
    invoker: str = ""
    #: Unique per-transaction token (the tx id); lets contracts mint
    #: collision-free keys, e.g. the delta keys of delta-write updates.
    nonce: str = ""

    def get_state(self, key: str) -> Any:
        """Read a key, recording its version in the read set.

        Reads-after-writes within the same transaction observe the pending
        write (read-your-writes), matching Fabric's simulated execution.
        """
        if key in self.rwset.writes:
            pending = self.rwset.writes[key]
            return None if pending == DELETED else pending
        entry = self.state.get(key)
        if entry is None:
            self.rwset.reads.setdefault(key, MISSING_VERSION)
            return None
        self.rwset.reads.setdefault(key, entry.version)
        return entry.value

    def put_state(self, key: str, value: Any) -> None:
        """Stage a write; applied only if the transaction validates."""
        if value == DELETED:
            raise ChaincodeError("use delete_state to remove a key")
        self.rwset.writes[key] = value

    def delete_state(self, key: str) -> None:
        """Stage a key deletion (the DELETED sentinel in the write set)."""
        self.rwset.writes[key] = DELETED

    def get_state_range(self, start: str, end: str) -> list[tuple[str, Any]]:
        """Ordered scan of ``[start, end)``, recorded for phantom detection."""
        scan = self.state.range_scan(start, end)
        recorded = tuple([(key, entry.version) for key, entry in scan])
        self.rwset.range_queries.append(RangeQueryInfo(start, end, recorded))
        return [(key, entry.value) for key, entry in scan]


def contract_function(func: Callable[..., Any]) -> Callable[..., Any]:
    """Mark a method as an invocable contract transaction function."""
    func.__contract_function__ = True  # type: ignore[attr-defined]
    return func


class Contract:
    """Base class for smart contracts.

    Subclasses define transaction functions with :func:`contract_function`;
    ``name`` doubles as the world-state namespace.  ``setup`` seeds initial
    state directly (genesis data, not transactions).
    """

    #: Contract (chaincode) name; also the state namespace.
    name: str = "contract"

    #: Activity -> transaction function, filled by :meth:`invoke`; one per class.
    _dispatch: dict[str, Callable[..., Any]] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._dispatch = {}

    def functions(self) -> dict[str, Callable[..., Any]]:
        """Map of activity name to bound transaction function."""
        found: dict[str, Callable[..., Any]] = {}
        for attr_name, member in inspect.getmembers(self, predicate=callable):
            if getattr(member, "__contract_function__", False):
                found[attr_name] = member
        return found

    def has_function(self, activity: str) -> bool:
        """Whether ``activity`` names a registered contract function."""
        function = getattr(self, activity, None)
        return callable(function) and getattr(function, "__contract_function__", False)

    def invoke(self, ctx: ChaincodeContext, activity: str, args: tuple[Any, ...]) -> Any:
        """Execute ``activity`` with ``args`` against ``ctx``.

        Raises :class:`UnknownFunctionError` for unknown activities, on
        every call, and lets :class:`ChaincodeAbort` propagate to the
        endorser.  Each activity is resolved once per contract class, as
        its plain function (bound methods kept on the instance would make
        every contract a reference cycle).
        """
        function = self._dispatch.get(activity)
        if function is None:
            if not self.has_function(activity):
                raise UnknownFunctionError(f"{self.name} has no function {activity!r}")
            function = self._dispatch[activity] = getattr(type(self), activity)
        return function(self, ctx, *args)

    def setup(self, state: WorldState) -> None:
        """Seed genesis state; default contracts start empty."""

    def cost_factor(self, activity: str) -> float:
        """Relative execution cost of ``activity`` (1.0 = nominal).

        Endorsers multiply their per-transaction service time by this, so
        contracts can model expensive functions — e.g. the delta-write DRM
        variant's ``calcRevenue``, which aggregates all delta keys (the
        paper observes its latency increase).
        """
        del activity
        return 1.0

    def describe(self) -> str:
        """Human-readable ``name(functions...)`` summary."""
        names = ", ".join(sorted(self.functions()))
        return f"{self.name}({names})"
