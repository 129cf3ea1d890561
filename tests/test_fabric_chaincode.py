"""Unit tests for the chaincode runtime."""

import pytest

from repro.fabric.chaincode import (
    ChaincodeAbort,
    ChaincodeContext,
    ChaincodeError,
    Contract,
    MISSING_VERSION,
    UnknownFunctionError,
    contract_function,
)
from repro.fabric.state import WorldState
from repro.fabric.transaction import DELETED, TxType, Version


class Demo(Contract):
    name = "demo"

    @contract_function
    def read(self, ctx, key):
        return ctx.get_state(key)

    @contract_function
    def write(self, ctx, key, value):
        ctx.put_state(key, value)

    @contract_function
    def bump(self, ctx, key):
        value = ctx.get_state(key) or 0
        ctx.put_state(key, value + 1)

    @contract_function
    def remove(self, ctx, key):
        ctx.delete_state(key)

    @contract_function
    def fail(self, ctx):
        raise ChaincodeAbort("nope")

    def helper(self, ctx):  # not a contract function
        return 42


@pytest.fixture
def state():
    ws = WorldState("demo")
    ws.put("k", 10, Version(3, 1))
    return ws


@pytest.fixture
def ctx(state):
    return ChaincodeContext(state=state, invoker="client0", nonce="tx-1")


def test_read_records_version(ctx):
    assert ctx.get_state("k") == 10
    assert ctx.rwset.reads == {"k": Version(3, 1)}


def test_read_missing_records_missing_version(ctx):
    assert ctx.get_state("absent") is None
    assert ctx.rwset.reads == {"absent": MISSING_VERSION}


def test_read_your_writes(ctx):
    ctx.put_state("new", 5)
    assert ctx.get_state("new") == 5
    # No read recorded for a key we wrote ourselves first.
    assert "new" not in ctx.rwset.reads


def test_read_after_delete_sees_none(ctx):
    ctx.delete_state("k")
    assert ctx.get_state("k") is None


def test_put_deleted_sentinel_rejected(ctx):
    with pytest.raises(ChaincodeError):
        ctx.put_state("k", DELETED)


def test_delete_records_sentinel(ctx):
    ctx.delete_state("k")
    assert ctx.rwset.writes["k"] == DELETED
    assert ctx.rwset.derive_type() is TxType.DELETE


def test_range_scan_records_phantom_info(state, ctx):
    state.put("k2", 20, Version(3, 2))
    results = ctx.get_state_range("k", "k3")
    assert [k for k, _ in results] == ["k", "k2"]
    assert len(ctx.rwset.range_queries) == 1
    query = ctx.rwset.range_queries[0]
    assert query.keys() == ("k", "k2")


def test_functions_discovered():
    functions = Demo().functions()
    assert set(functions) == {"read", "write", "bump", "remove", "fail"}


def test_helper_not_invocable(ctx):
    contract = Demo()
    for _ in range(2):
        with pytest.raises(UnknownFunctionError):
            contract.invoke(ctx, "helper", ())


def test_unknown_activity_raises(ctx):
    """On every call: only known activities are resolved once and kept."""
    contract = Demo()
    for _ in range(2):
        with pytest.raises(UnknownFunctionError):
            contract.invoke(ctx, "nope", ())


def test_activity_resolution_is_per_contract_class(ctx):
    """A subclass that overrides a function without the marker refuses it,
    even after its base class ran it (and the base still runs it after)."""

    class Unmarked(Demo):
        def bump(self, ctx, key):
            raise AssertionError("not a contract function")

    Demo().invoke(ctx, "bump", ("k",))
    with pytest.raises(UnknownFunctionError):
        Unmarked().invoke(ctx, "bump", ("k",))
    Demo().invoke(ctx, "bump", ("k",))
    assert ctx.rwset.writes == {"k": 12}


def test_abort_propagates(ctx):
    with pytest.raises(ChaincodeAbort):
        Demo().invoke(ctx, "fail", ())


def test_invoke_executes(ctx):
    Demo().invoke(ctx, "bump", ("k",))
    assert ctx.rwset.writes == {"k": 11}


def test_default_cost_factor_is_one():
    assert Demo().cost_factor("read") == 1.0


def test_describe_lists_functions():
    assert "bump" in Demo().describe()
