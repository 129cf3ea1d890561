"""Unit tests for all smart contracts and their optimized variants."""

import pytest

from repro.contracts import (
    AlteredLoanContract,
    AlteredVotingContract,
    DeltaDrmContract,
    DrmContract,
    EhrContract,
    GenChainContract,
    LoanContract,
    PrunedEhrContract,
    PrunedScmContract,
    ScmContract,
    VotingContract,
    partitioned_drm,
)
from repro.contracts.scm import ASN_PUSHED, SHIPPED, UNLOADED, product_key
from repro.fabric.chaincode import ChaincodeAbort, ChaincodeContext, UnknownFunctionError
from repro.fabric.state import WorldState


def make_ctx(contract, nonce="tx-1"):
    state = WorldState(contract.name)
    contract.setup(state)
    return state, lambda: ChaincodeContext(state=state, invoker="c0", nonce=nonce)


def commit(ctx, state, version=(1, 0)):
    """Apply a context's writes to state (simulating successful validation)."""
    from repro.fabric.transaction import Version

    for key, value in ctx.rwset.writes.items():
        state.put(key, value, Version(*version))


class TestGenChain:
    def test_setup_populates_keys(self):
        contract = GenChainContract(num_keys=10)
        state, _ = make_ctx(contract)
        assert len(state) == 10

    def test_update_writes_supplied_value(self):
        contract = GenChainContract(num_keys=5)
        state, ctx_factory = make_ctx(contract)
        ctx = ctx_factory()
        contract.invoke(ctx, "update", (contract.key(0), 42))
        assert ctx.rwset.writes[contract.key(0)] == 42
        assert contract.key(0) in ctx.rwset.reads  # read-modify-write

    def test_delete_reads_then_deletes(self):
        contract = GenChainContract(num_keys=5)
        _, ctx_factory = make_ctx(contract)
        ctx = ctx_factory()
        contract.invoke(ctx, "delete", (contract.key(1),))
        from repro.fabric.transaction import TxType

        assert ctx.rwset.derive_type() is TxType.DELETE

    def test_range_read_records_query(self):
        contract = GenChainContract(num_keys=30)
        _, ctx_factory = make_ctx(contract)
        ctx = ctx_factory()
        result = contract.invoke(ctx, "range_read", (contract.key(0), contract.key(10)))
        assert len(result) == 10
        assert len(ctx.rwset.range_queries) == 1

    def test_invalid_key_count(self):
        with pytest.raises(ValueError):
            GenChainContract(num_keys=0)

    def test_key_space_holds_only_ranks_that_sort_in_order(self):
        """Keys carry a 6-digit rank; ``key1000000`` would sort between
        ``key100000`` and ``key100001``, so range reads over a larger key
        space would scan the wrong keys."""
        assert GenChainContract(num_keys=1).num_keys == 1
        assert GenChainContract(num_keys=999_999).num_keys == 999_999
        for num_keys in (0, 1_000_000, 1_000_005):
            with pytest.raises(ValueError, match="6-digit rank"):
                GenChainContract(num_keys=num_keys)
        assert GenChainContract.key(100_000) < GenChainContract.key(1_000_000)
        assert GenChainContract.key(1_000_000) < GenChainContract.key(100_001)

    def test_tuned_bundle_with_too_many_keys_fails_when_built(self):
        from repro.bench.experiments import make_synthetic

        make = make_synthetic("default", seed=7, total_transactions=50, num_keys=1_000_000)
        with pytest.raises(ValueError, match="6-digit rank"):
            make()

    @pytest.mark.parametrize("num_keys", [1, 7, 1500])
    def test_setup_matches_the_per_key_reference(self, num_keys):
        """The shared genesis snapshot gives the state the per-key puts
        gave: same entries, same dict order, same sorted index."""
        loaded, reference = WorldState("genchain"), WorldState("genchain")
        GenChainContract(num_keys=num_keys).setup(loaded)
        _reference_genesis(reference, num_keys)
        assert list(loaded._data.items()) == list(reference._data.items())
        assert loaded.keys() == reference.keys()

    def test_a_network_never_writes_into_the_shared_snapshot(self):
        """Inserts, updates and deletes committed on one network leave the
        next network's genesis state as the reference builds it."""
        from repro.fabric.network import FabricNetwork, run_workload
        from repro.fabric.transaction import TxRequest
        from tests.conftest import small_config

        num_keys = 60
        key = GenChainContract.key
        requests = []
        for index in range(num_keys):
            for activity, args in (
                ("write", (f"{key(index)}x{index:06d}", index)),
                ("update", (key(index), -index)),
                ("delete", (key((index + 1) % num_keys),)),
            ):
                requests.append(
                    TxRequest(
                        submit_time=len(requests) / 200.0,
                        activity=activity,
                        args=args,
                        contract=GenChainContract.name,
                    )
                )
        first, result = run_workload(
            small_config(), [GenChainContract(num_keys=num_keys)], requests
        )
        written = first.state_db.namespace(GenChainContract.name)
        assert result.success_count > 0
        assert any("x" in name for name in written.keys())
        assert len([name for name in written.keys() if "x" not in name]) < num_keys
        assert any(entry.value != 100 for _, entry in written.range_scan("key", "kez"))

        second = FabricNetwork(small_config(), [GenChainContract(num_keys=num_keys)])
        fresh = second.state_db.namespace(GenChainContract.name)
        reference = WorldState(GenChainContract.name)
        _reference_genesis(reference, num_keys)
        assert list(fresh._data.items()) == list(reference._data.items())
        assert fresh.keys() == reference.keys()

    def test_a_second_setup_allocates_almost_nothing(self):
        """Once the snapshot is built, a setup copies one dict and sorts
        one key list: not two tuples per key (about 3,000 tracked objects for
        1,500 keys, built one ``put`` at a time)."""
        import gc

        contract = GenChainContract(num_keys=1500)
        contract.setup(WorldState(contract.name))
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            state = WorldState(contract.name)
            contract.setup(state)
            allocated = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert len(state) == 1500
        assert allocated < 16, f"{allocated} GC-tracked objects allocated"


def _reference_genesis(state, num_keys):
    """genChain's genesis as one ``put`` per key, the setup body before the
    shared snapshot."""
    from repro.fabric.transaction import Version

    for index in range(num_keys):
        state.put(f"key{index:06d}", 100, Version(block=0, tx=index))


class TestScm:
    def test_normal_flow(self):
        contract = ScmContract()
        state, ctx_factory = make_ctx(contract)
        for step, expected in [("pushASN", ASN_PUSHED), ("ship", SHIPPED), ("unload", UNLOADED)]:
            ctx = ctx_factory()
            contract.invoke(ctx, step, ("P1",))
            commit(ctx, state)
            assert state.get(product_key("P1")).value == expected

    def test_illogical_ship_commits_read_only(self):
        contract = ScmContract()
        _, ctx_factory = make_ctx(contract)
        ctx = ctx_factory()
        contract.invoke(ctx, "ship", ("P1",))  # no pushASN
        assert not ctx.rwset.writes  # provenance-only, read committed

    def test_pruned_ship_aborts(self):
        contract = PrunedScmContract()
        _, ctx_factory = make_ctx(contract)
        with pytest.raises(ChaincodeAbort):
            contract.invoke(ctx_factory(), "ship", ("P1",))

    def test_pruned_unload_aborts_without_ship(self):
        contract = PrunedScmContract()
        state, ctx_factory = make_ctx(contract)
        ctx = ctx_factory()
        contract.invoke(ctx, "pushASN", ("P1",))
        commit(ctx, state)
        with pytest.raises(ChaincodeAbort):
            contract.invoke(ctx_factory(), "unload", ("P1",))

    def test_audit_write_set_disjoint_from_product(self):
        contract = ScmContract()
        state, ctx_factory = make_ctx(contract)
        ctx = ctx_factory()
        contract.invoke(ctx, "pushASN", ("P1",))
        commit(ctx, state)
        audit_ctx = ctx_factory()
        contract.invoke(audit_ctx, "updateAuditInfo", ("P1",))
        assert product_key("P1") in audit_ctx.rwset.reads
        assert set(audit_ctx.rwset.writes) == {"audit:P1"}

    def test_query_products_range(self):
        contract = ScmContract(num_products=5)
        _, ctx_factory = make_ctx(contract)
        ctx = ctx_factory()
        result = contract.invoke(ctx, "queryProducts", ("P00000", "P00003"))
        assert len(result) == 3


class TestDrm:
    def test_play_increments(self):
        contract = DrmContract(num_tracks=3)
        state, ctx_factory = make_ctx(contract)
        ctx = ctx_factory()
        contract.invoke(ctx, "play", ("M00000",))
        assert ctx.rwset.writes["music:M00000"]["plays"] == 1

    def test_calc_revenue_uses_play_count(self):
        contract = DrmContract(num_tracks=3)
        state, ctx_factory = make_ctx(contract)
        ctx = ctx_factory()
        contract.invoke(ctx, "play", ("M00000",))
        commit(ctx, state)
        ctx2 = ctx_factory()
        revenue = contract.invoke(ctx2, "calcRevenue", ("M00000",))
        assert revenue == pytest.approx(0.01)

    def test_delta_play_is_blind_write_to_unique_key(self):
        contract = DeltaDrmContract(num_tracks=3)
        _, ctx_factory = make_ctx(contract)
        ctx_a = ctx_factory()
        contract.invoke(ctx_a, "play", ("M00000",))
        assert not ctx_a.rwset.reads
        ctx_b = ChaincodeContext(state=ctx_a.state, nonce="tx-2")
        contract.invoke(ctx_b, "play", ("M00000",))
        assert set(ctx_a.rwset.writes) != set(ctx_b.rwset.writes)

    def test_delta_calc_revenue_aggregates(self):
        contract = DeltaDrmContract(num_tracks=3)
        state, ctx_factory = make_ctx(contract)
        for i in range(4):
            ctx = ChaincodeContext(state=state, nonce=f"tx-{i}")
            contract.invoke(ctx, "play", ("M00000",))
            commit(ctx, state, version=(1, i))
        ctx = ctx_factory()
        revenue = contract.invoke(ctx, "calcRevenue", ("M00000",))
        assert revenue == pytest.approx(0.04)

    def test_delta_cost_factors(self):
        contract = DeltaDrmContract()
        assert contract.cost_factor("calcRevenue") > contract.cost_factor("play")

    def test_partitioned_routing_and_isolation(self):
        contracts, routing = partitioned_drm(num_tracks=2)
        names = {c.name for c in contracts}
        assert names == {"drm_play", "drm_meta"}
        assert routing["play"] == "drm_play"
        assert routing["viewMetaData"] == "drm_meta"
        play = next(c for c in contracts if c.name == "drm_play")
        meta = next(c for c in contracts if c.name == "drm_meta")
        # Misrouted activities fail loudly.
        state = WorldState("drm_play")
        play.setup(state)
        with pytest.raises(UnknownFunctionError):
            play.invoke(ChaincodeContext(state=state), "viewMetaData", ("M00000",))
        state_m = WorldState("drm_meta")
        meta.setup(state_m)
        ctx = ChaincodeContext(state=state_m)
        assert meta.invoke(ctx, "viewMetaData", ("M00000",)) is not None


class TestEhr:
    def test_grant_then_query(self):
        contract = EhrContract(num_patients=2)
        state, ctx_factory = make_ctx(contract)
        ctx = ctx_factory()
        contract.invoke(ctx, "grantAccess", ("PT00000", "INST01"))
        commit(ctx, state)
        ctx2 = ctx_factory()
        record = contract.invoke(ctx2, "queryRecord", ("PT00000", "INST01"))
        assert record is not None

    def test_query_without_grant_denied(self):
        contract = EhrContract(num_patients=2)
        _, ctx_factory = make_ctx(contract)
        assert contract.invoke(ctx_factory(), "queryRecord", ("PT00000", "INST01")) is None

    def test_revoke_without_grant_read_only(self):
        contract = EhrContract(num_patients=2)
        _, ctx_factory = make_ctx(contract)
        ctx = ctx_factory()
        contract.invoke(ctx, "revokeAccess", ("PT00000", "INST01"))
        assert not ctx.rwset.writes

    def test_pruned_revoke_aborts(self):
        contract = PrunedEhrContract(num_patients=2)
        _, ctx_factory = make_ctx(contract)
        with pytest.raises(ChaincodeAbort):
            contract.invoke(ctx_factory(), "revokeAccess", ("PT00000", "INST01"))

    def test_grant_revoke_roundtrip(self):
        contract = EhrContract(num_patients=2)
        state, ctx_factory = make_ctx(contract)
        ctx = ctx_factory()
        contract.invoke(ctx, "grantAccess", ("PT00000", "INST01"))
        commit(ctx, state)
        ctx = ctx_factory()
        contract.invoke(ctx, "revokeAccess", ("PT00000", "INST01"))
        commit(ctx, state, version=(2, 0))
        assert state.get("patient:PT00000").value == {"access": []}


class TestVoting:
    def test_vote_updates_tally_and_voter(self):
        contract = VotingContract(num_parties=2)
        _, ctx_factory = make_ctx(contract)
        ctx = ctx_factory()
        contract.invoke(ctx, "vote", ("PARTY00", "V1"))
        assert ctx.rwset.writes["party:PARTY00"]["votes"] == 1
        assert ctx.rwset.writes["voter:V1"] == "PARTY00"

    def test_altered_vote_touches_only_voter_key(self):
        contract = AlteredVotingContract(num_parties=2)
        _, ctx_factory = make_ctx(contract)
        ctx = ctx_factory()
        contract.invoke(ctx, "vote", ("PARTY00", "V1"))
        assert set(ctx.rwset.writes) == {"voter:V1"}
        assert set(ctx.rwset.reads) == {"voter:V1"}

    def test_altered_double_vote_rejected(self):
        contract = AlteredVotingContract(num_parties=2)
        state, ctx_factory = make_ctx(contract)
        ctx = ctx_factory()
        contract.invoke(ctx, "vote", ("PARTY00", "V1"))
        commit(ctx, state)
        ctx2 = ctx_factory()
        contract.invoke(ctx2, "vote", ("PARTY01", "V1"))
        assert not ctx2.rwset.writes  # single vote per voter

    def test_altered_results_aggregate_voters(self):
        contract = AlteredVotingContract(num_parties=2)
        state, ctx_factory = make_ctx(contract)
        for i, party in enumerate(["PARTY00", "PARTY00", "PARTY01"]):
            ctx = ctx_factory()
            contract.invoke(ctx, "vote", (party, f"V{i}"))
            commit(ctx, state, version=(1, i))
        results = contract.invoke(ctx_factory(), "seeResults", ())
        assert results == {"PARTY00": 2, "PARTY01": 1}

    def test_end_election(self):
        contract = VotingContract()
        state, ctx_factory = make_ctx(contract)
        ctx = ctx_factory()
        contract.invoke(ctx, "endElection", ())
        assert ctx.rwset.writes["election:state"] == "closed"


class TestLoan:
    def test_baseline_keys_by_employee(self):
        contract = LoanContract()
        _, ctx_factory = make_ctx(contract)
        ctx = ctx_factory()
        contract.invoke(ctx, "createApplication", ("APP1", "EMP001", "home", 100.0))
        assert set(ctx.rwset.writes) == {"employee:EMP001"}

    def test_baseline_portfolio_accumulates(self):
        contract = LoanContract()
        state, ctx_factory = make_ctx(contract)
        for i, app in enumerate(["APP1", "APP2"]):
            ctx = ctx_factory()
            contract.invoke(ctx, "createApplication", (app, "EMP001", "home", 1.0))
            commit(ctx, state, version=(1, i))
        portfolio = state.get("employee:EMP001").value
        assert [e["application"] for e in portfolio] == ["APP1", "APP2"]

    def test_status_transitions_update_entry(self):
        contract = LoanContract()
        state, ctx_factory = make_ctx(contract)
        ctx = ctx_factory()
        contract.invoke(ctx, "createApplication", ("APP1", "EMP001"))
        commit(ctx, state)
        ctx = ctx_factory()
        contract.invoke(ctx, "approveApplication", ("APP1", "EMP001"))
        commit(ctx, state, version=(2, 0))
        portfolio = state.get("employee:EMP001").value
        assert portfolio[0]["status"] == "approveApplication"

    def test_altered_keys_by_application(self):
        contract = AlteredLoanContract()
        _, ctx_factory = make_ctx(contract)
        ctx = ctx_factory()
        contract.invoke(ctx, "createApplication", ("APP1", "EMP001", "car", 5.0))
        assert set(ctx.rwset.writes) == {"application:APP1"}

    def test_altered_query_employee_scans(self):
        contract = AlteredLoanContract()
        state, ctx_factory = make_ctx(contract)
        for i, (app, emp) in enumerate([("APP1", "EMP001"), ("APP2", "EMP002"), ("APP3", "EMP001")]):
            ctx = ctx_factory()
            contract.invoke(ctx, "createApplication", (app, emp))
            commit(ctx, state, version=(1, i))
        matches = contract.invoke(ctx_factory(), "queryEmployee", ("EMP001",))
        assert len(matches) == 2
        assert contract.cost_factor("queryEmployee") > 1.0
