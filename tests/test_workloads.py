"""Unit tests for workload generation and transforms."""

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.fabric.transaction import TxRequest
from repro.workloads import (
    ControlVariables,
    WorkloadType,
    cap_rate,
    constant_rate_times,
    generate_loan_event_log,
    loan_workload,
    phased_times,
    reorder_requests,
    synthetic_workload,
)
from repro.workloads.loan import LOAN_FLOW
from repro.workloads.spec import type_mix
from repro.workloads.synthetic import zipf_exponent
from repro.workloads.usecases import (
    UseCaseSpec,
    drm_workload,
    ehr_workload,
    scm_workload,
    voting_workload,
)


class TestSchedules:
    def test_constant_rate_spacing(self):
        times = constant_rate_times(5, 10.0)
        assert times == [0.0, 0.1, 0.2, 0.3, 0.4]

    def test_constant_rate_validation(self):
        with pytest.raises(ValueError):
            constant_rate_times(5, 0.0)
        with pytest.raises(ValueError):
            constant_rate_times(-1, 10.0)

    def test_phased_times_rates(self):
        times = phased_times([(3, 10.0), (2, 1.0)])
        assert times[:3] == [0.0, 0.1, 0.2]
        assert times[3] == pytest.approx(0.3)
        assert times[4] == pytest.approx(1.3)

    def test_cap_rate_enforces_spacing(self):
        requests = [
            TxRequest(submit_time=i * 0.001, activity="a") for i in range(10)
        ]
        capped = cap_rate(requests, 100.0)
        gaps = [b.submit_time - a.submit_time for a, b in zip(capped, capped[1:])]
        assert all(gap >= 0.01 - 1e-12 for gap in gaps)

    def test_cap_rate_never_advances(self):
        requests = [TxRequest(submit_time=5.0, activity="a")]
        assert cap_rate(requests, 1.0)[0].submit_time == 5.0

    def test_cap_rate_preserves_order_and_count(self):
        requests = [
            TxRequest(submit_time=i * 0.001, activity=f"a{i}") for i in range(20)
        ]
        capped = cap_rate(requests, 50.0)
        assert [r.activity for r in capped] == [f"a{i}" for i in range(20)]

    def test_reorder_moves_front_and_back(self):
        requests = [
            TxRequest(submit_time=0.0, activity="mid"),
            TxRequest(submit_time=1.0, activity="late"),
            TxRequest(submit_time=2.0, activity="early"),
        ]
        out = reorder_requests(requests, front_activities={"early"}, back_activities={"late"})
        assert [r.activity for r in out] == ["early", "mid", "late"]
        assert [r.submit_time for r in out] == [0.0, 1.0, 2.0]

    def test_reorder_keeps_time_grid(self):
        requests = [
            TxRequest(submit_time=i * 0.5, activity="a" if i % 2 else "b")
            for i in range(10)
        ]
        out = reorder_requests(requests, front_activities={"a"})
        assert [r.submit_time for r in out] == [r.submit_time for r in requests]
        assert sorted(r.activity for r in out) == sorted(r.activity for r in requests)

    def test_reorder_conflicting_sets_rejected(self):
        with pytest.raises(ValueError):
            reorder_requests([], front_activities={"x"}, back_activities={"x"})

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=50))
    def test_property_cap_rate_monotone(self, times):
        requests = [TxRequest(submit_time=t, activity="a") for t in times]
        capped = cap_rate(requests, 25.0)
        out_times = [r.submit_time for r in capped]
        assert out_times == sorted(out_times)
        assert len(capped) == len(requests)


class TestControlVariables:
    def test_defaults_follow_table2(self):
        spec = ControlVariables()
        assert spec.workload_type is WorkloadType.UNIFORM
        assert spec.block_count == 300
        assert spec.send_rate == 300.0
        assert spec.num_orgs == 2

    def test_policy_resolution(self):
        spec = ControlVariables(endorsement_policy="P3", num_orgs=2)
        assert spec.resolve_policy() == "OutOf(2,Org1,Org2)"

    def test_p1_requires_four_orgs(self):
        with pytest.raises(ValueError):
            ControlVariables(endorsement_policy="P1", num_orgs=2)

    def test_four_org_network_slower(self):
        two = ControlVariables(num_orgs=2).to_network_config()
        four = ControlVariables(num_orgs=4).to_network_config()
        assert four.timing.endorse_per_tx > two.timing.endorse_per_tx

    def test_tx_skew_bounds(self):
        with pytest.raises(ValueError):
            ControlVariables(tx_dist_skew=1.5)

    def test_type_mix_sums_to_one(self):
        for wt in WorkloadType:
            assert sum(type_mix(wt).values()) == pytest.approx(1.0)

    def test_heavy_mix_dominates(self):
        mix = type_mix(WorkloadType.UPDATE_HEAVY)
        assert mix["update"] == pytest.approx(0.7)

    def test_zipf_exponent_mapping(self):
        assert zipf_exponent(1.0) == 0.0
        assert zipf_exponent(2.0) == 1.0
        with pytest.raises(ValueError):
            zipf_exponent(0.5)


class TestSyntheticWorkload:
    def test_count_and_contract(self):
        spec = ControlVariables(total_transactions=200)
        _, family, requests = synthetic_workload(spec)
        assert len(requests) == 200
        assert family.deploy().contracts[0].name == "genchain"
        assert all(r.contract == "genchain" for r in requests)

    def test_mix_approximately_respected(self):
        spec = ControlVariables(
            total_transactions=2000, workload_type=WorkloadType.READ_HEAVY
        )
        _, _, requests = synthetic_workload(spec)
        counts = Counter(r.activity for r in requests)
        assert counts["read"] / 2000 == pytest.approx(0.7, abs=0.05)

    def test_inserts_use_fresh_keys(self):
        spec = ControlVariables(
            total_transactions=500, workload_type=WorkloadType.INSERT_HEAVY
        )
        _, _, requests = synthetic_workload(spec)
        insert_keys = [r.args[0] for r in requests if r.activity == "write"]
        assert len(insert_keys) == len(set(insert_keys))

    def test_tx_skew_pins_org1(self):
        spec = ControlVariables(total_transactions=1000, tx_dist_skew=0.7)
        _, _, requests = synthetic_workload(spec)
        pinned = sum(1 for r in requests if r.invoker_org == "Org1")
        assert 0.6 <= pinned / 1000 <= 0.8

    def test_deterministic_per_seed(self):
        spec = ControlVariables(total_transactions=300, seed=13)
        _, _, first = synthetic_workload(spec)
        _, _, second = synthetic_workload(ControlVariables(total_transactions=300, seed=13))
        assert [(r.activity, r.args) for r in first] == [
            (r.activity, r.args) for r in second
        ]

    def test_phased_send_rate(self):
        spec = ControlVariables(
            total_transactions=100, send_rate_phases=[(50, 100.0), (50, 10.0)]
        )
        _, _, requests = synthetic_workload(spec)
        assert requests[-1].submit_time > requests[49].submit_time + 4.0

    def test_phase_count_mismatch_rejected(self):
        spec = ControlVariables(
            total_transactions=100, send_rate_phases=[(10, 100.0)]
        )
        with pytest.raises(ValueError):
            synthetic_workload(spec)


class TestUseCaseWorkloads:
    def test_scm_phase_order(self):
        _, _, requests = scm_workload(
            UseCaseSpec(total_transactions=600), anomaly_fraction=0.0, jitter_fraction=0.0
        )
        main = [r for r in requests if r.activity in ("pushASN", "ship", "queryASN", "unload")]
        first_ship = next(i for i, r in enumerate(main) if r.activity == "ship")
        assert all(r.activity == "pushASN" for r in main[:first_ship])

    def test_scm_anomalies_race_prerequisite(self):
        _, _, requests = scm_workload(
            UseCaseSpec(total_transactions=600), anomaly_fraction=1.0, jitter_fraction=0.0
        )
        ordered = sorted(requests, key=lambda r: r.submit_time)
        by_product: dict[str, dict[str, int]] = {}
        for index, request in enumerate(ordered):
            if request.activity in ("pushASN", "ship", "unload"):
                by_product.setdefault(request.args[0], {})[request.activity] = index
        raced = 0
        for steps in by_product.values():
            if "ship" in steps and "pushASN" in steps:
                if 0 < steps["ship"] - steps["pushASN"] < 400:
                    raced += 1
        assert raced > 0

    def test_drm_play_fraction(self):
        _, _, requests = drm_workload(UseCaseSpec(total_transactions=1000))
        plays = sum(1 for r in requests if r.activity == "play")
        assert 0.6 <= plays / 1000 <= 0.8

    def test_ehr_update_fraction(self):
        _, _, requests = ehr_workload(UseCaseSpec(total_transactions=1000))
        updates = sum(1 for r in requests if r.activity in ("grantAccess", "revokeAccess"))
        assert 0.6 <= updates / 1000 <= 0.8

    def test_voting_phases(self):
        _, _, requests = voting_workload(
            UseCaseSpec(), query_count=100, vote_count=200
        )
        assert sum(1 for r in requests if r.activity == "queryParties") == 100
        assert sum(1 for r in requests if r.activity == "vote") == 200
        assert requests[-1].activity == "endElection"
        assert requests[-2].activity == "seeResults"

    def test_voting_unique_voters(self):
        _, _, requests = voting_workload(UseCaseSpec(), query_count=10, vote_count=300)
        voters = [r.args[1] for r in requests if r.activity == "vote"]
        assert len(voters) == len(set(voters))


class TestLoanWorkload:
    def test_event_log_structure(self):
        events = generate_loan_event_log(num_applications=50, seed=3)
        assert len(events) == 50 * (len(LOAN_FLOW) + 1)
        by_app: dict[str, list[str]] = {}
        for event in sorted(events, key=lambda e: e.order):
            by_app.setdefault(event.application_id, []).append(event.activity)
        for activities in by_app.values():
            assert activities[: len(LOAN_FLOW)] == list(LOAN_FLOW)
            assert activities[-1].endswith("Application")

    def test_events_interleave(self):
        events = generate_loan_event_log(num_applications=50, seed=3)
        first_50 = {e.application_id for e in sorted(events, key=lambda e: e.order)[:50]}
        assert len(first_50) > 5  # many cases in flight at once

    def test_employee_skew(self):
        events = generate_loan_event_log(num_applications=300, seed=3)
        counts = Counter(e.employee_id for e in events)
        top_two = counts.most_common(2)
        assert top_two[0][0] == "EMP001"
        assert top_two[0][1] > 2 * top_two[1][1]

    def test_workload_rate(self):
        events = generate_loan_event_log(num_applications=20, seed=3)
        _, _, requests = loan_workload(UseCaseSpec(seed=3), events=events, send_rate=10.0)
        assert len(requests) == len(events)
        assert requests[-1].submit_time == pytest.approx((len(events) - 1) / 10.0)
