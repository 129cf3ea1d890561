"""Tests for the BlockOptR workflow, optimization appliers, and report."""

import pytest

from repro.contracts.registry import drm_family, genchain_family, scm_family
from repro.core import (
    BlockOptR,
    OptimizationKind as K,
    Recommendation,
    apply_recommendations,
    render_report,
)
from repro.core.thresholds import Thresholds
from repro.fabric import run_workload
from repro.fabric.transaction import TxRequest
from repro.logs import extract_blockchain_log, log_to_csv, log_to_json
from repro.workloads import ControlVariables, synthetic_workload

from tests.conftest import CounterContract, counter_requests, small_config


@pytest.fixture(scope="module")
def synthetic_report():
    spec = ControlVariables(total_transactions=1500, seed=5)
    config, family, requests = synthetic_workload(spec)
    network, _ = run_workload(config, family.deploy().contracts, requests)
    return BlockOptR().analyze_network(network), config, requests


class TestWorkflow:
    def test_report_has_all_artifacts(self, synthetic_report):
        report, _, _ = synthetic_report
        assert report.metrics.total_transactions == 1500
        assert report.event_log.derivation.attribute
        assert report.dfg.activities()
        assert report.footprint.activities

    def test_by_level_partitions(self, synthetic_report):
        report, _, _ = synthetic_report
        from repro.core.recommendations import Level

        total = sum(len(report.by_level(level)) for level in Level)
        assert total == len(report.recommendations)

    def test_get_unknown_kind_raises(self, synthetic_report):
        report, _, _ = synthetic_report
        missing = (set(K) - report.recommended_kinds()).pop()
        with pytest.raises(KeyError):
            report.get(missing)

    def test_analyze_file_csv_and_json(self, tmp_path, finished_network):
        network, _ = finished_network
        log = extract_blockchain_log(network)
        csv_path, json_path = tmp_path / "log.csv", tmp_path / "log.json"
        log_to_csv(log, csv_path)
        log_to_json(log, json_path)
        report_csv = BlockOptR().analyze_file(csv_path)
        report_json = BlockOptR().analyze_file(json_path)
        assert report_csv.metrics.total_transactions == report_json.metrics.total_transactions
        with pytest.raises(ValueError):
            BlockOptR().analyze_file(tmp_path / "log.xml")

    def test_custom_thresholds_respected(self, finished_network):
        network, _ = finished_network
        strict = Thresholds(rate_high=1.0, failure_fraction=0.0)
        report = BlockOptR(strict).analyze_network(network)
        assert K.TRANSACTION_RATE_CONTROL in report.recommended_kinds()


class TestApply:
    def _base(self):
        config = small_config()
        family = genchain_family(num_keys=50)
        requests = counter_requests(count=50)
        return config, family, requests

    def test_rate_control_caps_rate(self):
        config, family, requests = self._base()
        rec = Recommendation(
            kind=K.TRANSACTION_RATE_CONTROL, rationale="", actions={"target_rate": 10.0}
        )
        result = apply_recommendations([rec], config, family, requests)
        gaps = [
            b.submit_time - a.submit_time
            for a, b in zip(result.requests, result.requests[1:])
        ]
        assert all(g >= 0.1 - 1e-9 for g in gaps)
        assert result.applied == [K.TRANSACTION_RATE_CONTROL]

    def test_block_size_applied(self):
        config, family, requests = self._base()
        rec = Recommendation(
            kind=K.BLOCK_SIZE_ADAPTATION, rationale="", actions={"block_count": 123}
        )
        result = apply_recommendations([rec], config, family, requests)
        assert result.config.block_count == 123
        assert config.block_count != 123  # original untouched

    def test_endorser_restructuring_applied(self):
        config, family, requests = self._base()
        rec = Recommendation(
            kind=K.ENDORSER_RESTRUCTURING,
            rationale="",
            actions={"policy": "OutOf(1,Org1,Org2)", "balance_selection": True},
        )
        result = apply_recommendations([rec], config, family, requests)
        assert result.config.endorsement_policy == "OutOf(1,Org1,Org2)"
        assert result.config.endorser_selection_skew == 0.0

    def test_client_boost_doubles_clients(self):
        config, family, requests = self._base()
        before = config.org("Org1").num_clients
        rec = Recommendation(
            kind=K.CLIENT_RESOURCE_BOOST,
            rationale="",
            actions={"orgs": ("Org1",), "scale_factor": 2},
        )
        result = apply_recommendations([rec], config, family, requests)
        assert result.config.org("Org1").num_clients == 2 * before

    def test_reordering_moves_activities(self):
        config, family, requests = self._base()
        rec = Recommendation(
            kind=K.ACTIVITY_REORDERING,
            rationale="",
            actions={"front": ("get",), "back": ()},
        )
        result = apply_recommendations([rec], config, family, requests)
        activities = [r.activity for r in result.requests]
        first_bump = activities.index("bump")
        assert all(a == "get" for a in activities[:first_bump])

    def test_contract_swap_unsupported_skipped(self):
        config, family, requests = self._base()  # genchain has no variants
        rec = Recommendation(kind=K.DELTA_WRITES, rationale="")
        result = apply_recommendations([rec], config, family, requests)
        assert result.skipped == [K.DELTA_WRITES]
        assert result.applied == []

    def test_contract_swap_pruning(self):
        from repro.contracts.scm import PrunedScmContract

        config, _, requests = self._base()
        family = scm_family()
        rec = Recommendation(kind=K.PROCESS_MODEL_PRUNING, rationale="")
        result = apply_recommendations([rec], config, family, requests)
        assert isinstance(result.deployment.contracts[0], PrunedScmContract)

    def test_only_one_swap_applied(self):
        config, _, requests = self._base()
        family = drm_family()
        recs = [
            Recommendation(kind=K.DELTA_WRITES, rationale=""),
            Recommendation(kind=K.SMART_CONTRACT_PARTITIONING, rationale=""),
        ]
        result = apply_recommendations(recs, config, family, requests)
        assert result.applied == [K.DELTA_WRITES]
        assert result.skipped == [K.SMART_CONTRACT_PARTITIONING]

    def test_partitioning_reroutes_requests(self):
        config = small_config()
        family = drm_family(num_tracks=5)
        requests = [
            TxRequest(submit_time=0.0, activity="play", args=("M00000",), contract="drm"),
            TxRequest(submit_time=0.1, activity="viewMetaData", args=("M00000",), contract="drm"),
        ]
        rec = Recommendation(kind=K.SMART_CONTRACT_PARTITIONING, rationale="")
        result = apply_recommendations([rec], config, family, requests)
        contracts = {r.activity: r.contract for r in result.requests}
        assert contracts == {"play": "drm_play", "viewMetaData": "drm_meta"}

    def test_voting_alteration_end_to_end(self):
        """Applying data model alteration to the DV contract removes conflicts."""
        from repro.workloads import voting_workload
        from repro.workloads.usecases import UseCaseSpec

        config, family, requests = voting_workload(
            UseCaseSpec(total_transactions=600, seed=3), query_count=50, vote_count=400
        )
        _, baseline = run_workload(config, family.deploy().contracts, requests)
        rec = Recommendation(kind=K.DATA_MODEL_ALTERATION, rationale="")
        applied = apply_recommendations([rec], config, family, requests)
        _, optimized = run_workload(applied.config, applied.deployment.contracts, applied.requests)
        assert optimized.success_rate > baseline.success_rate
        # Votes no longer conflict; only the final seeResults scan can race.
        assert optimized.success_rate >= 0.99


class TestReport:
    def test_render_includes_recommendations(self, synthetic_report):
        report, _, _ = synthetic_report
        text = render_report(report)
        assert "BlockOptR analysis" in text
        for rec in report.recommendations:
            assert rec.kind.value in text

    def test_render_without_model(self, synthetic_report):
        report, _, _ = synthetic_report
        text = render_report(report, include_model=False)
        assert "Derived process model" not in text

    def test_render_no_recommendations(self, finished_network):
        network, _ = finished_network
        lenient = Thresholds(
            rate_high=1e9,
            reorderable_mvcc_share=1.0,
            hotkey_min_failures=10**9,
            invoker_share=1.0,
            endorser_share=1.0,
            block_tolerance=1.0,
            pruning_min_anomalies=10**9,
            delta_min_candidates=10**9,
        )
        report = BlockOptR(lenient).analyze_network(network)
        if not report.recommendations:
            assert "No optimizations recommended" in render_report(report)
