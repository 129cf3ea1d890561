"""Tests for the extension modules: serializability verification and
insights."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.experiments import make_usecase
from repro.core import BlockOptR, derive_insights, render_insights
from repro.fabric import run_workload, verify_serializability
from repro.fabric.transaction import TxRequest

from tests.conftest import CounterContract, counter_requests, small_config


# -- serializability ----------------------------------------------------------------


class TestSerializability:
    def test_counter_workload_serializable(self, finished_network):
        network, _ = finished_network
        report = verify_serializability(network)
        assert report.ok
        assert report.transactions_replayed > 0

    def test_contended_workload_serializable(self):
        requests = [
            TxRequest(submit_time=0.002 * i, activity="bump", args=("ctr:0000",), contract="counter")
            for i in range(40)
        ]
        network, result = run_workload(small_config(), [CounterContract()], requests)
        assert result.success_rate < 1.0  # real contention happened
        assert verify_serializability(network).ok

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_property_any_seed_serializable(self, seed):
        config = small_config(seed=seed)
        requests = counter_requests(count=120, rate=400.0)
        network, _ = run_workload(config, [CounterContract()], requests)
        assert verify_serializability(network).ok

    def test_usecase_workloads_serializable(self):
        for usecase in ("scm", "voting"):
            config, family, requests = make_usecase(usecase, total_transactions=800)()
            deployment = family.deploy()
            network, _ = run_workload(config, deployment.contracts, requests)
            assert verify_serializability(network).ok, usecase


# -- insights ------------------------------------------------------------------------


class TestInsights:
    @pytest.fixture(scope="class")
    def drm_insights(self):
        config, family, requests = make_usecase("drm", total_transactions=1500)()
        deployment = family.deploy()
        network, _ = run_workload(config, deployment.contracts, requests)
        report = BlockOptR().analyze_network(network)
        return derive_insights(report.metrics)

    def test_play_identified_as_culprit_and_victim(self, drm_insights):
        assert "play" in drm_insights.top_culprits()
        assert "play" in drm_insights.top_victims()

    def test_distance_histogram_populated(self, drm_insights):
        assert sum(drm_insights.distance_histogram.values()) > 0

    def test_scheduler_suggestion_valid(self, drm_insights):
        assert drm_insights.suggested_scheduler in ("fabricpp", "fabricsharp", "none")

    def test_render_insights_readable(self, drm_insights):
        text = render_insights(drm_insights)
        assert "intra-block failure share" in text

    def test_empty_metrics_suggest_none(self):
        from repro.core.metrics import compute_metrics
        from tests.test_logs import make_log, make_record

        insights = derive_insights(compute_metrics(make_log([make_record(0)])))
        assert insights.suggested_scheduler == "none"
        assert insights.intra_block_share == 0.0
