"""End-to-end reproduction checks: recommendations and optimization effects.

These are the repository's "does the paper's story hold" tests: each use
case gets the right recommendations, and applying them moves success rate
and latency in the direction the paper reports.  Scaled down for test
speed; the full-size shapes are the claims ``repro.bench.claims`` checks
in ``python -m repro suite``.
"""

import pytest

from repro.bench.experiments import make_loan, make_synthetic, make_usecase, synthetic_spec
from repro.core import BlockOptR, OptimizationKind as K, apply_recommendations
from repro.core.thresholds import Thresholds
from repro.fabric import run_workload
from repro.mining import Relation, model_diff
from repro.workloads import synthetic_workload

SMALL = 1500


def run_and_analyze(make):
    config, family, requests = make()
    network, result = run_workload(config, family.deploy().contracts, requests)
    report = BlockOptR().analyze_network(network)
    return config, family, requests, result, report


@pytest.fixture(scope="module")
def scm_setup():
    return run_and_analyze(make_usecase("scm", total_transactions=3000))


@pytest.fixture(scope="module")
def drm_setup():
    return run_and_analyze(make_usecase("drm", total_transactions=3000))


class TestRecommendationSets:
    def test_scm_matches_paper(self, scm_setup):
        *_, report = scm_setup
        kinds = report.recommended_kinds()
        # Paper Figure 13: reordering, pruning (and rate control).
        assert K.ACTIVITY_REORDERING in kinds
        assert K.PROCESS_MODEL_PRUNING in kinds
        assert K.DATA_MODEL_ALTERATION not in kinds

    def test_drm_matches_paper(self, drm_setup):
        *_, report = drm_setup
        kinds = report.recommended_kinds()
        # Paper Figure 14: delta writes and smart contract partitioning.
        assert K.DELTA_WRITES in kinds
        assert K.SMART_CONTRACT_PARTITIONING in kinds
        assert K.DATA_MODEL_ALTERATION not in kinds

    def test_voting_matches_paper(self):
        *_, report = run_and_analyze(make_usecase("voting", total_transactions=2000))
        kinds = report.recommended_kinds()
        # Paper Figure 16: rate control and data model alteration.
        assert K.DATA_MODEL_ALTERATION in kinds
        assert K.SMART_CONTRACT_PARTITIONING not in kinds

    def test_loan_matches_paper(self):
        *_, report = run_and_analyze(make_loan(10.0, seed=7))
        kinds = report.recommended_kinds()
        # Paper Figure 17: data model alteration only (single hot employee).
        assert K.DATA_MODEL_ALTERATION in kinds
        assert K.SMART_CONTRACT_PARTITIONING not in kinds

    def test_update_heavy_excludes_reordering(self):
        spec = synthetic_spec("workload_update_heavy")
        spec.total_transactions = 3000
        config, family, requests = synthetic_workload(spec)
        network, _ = run_workload(config, family.deploy().contracts, requests)
        report = BlockOptR().analyze_network(network)
        # Paper Table 3 experiment 5: Update has a self-dependency that
        # reordering cannot remove.
        assert K.ACTIVITY_REORDERING not in report.recommended_kinds()

    def test_p1_detects_endorser_bottleneck(self):
        spec = synthetic_spec("endorsement_policy_p1")
        spec.total_transactions = 2000
        config, family, requests = synthetic_workload(spec)
        network, _ = run_workload(config, family.deploy().contracts, requests)
        report = BlockOptR().analyze_network(network)
        assert K.ENDORSER_RESTRUCTURING in report.recommended_kinds()
        rec = report.get(K.ENDORSER_RESTRUCTURING)
        assert "Org1" in rec.evidence["bottleneck_orgs"]

    def test_tx_skew_detects_client_bottleneck(self):
        spec = synthetic_spec("tx_dist_skew_70")
        spec.total_transactions = 2000
        config, family, requests = synthetic_workload(spec)
        network, _ = run_workload(config, family.deploy().contracts, requests)
        report = BlockOptR().analyze_network(network)
        assert K.CLIENT_RESOURCE_BOOST in report.recommended_kinds()
        assert "Org1" in report.get(K.CLIENT_RESOURCE_BOOST).actions["orgs"]

    def test_small_blocks_detected(self):
        spec = synthetic_spec("block_count_50")
        spec.total_transactions = 2000
        config, family, requests = synthetic_workload(spec)
        network, _ = run_workload(config, family.deploy().contracts, requests)
        report = BlockOptR().analyze_network(network)
        assert K.BLOCK_SIZE_ADAPTATION in report.recommended_kinds()


class TestOptimizationEffects:
    def _apply_and_rerun(self, setup, kinds):
        config, family, requests, baseline, report = setup
        recs = [report.get(k) for k in kinds if k in report.recommended_kinds()]
        assert recs, f"none of {kinds} recommended"
        applied = apply_recommendations(recs, config, family, requests)
        _, optimized = run_workload(
            applied.config, applied.deployment.contracts, applied.requests
        )
        return baseline, optimized

    def test_scm_reordering_improves_success(self, scm_setup):
        baseline, optimized = self._apply_and_rerun(scm_setup, [K.ACTIVITY_REORDERING])
        assert optimized.success_rate > baseline.success_rate

    def test_scm_pruning_keeps_success_and_saves_work(self, scm_setup):
        baseline, optimized = self._apply_and_rerun(scm_setup, [K.PROCESS_MODEL_PRUNING])
        assert optimized.success_rate >= baseline.success_rate
        assert optimized.early_aborts > 0

    def test_drm_delta_writes_improve_success_but_cost_latency(self, drm_setup):
        baseline, optimized = self._apply_and_rerun(drm_setup, [K.DELTA_WRITES])
        assert optimized.success_rate > baseline.success_rate + 0.15
        # The paper observes calcRevenue aggregation raising latency.
        assert optimized.avg_latency > baseline.avg_latency * 0.8

    def test_drm_partitioning_improves_success(self, drm_setup):
        baseline, optimized = self._apply_and_rerun(
            drm_setup, [K.SMART_CONTRACT_PARTITIONING]
        )
        assert optimized.success_rate > baseline.success_rate

    def test_rate_control_cuts_latency(self):
        setup = run_and_analyze(make_usecase("ehr", total_transactions=2000))
        baseline, optimized = self._apply_and_rerun(setup, [K.TRANSACTION_RATE_CONTROL])
        assert optimized.avg_latency < baseline.avg_latency
        assert optimized.success_rate > baseline.success_rate

    def test_block_size_adaptation_fixes_small_blocks(self):
        spec = synthetic_spec("block_count_50")
        spec.total_transactions = 2000
        config, family, requests = synthetic_workload(spec)
        network, baseline = run_workload(config, family.deploy().contracts, requests)
        report = BlockOptR().analyze_network(network)
        applied = apply_recommendations([report.get(K.BLOCK_SIZE_ADAPTATION)], config, family, requests)
        _, optimized = run_workload(
            applied.config, applied.deployment.contracts, applied.requests
        )
        assert optimized.success_throughput > baseline.success_throughput * 1.5
        assert optimized.success_rate > baseline.success_rate

    def test_endorser_restructuring_improves_throughput(self):
        # The Org1 backlog builds over time; needs a few thousand txs to show.
        spec = synthetic_spec("endorsement_policy_p1")
        spec.total_transactions = 4000
        config, family, requests = synthetic_workload(spec)
        network, baseline = run_workload(config, family.deploy().contracts, requests)
        report = BlockOptR().analyze_network(network)
        applied = apply_recommendations([report.get(K.ENDORSER_RESTRUCTURING)], config, family, requests)
        _, optimized = run_workload(
            applied.config, applied.deployment.contracts, applied.requests
        )
        assert optimized.avg_latency < baseline.avg_latency


SCM_MAIN_FLOW = ("pushASN", "ship", "queryASN", "unload")


@pytest.fixture(scope="module")
def scm_reordered(scm_setup):
    """The SCM workload re-run with activity reordering applied, analyzed."""
    config, family, requests, _, report = scm_setup
    applied = apply_recommendations(
        [report.get(K.ACTIVITY_REORDERING)], config, family, requests
    )
    network, _ = run_workload(
        applied.config, applied.deployment.contracts, applied.requests
    )
    return BlockOptR().analyze_network(network)


class TestProcessModelReproduction:
    def test_scm_model_recovers_main_flow(self, scm_setup):
        *_, report = scm_setup
        path = report.dfg.most_frequent_path()
        main = [a for a in path if a in SCM_MAIN_FLOW]
        assert main == list(SCM_MAIN_FLOW)

    def test_side_activity_interleaves_with_the_main_flow(self, scm_setup):
        """Figure 2: before reordering, ``updateAuditInfo`` is parallel
        to some activity of the main flow."""
        footprint = scm_setup[-1].footprint
        assert any(
            footprint.relation("updateAuditInfo", activity) is Relation.PARALLEL
            for activity in SCM_MAIN_FLOW
            if activity in footprint.activities
        )

    def test_reordered_model_confirms_compliance(self, scm_setup, scm_reordered):
        """Figure 4: the post-reordering log yields a model where the
        reordered activities no longer interleave with the main flow."""
        report = scm_setup[-1]
        diff = model_diff(report.footprint, scm_reordered.footprint)
        assert diff.added_activities == diff.removed_activities == ()
        assert diff.changed_relations
        moved = set(report.get(K.ACTIVITY_REORDERING).actions["front"])
        changed_activities = {a for a, b, *_ in diff.changed_relations} | {
            b for a, b, *_ in diff.changed_relations
        }
        assert moved & changed_activities


def _synthetic_800(experiment="default", **overrides):
    """A synthetic experiment at an explicit 800-tx budget, not REPRO_BENCH_TXS."""
    return make_synthetic(experiment, total_transactions=800, **overrides)


class TestAblations:
    """Design choices the paper leaves open, swept on synthetic workloads."""

    def test_detection_is_monotone_in_its_thresholds(self):
        """Once the reorderable-MVCC share (Section 6.1.5's 40%) or the
        rate-control failure fraction Rt2 is too strict to fire, every
        stricter value stays silent.  The loosest values fire; a 100%
        share does not."""
        log = run_and_analyze(_synthetic_800())[-1].log

        def fires(kind, **thresholds):
            report = BlockOptR(Thresholds(**thresholds)).analyze_log(log)
            return kind in report.recommended_kinds()

        reorder = [
            fires(K.ACTIVITY_REORDERING, reorderable_mvcc_share=share)
            for share in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
        ]
        rate = [
            fires(K.TRANSACTION_RATE_CONTROL, failure_fraction=fraction)
            for fraction in (0.02, 0.1, 0.3, 0.6, 0.9)
        ]
        assert reorder == sorted(reorder, reverse=True)
        assert rate == sorted(rate, reverse=True)
        assert reorder[0] and not reorder[-1] and rate[0]

    def test_scheduler_window_trades_mvcc_failures_for_early_aborts(self):
        """A wider FabricSharp window aborts more doomed transactions early
        and fails fewer at MVCC validation.  With 10-transaction blocks on
        the skewed-key base at seed 7, windows 1 and 20 give 11 and 12 early
        aborts, 197 and 196 MVCC failures.  (At the default block size every
        synthetic base gives equal counts at 800 transactions, where a
        scheduler that ignored its window would pass.)"""
        by_window = {}
        for window in (1, 20):
            make = _synthetic_800("key_dist_skew_2", scheduler="fabricsharp", block_count=10)
            config, family, requests = make()
            config.scheduler_window = window
            network, result = run_workload(config, family.deploy().contracts, requests)
            mvcc = network.outcomes.cause_counts["mvcc_conflict"]
            by_window[window] = (result.early_aborts, mvcc)
        assert by_window[20][0] > by_window[1][0]
        assert by_window[20][1] < by_window[1][1]

    def test_fresh_recommendations_never_lose_to_stale_ones(self):
        """Recommendations derived at 300 TPS (stale) or on the shifted
        workload itself (fresh), applied at 150, 300 and 600 TPS: fresh
        never loses by more than 3 pp, and on the unchanged workload the
        recommendations beat the baseline (paper Section 9)."""
        stale = run_and_analyze(_synthetic_800())[-1].recommendations
        for rate in (150.0, 300.0, 600.0):
            config, family, requests, baseline, report = run_and_analyze(
                _synthetic_800(send_rate=rate)
            )
            success = {}
            for name, recommendations in (("stale", stale), ("fresh", report.recommendations)):
                applied = apply_recommendations(recommendations, config, family, requests)
                _, result = run_workload(
                    applied.config, applied.deployment.contracts, applied.requests
                )
                success[name] = result.success_rate
            assert success["fresh"] >= success["stale"] - 0.03, rate
            if rate == 300.0:
                assert success["stale"] > baseline.success_rate
