"""The nine recommendation rules (paper Table 1).

Each rule is a pure function ``(LogMetrics, Thresholds) -> Recommendation
| None``; :func:`evaluate_rules` runs them all.  Rules follow Table 1's
necessary conditions, with two disambiguations that each rule's docstring
explains (block-size tolerance band, fair-share endorser detection) and
the paper's prose thresholds (40% reorderable-MVCC share from Section
6.1.5).
"""

from __future__ import annotations

from typing import Callable

from repro.core.metrics import LogMetrics
from repro.core.recommendations import OptimizationKind, Recommendation
from repro.core.thresholds import Thresholds
from repro.fabric.policy import parse_policy
from repro.fabric.transaction import TxType

Rule = Callable[[LogMetrics, Thresholds], "Recommendation | None"]

#: Transaction types counted as "read-like" when deciding whether a
#: reorderable activity should move to the front (reads first) or back.
_READ_TYPES = {TxType.READ, TxType.RANGE_READ}


def rule_activity_reordering(
    metrics: LogMetrics, thresholds: Thresholds
) -> Recommendation | None:
    """Table 1: corDV(x,y) == 1 and WS(x) ∩ WS(y) == ∅.

    Recommended when reorderable conflict pairs explain at least
    ``reorderable_mvcc_share`` (40%) of the MVCC failures, and the pair
    involves two *different* activities (a self-dependent activity cannot
    be fixed by reordering, e.g. Update-vs-Update in Experiment 5).
    """
    if metrics.mvcc_failures < thresholds.reorderable_min_failures:
        return None
    cross_pairs = [
        pair
        for pair in metrics.conflict_pairs
        if pair.reorderable and pair.failed_activity != pair.culprit_activity
    ]
    share = len(cross_pairs) / metrics.mvcc_failures
    if share < thresholds.reorderable_mvcc_share:
        return None

    activity_pairs = sorted(
        {(p.failed_activity, p.culprit_activity) for p in cross_pairs}
    )
    # All reorderable failing activities move to the *front* of the
    # schedule: a front group only ever races against its own writes,
    # which are disjoint from the culprits' by the reorderability
    # condition, whereas a back group is endorsed while the main flow's
    # tail is still committing (pipeline backlog) and keeps failing at
    # the boundary.  The paper reorders in both directions depending on
    # business semantics; performance-wise front placement dominates.
    culprits = {culprit for _, culprit in activity_pairs}
    front = {failed for failed, _ in activity_pairs if failed not in culprits}

    return Recommendation(
        kind=OptimizationKind.ACTIVITY_REORDERING,
        rationale=(
            f"{share:.0%} of MVCC failures come from reorderable activity "
            f"pairs {activity_pairs}"
        ),
        evidence={
            "reorderable_share": share,
            "reorderable_pairs": activity_pairs,
            "mvcc_failures": metrics.mvcc_failures,
            "self_dependent": metrics.self_dependent_activities,
        },
        actions={"front": tuple(sorted(front)), "back": ()},
    )


def rule_process_model_pruning(
    metrics: LogMetrics, thresholds: Thresholds
) -> Recommendation | None:
    """Table 1: A(x) == A(y) and TT(x) != TT(y).

    An activity whose transactions exhibit a minority transaction type
    deviates from its expected behaviour (e.g. an Unload that only reads
    because no Ship preceded it).  The minority must be small enough to be
    an anomaly, not a second legitimate mode.
    """
    anomalies: dict[str, dict[str, int]] = {}
    for activity, stats in metrics.activity_stats.items():
        minority = stats.minority_types()
        count = sum(minority.values())
        if count < thresholds.pruning_min_anomalies:
            continue
        if count / stats.total >= thresholds.pruning_max_fraction:
            continue  # a second legitimate mode, not an anomaly
        anomalies[activity] = {
            tx_type.value: type_count for tx_type, type_count in minority.items()
        }
    if not anomalies:
        return None
    return Recommendation(
        kind=OptimizationKind.PROCESS_MODEL_PRUNING,
        rationale=(
            f"activities with anomalous transaction types: {sorted(anomalies)}"
        ),
        evidence={"anomalous_activities": anomalies},
        actions={"activities": tuple(sorted(anomalies))},
    )


def rule_transaction_rate_control(
    metrics: LogMetrics, thresholds: Thresholds
) -> Recommendation | None:
    """Table 1: Trd_i >= Rt1 and Frd_i >= Trd_i * Rt2 for some interval i."""
    hot_intervals = [
        index
        for index, (rate, failures) in enumerate(zip(metrics.trd, metrics.frd))
        if rate >= thresholds.rate_high and failures >= rate * thresholds.failure_fraction
    ]
    if not hot_intervals:
        return None
    worst = max(hot_intervals, key=lambda i: metrics.frd[i])
    return Recommendation(
        kind=OptimizationKind.TRANSACTION_RATE_CONTROL,
        rationale=(
            f"{len(hot_intervals)} interval(s) with rate >= "
            f"{thresholds.rate_high:.0f} TPS and failure share >= "
            f"{thresholds.failure_fraction:.0%} (worst interval {worst})"
        ),
        evidence={
            "hot_intervals": hot_intervals,
            "worst_interval": worst,
            "worst_rate": metrics.trd[worst],
            "worst_failure_rate": metrics.frd[worst],
        },
        actions={"target_rate": 100.0},
    )


def rule_delta_writes(
    metrics: LogMetrics, thresholds: Thresholds
) -> Recommendation | None:
    """Table 1: corPA(x,y)==1, ST(x)==MRC, |WS|==1, WS(x) ± 1 == WS(y)."""
    candidates = {
        activity: count
        for activity, count in metrics.delta_candidates.items()
        if count >= thresholds.delta_min_candidates
    }
    if not candidates:
        return None
    return Recommendation(
        kind=OptimizationKind.DELTA_WRITES,
        rationale=(
            f"failed single-key increment/decrement updates detected in "
            f"{sorted(candidates)}"
        ),
        evidence={"candidates_per_activity": candidates},
        actions={"activities": tuple(sorted(candidates))},
    )


def rule_smart_contract_partitioning(
    metrics: LogMetrics, thresholds: Thresholds
) -> Recommendation | None:
    """Table 1: Ksig(HK_i) > 1 — a hotkey accessed by multiple activities.

    When only a single hotkey exists, Table 1 routes the case to data
    model alteration instead (the paper's LAP experiment), so this rule
    requires more than one hotkey.
    """
    del thresholds
    if len(metrics.hotkeys) <= 1:
        return None
    shared = {
        key: sorted(metrics.key_failed_activities.get(key, frozenset()))
        for key in metrics.hotkeys
        if metrics.ksig_failed.get(key, 0) > 1
    }
    if not shared:
        return None
    return Recommendation(
        kind=OptimizationKind.SMART_CONTRACT_PARTITIONING,
        rationale=(
            f"{len(shared)} hotkey(s) accessed by multiple activities, "
            f"e.g. {metrics.hotkeys[0]} by "
            f"{shared.get(metrics.hotkeys[0], [])}"
        ),
        evidence={"hotkeys": metrics.hotkeys, "activities_per_hotkey": shared},
        actions={"hotkeys": tuple(metrics.hotkeys)},
    )


def rule_data_model_alteration(
    metrics: LogMetrics, thresholds: Thresholds
) -> Recommendation | None:
    """Table 1: Ksig(HK_i) == 1 or |HK| == 1."""
    del thresholds
    if not metrics.hotkeys:
        return None
    single_activity = {
        key: sorted(metrics.key_failed_activities.get(key, frozenset()))
        for key in metrics.hotkeys
        if metrics.ksig_failed.get(key, 0) == 1
    }
    single_hotkey = len(metrics.hotkeys) == 1
    # Precedence over partitioning: when several hotkeys exist and any of
    # them is shared by multiple activities, the case belongs to smart
    # contract partitioning (the paper's DRM experiment); alteration needs
    # a single hotkey (LAP) or exclusively self-dependent hotkeys (DV).
    all_single = len(single_activity) == len(metrics.hotkeys)
    if not single_hotkey and not all_single:
        return None
    if not single_activity and not single_hotkey:
        return None
    if single_hotkey:
        rationale = (
            f"a single hotkey {metrics.hotkeys[0]} concentrates the failures "
            f"— the skewed access warrants a data model redesign"
        )
    else:
        rationale = (
            f"hotkey(s) {sorted(single_activity)} accessed by only one "
            f"activity — the key choice itself causes the self-dependency"
        )
    return Recommendation(
        kind=OptimizationKind.DATA_MODEL_ALTERATION,
        rationale=rationale,
        evidence={
            "hotkeys": metrics.hotkeys,
            "single_activity_hotkeys": single_activity,
            "single_hotkey": single_hotkey,
        },
        actions={"hotkeys": tuple(metrics.hotkeys)},
    )


def rule_block_size_adaptation(
    metrics: LogMetrics, thresholds: Thresholds
) -> Recommendation | None:
    """Section 6.1.3: recommend when Bsize_avg deviates from Tr by Bt (60%).

    Table 1's formal condition is vacuous as printed: it does not tell a
    run whose blocks fit the rate from one whose blocks do not, so the rule
    follows the section's prose and flags only an average block size
    outside ``Tr * (1 ± Bt)``.  Known divergence 2 in EXPERIMENTS.md
    records the Table 3 rows where this band stays silent because the
    block size already matches the rate.  The suggested setting follows
    Table 4: make ``min(Bcount, Tr * Btimeout)`` equal the derived
    transaction rate.
    """
    if metrics.tr <= 0:
        return None
    low = metrics.tr * (1.0 - thresholds.block_tolerance)
    high = metrics.tr * (1.0 + thresholds.block_tolerance)
    if low <= metrics.bsize_avg <= high:
        return None
    suggested = max(1, round(metrics.tr * metrics.btimeout))
    direction = "small" if metrics.bsize_avg < low else "large"
    return Recommendation(
        kind=OptimizationKind.BLOCK_SIZE_ADAPTATION,
        rationale=(
            f"average block size {metrics.bsize_avg:.0f} is too {direction} "
            f"for the derived rate {metrics.tr:.0f} TPS"
        ),
        evidence={
            "bsize_avg": metrics.bsize_avg,
            "tr": metrics.tr,
            "bcount": metrics.bcount,
            "btimeout": metrics.btimeout,
        },
        actions={"block_count": suggested},
    )


def rule_endorser_restructuring(
    metrics: LogMetrics, thresholds: Thresholds
) -> Recommendation | None:
    """Endorser bottlenecks: an org endorsing far more than its peers.

    ``fair_share`` mode (default, matching the paper's "we expect an even
    distribution of transactions to all endorsers"): flag orgs above
    ``(1 + Et)`` times the fair share.  ``absolute`` mode is Table 1
    verbatim: ``EDsig(e) > |TX| * Et``.  With the default ``Et = 0.5`` that
    flags every org under a Majority policy, where even a balanced org
    endorses more than half of all transactions; hence the default mode.
    """
    if not metrics.edsig_org:
        return None
    try:
        policy = parse_policy(metrics.endorsement_policy)
        policy_orgs = sorted(policy.organizations())
        min_endorsements = policy.min_endorsements()
    except Exception:
        policy_orgs = sorted(metrics.edsig_org)
        min_endorsements = 1
    total_endorsements = sum(metrics.edsig_org.values())
    n_orgs = max(1, len(policy_orgs))
    if thresholds.endorser_mode == "absolute":
        cut = metrics.total_transactions * thresholds.endorser_share
    else:
        cut = (total_endorsements / n_orgs) * (1.0 + thresholds.endorser_share)
    bottlenecks = {
        org: count for org, count in metrics.edsig_org.items() if count > cut
    }
    if not bottlenecks:
        return None
    suggested_policy = f"OutOf({min_endorsements},{','.join(policy_orgs)})"
    return Recommendation(
        kind=OptimizationKind.ENDORSER_RESTRUCTURING,
        rationale=(
            f"endorsement load imbalance: {sorted(bottlenecks)} endorse more "
            f"than {cut:.0f} transactions (policy {metrics.endorsement_policy})"
        ),
        evidence={
            "edsig_org": metrics.edsig_org,
            "bottleneck_orgs": sorted(bottlenecks),
            "threshold": cut,
        },
        actions={"policy": suggested_policy, "balance_selection": True},
    )


def rule_client_resource_boost(
    metrics: LogMetrics, thresholds: Thresholds
) -> Recommendation | None:
    """Table 1: IVsig(c) > |TX| * It, aggregated per organization."""
    cut = metrics.total_transactions * thresholds.invoker_share
    heavy = {
        org: count for org, count in metrics.ivsig_org.items() if count > cut
    }
    if not heavy:
        return None
    org = max(heavy, key=lambda name: heavy[name])
    return Recommendation(
        kind=OptimizationKind.CLIENT_RESOURCE_BOOST,
        rationale=(
            f"organization {org} invokes {heavy[org]} of "
            f"{metrics.total_transactions} transactions (> {cut:.0f})"
        ),
        evidence={"ivsig_org": metrics.ivsig_org, "heavy_orgs": sorted(heavy)},
        actions={"orgs": tuple(sorted(heavy)), "scale_factor": 2},
    )


#: All nine rules, in Figure 1's top-to-bottom order.
ALL_RULES: tuple[Rule, ...] = (
    rule_activity_reordering,
    rule_process_model_pruning,
    rule_transaction_rate_control,
    rule_delta_writes,
    rule_smart_contract_partitioning,
    rule_data_model_alteration,
    rule_block_size_adaptation,
    rule_endorser_restructuring,
    rule_client_resource_boost,
)


def evaluate_rules(
    metrics: LogMetrics, thresholds: Thresholds | None = None
) -> list[Recommendation]:
    """Run every rule; returns the recommendations that fired."""
    thresholds = thresholds or Thresholds()
    recommendations = []
    for rule in ALL_RULES:
        recommendation = rule(metrics, thresholds)
        if recommendation is not None:
            recommendations.append(recommendation)
    return recommendations
