"""The paper's claims as data, checked against suite outcomes.

Each shape of the paper's evaluation (which recommendations fire in
Table 3, which optimizations help in Figures 7-19) is one :class:`Claim`.
``python -m repro suite`` and ``scripts/generate_experiments_md.py`` call
:func:`check_claims` on the outcomes they already have, so a warm cache
checks every claim without simulating.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from statistics import mean
from typing import Sequence

from repro.bench.experiments import SCALE_TXS, TABLE3_EXPECTED
from repro.bench.harness import ExperimentOutcome
from repro.bench.registry import ExperimentSpec, select


@dataclass(frozen=True)
class Claim:
    """One shape of the paper's evaluation, as a row of data.

    A row claim compares ``row``'s ``metric`` with the ``ref`` row's metric
    times ``factor`` plus ``offset`` (at least ``floor``), or with ``ref``
    itself when it is a number.  A kind claim checks ``kind`` against
    BlockOptR's recommendations (``"primary"``: the :data:`PRIMARY` kind).
    ``mean_jaccard`` is the mean Table 3 agreement over the experiments.
    A claim holds on all but ``misses`` experiments.  ``min_txs`` is the
    smallest budget of 800 / 2,000 / 4,000 from which it holds.
    """

    name: str
    #: The covered experiments, as ``repro suite --only`` tokens.
    experiments: str
    op: str
    row: str = ""
    metric: str = "success_pct"
    ref: str | float = "without"
    factor: float = 1.0
    offset: float = 0.0
    floor: float = float("-inf")
    kind: str = ""
    misses: int = 0
    min_txs: int = 800


OPS = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "in": lambda kind, recommended: kind in recommended,
    "not in": lambda kind, recommended: kind not in recommended,
}

#: The recommendation that defines each Table 3 experiment's figure
#: placement.  ``send_rate_50`` has none: it is a healthy run, for which
#: the paper still lists reordering.
PRIMARY: dict[str, str] = {
    "endorsement_policy_p1": "endorser_restructuring",
    "endorsement_policy_p2_skew": "endorser_restructuring",
    "num_orgs_4": "transaction_rate_control",
    "workload_read_heavy": "activity_reordering",
    "workload_update_heavy": "transaction_rate_control",
    "workload_insert_heavy": "activity_reordering",
    "workload_rangeread_heavy": "transaction_rate_control",
    "key_dist_skew_2": "smart_contract_partitioning",
    "block_count_50": "transaction_rate_control",
    "block_count_300": "activity_reordering",
    "block_count_1000": "activity_reordering",
    "send_rate_300": "activity_reordering",
    "send_rate_1000": "transaction_rate_control",
    "tx_dist_skew_70": "client_resource_boost",
}

_ENDORSE = "endorser restructuring"
_BOOST = "client resource boost"
_BLOCK = "block size adaptation"
_RATE = "transaction rate control"
_REORDER = "activity reordering"
_PRUNE = "process model pruning"
_ALTER = "data model alteration"
_DELTA = "delta writes"
_BLOCK_50 = "fig09_block_size/block_count_50"
_BLOCK_100 = "fig09_block_size/block_count_100"
_HIGH_RATES = "fig09_block_size/send_rate_1000,fig09_block_size/send_rate_500_1000"
_POLICIES = (
    "fig18_fabricsharp/endorsement_policy_p1,fig18_fabricsharp/endorsement_policy_p2_skew"
)

CLAIMS: tuple[Claim, ...] = (
    Claim("table3 primary recommendation (2 misses)", "table3", "in", kind="primary",
          misses=2, min_txs=2000),
    Claim("table3 mean Jaccard above 0.5", "table3", ">", metric="mean_jaccard", ref=0.5),
    Claim("fig07 restructuring raises throughput", "fig07", ">", _ENDORSE, "throughput"),
    Claim("fig07 restructuring cuts latency", "fig07", "<", _ENDORSE, "latency"),
    Claim("fig07 restructuring recommended", "fig07", "in", kind="endorser_restructuring"),
    Claim("fig08 boost cuts latency", "fig08", "<", _BOOST, "latency"),
    Claim("fig08 boost keeps success", "fig08", ">=", _BOOST, min_txs=4000),
    Claim("fig08 boost recommended", "fig08", "in", kind="client_resource_boost"),
    Claim("fig09 block_count_50 throughput x1.5", _BLOCK_50, ">", _BLOCK, "throughput",
          factor=1.5),
    Claim("fig09 block_count_50 success rises", _BLOCK_50, ">", _BLOCK, min_txs=2000),
    Claim("fig09 block_count_100 throughput rises", _BLOCK_100, ">", _BLOCK, "throughput",
          min_txs=2000),
    Claim("fig09 block_count_100 success -2 pp", _BLOCK_100, ">", _BLOCK, offset=-2.0,
          min_txs=2000),
    Claim("fig09 adaptation recommended", f"{_BLOCK_50},{_BLOCK_100}", "in",
          kind="block_size_adaptation"),
    Claim("fig09 high-rate success x0.9", _HIGH_RATES, ">=", _BLOCK, factor=0.9),
    Claim("fig10 throughput capped (max(without, 110))", "fig10", "<=", _RATE,
          "throughput", floor=110.0),
    Claim("fig10 success rises (1 miss)", "fig10", ">", _RATE, misses=1),
    Claim("fig10 latency falls (1 miss)", "fig10", "<", _RATE, "latency", misses=1),
    Claim("fig11 success kept (-2 pp)", "fig11", ">=", _REORDER, offset=-2.0),
    Claim("fig11 success rises (4 misses)", "fig11", ">", _REORDER, misses=4),
    Claim("fig12 success kept", "fig12", ">=", "all"),
    Claim("fig12 block_count_50 success +20 pp", "fig12_combined/block_count_50", ">",
          "all", offset=20.0, min_txs=2000),
    Claim("fig13 reordering raises success", "fig13", ">", _REORDER),
    Claim("fig13 reordering raises throughput", "fig13", ">", _REORDER, "throughput"),
    Claim("fig13 pruning keeps success", "fig13", ">=", _PRUNE),
    Claim("fig13 rate control raises success", "fig13", ">", _RATE),
    Claim("fig13 rate control cuts latency", "fig13", "<", _RATE, "latency"),
    Claim("fig13 combination raises success", "fig13", ">", "all"),
    Claim("fig13 reordering recommended", "fig13", "in", kind="activity_reordering"),
    Claim("fig13 pruning recommended", "fig13", "in", kind="process_model_pruning"),
    Claim("fig14 delta writes raise success x1.5", "fig14", ">", _DELTA, factor=1.5),
    Claim("fig14 delta writes raise latency", "fig14", ">", _DELTA, "latency"),
    Claim("fig14 reordering raises success", "fig14", ">", _REORDER),
    Claim("fig14 partitioning raises success", "fig14", ">", "smart contract partitioning"),
    Claim("fig14 combination raises success x2", "fig14", ">", "all", factor=2.0),
    Claim("fig14 delta writes recommended", "fig14", "in", kind="delta_writes"),
    Claim("fig14 partitioning recommended", "fig14", "in",
          kind="smart_contract_partitioning"),
    Claim("fig15 reordering raises success", "fig15", ">", _REORDER),
    Claim("fig15 rate control raises success", "fig15", ">", _RATE),
    Claim("fig15 rate control cuts latency", "fig15", "<", _RATE, "latency"),
    Claim("fig15 pruning keeps success", "fig15", ">=", _PRUNE),
    Claim("fig15 combination raises success", "fig15", ">", "all"),
    Claim("fig15 reordering recommended", "fig15", "in", kind="activity_reordering"),
    Claim("fig15 pruning recommended", "fig15", "in", kind="process_model_pruning"),
    Claim("fig15 rate control recommended", "fig15", "in", kind="transaction_rate_control"),
    Claim("fig16 alteration reaches 99% success", "fig16", ">=", _ALTER, ref=99.0),
    Claim("fig16 alteration throughput x2", "fig16", ">", _ALTER, "throughput", factor=2.0),
    Claim("fig16 combination reaches 99% success", "fig16", ">=", "all", ref=99.0),
    Claim("fig16 rate control keeps success", "fig16", ">=", _RATE),
    Claim("fig16 alteration recommended", "fig16", "in", kind="data_model_alteration"),
    Claim("fig16 partitioning not recommended", "fig16", "not in",
          kind="smart_contract_partitioning"),
    Claim("fig17 alteration raises success x1.3", "fig17", ">", _ALTER, factor=1.3),
    Claim("fig17 alteration raises throughput", "fig17", ">", _ALTER, "throughput"),
    Claim("fig17 alteration recommended at 10 TPS", "fig17_loan/send_rate_10", "in",
          kind="data_model_alteration", min_txs=2000),
    Claim("fig17 combination raises success at 300 TPS", "fig17_loan/send_rate_300", ">",
          "all"),
    Claim("fig18 restructuring keeps latency", _POLICIES, "<=", _ENDORSE, "latency"),
    Claim("fig18 restructuring keeps success (-2 pp)", _POLICIES, ">=", _ENDORSE,
          offset=-2.0),
    Claim("fig18 rate control raises insert-heavy success",
          "fig18_fabricsharp/workload_insert_heavy", ">", _RATE),
    Claim("fig19 rate control raises success", "fig19", ">", _RATE),
    Claim("fig19 rate control cuts latency", "fig19", "<", _RATE, "latency"),
    Claim("fig19 reordering keeps success (-2 pp)", "fig19", ">=", _REORDER, offset=-2.0),
    Claim("fig19 combination raises success", "fig19", ">", "all"),
)


@dataclass(frozen=True)
class Verdict:
    """What :func:`check_claims` concluded about one claim."""

    claim: Claim
    #: ``"holds"``, ``"fails"`` or ``"not checked"``.
    status: str
    #: The failed comparison: experiment, both sides and the operator.
    detail: str = ""


def jaccard(variant: str, recommendations: Sequence[str]) -> float:
    """Agreement of BlockOptR's recommendations with Table 3's row."""
    expected = {kind.value for kind in TABLE3_EXPECTED[variant]}
    union = expected | set(recommendations)
    return len(expected.intersection(recommendations)) / len(union) if union else 1.0


def _compared(claim: Claim, runs: list) -> list[tuple[str, object, object]]:
    """``(exp_id, left, right)`` for each comparison ``claim`` makes."""
    if claim.metric == "mean_jaccard":
        agreement = mean(jaccard(s.variant, o.recommendations) for s, o in runs)
        return [(claim.experiments, agreement, claim.ref)]
    compared = []
    for spec, outcome in runs:
        if claim.kind:
            left = PRIMARY.get(spec.variant) if claim.kind == "primary" else claim.kind
            if left is None:
                continue
            right = outcome.recommendations
        else:
            left = getattr(outcome.row(claim.row), claim.metric)
            right = claim.ref
            if isinstance(right, str):
                right = getattr(outcome.row(right), claim.metric) * claim.factor
                right = max(right + claim.offset, claim.floor)
        compared.append((spec.exp_id, left, right))
    return compared


def _show(value: object) -> str:
    return f"{value:.2f}" if isinstance(value, float) else str(value)


def _verdict(claim: Claim, covered: list[ExperimentSpec], runs: list) -> Verdict:
    pinned = {spec.exp_id: spec.seed for spec in covered}
    if (
        len(runs) < len(covered)
        or any(spec.seed != pinned[spec.exp_id] for spec, _ in runs)
        or min(spec.total_transactions or SCALE_TXS for spec, _ in runs) < claim.min_txs
    ):
        return Verdict(claim, "not checked")
    check = OPS[claim.op]
    missed = [sides for sides in _compared(claim, runs) if not check(*sides[1:])]
    if len(missed) <= claim.misses:
        return Verdict(claim, "holds")
    exp_id, left, right = missed[0]
    detail = f"{exp_id}: {_show(left)} {claim.op} {_show(right)} is false"
    if claim.misses:
        detail += f" ({len(missed)} misses, {claim.misses} allowed)"
    return Verdict(claim, "fails", detail)


def check_claims(
    specs: Sequence[ExperimentSpec], outcomes: Sequence[ExperimentOutcome]
) -> list[Verdict]:
    """A verdict for each claim covering any of ``specs`` (as run, in the
    order of ``outcomes``).  A claim is checked only when every experiment
    it covers ran at the registry's seed and a budget of at least its
    ``min_txs``."""
    ran = {spec.exp_id: (spec, outcome) for spec, outcome in zip(specs, outcomes)}
    verdicts = []
    for claim in CLAIMS:
        covered = select(claim.experiments.split(","))
        runs = [ran[spec.exp_id] for spec in covered if spec.exp_id in ran]
        if runs:
            verdicts.append(_verdict(claim, covered, runs))
    return verdicts


def report_lines(verdicts: Sequence[Verdict]) -> list[str]:
    """One line per failed claim, then the counts; nothing without verdicts."""
    if not verdicts:
        return []
    counts = Counter(verdict.status for verdict in verdicts)
    failed = [v for v in verdicts if v.status == "fails"]
    return [f"claim failed: {v.claim.name}: {v.detail}" for v in failed] + [
        f"claims: {counts['holds']} hold, {counts['fails']} fail, "
        f"{counts['not checked']} not checked"
    ]
