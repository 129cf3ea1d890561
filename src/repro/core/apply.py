"""Optimization implementation (paper Table 4 / Figure 6).

Applies recommended optimizations to an experiment's three ingredients —
network configuration, contract deployment, workload — producing new ones
to re-run:

| Recommendation                | Setting (Table 4)                          |
|-------------------------------|--------------------------------------------|
| Activity reordering           | reorder workload generation                |
| Transaction rate control      | set send rate to 100 TPS                   |
| Process model pruning         | update smart contract (variant swap)       |
| Delta writes                  | update smart contract (variant swap)       |
| Smart contract partitioning   | update smart contract (variant swap + routing) |
| Data model alteration         | update smart contract (variant swap)       |
| Block size adaptation         | set block count to derived transaction rate |
| Endorser restructuring        | set endorsement policy to OutOf(m, all orgs) |
| Client resource boost         | double clients for the recommended org     |
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.contracts.registry import ContractDeployment, ContractFamily
from repro.core.recommendations import OptimizationKind, Recommendation
from repro.fabric.config import NetworkConfig
from repro.fabric.transaction import TxRequest
from repro.workloads.schedule import cap_rate, reorder_requests

#: Recommendations implemented by swapping in a contract variant.
_CONTRACT_SWAPS = (
    OptimizationKind.PROCESS_MODEL_PRUNING,
    OptimizationKind.DELTA_WRITES,
    OptimizationKind.SMART_CONTRACT_PARTITIONING,
    OptimizationKind.DATA_MODEL_ALTERATION,
)


@dataclass
class ApplyResult:
    """Outcome of applying a set of recommendations."""

    config: NetworkConfig
    deployment: ContractDeployment
    requests: list[TxRequest]
    applied: list[OptimizationKind] = field(default_factory=list)
    #: Recommendations that could not be applied (e.g. no contract variant:
    #: the paper could not redesign the synthetic contract either).
    skipped: list[OptimizationKind] = field(default_factory=list)


def apply_recommendations(
    recommendations: list[Recommendation],
    config: NetworkConfig,
    family: ContractFamily,
    requests: list[TxRequest],
) -> ApplyResult:
    """Apply ``recommendations``.

    Contract-variant swaps conflict with one another (one deployment),
    so at most one swap is applied per call — the first in Table 1 order.
    """
    new_config = config.copy()
    deployment = family.deploy()
    new_requests = list(requests)
    applied: list[OptimizationKind] = []
    skipped: list[OptimizationKind] = []

    swap_done = False
    for rec in recommendations:
        kind = rec.kind
        if kind is OptimizationKind.ACTIVITY_REORDERING:
            new_requests = reorder_requests(
                new_requests,
                front_activities=set(rec.actions.get("front", ())),
                back_activities=set(rec.actions.get("back", ())),
            )
            applied.append(kind)
        elif kind is OptimizationKind.TRANSACTION_RATE_CONTROL:
            new_requests = cap_rate(new_requests, float(rec.actions["target_rate"]))
            applied.append(kind)
        elif kind in _CONTRACT_SWAPS:
            if swap_done or not family.supports(kind.value):
                skipped.append(kind)
                continue
            deployment = family.deploy(kind.value)
            swap_done = True
            applied.append(kind)
        elif kind is OptimizationKind.BLOCK_SIZE_ADAPTATION:
            # Through the shared bounded-actuation envelope: a runaway
            # rule (or hand-written recommendation) clamps instead of
            # writing a value that violates NetworkConfig invariants.
            from repro.control.bounds import clamp_actuation

            new_config.block_count, _ = clamp_actuation(
                "block_count", float(rec.actions["block_count"])
            )
            applied.append(kind)
        elif kind is OptimizationKind.ENDORSER_RESTRUCTURING:
            new_config.endorsement_policy = str(rec.actions["policy"])
            if rec.actions.get("balance_selection", True):
                new_config.endorser_selection_skew = 0.0
            applied.append(kind)
        elif kind is OptimizationKind.CLIENT_RESOURCE_BOOST:
            factor = int(rec.actions.get("scale_factor", 2))
            for org_name in rec.actions.get("orgs", ()):
                new_config.org(org_name).num_clients *= factor
            applied.append(kind)
        else:  # pragma: no cover - future kinds
            skipped.append(kind)

    # Re-validate every invariant in one step: mutations above bypass the
    # dataclass constructor, so a bad combination must fail here, not
    # deep inside a simulation run.
    new_config.__post_init__()
    if deployment.routing:
        new_requests = _reroute(new_requests, deployment)
    return ApplyResult(
        config=new_config,
        deployment=deployment,
        requests=new_requests,
        applied=applied,
        skipped=skipped,
    )


def _reroute(
    requests: list[TxRequest], deployment: ContractDeployment
) -> list[TxRequest]:
    """Point requests at the contracts of a partitioned deployment."""
    known = {contract.name for contract in deployment.contracts}
    rerouted = []
    for request in requests:
        target = deployment.routing.get(request.activity, request.contract)
        if target not in known:
            raise ValueError(
                f"activity {request.activity!r} routes to unknown contract {target!r}"
            )
        rerouted.append(
            TxRequest(
                submit_time=request.submit_time,
                activity=request.activity,
                args=request.args,
                contract=target,
                invoker_org=request.invoker_org,
            )
        )
    return rerouted
