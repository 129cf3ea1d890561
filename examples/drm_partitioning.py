"""Digital rights management: hotkeys, delta writes, contract partitioning.

Reproduces the paper's DRM experiment (Figure 14): a Play-heavy workload
hammers per-track records, BlockOptR detects the hot music keys shared by
several functions, and two data-level redesigns fix it in different ways —
delta writes (blind writes to unique keys, aggregation in calcRevenue) and
smart contract partitioning (separate play-count and metadata world
states).

    python examples/drm_partitioning.py
"""

from repro import BlockOptR, run_workload
from repro.core import OptimizationKind as K, apply_recommendations
from repro.workloads import drm_workload
from repro.workloads.usecases import UseCaseSpec


def main() -> None:
    spec = UseCaseSpec(total_transactions=3000, seed=7)
    config, family, requests = drm_workload(spec)
    network, baseline = run_workload(config, family.deploy().contracts, requests)
    print(f"baseline: {baseline}\n")

    report = BlockOptR().analyze_network(network)
    metrics = report.metrics
    print(f"hotkeys detected: {metrics.hotkeys}")
    for key in metrics.hotkeys[:2]:
        activities = sorted(metrics.key_failed_activities.get(key, ()))
        print(f"  {key}: failing activities {activities} "
              f"({metrics.kfreq[key]} failed accesses)")
    print()

    # Delta writes: play becomes a blind write; calcRevenue aggregates.
    delta = apply_recommendations([report.get(K.DELTA_WRITES)], config, family, requests)
    _, delta_result = run_workload(delta.config, delta.deployment.contracts, delta.requests)
    print(f"delta writes:  {delta_result}")
    print("  note the higher latency — calcRevenue now aggregates the delta "
          "keys, as the paper observes.\n")

    # Partitioning: two contracts, two world states.
    partition = apply_recommendations(
        [report.get(K.SMART_CONTRACT_PARTITIONING)], config, family, requests
    )
    names = [contract.name for contract in partition.deployment.contracts]
    _, partition_result = run_workload(
        partition.config, partition.deployment.contracts, partition.requests
    )
    print(f"partitioning:  {partition_result}")
    print(f"  deployed contracts: {names}; metadata reads no longer conflict "
          "with play-count updates.")


if __name__ == "__main__":
    main()
