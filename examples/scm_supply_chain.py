"""Supply chain management: process mining + pruning + reordering.

Reproduces the paper's running example (Sections 3 and 6.2): a product
lifecycle (pushASN -> ship -> queryASN -> unload) with manual errors and
randomly-timed side activities.  Shows how BlockOptR

1. derives the Figure 2 process model from the blockchain log,
2. detects the illogical paths (pruning) and the reorderable activities,
3. and how the redesigned runs behave (Figures 4 and 13).

    python examples/scm_supply_chain.py
"""

from repro import BlockOptR, run_workload
from repro.core import OptimizationKind as K, apply_recommendations
from repro.mining import model_diff
from repro.workloads import scm_workload
from repro.workloads.usecases import UseCaseSpec


def main() -> None:
    spec = UseCaseSpec(total_transactions=3000, seed=7)
    config, family, requests = scm_workload(spec)
    network, baseline = run_workload(config, family.deploy().contracts, requests)
    print(f"baseline: {baseline}\n")

    report = BlockOptR().analyze_network(network)

    # Figure 2: the process model mined from the ledger.
    print("derived process model (Figure 2), most frequent path:")
    print("  " + " -> ".join(report.dfg.most_frequent_path()))
    print(f"case attribute: {report.event_log.derivation.attribute} "
          f"({report.event_log.derivation.distinct_values} products)\n")

    print("recommendations:")
    for rec in report.recommendations:
        print(f"  {rec.describe()}")
    print()

    # Pruning: the smart contract aborts illogical transitions at endorsement.
    pruned = apply_recommendations(
        [report.get(K.PROCESS_MODEL_PRUNING)], config, family, requests
    )
    _, pruned_result = run_workload(
        pruned.config, pruned.deployment.contracts, pruned.requests
    )
    print(f"with pruning:    {pruned_result} "
          f"({pruned_result.early_aborts} anomalous txs aborted early)")

    # Reordering: the conflicting side activities move out of the main flow.
    reordered = apply_recommendations(
        [report.get(K.ACTIVITY_REORDERING)], config, family, requests
    )
    network2, reordered_result = run_workload(
        reordered.config, reordered.deployment.contracts, reordered.requests
    )
    print(f"with reordering: {reordered_result}")

    # Figure 4: the new log confirms adherence to the redesigned model.
    after = BlockOptR().analyze_network(network2)
    diff = model_diff(report.footprint, after.footprint)
    print(f"\nprocess model changed: {len(diff.changed_relations)} relation(s) "
          f"differ; footprint conformance {diff.conformance:.2f}")
    moved = report.get(K.ACTIVITY_REORDERING).actions["front"]
    print(f"activities moved out of the main flow: {', '.join(moved)}")


if __name__ == "__main__":
    main()
