"""Quickstart: simulate a workload, get recommendations, apply, re-run.

Runs the paper's synthetic genChain workload at 300 TPS on a simulated
2-org Fabric network, analyzes the ledger with BlockOptR, prints the
recommendation report, applies everything that was recommended, and shows
the before/after numbers.

    python examples/quickstart.py
"""

from repro import BlockOptR, run_workload
from repro.core import apply_recommendations, render_report
from repro.workloads import ControlVariables, synthetic_workload


def main() -> None:
    # 1. Describe the experiment with the paper's Table 2 control variables.
    spec = ControlVariables(total_transactions=3000, send_rate=300.0, seed=7)
    config, family, requests = synthetic_workload(spec)

    # 2. Execute the workload on a fresh simulated Fabric network.
    network, baseline = run_workload(config, family.deploy().contracts, requests)
    print(f"baseline: {baseline}\n")

    # 3. BlockOptR reads the ledger and derives recommendations (Figure 5).
    report = BlockOptR().analyze_network(network)
    print(render_report(report))
    print()

    # 4. Apply the recommended optimizations (Table 4 settings) and re-run.
    applied = apply_recommendations(report.recommendations, config, family, requests)
    _, optimized = run_workload(
        applied.config, applied.deployment.contracts, applied.requests
    )
    print(f"applied: {[kind.value for kind in applied.applied]}")
    print(f"optimized: {optimized}")
    improvement = (optimized.success_rate - baseline.success_rate) * 100
    print(f"success rate: {baseline.success_rate:.1%} -> "
          f"{optimized.success_rate:.1%} ({improvement:+.1f} points)")


if __name__ == "__main__":
    main()
