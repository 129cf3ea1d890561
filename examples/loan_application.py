"""Loan application process: replaying a real-world-shaped event log.

Reproduces the paper's LAP experiment (Figure 17): a BPI-2017-shaped loan
event log is replayed as blockchain transactions, the first-cut contract
keys everything by employeeID, and BlockOptR pinpoints employee 1's key as
the single hotkey — recommending a data model alteration that re-keys by
applicationID.

    python examples/loan_application.py
"""

from repro import BlockOptR, run_workload
from repro.core import OptimizationKind as K, apply_recommendations, render_report
from repro.workloads import generate_loan_event_log, loan_workload
from repro.workloads.usecases import UseCaseSpec


def main() -> None:
    events = generate_loan_event_log(num_applications=400, seed=7)
    print(f"synthesized loan event log: {len(events)} events, "
          f"{len({e.application_id for e in events})} applications")

    config, family, requests = loan_workload(
        UseCaseSpec(seed=7), events=events, send_rate=10.0
    )
    network, baseline = run_workload(config, family.deploy().contracts, requests)
    print(f"baseline (employee-keyed): {baseline}\n")

    report = BlockOptR().analyze_network(network)
    print(render_report(report, include_model=False))
    print()

    applied = apply_recommendations(
        [report.get(K.DATA_MODEL_ALTERATION)], config, family, requests
    )
    _, altered = run_workload(
        applied.config, applied.deployment.contracts, applied.requests
    )
    print(f"altered (application-keyed): {altered}")

    # The derived process model still shows the loan flow.
    print("\nmined loan process (most frequent path):")
    print("  " + " -> ".join(report.dfg.most_frequent_path()))


if __name__ == "__main__":
    main()
