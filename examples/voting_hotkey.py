"""Digital voting: single-activity hotkeys and data model alteration.

Reproduces the paper's DV experiment (Figure 16): a voting burst at 300
TPS makes every ``party:<id>`` tally a hot key that only ``vote`` touches.
BlockOptR recommends *data model alteration*; re-keying votes by voterID
removes all transaction dependencies — success jumps to ~100%.

    python examples/voting_hotkey.py
"""

from repro import BlockOptR, run_workload
from repro.core import OptimizationKind as K, apply_recommendations
from repro.workloads import voting_workload
from repro.workloads.usecases import UseCaseSpec


def main() -> None:
    config, family, requests = voting_workload(
        UseCaseSpec(seed=7), query_count=400, vote_count=2000
    )
    network, baseline = run_workload(config, family.deploy().contracts, requests)
    print(f"baseline (party-keyed votes): {baseline}")

    report = BlockOptR().analyze_network(network)
    print(f"hotkeys: {report.metrics.hotkeys}")
    alteration = report.get(K.DATA_MODEL_ALTERATION)
    print(f"recommendation: {alteration.describe()}\n")

    applied = apply_recommendations([alteration], config, family, requests)
    network2, altered = run_workload(
        applied.config, applied.deployment.contracts, applied.requests
    )
    print(f"altered (voter-keyed votes):  {altered}")

    # The election result is identical either way — the data model changed,
    # not the semantics.
    state = network2.state_db.namespace("voting")
    tallies = {}
    for key in state.keys():
        if key.startswith("voter:"):
            choice = state.get(key).value
            tallies[choice] = tallies.get(choice, 0) + 1
    print(f"final tallies from voter records: {dict(sorted(tallies.items()))}")


if __name__ == "__main__":
    main()
