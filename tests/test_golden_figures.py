"""Golden-file regression tests for headline figure numbers.

Pins the exact headline numbers (throughput, latency, success%) of
representative experiments under the seed configs at a fixed 800-
transaction budget: ``fig07_endorser`` (endorser restructuring),
``fig09_block_size``, ``fig10_rate_control``, ``fig11_reordering``
(activity reordering), ``fig12_combined``, the Table 3 recommendation
sets, and one fault-injection scenario.  Any change to the simulator,
workload generation, scenario engine, recommender or apply pipeline that
shifts these numbers shows up as a diff against ``tests/golden/*.json``.

Regenerate deliberately after an intended behaviour change:

    PYTHONPATH=src python tests/test_golden_figures.py --regenerate
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Fixed budget: large enough for the paper's shapes (collapse, rate
#: control) to manifest, small enough for the tier-1 time budget.
GOLDEN_TXS = 800

GOLDEN_EXPERIMENTS = [
    "fig07_endorser/endorsement_policy_p1",
    "fig07_endorser/endorsement_policy_p2_skew",
    "fig09_block_size/block_count_50",
    "fig09_block_size/send_rate_1000",
    "fig10_rate_control/num_orgs_4",
    "fig10_rate_control/send_rate_500",
    "fig11_reordering/workload_insert_heavy",
    "fig11_reordering/key_dist_skew_2",
    "fig12_combined/block_count_50",
    "fig12_combined/tx_dist_skew_70",
    # Table 3: pins the *recommendation sets* (rows carry the baseline).
    "table3/key_dist_skew_2",
    "table3/tx_dist_skew_70",
    "table3/workload_rangeread_heavy",
    # The scenario engine: crash + burst under the default workload.
    "scenario_faults/crash_burst",
    # The forensics showcase scenario (every abort cause in one run).
    "scenario_faults/partial_outage",
]

#: Experiment whose full baseline forensics report is pinned verbatim
#: (tests/golden/forensics__*.json): the abort-cause taxonomy, hot keys,
#: per-org breakdown, bucket series and timeline of the partial outage.
FORENSICS_GOLDEN = "scenario_faults/partial_outage"


def _golden_path(exp_id: str) -> Path:
    return GOLDEN_DIR / (exp_id.replace("/", "__") + ".json")


def _compute(exp_id: str) -> dict:
    from repro.bench.cache import outcome_to_dict
    from repro.bench.executor import run_spec
    from repro.bench.registry import get

    spec = get(exp_id).with_overrides(total_transactions=GOLDEN_TXS)
    data = outcome_to_dict(run_spec(spec))
    # The row goldens pin headline numbers only; the forensics report has
    # its own golden file (see FORENSICS_GOLDEN), so the row files stay
    # byte-identical across the forensics feature.
    data.pop("forensics", None)
    data["exp_id"] = exp_id
    data["total_transactions"] = GOLDEN_TXS
    data["seed"] = spec.seed
    return data


def _forensics_path(exp_id: str) -> Path:
    return GOLDEN_DIR / ("forensics__" + exp_id.replace("/", "__") + ".json")


def _compute_forensics(exp_id: str) -> dict:
    """The baseline run's forensics report for ``exp_id`` at GOLDEN_TXS."""
    from repro.analysis import forensics_report
    from repro.bench.registry import get
    from repro.fabric.network import run_workload

    spec = get(exp_id).with_overrides(total_transactions=GOLDEN_TXS)
    config, family, requests = spec.make_bundle()()
    network, _ = run_workload(config, family.deploy().contracts, requests)
    return {
        "exp_id": exp_id,
        "total_transactions": GOLDEN_TXS,
        "seed": spec.seed,
        "report": forensics_report(network).to_dict(),
    }


def test_forensics_report_matches_golden():
    path = _forensics_path(FORENSICS_GOLDEN)
    assert path.is_file(), (
        f"missing golden forensics file {path}; regenerate with "
        f"`PYTHONPATH=src python tests/test_golden_figures.py --regenerate`"
    )
    golden = json.loads(path.read_text())
    measured = _compute_forensics(FORENSICS_GOLDEN)
    assert measured["report"] == golden["report"], (
        f"{FORENSICS_GOLDEN}: the forensics report drifted from "
        f"tests/golden — if the change is intended, regenerate"
    )
    # The acceptance bar: the pinned report attributes >= 4 abort causes.
    causes = [c for c, n in golden["report"]["cause_counts"].items() if n > 0]
    assert len(causes) >= 4


@pytest.mark.parametrize("exp_id", GOLDEN_EXPERIMENTS)
def test_headline_numbers_match_golden(exp_id):
    path = _golden_path(exp_id)
    assert path.is_file(), (
        f"missing golden file {path}; regenerate with "
        f"`PYTHONPATH=src python tests/test_golden_figures.py --regenerate`"
    )
    golden = json.loads(path.read_text())
    measured = _compute(exp_id)
    assert measured["rows"] == golden["rows"], (
        f"{exp_id}: headline numbers drifted from tests/golden — if the "
        f"change is intended, regenerate the golden files"
    )
    assert measured["recommendations"] == golden["recommendations"]


def regenerate() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for exp_id in GOLDEN_EXPERIMENTS:
        data = _compute(exp_id)
        path = _golden_path(exp_id)
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    data = _compute_forensics(FORENSICS_GOLDEN)
    path = _forensics_path(FORENSICS_GOLDEN)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        regenerate()
    else:
        print(__doc__)
