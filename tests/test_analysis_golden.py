"""Golden-file regression test for BlockOptR's analysis of the use-case logs.

Pins, per use case (scm, drm, ehr, voting and loan at 600 transactions,
seed 7), everything one ``BlockOptR.analyze_log`` pass derives, through
both ways a run reaches it: ``analyze_network`` (the kept chain read
block by block through a ``ChainLog``) and ``analyze_log`` of the listed
``extract_blockchain_log``.  Both must match the one golden file:

* the ``render_report(..., include_insights=True)`` text;
* a digest of the whole :class:`~repro.core.metrics.LogMetrics`, with
  every first-seen-order dict in its order and the per-key dicts (whose
  order follows ``PYTHONHASHSEED``) sorted;
* a digest of the event log (every field of every event, in order, plus
  the CaseID derivation);
* a digest of the directly-follows graph's counts.

The benchmark's pins cover only the recommendation kinds and headline
counts, so this file is what holds a rewrite of the metrics, event-log or
mining code to the exact outputs of the code it replaced.  CI also runs
it under two fixed hash seeds, so an order that leaks from a set into the
report fails every time, not only under some seeds.

Regenerate deliberately after an intended behaviour change:

    PYTHONPATH=src python tests/test_analysis_golden.py --regenerate
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import sys
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).parent / "golden" / "analysis__usecases.json"

USECASES = ("scm", "drm", "ehr", "voting", "loan")
GOLDEN_TXS = 600
GOLDEN_SEED = 7

#: LogMetrics fields keyed by state key: their order follows frozenset
#: iteration of each record's read-write keys, so the digest sorts them.
PER_KEY_FIELDS = ("kfreq", "ksig", "ksig_failed", "key_failed_activities")


def _plain(value):
    """JSON form that keeps every dict's order (as ``[key, value]`` pairs)."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, dict):
        return [[_plain(key), _plain(item)] for key, item in value.items()]
    if dataclasses.is_dataclass(value):
        return [_plain(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def _digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


def canonical_metrics(metrics) -> dict:
    """Every LogMetrics field; per-key dicts sorted, the rest in order."""
    canonical = {}
    for f in dataclasses.fields(metrics):
        value = _plain(getattr(metrics, f.name))
        canonical[f.name] = sorted(value) if f.name in PER_KEY_FIELDS else value
    return canonical


def _compute(usecase: str, entry: str = "analyze_log") -> dict:
    from repro.bench.experiments import make_usecase
    from repro.core import BlockOptR, render_report
    from repro.fabric.network import run_workload
    from repro.logs import extract_blockchain_log

    config, family, requests = make_usecase(
        usecase, total_transactions=GOLDEN_TXS, seed=GOLDEN_SEED
    )()
    network, _ = run_workload(config, family.deploy().contracts, requests)
    if entry == "analyze_network":
        report = BlockOptR().analyze_network(network)
    else:
        report = BlockOptR().analyze_log(extract_blockchain_log(network))
    dfg = report.dfg
    return {
        "report": render_report(report, include_insights=True),
        "metrics": _digest(canonical_metrics(report.metrics)),
        "events": _digest(
            {
                "derivation": _plain(report.event_log.derivation),
                "events": _plain(list(report.event_log.events)),
            }
        ),
        "dfg": _digest(
            {
                name: sorted(_plain(getattr(dfg, name)))
                for name in (
                    "counts", "activity_counts", "start_activities", "end_activities"
                )
            }
        ),
    }


#: (use case, entry point) cases; the analyze_log ones keep bare use-case ids.
CASES = [pytest.param(usecase, "analyze_log", id=usecase) for usecase in USECASES] + [
    pytest.param(usecase, "analyze_network", id=f"{usecase}-analyze_network")
    for usecase in USECASES
]


@pytest.mark.parametrize("usecase, entry", CASES)
def test_analysis_matches_golden(usecase, entry):
    assert GOLDEN_PATH.is_file(), (
        f"missing golden file {GOLDEN_PATH}; regenerate with "
        f"`PYTHONPATH=src python tests/test_analysis_golden.py --regenerate`"
    )
    golden = json.loads(GOLDEN_PATH.read_text())["usecases"][usecase]
    measured = _compute(usecase, entry)
    assert measured["report"] == golden["report"]
    for part in ("metrics", "events", "dfg"):
        assert measured[part] == golden[part], (
            f"{usecase} through {entry}: the {part} digest drifted from "
            f"tests/golden — if the change is intended, regenerate"
        )


def regenerate() -> None:
    data = {
        "total_transactions": GOLDEN_TXS,
        "seed": GOLDEN_SEED,
        "usecases": {usecase: _compute(usecase) for usecase in USECASES},
    }
    GOLDEN_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        regenerate()
    else:
        print(__doc__)
