"""The kernel's event trace, pinned across commits.

The determinism tests compare two runs of the *same* code, so a refactor
that reorders events passes them as long as no outcome digest moves.
This golden pins the ``(time, priority, seq)`` trace itself — a sha256
over every fired event, plus the event count — for three runs that
between them reach every kernel lane and every pipeline path:

* the ``default`` synthetic workload (the plain execute-order-validate
  pipeline);
* ``failure_forensics/partial_outage__early_abort_retry`` (interventions,
  early aborts at packaging, retries and block timeouts);
* ``slo_guardian/crash_burst__guardian`` (the control lane and admission
  pacing).

Regenerate after an intentional change to event order::

    PYTHONPATH=src python tests/test_kernel_trace_golden.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from repro.bench.experiments import make_synthetic
from repro.bench.harness import unpack_bundle
from repro.bench.registry import get
from repro.fabric.network import FabricNetwork

GOLDEN_PATH = Path(__file__).parent / "golden" / "kernel_trace.json"

#: ``name -> transactions``; a name with a ``/`` is a registry
#: experiment, anything else a synthetic workload at the default seed.
RUNS = {
    "default": 2000,
    "failure_forensics/partial_outage__early_abort_retry": 800,
    "slo_guardian/crash_burst__guardian": 800,
}


def _bundle(name: str, total: int) -> tuple:
    if "/" in name:
        return get(name).with_overrides(total_transactions=total).make_bundle()()
    return make_synthetic(name, total_transactions=total)()


def trace_record(name: str, total: int) -> dict:
    """Run ``name`` at ``total`` transactions and hash its event trace."""
    config, family, requests, scenario = unpack_bundle(_bundle(name, total))
    network = FabricNetwork(config, family.deploy().contracts, scenario=scenario)
    trace = network.kernel.enable_trace()
    network.run(requests)
    digest = hashlib.sha256()
    for time, priority, seq in trace:
        digest.update(struct.pack("<dqq", time, priority, seq))
    return {
        "transactions": total,
        "events": len(trace),
        "events_processed": network.kernel.events_processed,
        "trace_sha256": digest.hexdigest(),
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_kernel_trace_matches_golden(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert trace_record(name, RUNS[name]) == golden[name], (
        f"{name}: the kernel event trace diverged from {GOLDEN_PATH.name}; if "
        "the reordering is intentional, regenerate with "
        "`python tests/test_kernel_trace_golden.py --regenerate`"
    )


def test_golden_covers_exactly_the_pinned_runs():
    assert sorted(json.loads(GOLDEN_PATH.read_text())) == sorted(RUNS)


def regenerate() -> None:
    records = {name: trace_record(name, total) for name, total in RUNS.items()}
    GOLDEN_PATH.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        regenerate()
    else:
        sys.exit(pytest.main([__file__, "-q"]))
