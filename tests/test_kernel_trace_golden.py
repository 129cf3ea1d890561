"""The kernel's event trace, pinned across commits.

The determinism tests compare two runs of the *same* code, so a refactor
that reorders events passes them as long as no outcome digest moves.
This golden pins the ``(time, priority, seq)`` trace itself — a sha256
over every fired event, one sha256 per :data:`CHUNK` events, plus the
event count — for three runs that between them reach every kernel lane
and every pipeline path:

* the ``default`` synthetic workload (the plain execute-order-validate
  pipeline);
* ``failure_forensics/partial_outage__early_abort_retry`` (interventions,
  early aborts at packaging, retries and block timeouts);
* ``slo_guardian/crash_burst__guardian`` (the control lane and admission
  pacing).

A mismatch names the first divergent chunk and its event range.  To see
the event itself, run the pinned runs on this tree and on another
checkout's ``src`` and print the first differing ``(time, priority,
seq)`` with each side's callback ``__qualname__``::

    PYTHONPATH=src python tests/test_kernel_trace_golden.py --diff OTHER/src

The other side runs this file's ``_run`` on ``OTHER/src``, so both trees
must build runs the same way: a ``(config, family, requests)`` bundle
whose config carries its scenario.  Across a change to that shape,
compare against the pinned golden instead.

Regenerate after an intentional change to event order::

    PYTHONPATH=src python tests/test_kernel_trace_golden.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import struct
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

import pytest

if __name__ == "__main__" and "--src" in sys.argv:
    # ``--dump --src DIR``: the other side of ``--diff`` imports DIR's code.
    sys.path.insert(0, sys.argv[sys.argv.index("--src") + 1])
else:
    sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from repro.bench.experiments import make_synthetic
from repro.bench.registry import get
from repro.fabric.network import FabricNetwork
from repro.sim.kernel import Kernel

GOLDEN_PATH = Path(__file__).parent / "golden" / "kernel_trace.json"

#: ``name -> transactions``; a name with a ``/`` is a registry
#: experiment, anything else a synthetic workload at the default seed.
RUNS = {
    "default": 2000,
    "failure_forensics/partial_outage__early_abort_retry": 800,
    "slo_guardian/crash_burst__guardian": 800,
}

#: Events per chunk hash.
CHUNK = 1000


def _bundle(name: str, total: int) -> tuple:
    if "/" in name:
        return get(name).with_overrides(total_transactions=total).make_bundle()()
    return make_synthetic(name, total_transactions=total)()


def _run(name: str, total: int) -> tuple[FabricNetwork, list]:
    config, family, requests = _bundle(name, total)
    network = FabricNetwork(config, family.deploy().contracts)
    trace = network.kernel.enable_trace()
    network.run(requests)
    return network, trace


def _sha256(events) -> str:
    digest = hashlib.sha256()
    for time, priority, seq in events:
        digest.update(struct.pack("<dqq", time, priority, seq))
    return digest.hexdigest()


def trace_record(name: str, total: int) -> dict:
    """Run ``name`` at ``total`` transactions and hash its event trace."""
    network, trace = _run(name, total)
    return {
        "transactions": total,
        "events": len(trace),
        "events_processed": network.kernel.events_processed,
        "trace_sha256": _sha256(trace),
        "chunk_sha256": [
            _sha256(trace[at : at + CHUNK]) for at in range(0, len(trace), CHUNK)
        ],
    }


def first_divergent_chunk(got: dict, want: dict) -> str:
    """Where two records of one run first differ, as a chunk and event range."""
    pairs = zip_longest(got["chunk_sha256"], want.get("chunk_sha256", []))
    for index, (ours, theirs) in enumerate(pairs):
        if ours != theirs:
            first, last = index * CHUNK, (index + 1) * CHUNK - 1
            return f"first divergent chunk {index}: events {first}-{last}"
    return "every chunk matches"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_kernel_trace_matches_golden(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    record = trace_record(name, RUNS[name])
    assert record == golden[name], (
        f"{name}: the kernel event trace diverged from {GOLDEN_PATH.name} "
        f"({first_divergent_chunk(record, golden[name])}); if the reordering "
        "is intentional, regenerate with "
        "`python tests/test_kernel_trace_golden.py --regenerate`"
    )


def test_golden_covers_exactly_the_pinned_runs():
    assert sorted(json.loads(GOLDEN_PATH.read_text())) == sorted(RUNS)


def test_first_divergent_chunk_names_the_event_range():
    record = {"chunk_sha256": ["a", "b", "c"]}
    assert first_divergent_chunk(record, record) == "every chunk matches"
    assert first_divergent_chunk(record, {"chunk_sha256": ["a", "x", "c"]}) == (
        "first divergent chunk 1: events 1000-1999"
    )
    assert first_divergent_chunk(record, {"chunk_sha256": ["a", "b"]}) == (
        "first divergent chunk 2: events 2000-2999"
    )


def named_trace(name: str, total: int) -> list[tuple[float, int, int, str]]:
    """Every fired event of one pinned run, with its callback's qualname."""
    names: dict[int, str] = {}
    schedule = Kernel.schedule

    def recording(kernel, time, action, priority=0):
        names[kernel._next_seq] = getattr(action, "__qualname__", type(action).__qualname__)
        schedule(kernel, time, action, priority)

    Kernel.schedule = recording
    try:
        _, trace = _run(name, total)
    finally:
        Kernel.schedule = schedule
    return [(time, priority, seq, names[seq]) for time, priority, seq in trace]


def diff(other_src: str) -> int:
    """Print where each pinned run's trace first differs from ``other_src``'s."""
    dumped = subprocess.run(
        [sys.executable, __file__, "--dump", "--src", other_src],
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    theirs = json.loads(dumped)
    differing = 0
    for name, total in RUNS.items():
        ours = named_trace(name, total)
        other = [tuple(event) for event in theirs[name]]
        print(f"{name}: {len(ours)} events here, {len(other)} in {other_src}")
        for index, (mine, their) in enumerate(zip_longest(ours, other)):
            if mine is None or their is None or mine[:3] != their[:3]:
                differing += 1
                print(f"  first difference at event {index} (chunk {index // CHUNK}):")
                print(f"    here:  {mine}")
                print(f"    there: {their}")
                break
        else:
            print("  identical")
    return 1 if differing else 0


def regenerate() -> None:
    records = {name: trace_record(name, total) for name, total in RUNS.items()}
    GOLDEN_PATH.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        regenerate()
    elif "--dump" in sys.argv:
        print(json.dumps({name: named_trace(name, total) for name, total in RUNS.items()}))
    elif "--diff" in sys.argv:
        sys.exit(diff(sys.argv[sys.argv.index("--diff") + 1]))
    else:
        sys.exit(pytest.main([__file__, "-q"]))
