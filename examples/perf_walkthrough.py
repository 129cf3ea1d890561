"""End-to-end walkthrough: author a scenario, run the suite, benchmark it.

This is the runnable companion to ``docs/WALKTHROUGH.md``.  It goes
through the whole loop a contributor touches:

1. author a :class:`~repro.scenario.spec.ScenarioSpec` in code (and show
   its JSON form, which ``python -m repro scenario --spec`` accepts);
2. run the same workload steady-state and under the scenario, comparing
   headline numbers;
3. run a registry experiment through the cached suite executor twice,
   showing the warm re-run costs zero simulation runs;
4. run the repository benchmark's sharded workload once and read its
   verdict line (every output checked against its pinned digest).

Run with:  PYTHONPATH=src python examples/perf_walkthrough.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.bench.cache import ResultCache
from repro.bench.executor import run_suite
from repro.bench.experiments import make_scenario, make_synthetic
from repro.bench.registry import select
from repro.fabric.network import run_workload
from repro.scenario import ScenarioSpec
from repro.scenario.spec import Intervention

TXS = 800
REPO_ROOT = Path(__file__).resolve().parent.parent


def step_1_author_scenario() -> ScenarioSpec:
    """A mid-run endorser brownout followed by an arrival burst."""
    scenario = ScenarioSpec(
        name="walkthrough_brownout",
        description="Org1 endorsers slow 6x mid-run, then a 2x arrival burst",
        interventions=(
            Intervention(
                kind="endorser_slowdown", at=1.5, duration=4.0, target="Org1", factor=6.0
            ),
            Intervention(kind="burst_arrivals", at=3.0, duration=2.5, factor=2.0),
        ),
    )
    print("=== 1. authored scenario (JSON, usable with `repro scenario --spec`) ===")
    print(scenario.to_json())
    return scenario


def step_2_run_scenario(scenario: ScenarioSpec) -> None:
    """Steady-state vs under-scenario headline numbers."""
    print("\n=== 2. steady-state vs under scenario ===")
    config, family, requests = make_synthetic(
        "default", seed=7, total_transactions=TXS
    )()
    _, steady = run_workload(config, family.deploy().contracts, requests)

    # A fresh bundle from the same seed: the same workload, now under faults
    # (the scenario rides on the bundle's config).
    config, family, requests = make_scenario(
        "default", scenario, seed=7, total_transactions=TXS
    )()
    network, faulted = run_workload(config, family.deploy().contracts, requests)

    print(f"{'run':<16}{'tput(tps)':>10}{'lat(s)':>8}{'success%':>10}")
    for label, result in (("steady-state", steady), ("under scenario", faulted)):
        row = result.summary_row()
        print(
            f"{label:<16}{row['success_throughput_tps']:>10}"
            f"{row['avg_latency_s']:>8}{row['success_rate_pct']:>10}"
        )
    print("applied timeline:")
    for at, kind, detail in sorted(network.scenario_engine.timeline):
        print(f"  {at:8.3f}s  {kind:<24} {detail}")


def step_3_suite_with_cache(cache_dir: Path) -> None:
    """One registry experiment, cold then warm (cached) execution."""
    print("\n=== 3. suite executor + result cache ===")
    specs = [
        spec.with_overrides(total_transactions=TXS)
        for spec in select(["scenario_faults/crash_burst"])
    ]
    cache = ResultCache(cache_dir)
    cold = run_suite(specs, jobs=1, cache=cache)
    print(f"cold: {cold.summary()}")
    warm = run_suite(specs, jobs=1, cache=cache)
    print(f"warm: {warm.summary()}")
    assert warm.simulated_runs == 0, "warm cache must not simulate"
    for outcome in warm.outcomes:
        for row in outcome.rows:
            print(
                f"  {row.label:<24} tput={row.throughput:<7} "
                f"lat={row.latency:<6} success={row.success_pct}%"
            )


def step_4_benchmark() -> None:
    """One pass of the repository benchmark's sharded workload."""
    print("\n=== 4. repository benchmark (perfbench) ===")
    command = "perfbench/run.py --workload sharded_stream --seconds 1 --trace 0".split()
    print("$ python3 " + " ".join(command))
    output = subprocess.run(
        [sys.executable, *command],
        cwd=REPO_ROOT,
        check=True,
        capture_output=True,
        text=True,
    ).stdout.splitlines()
    print("\n".join(output[:-1]))
    verdict = json.loads(output[-1])
    print(
        f"verdict: correct={verdict['correct']} "
        f"attempted={verdict['attempted']} failed={verdict['failed']}"
    )


def main() -> None:
    """Run all four walkthrough steps (the suite cache in a temporary directory)."""
    scenario = step_1_author_scenario()
    step_2_run_scenario(scenario)
    with tempfile.TemporaryDirectory(prefix="repro-walkthrough-") as tmp:
        step_3_suite_with_cache(Path(tmp) / "cache")
    step_4_benchmark()
    print("\nwalkthrough complete.")


if __name__ == "__main__":
    main()
