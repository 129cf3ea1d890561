"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload sharded_stream --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 1

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with no
tracing; ``--trace 1`` makes one untraced and one traced pass and reports
the per-layer metrics.  Every run of a workload happens in fresh
interpreters (``worker.py``); this process only spawns, checks and prints.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cases
from counters import STATIONS
from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = tuple(cases.WORKLOADS)
#: Extra set-up-only interpreters per untraced run; ``setup_s`` is the
#: median over them and the measured process.
SETUP_PROBES = 4
#: Wall-clock budget of one workload's run, children included.
BUDGET_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "sim_tx_per_s": "tx/s",
    "records_per_s": "records/s",
    "exp_p50_s": "s",
    "exp_p90_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
PAPER_UNITS = {
    "paper_success_gain_pp": "pp",
    "paper_latency_gain_pct": "%",
    "paper_success_err_pp": "pp",
}


class BenchError(RuntimeError):
    """A child process failed or timed out: the run has no result."""


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units.update(
        {
            "sim.events_per_tx": "events/tx",
            "sim.station_jobs_per_tx": "jobs/tx",
            "sim.cancelled_share": "share",
            "fabric.txs_per_block": "tx/block",
            "fabric.success_share": "share",
            "fabric.retries_per_tx": "retries/tx",
        }
    )
    for station in STATIONS:
        units[f"fabric.{station}.wait_s"] = "s"
    for name in (
        "workloads.requests", "contracts.invocations", "logs.records",
        "mining.cases", "mining.variants", "core.recommendations",
        "analysis.reports", "scenario.interventions", "control.ticks",
        "control.actuations", "bench.runs",
    ):  # fmt: skip
        units[name] = "count"
    units["trace.overhead_pct"] = "%"
    return units


def fingerprint() -> dict:
    """Where the timings come from: compare them only within one fingerprint."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "nproc": nproc,
    }


class Session:
    """One invocation: a scratch directory, a deadline, the child processes."""

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.deadline = 0.0
        self.work = HERE / ".work" / str(os.getpid())
        self.out = HERE / "out"

    def __enter__(self) -> "Session":
        self.work.mkdir(parents=True, exist_ok=True)
        self.out.mkdir(exist_ok=True)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def start_budget(self) -> None:
        """Give the next workload its own :data:`BUDGET_S`."""
        self.deadline = time.monotonic() + BUDGET_S

    def child(self, *args: str) -> None:
        """Run one worker to completion (killed and reaped on timeout)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted before a child started")
        try:
            done = subprocess.run(
                [sys.executable, str(WORKER), *args],
                cwd=ROOT,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker timed out: {' '.join(args[:3])}") from exc
        if done.returncode != 0:
            tail = "\n".join(done.stderr.strip().splitlines()[-15:])
            raise BenchError(f"worker failed ({done.returncode}): {args[:3]}\n{tail}")

    def measure(self, workload: str, mode: str, inputs: Path, passes=None) -> dict:
        out = self.work / f"{workload}-{mode}-{time.monotonic_ns()}.json"
        args = [
            "run", "--workload", workload, "--seed", str(self.seed),
            "--seconds", str(self.seconds), "--mode", mode,
            "--inputs", str(inputs), "--work", str(self.work), "--out", str(out),
        ]  # fmt: skip
        if passes is not None:
            args += ["--passes", str(passes)]
        if mode == "traced":
            args += ["--spans", str(self.out / f"spans-{workload}.npz")]
        args += ["--spawned-at", repr(time.monotonic())]
        self.child(*args)
        return json.loads(out.read_text())


def run_workload(session: Session, workload: str, trace: bool) -> dict:
    """Measure one workload; returns the printable result."""
    session.start_budget()
    inputs = session.work / "inputs"
    if workload == "analyze_logs":
        # Generated per invocation in its own process; charged to no metric.
        session.child("inputs", "--seed", str(session.seed), "--out", str(inputs))
    if trace:
        plain = session.measure(workload, "plain", inputs, passes=1)
        traced = session.measure(workload, "traced", inputs, passes=1)
        runs = [plain, traced]
    else:
        plain = session.measure(workload, "plain", inputs)
        probes = [session.measure(workload, "setup", inputs) for _ in range(SETUP_PROBES)]
        runs = [plain]
    check = check_outputs(workload, session.seed, runs)
    host = None
    if trace:
        metrics = layer_metrics(plain, traced)
    else:
        metrics = end_to_end_metrics(plain, [plain] + probes)
        host = host_speed(plain, [plain] + probes)
    first = plain["passes"][0]
    return {
        "workload": workload,
        "seed": session.seed,
        "trace": int(trace),
        "fingerprint": fingerprint(),
        "check": check,
        "metrics": metrics,
        "host": host,
        "paper": first.get("scores"),
        "counters": first["counters"],
        "passes": [len(run["passes"]) for run in runs],
        "skipped": sorted(set(plain.get("skipped", []) + (traced["skipped"] if trace else []))),
        "trace_detail": traced.get("trace") if trace else None,
    }


def check_outputs(workload: str, seed: int, runs: list[dict]) -> dict:
    """Digests against the pins (or, unpinned, against the first pass).

    Every operation counts as attempted; one that raised or whose digest
    differs counts as failed.  Counters and scores must also repeat
    exactly across passes and across the untraced and traced processes.
    """
    pins = json.loads((HERE / "pins.json").read_text()).get(workload, {})
    pinned = pins.get(str(seed))
    expected = dict(pinned or {})
    attempted = failed = 0
    problems = []
    for run in runs:
        for outcome in run["passes"]:
            for name, _, digest, error in outcome["ops"]:
                attempted += 1
                if error is not None:
                    failed += 1
                    problems.append(f"{name}: raised {error}")
                elif expected.setdefault(name, digest) != digest:
                    failed += 1
                    problems.append(f"{name}: digest {digest} != {expected[name]}")
    reference = runs[0]["passes"][0]
    for run in runs:
        for outcome in run["passes"]:
            for key in ("counters", "scores"):
                if _exact(outcome.get(key)) != _exact(reference.get(key)):
                    problems.append(f"{key} differ between passes")
    return {
        "pinned": pinned is not None,
        "attempted": attempted,
        "failed": failed,
        "problems": sorted(set(problems)),
        "correct": attempted > 0 and not problems,
    }


def _exact(data):
    if isinstance(data, dict):
        return {key: value for key, value in data.items() if key != "missing"}
    return data


def end_to_end_metrics(plain: dict, setups: list[dict]) -> dict:
    """Host times in reference seconds: divided by the sampled slowdown."""
    passes = plain["passes"]
    slowdown = plain["slowdown"]
    total = sum(outcome["seconds"] for outcome in passes) / slowdown
    ops = [op[1] / slowdown for outcome in passes for op in outcome["ops"]]
    transactions = records = 0
    for outcome in passes:
        counts = outcome["counters"]
        # Simulated transactions; analyze_logs simulates nothing in its
        # timed region, so its transactions are the logs' records.
        transactions += counts["finished"] or counts["analysis_records"]
        records += counts["records_streamed"] + counts["analysis_records"]
    return {
        "wall_s": total / len(passes),
        "sim_tx_per_s": transactions / total,
        "records_per_s": records / total,
        "exp_p50_s": statistics.median(ops),
        "exp_p90_s": percentile(ops, 90),
        "peak_rss_mib": plain["peak_rss_mib"],
        "setup_s": statistics.median(run["setup_s"] for run in setups),
    }


def host_speed(plain: dict, setups: list[dict]) -> dict:
    """The host's own seconds behind :func:`end_to_end_metrics`."""
    return {
        "slowdown": plain["slowdown"],
        "host_wall_s": plain["host_seconds"] / len(plain["passes"]),
        "host_setup_s": statistics.median(run["host_setup_s"] for run in setups),
    }


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def layer_metrics(plain: dict, traced: dict) -> dict:
    trace = traced["trace"]
    outcome = traced["passes"][0]
    counts = outcome["counters"]
    finished = counts["finished"]

    def per_tx(value: float) -> float:
        return value / finished if finished else 0.0

    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = trace["self_s"][layer]
        metrics[f"{layer}.calls"] = trace["calls"][layer]
    scheduled = trace["scheduled"]
    metrics.update(
        {
            "sim.events_per_tx": per_tx(counts["events"]),
            "sim.station_jobs_per_tx": per_tx(counts["station_jobs"]),
            "sim.cancelled_share": (
                (scheduled - counts["events"]) / scheduled if scheduled else 0.0
            ),
            "fabric.txs_per_block": (
                counts["in_blocks"] / counts["blocks"] if counts["blocks"] else 0.0
            ),
            "fabric.success_share": per_tx(counts["successes"]),
            "fabric.retries_per_tx": per_tx(counts["retries"]),
        }
    )
    for station in STATIONS:
        metrics[f"fabric.{station}.wait_s"] = per_tx(counts["station_wait"][station])
    metrics.update(
        {
            "workloads.requests": counts["requests"],
            "contracts.invocations": trace["site_calls"].get(
                "repro.fabric.chaincode:Contract.invoke", 0
            ),
            "logs.records": counts["records_streamed"] + counts["analysis_records"],
            "mining.cases": trace["mining"]["cases"],
            "mining.variants": trace["mining"]["variants"],
            "core.recommendations": counts["recommendations"],
            "analysis.reports": outcome.get("forensics_reports", 0),
            "scenario.interventions": counts["interventions"],
            "control.ticks": counts["control_ticks"],
            "control.actuations": counts["control_actuations"],
            "bench.runs": outcome.get("simulated_runs", 0),
            "trace.overhead_pct": 100.0
            * (outcome["seconds"] / plain["passes"][0]["seconds"] - 1.0),
        }
    )
    return metrics


def predictions(workload: str, metrics: dict) -> list[tuple[str, bool]]:
    """The shape the layer table predicts for this workload's trace."""
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS) or 1.0

    def share(*layers: str) -> float:
        return sum(metrics[f"{layer}.self_s"] for layer in layers) / total

    checks = []
    if workload == "sharded_stream":
        checks.append(("sim + fabric hold most self time", share("sim", "fabric") > 0.5))
    if workload == "analyze_logs":
        checks.append(("sim + fabric hold almost none", share("sim", "fabric") < 0.05))
        checks.append(
            ("logs + core + mining hold most", share("logs", "core", "mining") > 0.5)
        )
    on_paper = workload == "paper_protocol"
    for layer in ("scenario", "control", "bench"):
        active = metrics[f"{layer}.calls"] > 0
        expect = "non-zero" if on_paper else "zero"
        checks.append((f"{layer}.calls {expect}", active == on_paper))
    return checks


def render(result: dict, units: dict) -> list[str]:
    check = result["check"]
    machine = result["fingerprint"]
    lines = [
        f"== {result['workload']} seed={result['seed']} trace={result['trace']} "
        f"passes={result['passes']}",
        f"machine: {machine['platform']} | python {machine['python']} | "
        f"nproc {machine['nproc']}",
        f"outputs: {check['attempted']} attempted, {check['failed']} failed, "
        f"digests {'pinned' if check['pinned'] else 'unpinned (repeat check only)'}",
    ]
    lines += [f"  problem: {problem}" for problem in check["problems"]]
    host = result["host"]
    if host:
        lines.append(
            f"host speed: mean slowdown {host['slowdown']:.3f}; host seconds "
            f"(bursts included): wall_s {host['host_wall_s']:.4g} s, "
            f"setup_s {host['host_setup_s']:.4g} s"
        )
    metrics = result["metrics"]
    if result["trace"]:
        total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS) or 1.0
        lines.append(f"  {'layer':<10} {'self_s':>9} {'share':>7} {'calls':>10}")
        for layer in LAYERS:
            self_s = metrics[f"{layer}.self_s"]
            lines.append(
                f"  {layer:<10} {self_s:9.3f} {100 * self_s / total:6.1f}% "
                f"{metrics[f'{layer}.calls']:>10}"
            )
        detail = result["trace_detail"]
        lines.append(f"  spans: {detail['spans']}, in top-level spans: "
                     f"{detail['top_level_s']:.3f} s")  # fmt: skip
        for label, ok in predictions(result["workload"], metrics):
            lines.append(f"  prediction: {label}: {'holds' if ok else 'FAILS'}")
    for name, value in metrics.items():
        if result["trace"] and name.endswith((".self_s", ".calls")):
            continue
        lines.append(f"  {name:<26} {value:>14.6g} {units[name]}")
    if result["paper"]:
        for name, unit in PAPER_UNITS.items():
            lines.append(f"  {name:<26} {result['paper'][name]:>14.6g} {unit}")
        lines.append(
            f"  (over {result['paper']['gain_rows']} recommended rows and "
            f"{result['paper']['paper_rows']} rows with paper values)"
        )
    for target in result["skipped"]:
        lines.append(f"  skipped (not found in the program): {target}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2

    units = per_layer_units() if args.trace else END_TO_END_UNITS
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    with Session(args.seed, args.seconds) as session:
        try:
            for workload in workloads:
                result = run_workload(session, workload, bool(args.trace))
                results.append(result)
                print("\n".join(render(result, units)), flush=True)
                path = session.out / f"{workload}-seed{args.seed}-trace{args.trace}.json"
                path.write_text(json.dumps(result, indent=1, sort_keys=True))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    def tagged(result: dict, name: str) -> str:
        return name if len(results) == 1 else f"{result['workload']}/{name}"

    summary = {
        "correct": all(result["check"]["correct"] for result in results),
        "attempted": sum(result["check"]["attempted"] for result in results),
        "failed": sum(result["check"]["failed"] for result in results),
        "metrics": {
            tagged(result, name): {"value": value, "unit": units[name]}
            for result in results
            for name, value in result["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
