"""One benchmark process: set up a workload, run its timed passes, report.

``run.py`` starts a fresh interpreter with this script for every measured
run, so ``setup_s`` includes the imports and ``peak_rss_mib`` belongs to one
workload alone.  Usage (``run.py`` builds these command lines)::

    python3 perfbench/worker.py run --workload NAME --seed N --seconds S
        --mode {plain,traced,setup} --spawned-at T --inputs DIR --work DIR
        --out FILE [--passes K] [--spans FILE]
    python3 perfbench/worker.py inputs --seed N --out DIR

``--spawned-at`` is the parent's ``time.monotonic()`` just before the
spawn; the system-wide monotonic clock makes the set-up time include
interpreter start-up.  ``plain`` runs passes until the next one would end
after ``--seconds``; ``traced`` records spans; ``setup`` stops where the
timed region would begin.  ``plain`` and ``setup`` processes sample the
host's speed with :class:`pace.Pacer`: ``setup_s`` is in reference seconds,
and the timed passes are timed without the bursts and come with the timed
region's ``slowdown``.  ``host_setup_s`` and ``host_seconds`` are the host's
own seconds, bursts included.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import cases  # noqa: E402
import counters as counters_mod  # noqa: E402
import pace  # noqa: E402


def run(args: argparse.Namespace) -> dict:
    # Spans would charge the bursts to whichever layer they interrupt, so
    # the traced process runs unpaced, on the host's clock.
    pacer = None if args.mode == "traced" else pace.Pacer()
    if pacer is not None:
        pacer.start()
    try:
        return _run(args, pacer)
    finally:
        if pacer is not None:
            pacer.stop()


def _run(args: argparse.Namespace, pacer: pace.Pacer | None) -> dict:
    clock = time.perf_counter if pacer is None else pacer.clock
    workload = cases.WORKLOADS[args.workload](args.seed, Path(args.inputs), Path(args.work))
    workload.setup()
    counts = counters_mod.Counters()
    event_logs: list | None = [] if args.mode == "traced" else None
    skipped = counters_mod.install(counts, event_logs)
    tracer = None
    if args.mode == "traced":
        import spans

        tracer = spans.Tracer()
        tracer.install()
        skipped += tracer.skipped
    host_setup_s = time.monotonic() - args.spawned_at
    setup_s = host_setup_s
    if pacer is not None:
        setup_s = (host_setup_s - pacer.spent) / pacer.slowdown()
    result: dict = {"setup_s": setup_s, "host_setup_s": host_setup_s, "skipped": skipped}
    if args.mode == "setup":
        return result

    passes = []
    first_burst = len(pacer.bursts) if pacer is not None else 0
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        counts.__init__()
        outcome = workload.run_pass(counts, clock)
        outcome["ops"] = [op.to_list() for op in outcome["ops"]]
        outcome["counters"] = counts.to_dict()
        passes.append(outcome)
        now = time.perf_counter()
        # Wall time, bursts included: the run's length is what --seconds sets.
        next_pass_ends = (now - started) + (now - pass_started)
        if len(passes) >= args.passes or next_pass_ends > args.seconds:
            break
    result["passes"] = passes
    result["host_seconds"] = time.perf_counter() - started
    result["slowdown"] = pacer.slowdown(first_burst) if pacer is not None else 1.0
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        trace = tracer.totals()
        trace["scheduled"] = tracer.scheduled
        trace["mining"] = _mining_counts(event_logs)
        result["trace"] = trace
        if args.spans:
            tracer.write(args.spans)
    return result


def _mining_counts(event_logs) -> dict:
    """Cases and trace variants over every analysis of the pass."""
    cases_total = variants = 0
    for event_log in event_logs:
        found = event_log.trace_variants()
        cases_total += sum(found.values())
        variants += len(found)
    return {"cases": cases_total, "variants": variants}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    runner = sub.add_parser("run")
    runner.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    runner.add_argument("--seed", type=int, required=True)
    runner.add_argument("--seconds", type=float, required=True)
    runner.add_argument("--mode", choices=("plain", "traced", "setup"), required=True)
    runner.add_argument("--spawned-at", type=float, required=True)
    runner.add_argument("--inputs", required=True)
    runner.add_argument("--work", required=True)
    runner.add_argument("--out", required=True)
    runner.add_argument("--passes", type=int, default=sys.maxsize)
    runner.add_argument("--spans")
    inputs = sub.add_parser("inputs")
    inputs.add_argument("--seed", type=int, required=True)
    inputs.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    if args.command == "inputs":
        cases.generate_inputs(args.seed, Path(args.out))
        return 0
    result = run(args)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
