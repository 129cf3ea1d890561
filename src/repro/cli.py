"""Command-line interface: ``blockoptr`` / ``python -m repro``.

Subcommands:

* ``analyze <log.csv|log.json>`` — run BlockOptR over an exported
  blockchain log and print the recommendation report; ``analyze --cached
  <exp_id>`` instead renders the failure-forensics report of a cached
  registry run (running and caching it first on a cache miss).
* ``demo [--usecase NAME]`` — run a small simulated workload, analyze it,
  apply the recommendations, re-run, and print before/after numbers.
* ``export <log.json> --out <log.csv>`` — convert between log formats.
* ``suite [--jobs N] [--only fig09,fig10]`` — run the paper's experiment
  suite through the parallel executor with result caching.
* ``matrix --spec sweep.yaml [--jobs N] [--only ...] [--dry-run]`` —
  expand a declarative factor × seed matrix, run every cell through the
  executor + cache, and export ``run_table.csv`` plus a Markdown table
  with median + bootstrap-CI columns.
* ``scenario [--name crash_burst | --spec file.json]`` — run a workload
  under declarative fault injection and dynamic network conditions, and
  compare against the steady-state run.
* ``control [--scenario NAME] [--policy guardian|noop]`` — run a fault
  scenario with the live SLO-guardian controller off and on, and print the
  comparison plus the controller's decision timeline.
* ``fuzz [--seed N] [--budget N] [--replay --corpus DIR]`` — fuzz random
  scenario compositions against differential oracles, or replay a saved
  corpus and fail on any violation or digest drift.
* ``shard [--channels N] [--txs N]`` — run a streamed multi-channel
  workload with bounded memory, print the stitched summary and its
  digest; ``--check-digest``/``--max-rss-mb`` back the CI smoke step.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.recommender import BlockOptR
from repro.core.report import render_report


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.cached is not None and args.log is not None:
        print("error: pass either a log file or --cached, not both", file=sys.stderr)
        return 2
    if args.cached is not None:
        return _analyze_cached(args)
    if args.log is None:
        print("error: need a log file or --cached <exp_id>", file=sys.stderr)
        return 2
    report = BlockOptR().analyze_file(args.log)
    print(
        render_report(
            report,
            include_model=not args.no_model,
            include_insights=args.insights,
        )
    )
    return 0


def _analyze_cached(args: argparse.Namespace) -> int:
    """Failure forensics for one registry experiment, served from cache.

    On a cache miss the experiment is executed (and cached) first, so the
    command always produces a report; ``--cache-only`` turns a miss into
    a clean error instead.  A schema-mismatched entry (e.g. written by an
    incompatible version) is reported as an error, never a traceback.
    """
    from repro.analysis import render_cause_summary, render_forensics
    from repro.bench.cache import ResultCache
    from repro.bench.executor import run_suite
    from repro.bench.registry import get

    try:
        spec = get(args.cached)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.txs is not None:
        if args.txs < 1:
            print(f"error: --txs must be >= 1, got {args.txs}", file=sys.stderr)
            return 2
        spec = spec.with_overrides(total_transactions=args.txs)

    cache = ResultCache(args.cache_dir)
    if args.cache_only:
        outcome = cache.get(spec)
        if outcome is None:
            print(
                f"error: no cache entry for {spec.exp_id} under {cache.root}; "
                f"run `repro suite --only {spec.exp_id}` first or drop "
                "--cache-only",
                file=sys.stderr,
            )
            return 1
        source = "cache"
    else:
        report = run_suite([spec], jobs=1, cache=cache)
        outcome = report.outcomes[0]
        source = "cache" if report.cached else "fresh run (now cached)"
    if outcome.forensics is None:
        print(
            f"error: cached outcome for {spec.exp_id} carries no forensics "
            "reports (written by an incompatible version); clear it with "
            "`repro suite --clear-cache`",
            file=sys.stderr,
        )
        return 1
    # Render everything before printing: a schema-mismatched entry must
    # produce one clean error line, not a half-printed report + traceback.
    try:
        rendered = [render_forensics(outcome.forensics[0])]
        for row, row_forensics in zip(outcome.rows[1:], outcome.forensics[1:]):
            rendered.append(
                f"with {row.label}: {render_cause_summary(row_forensics)}"
            )
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        print(
            f"error: cache entry for {spec.exp_id} is schema-mismatched "
            f"({exc!r}); clear it with `repro suite --clear-cache`",
            file=sys.stderr,
        )
        return 1
    print(f"{spec.exp_id} — {outcome.name} [{source}]")
    for block in rendered:
        print()
        print(block)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.logs.export import log_from_csv, log_from_json, log_to_csv, log_to_json

    source = args.log
    if source.endswith(".csv"):
        log = log_from_csv(source)
    else:
        log = log_from_json(source)
    if args.out.endswith(".csv"):
        log_to_csv(log, args.out)
    else:
        log_to_json(log, args.out)
    print(f"wrote {args.out} ({len(log)} records)")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.bench.harness import run_usecase_demo

    outcome = run_usecase_demo(
        args.usecase, total_transactions=args.transactions, seed=args.seed
    )
    print(outcome)
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    from repro.bench.cache import ResultCache
    from repro.bench.executor import derive_seed, run_suite
    from repro.bench.registry import UnknownSelectionError, all_specs, select
    from repro.bench.tables import format_paper_comparison

    if args.txs is not None and args.txs < 1:
        print(f"error: --txs must be >= 1, got {args.txs}", file=sys.stderr)
        return 2
    try:
        specs = select(args.only.split(",")) if args.only else all_specs()
    except UnknownSelectionError as exc:
        # Exit 1, naming every unmatched token: a typo must never launch
        # a partial sweep or silently select zero experiments.
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    if args.list:
        for spec in specs:
            print(
                f"{spec.exp_id:<45} runs={spec.run_count()} "
                f"scheduler={spec.scheduler}"
            )
        print(f"{len(specs)} experiments")
        return 0

    specs = [
        spec.with_overrides(
            seed=derive_seed(args.seed, spec.exp_id) if args.seed is not None else None,
            total_transactions=args.txs,
        )
        for spec in specs
    ]
    if args.clear_cache:
        # Honour the clear even under --no-cache: the user asked for the
        # on-disk entries to go away.
        store = ResultCache(args.cache_dir)
        print(f"cleared {store.clear()} cache entries under {store.root}")
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    report = run_suite(
        specs,
        jobs=args.jobs,
        cache=cache,
        progress=None if args.quiet else print,
    )
    if not args.quiet:
        for outcome in report.outcomes:
            print()
            print(format_paper_comparison(outcome))
        print()
    print(report.summary())
    if cache is not None:
        print(f"cache: {cache.root}")
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    from repro.bench.cache import ResultCache
    from repro.bench.executor import run_suite
    from repro.bench.matrix import (
        MatrixError,
        aggregate,
        expand,
        load_matrix,
        select_runs,
        summary_markdown,
        write_outputs,
    )
    from repro.bench.registry import UnknownSelectionError

    try:
        matrix = load_matrix(args.spec)
        runs = expand(matrix)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MatrixError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.only:
        try:
            runs = select_runs(runs, args.only.split(","))
        except UnknownSelectionError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 1

    header = (
        f"matrix {matrix.name}: {matrix.cell_count()} cells × "
        f"{len(matrix.seeds)} seeds = {matrix.run_count()} runs"
        + (f" ({len(runs)} selected)" if len(runs) != matrix.run_count() else "")
    )
    if args.dry_run:
        print(header)
        for run in runs:
            budget = run.spec.payload()["total_transactions"]
            rendered = ", ".join(f"{name}={value}" for name, value in run.factors)
            print(f"{run.exp_id:<58} {rendered} txs={budget}")
        print(f"{len(runs)} runs")
        return 0

    if not args.quiet:
        print(header)
    if args.clear_cache:
        store = ResultCache(args.cache_dir)
        print(f"cleared {store.clear()} cache entries under {store.root}")
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    report = run_suite(
        [run.spec for run in runs],
        jobs=args.jobs,
        cache=cache,
        progress=None if args.quiet else print,
    )
    outcomes = {
        run.exp_id: outcome for run, outcome in zip(runs, report.outcomes)
    }
    table_path, summary_path = write_outputs(args.out, matrix, runs, outcomes)
    if not args.quiet:
        print()
        print(summary_markdown(matrix, aggregate(runs, outcomes)))
    print(report.summary())
    if cache is not None:
        print(f"cache: {cache.root}")
    print(f"wrote {table_path} and {summary_path}")
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.bench.experiments import make_synthetic
    from repro.fabric.network import run_workload
    from repro.scenario import (
        ScenarioSpec,
        get_scenario,
        run_digest,
        run_scenario,
        scenario_names,
    )

    if args.list:
        for name in scenario_names():
            spec = get_scenario(name)
            print(f"{name:<20} {len(spec.interventions)} interventions — {spec.description}")
        return 0
    if args.dump:
        try:
            print(get_scenario(args.dump).to_json())
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        return 0
    if args.txs < 1:
        print(f"error: --txs must be >= 1, got {args.txs}", file=sys.stderr)
        return 2
    try:
        if args.spec:
            scenario = ScenarioSpec.from_json(Path(args.spec).read_text())
        else:
            scenario = get_scenario(args.name)
    except OSError as exc:
        # str(exc) keeps the filename; exc.args[0] would be a bare errno.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.retry < 1:
        print(f"error: --retry must be >= 1, got {args.retry}", file=sys.stderr)
        return 2

    make = make_synthetic(args.base, seed=args.seed, total_transactions=args.txs)

    def scenario_run(mitigated: bool = False):
        from repro.fabric.retry import RetryPolicy

        config, family, requests = make()
        if mitigated:
            config.mitigation = args.mitigation
            if args.retry > 1:
                config.retry = RetryPolicy(max_attempts=args.retry)
        deployment = family.deploy()
        return run_scenario(scenario, config, deployment.contracts, requests)

    print(f"scenario: {scenario.name}")
    if scenario.description:
        print(scenario.description)
    print(f"base workload: synthetic/{args.base}, {args.txs} txs, seed {args.seed}")
    print("\ninterventions:")
    for iv in scenario.interventions:
        print(f"  - {iv.describe()}")

    config, family, requests = make()
    deployment = family.deploy()
    _, steady = run_workload(config, deployment.contracts, requests)
    network, faulted = scenario_run()
    with_mitigation = args.mitigation != "none" or args.retry > 1
    mitigated_network = None
    mitigated = None
    if with_mitigation:
        mitigated_network, mitigated = scenario_run(mitigated=True)

    print("\napplied timeline:")
    for time, kind, detail in sorted(
        network.scenario_engine.timeline, key=lambda entry: entry[0]
    ):
        print(f"  {time:8.3f}s  {kind:<24} {detail}")

    comparison = [("steady-state", steady), ("under scenario", faulted)]
    if mitigated is not None:
        comparison.append(("with mitigation", mitigated))
    print(f"\n{'run':<16}{'tput(tps)':>10}{'lat(s)':>8}{'success%':>10}")
    for label, result in comparison:
        row = result.summary_row()
        print(
            f"{label:<16}{row['success_throughput_tps']:>10}"
            f"{row['avg_latency_s']:>8}{row['success_rate_pct']:>10}"
        )
    if faulted.failure_counts:
        from repro.analysis import forensics_report, render_cause_summary

        print(
            "failures under scenario: "
            f"{render_cause_summary(forensics_report(network).to_dict())}"
        )
        if mitigated_network is not None:
            report = forensics_report(mitigated_network)
            print(
                f"with {args.mitigation}"
                + (f" + retry({args.retry})" if args.retry > 1 else "")
                + f": {render_cause_summary(report.to_dict())}"
            )
            if report.retry.resubmissions:
                print(
                    f"retries: {report.retry.resubmissions} resubmissions, "
                    f"{report.retry.recovered} recovered, "
                    f"{report.retry.exhausted} exhausted"
                )

    if args.check_determinism:
        network2, faulted2 = scenario_run()
        identical = (
            faulted2.summary_row() == faulted.summary_row()
            and run_digest(network2) == run_digest(network)
            and network2.scenario_engine.timeline == network.scenario_engine.timeline
        )
        verdict = "identical" if identical else "DIVERGED"
        print(f"determinism check (second run, same seed): {verdict}")
        if not identical:
            return 1
    return 0


def _cmd_control(args: argparse.Namespace) -> int:
    from repro.bench.experiments import make_synthetic
    from repro.control import ControlSpec, SLOTargets, render_control_timeline
    from repro.fabric.network import run_workload
    from repro.fabric.retry import RetryPolicy
    from repro.scenario import get_scenario, run_digest, scenario_names

    if args.list:
        for name in scenario_names():
            spec = get_scenario(name)
            print(f"{name:<20} {spec.description}")
        return 0
    if args.txs < 1:
        print(f"error: --txs must be >= 1, got {args.txs}", file=sys.stderr)
        return 2
    if args.retry < 1:
        print(f"error: --retry must be >= 1, got {args.retry}", file=sys.stderr)
        return 2

    slo_kwargs: dict[str, float] = {}
    for item in args.slo or ():
        key, sep, raw = item.partition("=")
        if not sep:
            print(f"error: --slo needs key=value, got {item!r}", file=sys.stderr)
            return 2
        try:
            slo_kwargs[key] = float(raw)
        except ValueError:
            print(f"error: --slo {key} needs a number, got {raw!r}", file=sys.stderr)
            return 2
    try:
        slo = SLOTargets(**slo_kwargs)
        control = ControlSpec(policy=args.policy, interval=args.interval, slo=slo)
        scenario = get_scenario(args.scenario)
    except TypeError:
        valid = ", ".join(sorted(SLOTargets.__dataclass_fields__))
        print(f"error: unknown --slo key; valid: {valid}", file=sys.stderr)
        return 2
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    make = make_synthetic(args.base, seed=args.seed, total_transactions=args.txs)

    def control_run(spec):
        config, family, requests = make()
        if args.retry > 1:
            config.retry = RetryPolicy(max_attempts=args.retry)
        config.control = spec
        return run_workload(config, family.deploy().contracts, requests, scenario)

    print(f"scenario: {scenario.name}")
    if scenario.description:
        print(scenario.description)
    print(
        f"base workload: synthetic/{args.base}, {args.txs} txs, seed {args.seed}, "
        f"retry {args.retry}"
    )
    print(f"control: policy {control.policy}, interval {control.interval}s, "
          f"slo abort<={slo.max_abort_rate} p95<={slo.max_p95_latency}s")

    _, off = control_run(None)
    network, on = control_run(control)

    print(f"\n{'run':<16}{'tput(tps)':>10}{'lat(s)':>8}{'success%':>10}")
    for label, result in (("controller off", off), (f"{control.policy} on", on)):
        row = result.summary_row()
        print(
            f"{label:<16}{row['success_throughput_tps']:>10}"
            f"{row['avg_latency_s']:>8}{row['success_rate_pct']:>10}"
        )

    print()
    print(render_control_timeline(network.controller.timeline))
    writes = [
        entry for entry in network.conditions.journal if entry[0] == "control"
    ]
    if writes:
        print(f"condition writes attributed to the controller: {len(writes)}")

    if args.check_determinism:
        network2, on2 = control_run(control)
        identical = (
            on2.summary_row() == on.summary_row()
            and run_digest(network2) == run_digest(network)
            and network2.controller.timeline.digest()
            == network.controller.timeline.digest()
        )
        verdict = "identical" if identical else "DIVERGED"
        print(f"determinism check (second run, same seed): {verdict}")
        if not identical:
            return 1
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.scenario.fuzz import (
        ORACLES,
        FuzzConfig,
        replay_corpus,
        run_campaign,
        save_corpus,
    )

    if args.replay:
        if not args.corpus:
            print("error: --replay requires --corpus DIR", file=sys.stderr)
            return 2
        try:
            results = replay_corpus(args.corpus)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"error: cannot replay corpus {args.corpus}: {exc}", file=sys.stderr)
            return 2
        dirty = 0
        for result in results:
            if result.clean:
                print(f"{result.name:<28} clean")
                continue
            dirty += 1
            print(f"{result.name:<28} FAILED")
            for line in result.violations + result.drift:
                print(f"    {line}")
        print(f"\nreplayed {len(results)} corpus entries, {dirty} failed")
        return 1 if dirty else 0

    try:
        config = FuzzConfig(
            seed=args.seed,
            budget=args.budget,
            base=args.base,
            transactions=args.txs,
            retry_attempts=args.retry,
            max_interventions=args.max_interventions,
            oracles=tuple(args.oracle) if args.oracle else ORACLES,
            shrink=not args.no_shrink,
        )
    except ValueError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    try:
        campaign = run_campaign(config)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    print(
        f"fuzz campaign: seed {config.seed}, {config.budget} compositions, "
        f"base synthetic/{config.base} ({config.transactions} txs), "
        f"oracles: {', '.join(config.oracles)}"
    )
    print(f"\n{'composition':<16}{'ivs':>4}{'severity':>10}  outcome")
    for entry in campaign.entries:
        if entry.survived:
            outcome = f"survived — {entry.label.dominant_cause or 'no failures'}"
        else:
            broken = sorted(name for name, found in entry.oracles.items() if found)
            outcome = f"VIOLATED {', '.join(broken)}"
        print(
            f"{entry.spec.name:<16}{len(entry.spec.interventions):>4}"
            f"{entry.label.severity:>10.4f}  {outcome}"
        )

    failures = campaign.failures()
    if failures:
        print(f"\n{len(failures)} oracle violation(s):")
        for entry in failures:
            print(f"  {entry.spec.name}:")
            for line in entry.violations:
                print(f"    {line}")
            if entry.shrunk_from is not None:
                print(
                    f"    shrunk from {len(entry.shrunk_from.interventions)} to "
                    f"{len(entry.spec.interventions)} intervention(s); minimal "
                    "reproducer:"
                )
                for iv in entry.spec.interventions:
                    print(f"      - {iv.describe()}")

    survivors = campaign.survivors()
    print(f"\ntop survivors by severity ({len(survivors)} total):")
    for entry in survivors[: max(args.promote, 5)]:
        print(
            f"  {entry.spec.name:<16} severity {entry.label.severity:.4f} "
            f"(aborts {entry.label.abort_rate:.1%}, "
            f"retries {entry.label.retry_rate:.1%}) — {entry.label.why}"
        )

    if args.promote:
        print(f"\npromotion candidates (top {args.promote}, paste into library.py):")
        for entry in campaign.top_specs(args.promote):
            print(entry.spec.to_json())

    if args.corpus:
        manifest = save_corpus(campaign, Path(args.corpus))
        print(f"\ncorpus written to {manifest.parent} ({len(campaign.entries)} entries)")

    return 1 if failures else 0


def _peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (via getrusage)."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes, macOS bytes.
    return peak / 1024.0 if sys.platform.startswith("linux") else peak / (1024.0**2)


def _cmd_shard(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.shard import plan_shards, run_sharded

    expected_digest = None
    if args.check_digest:
        try:
            golden = json.loads(Path(args.check_digest).read_text())
            expected_digest = str(golden["digest"])
            plan = plan_shards(
                base=str(golden["base"]),
                channels=int(golden["channels"]),
                total_transactions=int(golden["total_transactions"]),
                seed=int(golden["seed"]),
                interval_seconds=float(golden.get("interval_seconds", 1.0)),
            )
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (KeyError, TypeError, ValueError) as exc:
            print(
                f"error: malformed digest golden {args.check_digest}: {exc!r}",
                file=sys.stderr,
            )
            return 2
    else:
        try:
            plan = plan_shards(
                base=args.base,
                channels=args.channels,
                total_transactions=args.txs,
                seed=args.seed,
                interval_seconds=args.interval,
            )
        except (KeyError, ValueError) as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2

    print(
        f"sharded run: {plan.base}, {len(plan.channels)} channels, "
        f"{plan.total_transactions} transactions, seed {plan.seed}"
    )
    stitched = run_sharded(plan, progress=None if args.quiet else print)
    digest = stitched.digest()
    print(
        f"stitched: {stitched.committed} committed / {stitched.aborted} aborted "
        f"in {stitched.blocks} blocks ({stitched.data_blocks} data)"
    )
    print(
        f"  throughput {stitched.throughput:.1f} tps, "
        f"avg latency {stitched.avg_latency:.2f}s, "
        f"success {stitched.success_rate * 100.0:.1f}%"
    )
    print(f"digest: {digest}")

    if args.json:
        try:
            Path(args.json).write_text(
                json.dumps(
                    {
                        "plan": plan.to_dict(),
                        "summary": stitched.to_dict(),
                        "digest": digest,
                    },
                    indent=1,
                    sort_keys=True,
                )
            )
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.json}")

    failed = False
    if expected_digest is not None:
        if digest == expected_digest:
            print("digest check: OK")
        else:
            print(
                f"digest check: MISMATCH (expected {expected_digest})",
                file=sys.stderr,
            )
            failed = True
    peak = _peak_rss_mb()
    print(f"peak RSS: {peak:.1f} MiB")
    if args.max_rss_mb is not None and peak > args.max_rss_mb:
        print(
            f"error: peak RSS {peak:.1f} MiB exceeds --max-rss-mb "
            f"{args.max_rss_mb:.1f}",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockoptr",
        description="Multi-level blockchain optimization recommendations (BlockOptR reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze",
        help="analyze an exported log, or render a cached run's failure forensics",
        description=(
            "With a log file: run BlockOptR over the exported blockchain "
            "log and print the recommendation report. With --cached "
            "<exp_id>: render the failure-forensics report (abort-cause "
            "taxonomy, hot keys, per-org breakdown, failure-rate "
            "timeline; see docs/FAILURES.md) of a registry experiment, "
            "executing and caching it first if needed."
        ),
    )
    analyze.add_argument(
        "log", nargs="?", default=None, help="path to a .csv or .json blockchain log"
    )
    analyze.add_argument(
        "--no-model", action="store_true", help="skip the derived process model section"
    )
    analyze.add_argument(
        "--insights",
        action="store_true",
        help="append the conflict-structure appendix (inter/intra-block shares)",
    )
    analyze.add_argument(
        "--cached",
        default=None,
        metavar="EXP_ID",
        help="render failure forensics for a registry experiment "
        "(e.g. scenario_faults/partial_outage), using the result cache",
    )
    analyze.add_argument(
        "--txs",
        type=int,
        default=None,
        help="with --cached: override the experiment's transaction budget",
    )
    analyze.add_argument(
        "--cache-dir",
        default=None,
        help="with --cached: cache directory (default $REPRO_CACHE_DIR or .repro_cache)",
    )
    analyze.add_argument(
        "--cache-only",
        action="store_true",
        help="with --cached: error out (exit 1) on a cache miss instead of "
        "running the experiment",
    )
    analyze.set_defaults(func=_cmd_analyze)

    export = sub.add_parser("export", help="convert a log between CSV and JSON")
    export.add_argument("log")
    export.add_argument("--out", required=True)
    export.set_defaults(func=_cmd_export)

    demo = sub.add_parser("demo", help="simulate, analyze, optimize, re-run")
    demo.add_argument(
        "--usecase",
        default="scm",
        choices=("scm", "drm", "ehr", "voting", "loan", "synthetic"),
    )
    demo.add_argument("--transactions", type=int, default=3000)
    demo.add_argument("--seed", type=int, default=7)
    demo.set_defaults(func=_cmd_demo)

    suite = sub.add_parser(
        "suite",
        help="run the paper's experiment suite (parallel, cached)",
        description=(
            "Run every registered figure/table experiment through the "
            "process-pool executor. Results are cached on disk keyed by "
            "the experiment definition and the repro source hash, so a "
            "warm re-run performs zero simulation runs."
        ),
    )
    suite.add_argument(
        "--jobs", type=int, default=1, help="worker processes (default 1 = serial)"
    )
    suite.add_argument(
        "--only",
        default=None,
        metavar="TOKENS",
        help="comma-separated groups, group prefixes, or <group>/<variant> ids "
        "(e.g. fig09,fig10 or fig09_block_size/block_count_50)",
    )
    suite.add_argument(
        "--txs",
        type=int,
        default=None,
        help="override the per-experiment transaction budget (default REPRO_BENCH_TXS)",
    )
    suite.add_argument(
        "--seed",
        type=int,
        default=None,
        help="base seed; each experiment derives its own seed from it "
        "(default: the registry's pinned seeds)",
    )
    suite.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    suite.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default $REPRO_CACHE_DIR or .repro_cache)",
    )
    suite.add_argument(
        "--clear-cache", action="store_true", help="drop cached results first"
    )
    suite.add_argument(
        "--list", action="store_true", help="list the selected experiments and exit"
    )
    suite.add_argument(
        "--quiet", action="store_true", help="only print the summary line"
    )
    suite.set_defaults(func=_cmd_suite)

    matrix = sub.add_parser(
        "matrix",
        help="run a declarative experiment matrix (factors × seeds)",
        description=(
            "Expand a YAML/JSON matrix spec — the cross-product of "
            "declared factors (block size, send rate, workload mix, "
            "scenario, mitigation, ...) crossed with a seed list — into "
            "concrete registry experiments, run every cell through the "
            "parallel executor and the result cache (per-cell keys, so "
            "an interrupted sweep resumes where it stopped), and "
            "aggregate the seed replications into median + bootstrap-CI "
            "columns. Writes run_table.csv (one row per cell x seed) "
            "and summary.md (aggregated Markdown table). See "
            "docs/MATRICES.md and examples/matrices/."
        ),
    )
    matrix.add_argument(
        "--spec",
        required=True,
        metavar="FILE",
        help="matrix spec file (.yaml/.yml/.json; see docs/MATRICES.md)",
    )
    matrix.add_argument(
        "--jobs", type=int, default=1, help="worker processes (default 1 = serial)"
    )
    matrix.add_argument(
        "--only",
        default=None,
        metavar="TOKENS",
        help="comma-separated cell/run ids or prefixes "
        "(e.g. sweep/300_150 or sweep/300_150@s7); unmatched tokens "
        "fail the command before anything runs",
    )
    matrix.add_argument(
        "--dry-run",
        action="store_true",
        help="print the expanded cell list (ids, factors, budgets) and exit",
    )
    matrix.add_argument(
        "--out",
        default=".",
        metavar="DIR",
        help="directory for run_table.csv and summary.md (default .)",
    )
    matrix.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    matrix.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default $REPRO_CACHE_DIR or .repro_cache)",
    )
    matrix.add_argument(
        "--clear-cache", action="store_true", help="drop cached results first"
    )
    matrix.add_argument(
        "--quiet", action="store_true", help="only print the summary/output lines"
    )
    matrix.set_defaults(func=_cmd_matrix)

    scenario = sub.add_parser(
        "scenario",
        help="run a workload under fault injection / dynamic network conditions",
        description=(
            "Run a synthetic workload under a declarative scenario "
            "(peer crashes, endorser slowdowns, latency spikes, orderer "
            "degradation, arrival bursts, conflict storms) and compare "
            "against the steady-state run. Scenarios are deterministic: "
            "the same seed and spec reproduce the run bit for bit."
        ),
    )
    scenario.add_argument(
        "--name",
        default="crash_burst",
        help="built-in scenario name (see --list; default crash_burst)",
    )
    scenario.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="path to a ScenarioSpec JSON file (overrides --name)",
    )
    scenario.add_argument(
        "--base",
        default="default",
        help="synthetic base experiment to run the scenario against "
        "(a Table 2 name, e.g. default, workload_update_heavy)",
    )
    scenario.add_argument("--txs", type=int, default=2000)
    scenario.add_argument("--seed", type=int, default=7)
    scenario.add_argument(
        "--mitigation",
        default="none",
        choices=("none", "early_abort", "reorder"),
        help="run a third comparison row with this mitigation strategy "
        "applied under the same scenario (see docs/FAILURES.md)",
    )
    scenario.add_argument(
        "--retry",
        type=int,
        default=1,
        metavar="ATTEMPTS",
        help="max client attempts per transaction in the mitigated run "
        "(1 = no retries; >1 enables deterministic resubmission)",
    )
    scenario.add_argument(
        "--check-determinism",
        action="store_true",
        help="run the scenario twice and verify the runs are identical",
    )
    scenario.add_argument(
        "--list", action="store_true", help="list built-in scenarios and exit"
    )
    scenario.add_argument(
        "--dump",
        default=None,
        metavar="NAME",
        help="print a built-in scenario as JSON (authoring starting point)",
    )
    scenario.set_defaults(func=_cmd_scenario)

    control = sub.add_parser(
        "control",
        help="run the live SLO-guardian controller against a fault scenario",
        description=(
            "Run a synthetic workload under a fault scenario twice — "
            "controller off, then with the kernel-scheduled SLO-guardian "
            "controller on — and compare the headline numbers. Prints the "
            "controller's decision timeline (windowed observables, rules "
            "fired, bounded actuations) and its sha256 digest; runs are "
            "deterministic per (seed, policy, scenario)."
        ),
    )
    control.add_argument(
        "--scenario",
        default="crash_burst",
        help="built-in scenario name to guard against (see --list)",
    )
    control.add_argument(
        "--policy",
        default="guardian",
        choices=("guardian", "noop"),
        help="control policy: guardian (rule-based SLO guardian) or noop "
        "(observe and record, never actuate)",
    )
    control.add_argument(
        "--slo",
        action="append",
        metavar="KEY=VALUE",
        help="override an SLO target, e.g. --slo max_abort_rate=0.05 "
        "--slo max_p95_latency=3.0 (repeatable)",
    )
    control.add_argument(
        "--interval",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="controller tick interval on the kernel control lane",
    )
    control.add_argument(
        "--base",
        default="default",
        help="synthetic base experiment to run the scenario against",
    )
    control.add_argument("--txs", type=int, default=2000)
    control.add_argument("--seed", type=int, default=7)
    control.add_argument(
        "--retry",
        type=int,
        default=2,
        metavar="ATTEMPTS",
        help="max client attempts per transaction in both runs "
        "(>1 gives the controller's retry-tightening actuator headroom)",
    )
    control.add_argument(
        "--check-determinism",
        action="store_true",
        help="replay the controller-on run and verify run + timeline digests match",
    )
    control.add_argument(
        "--list", action="store_true", help="list built-in scenarios and exit"
    )
    control.set_defaults(func=_cmd_control)

    fuzz = sub.add_parser(
        "fuzz",
        help="fuzz random scenario compositions against differential oracles",
        description=(
            "Generate seeded random scenario compositions (faults, rate "
            "curves, hot-key drift, region lag, mix shifts), check each "
            "against differential oracles (determinism, stream≡batch "
            "equivalence, tx conservation, JSON round-trip, "
            "control equivalence), shrink any "
            "failure to a minimal reproducer, and rank oracle-clean "
            "survivors by abort/retry severity. The same seed and budget "
            "reproduce the campaign bit for bit. Exits 1 when an oracle "
            "violation survives shrinking (a real engine bug)."
        ),
    )
    fuzz.add_argument("--seed", type=int, default=11)
    fuzz.add_argument(
        "--budget",
        type=int,
        default=20,
        help="number of random compositions to generate (default 20)",
    )
    fuzz.add_argument(
        "--base",
        default="default",
        help="synthetic base experiment for every composition (default default)",
    )
    fuzz.add_argument(
        "--txs",
        type=int,
        default=400,
        help="transactions per fuzzed run (default 400)",
    )
    fuzz.add_argument(
        "--retry",
        type=int,
        default=2,
        help="client attempts per transaction; >1 makes retry storms "
        "observable (default 2)",
    )
    fuzz.add_argument(
        "--max-interventions",
        type=int,
        default=4,
        help="max interventions per composition (default 4)",
    )
    fuzz.add_argument(
        "--oracle",
        action="append",
        default=None,
        metavar="NAME",
        help="restrict to one oracle (repeatable; default all: "
        "determinism, stream_batch, conservation, roundtrip, "
        "control_equivalence)",
    )
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="keep failing compositions as generated instead of shrinking "
        "them to minimal reproducers",
    )
    fuzz.add_argument(
        "--corpus",
        default=None,
        metavar="DIR",
        help="persist the campaign as a replayable corpus under DIR",
    )
    fuzz.add_argument(
        "--replay",
        action="store_true",
        help="replay a corpus saved with --corpus: re-run its oracles and "
        "fail on any violation or digest drift (CI fuzz-smoke)",
    )
    fuzz.add_argument(
        "--promote",
        type=int,
        default=0,
        metavar="N",
        help="print the N most severe oracle-clean compositions as JSON "
        "(promotion candidates for the scenario library)",
    )
    fuzz.set_defaults(func=_cmd_fuzz)

    shard = sub.add_parser(
        "shard",
        help="run a streamed multi-channel (sharded) workload at scale",
        description=(
            "Split a synthetic workload over N independent channels — each "
            "with its own orderer and kernel timeline — and run every "
            "channel in streaming mode: bounded accumulators instead of a "
            "materialized ledger, so peak memory is independent of the "
            "transaction count. Prints the stitched summary and its "
            "SHA-256 digest (the large-scale golden fingerprint; see "
            "docs/SCALING.md)."
        ),
    )
    shard.add_argument(
        "--base",
        default="default",
        help="synthetic base experiment (a Table 2 name; default 'default')",
    )
    shard.add_argument(
        "--channels", type=int, default=4, help="number of channels (default 4)"
    )
    shard.add_argument(
        "--txs",
        type=int,
        default=50_000,
        help="total transactions across all channels (default 50000)",
    )
    shard.add_argument("--seed", type=int, default=7)
    shard.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="rate-series interval width in seconds (default 1.0)",
    )
    shard.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="write the plan + stitched summary + digest as JSON",
    )
    shard.add_argument(
        "--check-digest",
        default=None,
        metavar="FILE",
        help="run the plan pinned in a digest golden file and exit 1 unless "
        "the stitched digest matches (overrides --base/--channels/--txs/--seed)",
    )
    shard.add_argument(
        "--max-rss-mb",
        type=float,
        default=None,
        metavar="MB",
        help="exit 1 if the process's peak RSS exceeds this many MiB "
        "(the flat-memory assertion CI runs)",
    )
    shard.add_argument(
        "--quiet", action="store_true", help="suppress per-channel progress lines"
    )
    shard.set_defaults(func=_cmd_shard)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # e.g. ``repro suite | head``
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
