"""Regenerate EXPERIMENTS.md: paper-vs-measured for every table and figure.

Pulls every experiment from the registry (``repro.bench.registry``) and
runs it through the parallel executor with result caching, then writes the
comparison tables (throughput / latency / success, paper vs measured) and
the verdict on every claim of ``repro.bench.claims`` to EXPERIMENTS.md:

    REPRO_BENCH_TXS=4000 python scripts/generate_experiments_md.py --jobs 4

A warm cache makes re-generation (e.g. after editing only this script's
prose) near-instant; any change to the ``repro`` sources invalidates the
cache automatically.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bench.cache import ResultCache
from repro.bench.claims import Verdict, check_claims, jaccard
from repro.bench.executor import run_suite
from repro.bench.experiments import SCALE_TXS, TABLE3_EXPECTED
from repro.bench.harness import ExperimentOutcome
from repro.bench.registry import all_specs

HEADER = """# EXPERIMENTS — paper vs measured

Generated by ``scripts/generate_experiments_md.py`` at bench scale
``REPRO_BENCH_TXS={scale}`` (the paper runs 10,000 transactions per
workload; phase counts scale proportionally).  Every row reports *success
throughput (tps) / average latency (s) / success rate (%)*.

**How to read the comparison.** The substrate is a calibrated simulator,
not the authors' 6-node Kubernetes cluster, so absolute numbers are not
expected to match.  The reproduction criteria are the *shapes*: which
configuration wins, the direction and rough factor of each optimization's
effect, and which recommendations fire.  Rows marked ``*`` apply an
optimization the paper applied although our detector (at the paper's
default thresholds) did not recommend it for that run.

Known divergences, with causes, are collected at the end of the file.
"""

#: Registry group -> section heading, in document order.
SECTIONS = [
    ("fig07_endorser", "## Figure 7 — endorser restructuring"),
    ("fig08_client_boost", "## Figure 8 — client resource boost"),
    ("fig09_block_size", "## Figure 9 — block size adaptation"),
    ("fig10_rate_control", "## Figure 10 — transaction rate control"),
    ("fig11_reordering", "## Figure 11 — activity reordering"),
    ("fig12_combined", "## Figure 12 — all recommended optimizations combined"),
    ("fig13_scm", "## Figure 13 — supply chain management"),
    ("fig14_drm", "## Figure 14 — digital rights management"),
    ("fig15_ehr", "## Figure 15 — electronic health records"),
    ("fig16_voting", "## Figure 16 — digital voting"),
    ("fig17_loan", "## Figure 17 — loan application process"),
    ("fig18_fabricsharp", "## Figure 18 — BlockOptR on FabricSharp"),
    ("fig19_fabricpp", "## Figure 19 — BlockOptR on Fabric++"),
    (
        "scenario_faults",
        "## Fault scenarios — beyond the paper\n\n"
        "Declarative fault injection (`repro.scenario`): peer crashes, "
        "endorser slowdowns, latency spikes, orderer degradation, arrival "
        "bursts and conflict storms against the synthetic workloads. No "
        "paper rows exist; the measured rows record how the baseline "
        "degrades under each scenario and how much of it the recommended "
        "optimizations recover (optimized re-runs execute under the *same* "
        "interventions). Per-abort-cause attribution for any of these "
        "runs: `python -m repro analyze --cached <exp_id>` "
        "(see [docs/FAILURES.md](docs/FAILURES.md)).",
    ),
    (
        "fuzzed",
        "## Fuzzed scenarios — promoted worst cases\n\n"
        "The most severe oracle-clean compositions a seeded fuzz campaign "
        "(`python -m repro fuzz`, see "
        "[docs/SCENARIOS.md](docs/SCENARIOS.md)) discovered, promoted "
        "into the scenario library with their run digests pinned in "
        "`tests/golden/fuzzed__library_digests.json`. They exercise the "
        "workload-realism primitives the hand-written scenarios don't "
        "reach — diurnal/flash-crowd rate curves, drifting hot-key sets "
        "and per-org region lag — composed with classic faults.",
    ),
    (
        "slo_guardian",
        "## SLO guardian — live controller on/off sweep\n\n"
        "Every library scenario run twice under a 2-attempt retry policy: "
        "controller off, then with the kernel-scheduled SLO-guardian "
        "controller on (`repro.control`, see [docs/CONTROL.md](docs/CONTROL.md)). "
        "The guardian watches windowed observables (abort rate by cause, "
        "retry rate, latency quantiles) and applies bounded actuations — "
        "send-rate throttling, mitigation toggles, retry tightening, block "
        "re-sizing — so the comparison measures what closing the loop at "
        "run time buys on each fault. The headline per-scenario comparison "
        "is pinned in `tests/golden/slo_guardian__comparison.json`; "
        "decision timelines ride the cached outcomes "
        "(`python -m repro scenario --name <name> --retry 2 --policy guardian` "
        "prints one live).",
    ),
    (
        "failure_forensics",
        "## Failure forensics — mitigation × scenario sweep\n\n"
        "Each cell is a single run of a fault scenario with a mitigation "
        "strategy and/or a deterministic client retry policy applied "
        "(`repro.analysis`; taxonomy and mechanics in "
        "[docs/FAILURES.md](docs/FAILURES.md)). The `none` cells are "
        "bit-identical to the plain scenario runs. The extra columns "
        "come from the forensics report cached with every outcome: MVCC "
        "aborts, total failed transactions, and retry traffic "
        "(resubmissions/recovered). Success% is per *submission*, so "
        "retry cells trade a lower per-attempt rate for more logical "
        "transactions completing.",
    ),
]


def _md_table(outcome: ExperimentOutcome) -> list[str]:
    lines = [
        f"### {outcome.name}",
        "",
        "| run | measured tput | measured lat | measured succ% | paper tput | paper lat | paper succ% |",
        "|---|---|---|---|---|---|---|",
    ]
    for row in outcome.rows:
        paper = outcome.paper.get(row.label)
        paper_cells = (
            f"{paper[0]:.1f} | {paper[1]:.2f} | {paper[2]:.1f}" if paper else "- | - | -"
        )
        flag = " \\*" if row.forced else ""
        lines.append(
            f"| {row.label}{flag} | {row.throughput:.1f} | {row.latency:.2f} | "
            f"{row.success_pct:.1f} | {paper_cells} |"
        )
    lines.append(f"\nrecommended: {', '.join(outcome.recommendations) or 'none'}")
    lines.append("")
    return lines


def _forensics_table(outcome: ExperimentOutcome) -> list[str]:
    """One forensics-sweep cell: headline numbers + abort/retry columns."""
    lines = [
        f"### {outcome.name}",
        "",
        "| run | tput | lat | succ% | mvcc aborts | failed | resubmitted | recovered |",
        "|---|---|---|---|---|---|---|---|",
    ]
    forensics = outcome.forensics or [{}] * len(outcome.rows)
    for row, report in zip(outcome.rows, forensics):
        causes = report.get("cause_counts", {})
        retry = report.get("retry", {})
        lines.append(
            f"| {row.label} | {row.throughput:.1f} | {row.latency:.2f} | "
            f"{row.success_pct:.1f} | {causes.get('mvcc_conflict', '-')} | "
            f"{report.get('failures', '-')} | "
            f"{retry.get('resubmissions', '-')} | {retry.get('recovered', '-')} |"
        )
    lines.append("")
    return lines


def _control_section(specs, outcomes: dict[str, ExperimentOutcome]) -> list[str]:
    """One combined off-vs-guardian table over the whole scenario sweep."""
    lines = [
        "| scenario | off tput | off lat | off succ% | guardian tput | "
        "guardian lat | guardian succ% | decisions |",
        "|---|---|---|---|---|---|---|---|",
    ]
    by_variant = {spec.variant: outcomes[spec.exp_id] for spec in specs}
    scenarios = sorted(
        {variant.rsplit("__", 1)[0] for variant in by_variant},
        key=lambda name: list(by_variant).index(f"{name}__off"),
    )
    for scenario in scenarios:
        off = by_variant[f"{scenario}__off"].rows[0]
        guarded = by_variant[f"{scenario}__guardian"]
        on = guarded.rows[0]
        timeline = (guarded.control or [None])[0]
        decisions = len(timeline["decisions"]) if timeline else "-"
        lines.append(
            f"| {scenario} | {off.throughput:.1f} | {off.latency:.2f} | "
            f"{off.success_pct:.1f} | {on.throughput:.1f} | {on.latency:.2f} | "
            f"{on.success_pct:.1f} | {decisions} |"
        )
    lines.append("")
    return lines


def _table3_section(outcomes: dict[str, ExperimentOutcome]) -> list[str]:
    out = [
        "## Table 3 — recommendations for the synthetic experiments\n",
        "| experiment | paper recommends | BlockOptR recommends | agreement |",
        "|---|---|---|---|",
    ]
    jaccards = []
    for experiment, expected in TABLE3_EXPECTED.items():
        outcome = outcomes[f"table3/{experiment}"]
        agreement = jaccard(experiment, outcome.recommendations)
        jaccards.append(agreement)
        out.append(
            f"| {experiment} | {', '.join(sorted(k.value for k in expected))} | "
            f"{', '.join(sorted(outcome.recommendations))} | {agreement:.2f} |"
        )
    out.append(f"\nmean Jaccard agreement: **{sum(jaccards) / len(jaccards):.2f}**\n")
    return out


def _claims_section(verdicts: list[Verdict]) -> list[str]:
    out = [
        "## Paper claims\n",
        "Each shape the paper reports is one claim of `repro.bench.claims`. "
        "`python -m repro suite` checks the claims its selection covers, at "
        "the registry's seeds and budgets of at least `min txs` (the smallest "
        "budget from which the claim holds), and exits 1 when one fails.\n",
        "| claim | experiments | min txs | result |",
        "|---|---|---|---|",
    ]
    for verdict in verdicts:
        claim = verdict.claim
        experiments = claim.experiments.replace(",", ", ")
        result = f"{verdict.status} {verdict.detail}".strip()
        out.append(f"| {claim.name} | {experiments} | {claim.min_txs} | {result} |")
    out.append("")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--out", default="EXPERIMENTS.md")
    args = parser.parse_args(argv)

    specs = all_specs()
    cache = None if args.no_cache else ResultCache()
    report = run_suite(specs, jobs=args.jobs, cache=cache, progress=print)
    print(report.summary())
    outcomes = {spec.exp_id: outcome for spec, outcome in zip(specs, report.outcomes)}

    out: list[str] = [HEADER.format(scale=SCALE_TXS)]
    out.extend(_claims_section(check_claims(specs, report.outcomes)))
    out.extend(_table3_section(outcomes))
    for group, heading in SECTIONS:
        out.append(f"{heading}\n")
        if group == "slo_guardian":
            members = [spec for spec in specs if spec.group == group]
            out.extend(_control_section(members, outcomes))
            continue
        table = _forensics_table if group == "failure_forensics" else _md_table
        for spec in specs:
            if spec.group == group:
                out.extend(table(outcomes[spec.exp_id]))
    out.append(DIVERGENCES)
    Path(args.out).write_text("\n".join(out))
    print(f"wrote {args.out}")
    return 0


DIVERGENCES = """## Known divergences and their causes

1. **Absolute success rates in baselines.** Our simulator's baselines sit
   10-25 points below/above the paper's on several synthetic rows (e.g.
   default 300 TPS: ~73% vs 81.6%; block count 50: ~65% vs 13.8%). The
   MVCC-conflict density depends on the staleness window x per-key write
   rate, which we calibrated to match the *relative* effects of the
   optimizations rather than any single baseline.
2. **Table 3 agreement is partial.** The paper's own Table 3 is not fully
   self-consistent (e.g. experiment 13 is the default configuration but
   gets block-size adaptation, while Figure 9 implies the default block
   count is already matched; experiments 3 and 13 share a workload yet
   receive different recommendations). Our detector fires a superset on
   some rows (rate control at default traffic) and misses block-size
   adaptation where the derived block size already matches the derived
   rate. Rows marked * in the figures were force-applied for
   completeness.
3. **DRM activity reordering is below the 40% bar.** In our runs
   play-vs-play self-conflicts dominate the DRM failures, so reorderable
   pairs explain <40% of MVCC conflicts and the Section 6.1.5 threshold
   does not fire (the paper recommends reordering for DRM). The bench
   applies it anyway (marked *), and the effect direction matches.
4. **Pruning gains are smaller than the paper's.** The paper reports +27%
   throughput / +19% success for SCM pruning; we reproduce the mechanism
   (anomalous ship/unload transactions abort at endorsement and leave the
   denominator) but our anomaly population yields a few points, not
   nineteen — the paper does not specify its illogical-path rate.
5. **FabricSharp/Fabric++ absolute levels.** Our scheduler models
   reproduce the *existence* of residual gains for BlockOptR on top of
   system-level reordering (Figures 18/19), not the extensions' absolute
   throughput profiles.
"""


if __name__ == "__main__":
    sys.exit(main())
