"""Paper-style table rendering for experiment outcomes."""

from __future__ import annotations

from repro.bench.harness import ExperimentOutcome, RunRow

_HEADER = f"{'run':<28} {'tput(tps)':>10} {'lat(s)':>8} {'success%':>9}"


def _format_row(row: RunRow) -> str:
    flag = " *" if row.forced else ""
    return (
        f"{row.label:<28} {row.throughput:>10.1f} {row.latency:>8.2f} "
        f"{row.success_pct:>9.1f}{flag}"
    )


def format_outcome(outcome: ExperimentOutcome) -> str:
    """Measured rows only."""
    lines = [f"== {outcome.name} ==", _HEADER]
    lines.extend(_format_row(row) for row in outcome.rows)
    if outcome.recommendations:
        lines.append(f"recommended: {', '.join(outcome.recommendations)}")
    if any(row.forced for row in outcome.rows):
        lines.append("(* = applied although not recommended at current thresholds)")
    return "\n".join(lines)


def format_paper_comparison(outcome: ExperimentOutcome) -> str:
    """Measured vs paper, side by side, as ``repro suite`` prints them."""
    lines = [
        f"== {outcome.name} ==",
        f"{'run':<28} {'tput':>8} {'lat':>7} {'succ%':>7}   "
        f"{'paper tput':>10} {'paper lat':>9} {'paper succ%':>11}",
    ]
    for row in outcome.rows:
        paper = outcome.paper.get(row.label)
        if paper is None:
            paper_cells = f"{'-':>10} {'-':>9} {'-':>11}"
        else:
            paper_cells = f"{paper[0]:>10.1f} {paper[1]:>9.2f} {paper[2]:>11.1f}"
        flag = " *" if row.forced else ""
        lines.append(
            f"{row.label:<28} {row.throughput:>8.1f} {row.latency:>7.2f} "
            f"{row.success_pct:>7.1f}   {paper_cells}{flag}"
        )
    if outcome.recommendations:
        lines.append(f"recommended: {', '.join(outcome.recommendations)}")
    return "\n".join(lines)

