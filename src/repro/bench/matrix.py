"""Declarative experiment matrices: factors × seeds → run table with CIs.

The registry (:mod:`repro.bench.registry`) enumerates the paper's
experiments one by one; a :class:`MatrixSpec` instead *generates* a run
table from a YAML/JSON file — the cross-product of named factors (block
size, send rate, workload mix, scenario, mitigation, …) crossed with a
seed list:

.. code-block:: yaml

    name: block_rate_sweep
    maker: synthetic
    txs: 400
    seeds: [7, 11, 13]
    factors:
      experiment: default
      block_count: [50, 300, 1000]
      send_rate: [150, 300, 1000]

A cell's factors are the keyword arguments of its maker, one of the
bundle factories of :data:`repro.bench.experiments.MAKERS`; which
factors a maker accepts and requires is read off that factory's
signature.

Expansion (:func:`expand`) produces one concrete
:class:`~repro.bench.registry.ExperimentSpec` per cell × seed, so every
cell flows through the existing parallel executor and content-addressed
cache unchanged: cache keys are per cell (spec payload + seed + budget),
which is what makes a partially completed sweep resume for free after an
interrupt.

Replications are aggregated per cell (:func:`aggregate`) into **median +
bootstrap confidence intervals** instead of single-seed point estimates
— the statistics the run-table methodology of the muBench replication
and benchalot's per-cell samples argue for.  Exports are a per-run
``run_table.csv`` and an aggregated Markdown table, both byte-stable for
a fixed spec (the bootstrap RNG is seeded from the cell id).
"""

from __future__ import annotations

import csv
import hashlib
import inspect
import io
import itertools
import json
import random
import statistics
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

from repro.bench.experiments import MAKERS, TUNABLE_FIELDS
from repro.bench.harness import ExperimentOutcome
from repro.bench.registry import ExperimentSpec

#: Bootstrap resamples per (cell, metric) — enough for stable 2.5/97.5
#: percentiles at these replication counts while keeping aggregation
#: instant next to even one simulation run.
BOOTSTRAP_RESAMPLES = 500

#: Two-sided confidence level of the reported intervals.
CONFIDENCE = 0.95

#: The headline metrics aggregated per cell, in report order.
METRICS = ("throughput", "latency", "success_pct")


class MatrixError(ValueError):
    """A malformed matrix spec (schema, factor, or expansion problem)."""


@dataclass(frozen=True)
class MatrixSpec:
    """One declarative experiment matrix, parsed and validated."""

    name: str
    maker: str
    #: ``(factor name, (value, ...))`` in declaration order — the order
    #: cells are enumerated in and the column order of every export.
    factors: tuple[tuple[str, tuple], ...]
    seeds: tuple[int, ...]
    #: Per-cell transaction budget; ``None`` means the bench default.
    total_transactions: int | None = None
    description: str = ""

    def cell_count(self) -> int:
        """Factor combinations (excluding the seed axis)."""
        count = 1
        for _, values in self.factors:
            count *= len(values)
        return count

    def run_count(self) -> int:
        """Total runs: cells × seeds."""
        return self.cell_count() * len(self.seeds)

    def factor_names(self) -> list[str]:
        """Factor names in declaration order."""
        return [name for name, _ in self.factors]


@dataclass(frozen=True)
class MatrixRun:
    """One expanded run: a factor combination at one seed."""

    #: ``<matrix>/<variant>@s<seed>`` — unique per run, the ``--only`` handle.
    exp_id: str
    #: ``<matrix>/<variant>`` — shared by all seeds of one combination.
    cell_id: str
    #: ``(factor name, value)`` in matrix factor order.
    factors: tuple[tuple[str, object], ...]
    seed: int
    spec: ExperimentSpec


# -- parsing / validation -----------------------------------------------------------


def load_matrix(path: str | Path) -> MatrixSpec:
    """Parse a matrix spec file (YAML or JSON, decided by suffix)."""
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".json":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise MatrixError(f"{path}: invalid JSON: {exc}") from exc
    else:
        try:
            import yaml
        except ImportError as exc:  # pragma: no cover - pyyaml is baked in
            raise MatrixError(
                f"{path}: YAML specs need PyYAML; rewrite the spec as .json"
            ) from exc
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise MatrixError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(data, Mapping):
        raise MatrixError(f"{path}: spec must be a mapping, got {type(data).__name__}")
    return matrix_from_dict(data)


def matrix_from_dict(data: Mapping) -> MatrixSpec:
    """Validate a parsed spec mapping into a :class:`MatrixSpec`."""
    known_keys = {"name", "description", "maker", "factors", "seeds", "txs"}
    unknown = sorted(set(data) - known_keys)
    if unknown:
        raise MatrixError(
            f"unknown spec key(s) {', '.join(unknown)}; "
            f"valid: {', '.join(sorted(known_keys))}"
        )

    name = data.get("name")
    if not isinstance(name, str) or not name.strip():
        raise MatrixError("spec needs a non-empty string 'name'")
    name = name.strip()
    if "/" in name or "@" in name:
        raise MatrixError(f"matrix name {name!r} must not contain '/' or '@'")

    maker = data.get("maker", "synthetic")
    if maker not in MAKERS:
        raise MatrixError(
            f"unknown maker {maker!r}; valid: {', '.join(sorted(MAKERS))}"
        )

    factors = _parse_factors(name, maker, data.get("factors"))
    seeds = _parse_seeds(data.get("seeds"))

    txs = data.get("txs")
    if txs is not None:
        if not isinstance(txs, int) or isinstance(txs, bool) or txs < 1:
            raise MatrixError(f"'txs' must be a positive integer, got {txs!r}")

    description = data.get("description", "")
    if not isinstance(description, str):
        raise MatrixError("'description' must be a string")

    return MatrixSpec(
        name=name,
        maker=maker,
        factors=factors,
        seeds=seeds,
        total_transactions=txs,
        description=description,
    )


def _parse_factors(
    name: str, maker: str, raw: object
) -> tuple[tuple[str, tuple], ...]:
    """Normalize and validate the ``factors`` mapping for one maker."""
    if not isinstance(raw, Mapping) or not raw:
        raise MatrixError(f"matrix {name!r} needs a non-empty 'factors' mapping")
    factors: list[tuple[str, tuple]] = []
    for factor_name, values in raw.items():
        if not isinstance(factor_name, str):
            raise MatrixError(f"factor names must be strings, got {factor_name!r}")
        if isinstance(values, (str, int, float, bool)):
            values = [values]  # a scalar pins the factor to one value
        if not isinstance(values, Sequence) or isinstance(values, (str, bytes)):
            raise MatrixError(
                f"factor {factor_name!r} must be a list of values (or a scalar)"
            )
        for value in values:
            if not isinstance(value, (str, int, float, bool)):
                raise MatrixError(f"factor {factor_name!r} has a non-scalar value {value!r}")
        if len(values) == 0:
            raise MatrixError(
                f"factor {factor_name!r} has an empty value list — the "
                "cross-product would be empty; drop the factor or give it values"
            )
        if len(set(map(str, values))) != len(values):
            raise MatrixError(f"factor {factor_name!r} repeats a value")
        factors.append((factor_name, tuple(values)))

    allowed, required = _maker_factors(maker)
    bad = [factor for factor, _ in factors if factor not in allowed]
    if bad:
        raise MatrixError(
            f"maker {maker!r} does not accept factor(s) "
            f"{', '.join(repr(b) for b in bad)}; valid: {', '.join(sorted(allowed))}"
        )
    present = {factor for factor, _ in factors}
    missing = [factor for factor in required if factor not in present]
    if missing:
        raise MatrixError(
            f"maker {maker!r} requires factor(s) {', '.join(repr(m) for m in missing)}"
        )
    return tuple(factors)


def _maker_factors(maker: str) -> tuple[set[str], list[str]]:
    """The factors ``maker`` accepts, and those it requires in signature order.

    Every keyword of the maker's factory is a factor except ``seed`` and
    ``total_transactions``, which the matrix sets itself; a ``**overrides``
    catch-all admits :data:`~repro.bench.experiments.TUNABLE_FIELDS`.  A
    keyword without a default is required.
    """
    allowed: set[str] = set()
    required: list[str] = []
    for param in inspect.signature(MAKERS[maker]).parameters.values():
        if param.kind is param.VAR_KEYWORD:
            allowed |= TUNABLE_FIELDS
        elif param.name not in ("seed", "total_transactions"):
            allowed.add(param.name)
            if param.default is param.empty:
                required.append(param.name)
    return allowed, required


def _parse_seeds(raw: object) -> tuple[int, ...]:
    """Validate the seed list (non-empty, integer, duplicate-free)."""
    if raw is None:
        raise MatrixError("spec needs a 'seeds' list (one run per cell per seed)")
    if isinstance(raw, int) and not isinstance(raw, bool):
        raw = [raw]
    if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)) or not raw:
        raise MatrixError("'seeds' must be a non-empty list of integers")
    seeds: list[int] = []
    for seed in raw:
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise MatrixError(f"seeds must be integers, got {seed!r}")
        seeds.append(seed)
    if len(set(seeds)) != len(seeds):
        raise MatrixError("'seeds' repeats a value — replications must differ")
    return tuple(seeds)


# -- expansion ----------------------------------------------------------------------


def expand(matrix: MatrixSpec) -> list[MatrixRun]:
    """Cross every factor with every seed into concrete registry specs.

    Cells enumerate in factor declaration order (last factor varies
    fastest), seeds innermost — the row order of ``run_table.csv``.
    Duplicate cell ids (two value combinations that render to the same
    variant string) are an error, not a silent overwrite, and so is a
    cell whose bundle factory rejects a name, choice or type (a mistyped
    base, scenario, mitigation or policy): the sweep stops before any run.
    """
    names = matrix.factor_names()
    value_lists = [values for _, values in matrix.factors]
    runs: list[MatrixRun] = []
    seen_cells: set[str] = set()
    for combo in itertools.product(*value_lists):
        factors = tuple(zip(names, combo))
        variant = "_".join(_slug(value) for value in combo)
        cell_id = f"{matrix.name}/{variant}"
        if cell_id in seen_cells:
            raise MatrixError(
                f"duplicate cell id {cell_id!r}: two factor combinations "
                "render identically; make the values distinguishable"
            )
        seen_cells.add(cell_id)
        template = ExperimentSpec(
            exp_id=cell_id,
            group=matrix.name,
            variant=variant,
            title=f"{matrix.name} / {variant}",
            maker=matrix.maker,
            maker_args=factors,
            total_transactions=matrix.total_transactions,
        )
        try:
            template.make_bundle()  # checks names and choices; runs nothing
        except (KeyError, ValueError, TypeError) as exc:
            raise MatrixError(f"cell {cell_id!r}: {exc.args[0]}") from exc
        for seed in matrix.seeds:
            # Each seed is its own run id, so the executor's outcome map
            # and ``--only`` see every run.
            exp_id = f"{cell_id}@s{seed}"
            spec = replace(
                template,
                exp_id=exp_id,
                title=f"{matrix.name} / {variant} (seed {seed})",
                seed=seed,
            )
            runs.append(
                MatrixRun(
                    exp_id=exp_id,
                    cell_id=cell_id,
                    factors=factors,
                    seed=seed,
                    spec=spec,
                )
            )
    return runs


def _slug(value: object) -> str:
    """A value's id fragment: compact, filesystem/CSV-safe, readable."""
    text = str(value)
    if isinstance(value, float) and text.endswith(".0"):
        text = text[:-2]
    for bad, good in (("/", "-"), ("@", "-"), (" ", "-"), (",", "-")):
        text = text.replace(bad, good)
    return text


# -- statistics ---------------------------------------------------------------------


@dataclass(frozen=True)
class MetricStats:
    """Median and bootstrap CI of one metric across a cell's seeds."""

    median: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class CellStats:
    """Aggregated replications of one cell (all seeds)."""

    cell_id: str
    factors: tuple[tuple[str, object], ...]
    n: int
    metrics: dict[str, MetricStats]


def bootstrap_ci(
    values: Sequence[float],
    key: str,
    resamples: int = BOOTSTRAP_RESAMPLES,
    confidence: float = CONFIDENCE,
) -> tuple[float, float]:
    """Percentile bootstrap CI of the median, deterministically seeded.

    The RNG seed derives from ``key`` (cell id + metric) via SHA-256, so
    re-running the same matrix reproduces the interval bit for bit —
    run-table exports stay byte-stable.  With a single replication the
    interval degrades to the point itself.
    """
    if not values:
        raise ValueError("bootstrap_ci needs at least one value")
    if len(values) == 1:
        return (values[0], values[0])
    seed = int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")
    rng = random.Random(seed)
    n = len(values)
    medians = sorted(
        statistics.median(rng.choices(values, k=n)) for _ in range(resamples)
    )
    alpha = (1.0 - confidence) / 2.0
    low = medians[int(alpha * (resamples - 1))]
    high = medians[int((1.0 - alpha) * (resamples - 1))]
    return (low, high)


def aggregate(
    runs: list[MatrixRun], outcomes: Mapping[str, ExperimentOutcome]
) -> list[CellStats]:
    """Collapse per-seed baseline rows into per-cell median + CI stats.

    ``outcomes`` maps ``exp_id`` → outcome (the suite report's pairing).
    Each run contributes its *baseline* row — matrix cells carry no
    optimization plans, so the baseline is the cell's one measurement.
    """
    by_cell: dict[str, list[MatrixRun]] = {}
    for run in runs:
        by_cell.setdefault(run.cell_id, []).append(run)
    cells: list[CellStats] = []
    for cell_id, cell_runs in by_cell.items():
        samples: dict[str, list[float]] = {metric: [] for metric in METRICS}
        for run in cell_runs:
            row = outcomes[run.exp_id].rows[0]
            samples["throughput"].append(row.throughput)
            samples["latency"].append(row.latency)
            samples["success_pct"].append(row.success_pct)
        metrics = {}
        for metric in METRICS:
            values = samples[metric]
            low, high = bootstrap_ci(values, key=f"{cell_id}:{metric}")
            metrics[metric] = MetricStats(
                median=statistics.median(values), ci_low=low, ci_high=high
            )
        cells.append(
            CellStats(
                cell_id=cell_id,
                factors=cell_runs[0].factors,
                n=len(cell_runs),
                metrics=metrics,
            )
        )
    return cells


# -- exports ------------------------------------------------------------------------


def run_table_csv(
    runs: list[MatrixRun], outcomes: Mapping[str, ExperimentOutcome]
) -> str:
    """The per-run table: one CSV row per cell × seed, expansion order.

    Columns: run id, cell id, one column per factor, seed, the resolved
    transaction budget, and the three headline metrics.  Content depends
    only on the spec and the (deterministic) simulations, so a re-run
    writes byte-identical CSV — the CI smoke step asserts this.
    """
    factor_names = [name for name, _ in runs[0].factors] if runs else []
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ["run_id", "cell_id", *factor_names, "seed", "txs",
         "throughput_tps", "latency_s", "success_pct"]
    )
    for run in runs:
        row = outcomes[run.exp_id].rows[0]
        writer.writerow(
            [
                run.exp_id,
                run.cell_id,
                *[value for _, value in run.factors],
                run.seed,
                run.spec.payload()["total_transactions"],
                row.throughput,
                row.latency,
                row.success_pct,
            ]
        )
    return buffer.getvalue()


def summary_markdown(matrix: MatrixSpec, cells: list[CellStats]) -> str:
    """The aggregated Markdown table: one row per cell, median [CI] cells."""
    factor_names = matrix.factor_names()
    lines = [
        f"# Matrix `{matrix.name}`",
        "",
        f"{matrix.cell_count()} cells × {len(matrix.seeds)} seeds "
        f"= {matrix.run_count()} runs (maker `{matrix.maker}`, seeds "
        f"{', '.join(str(seed) for seed in matrix.seeds)}).",
        "",
        "Medians with "
        f"{CONFIDENCE:.0%} percentile-bootstrap confidence intervals "
        f"({BOOTSTRAP_RESAMPLES} resamples) over the seed replications.",
        "",
        "| cell | " + " | ".join(factor_names)
        + " | n | tput (tps) | latency (s) | success (%) |",
        "|---" * (len(factor_names) + 5) + "|",
    ]
    for cell in cells:
        metric_cells = [
            _format_stats(cell.metrics["throughput"], 1),
            _format_stats(cell.metrics["latency"], 2),
            _format_stats(cell.metrics["success_pct"], 1),
        ]
        lines.append(
            "| " + cell.cell_id.split("/", 1)[1]
            + " | " + " | ".join(str(value) for _, value in cell.factors)
            + f" | {cell.n} | " + " | ".join(metric_cells) + " |"
        )
    lines.append("")
    return "\n".join(lines)


def _format_stats(stats: MetricStats, decimals: int) -> str:
    """``median [lo, hi]``, or just the median for single-seed cells."""
    if stats.ci_low == stats.ci_high == stats.median:
        return f"{stats.median:.{decimals}f}"
    return (
        f"{stats.median:.{decimals}f} "
        f"[{stats.ci_low:.{decimals}f}, {stats.ci_high:.{decimals}f}]"
    )


def write_outputs(
    out_dir: str | Path,
    matrix: MatrixSpec,
    runs: list[MatrixRun],
    outcomes: Mapping[str, ExperimentOutcome],
) -> tuple[Path, Path]:
    """Write ``run_table.csv`` and ``summary.md`` under ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    table_path = out / "run_table.csv"
    table_path.write_text(run_table_csv(runs, outcomes))
    summary_path = out / "summary.md"
    summary_path.write_text(summary_markdown(matrix, aggregate(runs, outcomes)))
    return table_path, summary_path
