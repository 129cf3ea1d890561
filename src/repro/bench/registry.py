"""Declarative run table: every figure/use-case experiment as an ExperimentSpec.

The suite runner (``python -m repro suite``), the paper's claims
(:mod:`repro.bench.claims`) and ``scripts/generate_experiments_md.py`` all
pull their experiment definitions from this registry, so the set of runs
behind the paper's tables and figures exists in exactly one place.

An :class:`ExperimentSpec` is fully declarative — plain strings, numbers
and tuples — which makes it hashable, picklable (process-pool workers
receive specs, not closures) and JSON-serializable (the result cache keys
on the spec payload).  Its ``maker`` names one of the four bundle
factories of :data:`repro.bench.experiments.MAKERS` and its
``maker_args`` are that factory's keyword arguments, the same encoding a
matrix cell (:mod:`repro.bench.matrix`) uses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Callable, Iterable, Sequence, TypeVar

from repro.bench import experiments as defs
from repro.bench.harness import MakeBundle
from repro.core.recommendations import OptimizationKind as K

#: (label, (OptimizationKind values, ...)) — kinds stored by value so the
#: spec stays declarative; resolve with :meth:`ExperimentSpec.resolved_plans`.
PlanTable = tuple[tuple[str, tuple[str, ...]], ...]

#: A selectable item: an :class:`ExperimentSpec` or a matrix run.
T = TypeVar("T")


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment of the paper as a declarative, picklable record."""

    #: Stable identifier, ``<group>/<variant>`` (e.g. ``fig09_block_size/block_count_50``).
    exp_id: str
    group: str
    variant: str
    #: Human title matching the historical bench output (``Figure 9 / ...``).
    title: str
    #: Bundle factory: a key of :data:`repro.bench.experiments.MAKERS`
    #: (``synthetic``, ``scenario``, ``usecase`` or ``loan``).
    maker: str
    #: The factory's keyword arguments, ``((name, value), ...)``; the seed
    #: and the budget come from the fields below.
    maker_args: tuple[tuple[str, object], ...] = ()
    seed: int = 7
    #: ``None`` means the bench budget (``REPRO_BENCH_TXS``) at run time.
    total_transactions: int | None = None
    plans: PlanTable = ()
    #: ((row label, (tput, lat, succ%)), ...) — the paper's reported values.
    paper: tuple[tuple[str, tuple[float, float, float]], ...] = ()

    # -- derived views -----------------------------------------------------------

    def make_bundle(self) -> MakeBundle:
        """Materialize the bundle factory this spec describes."""
        return defs.MAKERS[self.maker](
            **dict(self.maker_args),
            seed=self.seed,
            total_transactions=self.total_transactions,
        )

    def resolved_plans(self) -> list[tuple[str, tuple[K, ...]]]:
        """Plans with the optimization kinds resolved to enum members."""
        return [
            (label, tuple(K(value) for value in values))
            for label, values in self.plans
        ]

    def paper_dict(self) -> dict[str, tuple[float, float, float]]:
        """The paper's (throughput, latency, success%) per row label."""
        return {label: values for label, values in self.paper}

    def run_count(self) -> int:
        """Runs of this experiment alone (baseline + plans); a suite shares a bundle's."""
        return 1 + len(self.plans)

    def with_overrides(
        self, seed: int | None = None, total_transactions: int | None = None
    ) -> "ExperimentSpec":
        """A copy with the seed and/or transaction budget replaced."""
        spec = self
        if seed is not None:
            spec = replace(spec, seed=seed)
        if total_transactions is not None:
            spec = replace(spec, total_transactions=total_transactions)
        return spec

    def bundle_key(self) -> str:
        """The bundle's identity: :meth:`payload` less the id and the plans.

        Specs with one key (maker, its arguments, seed and resolved
        budget) build equal bundles, so the suite runs their baseline,
        analysis and shared plans once
        (:func:`repro.bench.executor.run_suite`).
        """
        identity = self.payload()
        del identity["exp_id"], identity["plans"]
        return json.dumps(identity, sort_keys=True)

    def payload(self) -> dict:
        """JSON-able identity of this spec, used for cache keying.

        The *resolved* transaction budget is part of the identity so runs
        at different ``REPRO_BENCH_TXS`` never collide.
        """
        return {
            "exp_id": self.exp_id,
            "maker": self.maker,
            "maker_args": list(self.maker_args),
            "seed": self.seed,
            "total_transactions": (
                self.total_transactions
                if self.total_transactions is not None
                else defs.SCALE_TXS
            ),
            "plans": [[label, list(values)] for label, values in self.plans],
        }


# -- registry construction ---------------------------------------------------------


def _plan(label: str, kinds: tuple[K, ...]) -> tuple[str, tuple[str, ...]]:
    return (label, tuple(kind.value for kind in kinds))


def _paper_rows(table: dict) -> tuple:
    return tuple((label, tuple(values)) for label, values in table.items())


def _synthetic_group(
    group: str,
    figure: str,
    table: dict,
    plans_for: dict | list,
    **settings: str,
) -> tuple[ExperimentSpec, ...]:
    specs = []
    for variant, paper in table.items():
        plans = plans_for[variant] if isinstance(plans_for, dict) else plans_for
        specs.append(
            ExperimentSpec(
                exp_id=f"{group}/{variant}",
                group=group,
                variant=variant,
                title=f"{figure} / {variant}",
                maker="synthetic",
                maker_args=(("experiment", variant), *settings.items()),
                plans=tuple(plans),
                paper=_paper_rows(paper),
            )
        )
    return tuple(specs)


def _combined_plans(variant: str) -> list:
    """Figure 12 applies exactly the paper's Table 3 recommendations."""
    kinds = tuple(
        sorted(
            defs.TABLE3_EXPECTED.get(variant, {K.TRANSACTION_RATE_CONTROL}),
            key=lambda kind: kind.value,
        )
    )
    return [_plan("all", kinds)]


def _usecase_spec(
    group: str, figure: str, usecase: str, paper: dict
) -> tuple[ExperimentSpec, ...]:
    plans = tuple(
        _plan(label, kinds) for label, kinds in defs.usecase_plans(usecase)
    )
    return (
        ExperimentSpec(
            exp_id=f"{group}/{usecase}",
            group=group,
            variant=usecase,
            title=figure,
            maker="usecase",
            maker_args=(("usecase", usecase),),
            plans=plans,
            paper=_paper_rows(paper),
        ),
    )


def _scenario_group() -> tuple[ExperimentSpec, ...]:
    """Fault-injection scenarios against the default synthetic workload.

    ``(scenario name, optimization plans)``: every scenario runs its
    baseline *and* its optimized re-runs under the same interventions, so
    the rows measure how much the recommendations recover under faults.
    """
    rate_control = _plan("transaction rate control", (K.TRANSACTION_RATE_CONTROL,))
    block_size = _plan("block size adaptation", (K.BLOCK_SIZE_ADAPTATION,))
    reordering = _plan("activity reordering", (K.ACTIVITY_REORDERING,))
    table: tuple[tuple[str, tuple, str], ...] = (
        ("crash_burst", (rate_control,), "default"),
        ("crash_recover", (), "default"),
        ("flaky_endorser", (rate_control,), "default"),
        ("degraded_orderer", (block_size,), "default"),
        ("conflict_storm", (reordering,), "workload_update_heavy"),
        ("chaos", (rate_control,), "default"),
        # The forensics showcase: every abort cause of docs/FAILURES.md
        # (MVCC, phantom, crashed peer, endorsement timeout) in one run.
        ("partial_outage", (rate_control,), "default"),
    )
    return tuple(
        ExperimentSpec(
            exp_id=f"scenario_faults/{scenario}",
            group="scenario_faults",
            variant=scenario,
            title=f"Scenario / {scenario} on {base}",
            maker="scenario",
            maker_args=(("base", base), ("scenario", scenario)),
            plans=plans,
        )
        for scenario, plans, base in table
    )


def _fuzzed_group() -> tuple[ExperimentSpec, ...]:
    """Fuzzer-promoted scenarios (``repro fuzz``, see docs/SCENARIOS.md).

    The most severe oracle-clean compositions a seeded fuzz campaign
    found, promoted into :mod:`repro.scenario.library` with their run
    digests pinned in ``tests/golden/fuzzed__library_digests.json``.
    They stress the workload-realism primitives the hand-written
    scenarios don't reach: rate curves, hot-key drift and region lag.
    """
    rate_control = _plan("transaction rate control", (K.TRANSACTION_RATE_CONTROL,))
    table: tuple[tuple[str, tuple], ...] = (
        ("flash_crowd_outage", (rate_control,)),
        ("org_blackout_storm", ()),
        ("rolling_contention", (rate_control,)),
    )
    return tuple(
        ExperimentSpec(
            exp_id=f"fuzzed/{scenario}",
            group="fuzzed",
            variant=scenario,
            title=f"Fuzzed / {scenario} on default",
            maker="scenario",
            maker_args=(("base", "default"), ("scenario", scenario)),
            plans=plans,
        )
        for scenario, plans in table
    )


def _forensics_group() -> tuple[ExperimentSpec, ...]:
    """The mitigation × scenario sweep behind ``failure_forensics``.

    Each cell is a single run (no optimization plans): one fault scenario
    crossed with a mitigation strategy and/or a client retry policy.  The
    ``none`` cells are bit-identical to the plain scenario runs, so the
    sweep measures exactly what each mitigation buys — the forensics
    reports cached with every outcome carry the per-cause abort counts
    the comparison is made on (see docs/FAILURES.md).
    """
    sweeps: tuple[tuple[str, str], ...] = (
        ("conflict_storm", "workload_update_heavy"),
        ("partial_outage", "default"),
    )
    cells: list[tuple[str, str, str, str, int]] = []
    for scenario, base in sweeps:
        for mitigation in ("none", "early_abort", "reorder"):
            cells.append((f"{scenario}__{mitigation}", base, scenario, mitigation, 1))
        cells.append((f"{scenario}__retry", base, scenario, "none", 3))
        cells.append(
            (f"{scenario}__early_abort_retry", base, scenario, "early_abort", 3)
        )
    return tuple(
        ExperimentSpec(
            exp_id=f"failure_forensics/{variant}",
            group="failure_forensics",
            variant=variant,
            title=f"Forensics / {scenario} + {mitigation}"
            + (f" + retry({retry})" if retry > 1 else "")
            + f" on {base}",
            maker="scenario",
            maker_args=(
                ("base", base),
                ("scenario", scenario),
                ("mitigation", mitigation),
                ("retry_attempts", retry),
            ),
        )
        for variant, base, scenario, mitigation, retry in cells
    )


def _control_group() -> tuple[ExperimentSpec, ...]:
    """The controller-on/off sweep behind ``slo_guardian``.

    Every scenario in the library — the promoted fuzzed worst cases
    included — crossed with the SLO-guardian controller off and on, under
    a 2-attempt client retry policy (the controller's retry-tightening
    actuator needs headroom to act).  The ``off`` cells are bit-identical
    to the same runs without the control package; the headline comparison
    (per-scenario abort rate, latency, throughput with the guardian
    active) is pinned in ``tests/golden/slo_guardian__comparison.json``.
    """
    from repro.scenario.library import scenario_names

    cells = [
        (f"{scenario}__{policy}", scenario, policy)
        for scenario in scenario_names()
        for policy in ("off", "guardian")
    ]
    return tuple(
        ExperimentSpec(
            exp_id=f"slo_guardian/{variant}",
            group="slo_guardian",
            variant=variant,
            title=f"SLO guardian / {scenario} ({policy})",
            maker="scenario",
            maker_args=(
                ("base", "default"),
                ("scenario", scenario),
                ("policy", policy),
                ("retry_attempts", 2),
            ),
        )
        for variant, scenario, policy in cells
    )


def _build_registry() -> dict[str, tuple[ExperimentSpec, ...]]:
    restructuring = [_plan("endorser restructuring", (K.ENDORSER_RESTRUCTURING,))]
    rate_control = [_plan("transaction rate control", (K.TRANSACTION_RATE_CONTROL,))]
    registry: dict[str, tuple[ExperimentSpec, ...]] = {
        "table3": tuple(
            ExperimentSpec(
                exp_id=f"table3/{variant}",
                group="table3",
                variant=variant,
                title=f"Table 3 / {variant}",
                maker="synthetic",
                maker_args=(("experiment", variant),),
            )
            for variant in defs.TABLE3_EXPECTED
        ),
        "fig07_endorser": _synthetic_group(
            "fig07_endorser", "Figure 7", defs.FIG7_ENDORSER, restructuring
        ),
        "fig08_client_boost": _synthetic_group(
            "fig08_client_boost",
            "Figure 8",
            defs.FIG8_CLIENT_BOOST,
            [_plan("client resource boost", (K.CLIENT_RESOURCE_BOOST,))],
        ),
        "fig09_block_size": _synthetic_group(
            "fig09_block_size",
            "Figure 9",
            defs.FIG9_BLOCK_SIZE,
            [_plan("block size adaptation", (K.BLOCK_SIZE_ADAPTATION,))],
        ),
        "fig10_rate_control": _synthetic_group(
            "fig10_rate_control", "Figure 10", defs.FIG10_RATE_CONTROL, rate_control
        ),
        "fig11_reordering": _synthetic_group(
            "fig11_reordering",
            "Figure 11",
            defs.FIG11_REORDERING,
            [_plan("activity reordering", (K.ACTIVITY_REORDERING,))],
        ),
        "fig12_combined": _synthetic_group(
            "fig12_combined",
            "Figure 12",
            defs.FIG12_COMBINED,
            {variant: _combined_plans(variant) for variant in defs.FIG12_COMBINED},
        ),
        "fig13_scm": _usecase_spec("fig13_scm", "Figure 13 / SCM", "scm", defs.FIG13_SCM),
        "fig14_drm": _usecase_spec("fig14_drm", "Figure 14 / DRM", "drm", defs.FIG14_DRM),
        "fig15_ehr": _usecase_spec("fig15_ehr", "Figure 15 / EHR", "ehr", defs.FIG15_EHR),
        "fig16_voting": _usecase_spec(
            "fig16_voting", "Figure 16 / DV", "voting", defs.FIG16_DV
        ),
        "fig17_loan": (
            ExperimentSpec(
                exp_id="fig17_loan/send_rate_10",
                group="fig17_loan",
                variant="send_rate_10",
                title="Figure 17 / LAP send_rate_10",
                maker="loan",
                maker_args=(("send_rate", 10.0),),
                plans=(_plan("data model alteration", (K.DATA_MODEL_ALTERATION,)),),
                paper=_paper_rows(defs.FIG17_LAP["send_rate_10"]),
            ),
            ExperimentSpec(
                exp_id="fig17_loan/send_rate_300",
                group="fig17_loan",
                variant="send_rate_300",
                title="Figure 17 / LAP send_rate_300",
                maker="loan",
                maker_args=(("send_rate", 300.0),),
                plans=(
                    _plan("data model alteration", (K.DATA_MODEL_ALTERATION,)),
                    _plan("transaction rate control", (K.TRANSACTION_RATE_CONTROL,)),
                    _plan(
                        "all",
                        (K.DATA_MODEL_ALTERATION, K.TRANSACTION_RATE_CONTROL),
                    ),
                ),
                paper=_paper_rows(defs.FIG17_LAP["send_rate_300"]),
            ),
        ),
        "fig18_fabricsharp": _synthetic_group(
            "fig18_fabricsharp",
            "Figure 18",
            defs.FIG18_FABRICSHARP,
            {
                "endorsement_policy_p1": restructuring,
                "endorsement_policy_p2_skew": restructuring,
                "workload_insert_heavy": rate_control,
            },
            scheduler="fabricsharp",
        ),
        "fig19_fabricpp": _synthetic_group(
            "fig19_fabricpp",
            "Figure 19",
            defs.FIG19_FABRICPP,
            [
                _plan("transaction rate control", (K.TRANSACTION_RATE_CONTROL,)),
                _plan("activity reordering", (K.ACTIVITY_REORDERING,)),
                _plan(
                    "all", (K.TRANSACTION_RATE_CONTROL, K.ACTIVITY_REORDERING)
                ),
            ],
            scheduler="fabricpp",
        ),
        # Beyond the paper: fault-injection scenarios (repro.scenario).
        # No paper rows exist — the runs answer "do the recommendations
        # still help under faults and dynamic network conditions?".
        "scenario_faults": _scenario_group(),
        # Beyond the paper: fuzzer-promoted worst-case compositions
        # (repro.scenario.fuzz) — severe scenarios a seeded campaign
        # discovered, exercising rate curves, hot-key drift, region lag.
        "fuzzed": _fuzzed_group(),
        # Beyond the paper: the mitigation × scenario forensics sweep
        # (repro.analysis) — "which mitigation recovers which abort cause?".
        "failure_forensics": _forensics_group(),
        # Beyond the paper: the SLO-guardian controller sweep
        # (repro.control) — "what does closing the loop at run time buy?".
        "slo_guardian": _control_group(),
    }
    return registry


REGISTRY: dict[str, tuple[ExperimentSpec, ...]] = _build_registry()

def all_specs() -> list[ExperimentSpec]:
    """Every registered experiment, in figure order."""
    return [spec for specs in REGISTRY.values() for spec in specs]


def get(exp_id: str) -> ExperimentSpec:
    """Look one experiment up by its ``<group>/<variant>`` id."""
    for spec in all_specs():
        if spec.exp_id == exp_id:
            return spec
    raise KeyError(f"unknown experiment {exp_id!r}")


class UnknownSelectionError(KeyError):
    """``--only`` tokens that matched nothing — all of them, not just the first.

    A thousand-cell sweep launched with a typoed id must fail loudly
    *before* any simulation runs, and must name every bad token so the
    user fixes the whole selection in one round trip.
    """

    def __init__(self, unmatched: list[str], hint: str) -> None:
        self.unmatched = list(unmatched)
        rendered = ", ".join(repr(token) for token in self.unmatched)
        super().__init__(
            f"--only matched nothing for {rendered}; {hint}"
        )


def select(
    tokens: Iterable[str],
    candidates: Sequence[T] | None = None,
    group: Callable[[T], str] = attrgetter("group"),
    hint: str | None = None,
) -> list[T]:
    """Resolve ``--only`` tokens: ids, groups or group prefixes.

    A candidate matches a token equal to its ``exp_id`` or a prefix of
    its ``group``.  By default the candidates are the registry's
    experiments: ``fig09`` matches the ``fig09_block_size`` group and
    ``fig09_block_size/block_count_50`` one experiment.  ``repro matrix``
    passes its expanded runs with their cell ids as groups, so a cell id
    selects every seed of the cell.  Order follows the candidates.
    Tokens that match nothing, including a selection that is entirely
    blank, raise :class:`UnknownSelectionError` listing every unmatched
    token with ``hint`` (default: the registry's groups), so a typo can
    never silently select zero experiments.
    """
    tokens = list(tokens)
    if candidates is None:
        candidates = all_specs()
    if hint is None:
        hint = f"known groups: {', '.join(REGISTRY)}"
    cleaned = [token.strip() for token in tokens if token.strip()]
    if not cleaned:
        raise UnknownSelectionError(tokens, "the selection is empty")

    def matches(candidate: T, token: str) -> bool:
        return candidate.exp_id == token or group(candidate).startswith(token)

    unmatched = [
        token
        for token in cleaned
        if not any(matches(candidate, token) for candidate in candidates)
    ]
    if unmatched:
        raise UnknownSelectionError(unmatched, hint)
    return [
        candidate
        for candidate in candidates
        if any(matches(candidate, token) for token in cleaned)
    ]
