"""Seeded scenario fuzzing: generate, check, shrink, rank, promote.

The library's hand-written scenarios cover an author-biased sliver of the
fault space.  This module turns the scenario engine into correctness
tooling for the whole stack: a fully seeded generator composes random
:class:`~repro.scenario.spec.Intervention` sequences (faults *and* the
workload-realism primitives — rate curves, drifting hot keys, regional
lag, mix shifts), every composition runs through a battery of
**differential oracles**, failing compositions are greedily **shrunk** to
a minimal reproducing spec, and surviving compositions are ranked by how
much they hurt (abort rate + retry-storm pressure, labeled from the
8-cause taxonomy of docs/FAILURES.md) so the worst ones can be promoted
into :mod:`repro.scenario.library` as named, golden-pinned scenarios.

Oracles (each returns a list of violation strings, empty = pass):

``determinism``
    The same seed + spec must reproduce the run bit for bit: two fresh
    :func:`execute` calls show no :func:`divergences` — identical kernel
    event trace, :func:`~repro.scenario.engine.run_digest`, forensics
    digest and control-timeline digest.  ``repro scenario
    --check-determinism`` applies the same check to its last row.
``stream_batch``
    Within one run, the live stream consumers must agree with the
    post-run readers: the run's outcome fold (``network.outcomes``, the
    :class:`~repro.analysis.forensics.ForensicsAccumulator` that
    :meth:`~repro.fabric.network.FabricNetwork.run` registers) produces
    the :class:`~repro.analysis.forensics.ForensicsReport` digest of
    :func:`~repro.analysis.forensics.forensics_report`, the walk of the
    kept chain, and a live :class:`~repro.core.metrics.MetricsAccumulator`
    produces the :class:`~repro.core.metrics.LogMetrics` BlockOptR reads
    back from the run's exported CSV log.
``conservation``
    Transaction counts must balance: every issued transaction (original
    or retry) ends exactly once — committed or aborted — and the
    forensics taxonomy accounts for every failure.
``roundtrip``
    Every generated spec must survive JSON serialization unchanged.
``control_equivalence``
    The SLO-guardian controller must keep the differential invariants: a
    noop-policy controller reproduces the primary run digest, and
    guardian-on runs replay with no :func:`divergences`.

Everything is deterministic: the generator derives one private
``random.Random`` per (campaign seed, composition index) via SHA-256, so
``repro fuzz --seed S --budget N`` is bit-reproducible and a persisted
corpus (one JSON file per composition plus a ``campaign.json`` manifest)
can be replayed in CI to pin both oracle verdicts and run digests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.analysis.forensics import (
    CAUSES,
    ForensicsReport,
    forensics_report,
    report_digest,
)
from repro.fabric.network import FabricNetwork
from repro.fabric.retry import RetryPolicy
from repro.scenario.engine import run_digest
from repro.scenario.spec import (
    KINDS,
    MIX_FROM_ACTIVITIES,
    MIX_TO_ACTIVITIES,
    Intervention,
    ScenarioSpec,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.contracts.registry import ContractFamily
    from repro.fabric.config import NetworkConfig
    from repro.fabric.results import RunResult
    from repro.fabric.transaction import TxRequest

#: Corpus on-disk format version (bump on incompatible change).
CORPUS_FORMAT = 1

#: The oracle battery, in reporting order.
ORACLES = (
    "determinism",
    "stream_batch",
    "conservation",
    "roundtrip",
    "control_equivalence",
)

#: One-line taxonomy explanations used to auto-label *why* a surviving
#: composition hurts (definitions: docs/FAILURES.md).
CAUSE_EXPLANATIONS = {
    "mvcc_conflict": (
        "stale reads are invalidated at validation when a hot key commits first"
    ),
    "phantom_conflict": "range scans observe a key set that changed before commit",
    "policy_endorsement_timeout": (
        "endorser queues exceed the client timeout, so endorsements go missing"
    ),
    "policy_crashed_peer": (
        "crashed peers cannot endorse and the policy goes unsatisfied"
    ),
    "policy_unsatisfied": (
        "the submitted endorsement set does not satisfy the channel policy"
    ),
    "early_abort_stale_read": (
        "the early-abort mitigation drops already-stale envelopes at the client"
    ),
    "early_abort_scheduler": (
        "the conflict-aware scheduler drops transactions it cannot place"
    ),
    "early_abort_chaincode": (
        "the chaincode itself rejects the transaction during endorsement"
    ),
}

# -- generation palettes ----------------------------------------------------------
#
# Discrete value palettes keep every generated composition valid by
# construction (spec validation would reject anything else) and biased
# toward the first ~1.5 simulated seconds, where a test-sized workload
# (a few hundred transactions at 300 TPS) actually lives.

_TIMES = (0.1, 0.2, 0.3, 0.45, 0.6, 0.8)
_DURATIONS = (0.25, 0.4, 0.6, 0.8, 1.0)
_SPIKE_FACTORS = (2.0, 3.0, 6.0, 10.0, 25.0)
_SLOW_FACTORS = (2.0, 4.0, 8.0, 20.0, 60.0)
_BURST_FACTORS = (2.0, 3.0, 6.0)
_ORDERER_FACTORS = (2.0, 3.0, 6.0)
_REGION_FACTORS = (3.0, 10.0, 40.0)
_PEER_TARGETS = ("Org1", "Org2", "Org1-peer0", "Org2-peer0")
_ORG_TARGETS = ("Org1", "Org2")
_FRACTIONS = (0.25, 0.5, 0.75, 1.0)
_HOT_KEY_COUNTS = (1, 2, 4, 8)
_STORM_ACTIVITIES = ("update", "write", "read")
_DRIFT_PHASES = (2, 3, 4)
_MIX_PAIRS = tuple(
    sorted(
        (source, target)
        for source in MIX_FROM_ACTIVITIES
        for target in MIX_TO_ACTIVITIES
        if source != target
    )
)
#: Diurnal / flash-crowd shapes around the 300 TPS default send rate.
_PROFILES = (
    ((0.0, 600.0), (0.5, 120.0)),
    ((0.0, 120.0), (0.3, 900.0), (0.6, 200.0)),
    ((0.0, 300.0), (0.4, 80.0), (0.9, 500.0)),
    ((0.0, 900.0), (0.25, 150.0)),
)
#: Kinds the generator draws from (``peer_recover`` is omitted: crashes
#: are generated with a recovery duration instead of a paired event).
GENERATED_KINDS = tuple(sorted(KINDS - {"peer_recover"}))


def _rng_for(seed: int, index: int) -> random.Random:
    """A private, stable RNG per (campaign seed, composition index)."""
    digest = hashlib.sha256(f"repro-fuzz:{seed}:{index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _generate_intervention(rng: random.Random) -> Intervention:
    """Draw one valid intervention from the palettes."""
    kind = rng.choice(GENERATED_KINDS)
    at = rng.choice(_TIMES)
    duration = rng.choice(_DURATIONS)
    if kind == "peer_crash":
        return Intervention(
            kind=kind, at=at, duration=duration, target=rng.choice(_PEER_TARGETS)
        )
    if kind == "endorser_slowdown":
        return Intervention(
            kind=kind,
            at=at,
            duration=duration,
            target=rng.choice(_PEER_TARGETS + (None,)),
            factor=rng.choice(_SLOW_FACTORS),
        )
    if kind == "latency_spike":
        return Intervention(
            kind=kind, at=at, duration=duration, factor=rng.choice(_SPIKE_FACTORS)
        )
    if kind == "orderer_degradation":
        return Intervention(
            kind=kind, at=at, duration=duration, factor=rng.choice(_ORDERER_FACTORS)
        )
    if kind == "region_lag":
        return Intervention(
            kind=kind,
            at=at,
            duration=duration,
            target=rng.choice(_ORG_TARGETS),
            factor=rng.choice(_REGION_FACTORS),
        )
    if kind == "burst_arrivals":
        return Intervention(
            kind=kind, at=at, duration=duration, factor=rng.choice(_BURST_FACTORS)
        )
    if kind == "conflict_storm":
        return Intervention(
            kind=kind,
            at=at,
            duration=duration,
            fraction=rng.choice(_FRACTIONS),
            hot_keys=rng.choice(_HOT_KEY_COUNTS),
            activity=rng.choice(_STORM_ACTIVITIES),
        )
    if kind == "hot_key_drift":
        return Intervention(
            kind=kind,
            at=at,
            duration=duration,
            fraction=rng.choice(_FRACTIONS),
            hot_keys=rng.choice(_HOT_KEY_COUNTS),
            activity=rng.choice(_STORM_ACTIVITIES),
            phases=rng.choice(_DRIFT_PHASES),
        )
    if kind == "mix_shift":
        source, target = rng.choice(_MIX_PAIRS)
        return Intervention(
            kind=kind,
            at=at,
            duration=duration,
            fraction=rng.choice(_FRACTIONS),
            from_activity=source,
            to_activity=target,
        )
    # kind == "rate_curve"
    return Intervention(kind=kind, at=at, profile=rng.choice(_PROFILES))


def generate_spec(seed: int, index: int, max_interventions: int = 4) -> ScenarioSpec:
    """The ``index``-th composition of campaign ``seed`` (pure function)."""
    if max_interventions < 1:
        raise ValueError(f"need >= 1 intervention, got {max_interventions}")
    rng = _rng_for(seed, index)
    count = rng.randint(1, max_interventions)
    return ScenarioSpec(
        name=f"fuzz_{seed}_{index:04d}",
        description=f"fuzzer composition (seed {seed}, index {index})",
        interventions=tuple(_generate_intervention(rng) for _ in range(count)),
    )


# -- execution harness ------------------------------------------------------------


@dataclass(frozen=True)
class FuzzConfig:
    """One fuzz campaign's knobs (fully determines its output)."""

    seed: int = 11
    budget: int = 20
    #: Named synthetic experiment providing the base workload.
    base: str = "default"
    transactions: int = 400
    #: Total client attempts per logical transaction (> 1 arms retries, so
    #: retry storms are observable; 1 restores fire-and-forget clients).
    retry_attempts: int = 2
    max_interventions: int = 4
    oracles: tuple[str, ...] = ORACLES
    shrink: bool = True

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        unknown = set(self.oracles) - set(ORACLES)
        if unknown:
            raise ValueError(
                f"unknown oracles {sorted(unknown)}; known: {list(ORACLES)}"
            )


@dataclass(frozen=True)
class Execution:
    """One finished, traced batch run and the digests that identify it."""

    network: FabricNetwork
    result: RunResult
    digest: str
    report: ForensicsReport
    forensics_digest: str
    #: The controller's timeline digest (``None`` with the controller off).
    control_digest: str | None
    trace: tuple


def execute(
    config: NetworkConfig, family: ContractFamily, requests: list[TxRequest]
) -> Execution:
    """One fresh batch run of ``requests`` under ``config``, kernel-traced.

    The arguments are a run bundle (see
    :data:`repro.bench.harness.MakeBundle`), so ``execute(*make())``
    runs any bundle factory's output, under its config's scenario.  The
    forensics report comes from the run's live outcome fold
    (``network.outcomes``).
    """
    network = FabricNetwork(config, family.deploy().contracts)
    trace = network.kernel.enable_trace()
    result = network.run(list(requests))
    report = network.outcomes.finish_run(network)
    return Execution(
        network=network,
        result=result,
        digest=run_digest(network),
        report=report,
        forensics_digest=report_digest(report),
        control_digest=(
            network.controller.timeline.digest()
            if network.controller is not None
            else None
        ),
        trace=tuple(trace),
    )


def divergences(first: Execution, second: Execution) -> list[str]:
    """How two executions of one run differ; empty means identical.

    This is the single definition of an identical run: the same kernel
    event trace, run digest, forensics digest (which holds the scenario
    timeline) and control-timeline digest.
    """
    found = []
    if first.trace != second.trace:
        found.append("kernel event traces diverged across identical runs")
    if first.digest != second.digest:
        found.append(
            f"run digests diverged: {first.digest[:12]} != {second.digest[:12]}"
        )
    if first.forensics_digest != second.forensics_digest:
        found.append("forensics digests diverged across identical runs")
    if first.control_digest != second.control_digest:
        found.append("control-timeline digests diverged across identical runs")
    return found


class FuzzHarness:
    """Executes compositions against one shared base workload.

    The bundle (config, contract family, requests) is built once per
    campaign; every execution gets a fresh network, so runs never share
    mutable state.  Every oracle in :data:`ORACLES` runs through this object.
    """

    def __init__(self, config: FuzzConfig) -> None:
        # Deferred import: repro.bench imports the scenario library.
        from repro.bench.experiments import make_synthetic

        self.config = config
        network_config, family, requests = make_synthetic(
            config.base, seed=config.seed, total_transactions=config.transactions
        )()
        if config.retry_attempts > 1:
            network_config = dataclasses.replace(
                network_config, retry=RetryPolicy(max_attempts=config.retry_attempts)
            )
        self.network_config = network_config
        self._family = family
        self.requests = requests
        self._primary: dict[str, Execution] = {}

    def run(self, spec: ScenarioSpec, config: NetworkConfig | None = None) -> Execution:
        """One fresh batch run of ``spec`` over the base workload.

        ``config`` defaults to the campaign's network config.
        """
        config = config if config is not None else self.network_config
        return execute(
            dataclasses.replace(config, scenario=spec), self._family, self.requests
        )

    def primary(self, spec: ScenarioSpec) -> Execution:
        """The composition's reference execution (memoized per spec name)."""
        key = spec.to_json()
        if key not in self._primary:
            self._primary[key] = self.run(spec)
        return self._primary[key]

    # -- oracles -----------------------------------------------------------------

    def check_determinism(self, spec: ScenarioSpec) -> list[str]:
        """Same seed + spec must reproduce the run bit for bit."""
        return divergences(self.primary(spec), self.run(spec))

    def check_stream_batch(self, spec: ScenarioSpec) -> list[str]:
        """Live stream consumers must equal the post-run readers of one run."""
        from repro.core.metrics import MetricsAccumulator
        from repro.core.recommender import BlockOptR
        from repro.logs.export import log_to_csv
        from repro.logs.extract import extract_blockchain_log

        network = FabricNetwork(
            dataclasses.replace(self.network_config, scenario=spec),
            self._family.deploy().contracts,
        )
        metrics = MetricsAccumulator()
        network.stream.add_record_consumer(metrics)
        network.run(list(self.requests))

        violations = []
        live = report_digest(network.outcomes.finish_run(network))
        if live != report_digest(forensics_report(network)):
            violations.append("live forensics digest != forensics_report digest")
        metrics.config = network.stream.config
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.csv"
            log_to_csv(extract_blockchain_log(network), path)
            exported = BlockOptR().analyze_file(path).metrics
        if metrics.finish() != exported:
            violations.append("live LogMetrics != LogMetrics of the exported CSV log")
        return violations

    def check_conservation(self, spec: ScenarioSpec) -> list[str]:
        """Every issued transaction must end exactly once, fully attributed."""
        run = self.primary(spec)
        network = run.network
        report = run.report
        violations = []
        issued = len(self.requests) + network.retries_issued
        committed = sum(
            1 for _ in network.ledger.transactions(include_config=False)
        )
        aborted = len(network.aborted)
        if committed + aborted != issued:
            violations.append(
                f"count conservation broken: {committed} committed + {aborted} "
                f"aborted != {issued} issued"
            )
        if report.total_issued != issued:
            violations.append(
                f"forensics total_issued {report.total_issued} != {issued} issued"
            )
        if report.successes + report.failures != report.total_issued:
            violations.append(
                f"successes {report.successes} + failures {report.failures} "
                f"!= total_issued {report.total_issued}"
            )
        attributed = sum(report.cause_counts.values())
        if attributed != report.failures:
            violations.append(
                f"taxonomy attributes {attributed} failures, report has "
                f"{report.failures}"
            )
        if report.retry.recovered > report.retry.resubmissions:
            violations.append(
                f"{report.retry.recovered} retries recovered out of only "
                f"{report.retry.resubmissions} resubmissions"
            )
        if report.retry.exhausted > report.failures:
            violations.append(
                f"{report.retry.exhausted} retries exhausted but only "
                f"{report.failures} failures"
            )
        return violations

    def check_roundtrip(self, spec: ScenarioSpec) -> list[str]:
        """JSON round-trips must reproduce the spec exactly."""
        violations = []
        revived = ScenarioSpec.from_json(spec.to_json())
        if revived != spec:
            violations.append("from_json(to_json(spec)) != spec")
        rehydrated = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        if rehydrated != spec:
            violations.append("from_dict(json(to_dict(spec))) != spec")
        return violations

    def check_control_equivalence(self, spec: ScenarioSpec) -> list[str]:
        """The SLO-guardian controller must preserve the differential invariants.

        Two sub-checks against the composition: a noop-policy controller
        reproduces the primary (controller-off) run digest bit for bit —
        controller *presence* never changes outcomes; and a guardian-on
        run replays with no :func:`divergences` (kernel trace, run,
        forensics and control-timeline digests).
        """
        from repro.control.spec import ControlSpec

        def config_for(policy: str) -> NetworkConfig:
            return dataclasses.replace(
                self.network_config, control=ControlSpec(policy=policy)
            )

        violations = []
        primary = self.primary(spec)
        noop_digest = self.run(spec, config_for("noop")).digest
        if noop_digest != primary.digest:
            violations.append(
                "noop-policy controller perturbed the run digest: "
                f"{noop_digest[:12]} != {primary.digest[:12]}"
            )
        first = self.run(spec, config_for("guardian"))
        second = self.run(spec, config_for("guardian"))
        violations.extend(
            f"guardian-on replay: {found}" for found in divergences(first, second)
        )
        return violations

    def run_oracles(self, spec: ScenarioSpec) -> dict[str, list[str]]:
        """Run the configured oracle subset; name -> violations."""
        checks: dict[str, Callable[[ScenarioSpec], list[str]]] = {
            "determinism": self.check_determinism,
            "stream_batch": self.check_stream_batch,
            "conservation": self.check_conservation,
            "roundtrip": self.check_roundtrip,
            "control_equivalence": self.check_control_equivalence,
        }
        return {
            oracle: checks[oracle](spec)
            for oracle in ORACLES
            if oracle in self.config.oracles
        }


# -- shrinking --------------------------------------------------------------------


def shrink_spec(
    spec: ScenarioSpec, failing: Callable[[ScenarioSpec], bool]
) -> ScenarioSpec:
    """Greedily shrink a failing composition to a minimal reproducer.

    Repeatedly tries dropping one intervention at a time, keeping any
    candidate that still fails, until no single removal preserves the
    failure (a 1-minimal spec).  ``failing`` must be deterministic; the
    input spec is returned unchanged if it does not fail at all.
    """
    if not failing(spec):
        return spec
    current = spec
    reduced = True
    while reduced and len(current.interventions) > 1:
        reduced = False
        for index in range(len(current.interventions)):
            interventions = (
                current.interventions[:index] + current.interventions[index + 1 :]
            )
            candidate = dataclasses.replace(current, interventions=interventions)
            if failing(candidate):
                current = candidate
                reduced = True
                break
    return current


# -- severity + labeling ----------------------------------------------------------


@dataclass(frozen=True)
class FuzzLabel:
    """Why a surviving composition hurts, quantified and explained."""

    severity: float
    abort_rate: float
    retry_rate: float
    dominant_cause: str | None
    cause_counts: dict[str, int]
    why: str

    def to_dict(self) -> dict:
        """JSON-able form (corpus files)."""
        return {
            "severity": self.severity,
            "abort_rate": self.abort_rate,
            "retry_rate": self.retry_rate,
            "dominant_cause": self.dominant_cause,
            "cause_counts": dict(self.cause_counts),
            "why": self.why,
        }


def label_report(report: ForensicsReport) -> FuzzLabel:
    """Score and explain one run from its forensics report.

    Severity is abort pressure plus retry-storm pressure: failures per
    issued transaction plus resubmissions per issued transaction.  The
    dominant taxonomy cause (ties broken in taxonomy order) supplies the
    explanation.
    """
    total = max(1, report.total_issued)
    abort_rate = round(report.failures / total, 6)
    retry_rate = round(report.retry.resubmissions / total, 6)
    present = {
        cause: count for cause, count in report.cause_counts.items() if count > 0
    }
    dominant = None
    if present:
        # Ties resolve in taxonomy order, not dict order.
        best = max(present.values())
        dominant = next(cause for cause in CAUSES if present.get(cause, 0) == best)
    if dominant is None:
        why = "no failures observed"
    else:
        why = (
            f"{dominant} dominates ({present[dominant]} of {report.failures} "
            f"failures): {CAUSE_EXPLANATIONS[dominant]}"
        )
    return FuzzLabel(
        severity=round(abort_rate + retry_rate, 6),
        abort_rate=abort_rate,
        retry_rate=retry_rate,
        dominant_cause=dominant,
        cause_counts=present,
        why=why,
    )


# -- campaign ---------------------------------------------------------------------


@dataclass(frozen=True)
class FuzzEntry:
    """One composition's campaign outcome."""

    index: int
    spec: ScenarioSpec
    #: Oracle name -> violations (empty lists = survivor).
    oracles: dict[str, list[str]]
    run_digest: str
    forensics_digest: str
    label: FuzzLabel
    #: The original composition when the stored spec was shrunk.
    shrunk_from: ScenarioSpec | None = None

    @property
    def violations(self) -> list[str]:
        """All oracle violations, prefixed with the oracle name."""
        return [
            f"{oracle}: {violation}"
            for oracle, found in self.oracles.items()
            for violation in found
        ]

    @property
    def survived(self) -> bool:
        """True when every oracle passed."""
        return not self.violations

    def to_dict(self) -> dict:
        """The corpus file payload for this entry."""
        data = {
            "format_version": CORPUS_FORMAT,
            "index": self.index,
            "spec": self.spec.to_dict(),
            "oracles": {k: list(v) for k, v in self.oracles.items()},
            "run_digest": self.run_digest,
            "forensics_digest": self.forensics_digest,
            "label": self.label.to_dict(),
        }
        if self.shrunk_from is not None:
            data["shrunk_from"] = self.shrunk_from.to_dict()
        return data


@dataclass(frozen=True)
class FuzzCampaign:
    """A finished fuzz campaign: config + per-composition entries."""

    config: FuzzConfig
    entries: tuple[FuzzEntry, ...]

    def survivors(self) -> list[FuzzEntry]:
        """Oracle-clean entries, most severe first (name-tied stable)."""
        return sorted(
            (entry for entry in self.entries if entry.survived),
            key=lambda entry: (-entry.label.severity, entry.spec.name),
        )

    def failures(self) -> list[FuzzEntry]:
        """Entries with at least one oracle violation, in index order."""
        return [entry for entry in self.entries if not entry.survived]

    def top_specs(self, count: int) -> list[FuzzEntry]:
        """Promotion candidates: the ``count`` most severe survivors."""
        return self.survivors()[:count]


def run_campaign(config: FuzzConfig) -> FuzzCampaign:
    """Run one seeded fuzz campaign to completion (bit-reproducible)."""
    harness = FuzzHarness(config)
    entries = []
    for index in range(config.budget):
        spec = generate_spec(config.seed, index, config.max_interventions)
        oracles = harness.run_oracles(spec)
        shrunk_from = None
        if config.shrink and any(oracles.values()):
            failing_oracles = [name for name, found in oracles.items() if found]

            def still_failing(candidate: ScenarioSpec) -> bool:
                results = harness.run_oracles(candidate)
                return any(results[name] for name in failing_oracles)

            minimal = shrink_spec(spec, still_failing)
            if minimal is not spec:
                shrunk_from = spec
                spec = minimal
                oracles = harness.run_oracles(spec)
        run = harness.primary(spec)
        entries.append(
            FuzzEntry(
                index=index,
                spec=spec,
                oracles=oracles,
                run_digest=run.digest,
                forensics_digest=run.forensics_digest,
                label=label_report(run.report),
                shrunk_from=shrunk_from,
            )
        )
    return FuzzCampaign(config=config, entries=tuple(entries))


# -- corpus persistence -----------------------------------------------------------


def save_corpus(campaign: FuzzCampaign, directory: str | Path) -> Path:
    """Persist a campaign as a replayable corpus; returns the manifest path.

    Layout: one ``<spec name>.json`` per composition (spec, oracle
    verdicts, digests, label) plus a ``campaign.json`` manifest carrying
    the :class:`FuzzConfig` and the entry list.  Everything is written
    with sorted keys so identical campaigns produce identical bytes.
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    names = []
    for entry in campaign.entries:
        name = f"{entry.spec.name}.json"
        names.append(name)
        (root / name).write_text(
            json.dumps(entry.to_dict(), indent=1, sort_keys=True) + "\n"
        )
    manifest = {
        "format_version": CORPUS_FORMAT,
        "config": dataclasses.asdict(campaign.config),
        "entries": names,
        "violations": sum(len(entry.violations) for entry in campaign.entries),
    }
    manifest_path = root / "campaign.json"
    manifest_path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return manifest_path


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of replaying one corpus entry."""

    name: str
    #: Oracle violations found during the replay (must be empty).
    violations: list[str]
    #: Digest drift against the stored corpus entry (must be empty).
    drift: list[str]

    @property
    def clean(self) -> bool:
        """True when the replay reproduced the corpus exactly."""
        return not self.violations and not self.drift


def replay_corpus(directory: str | Path) -> list[ReplayResult]:
    """Re-run every corpus entry and diff it against the stored verdicts.

    CI's fuzz-smoke step: a committed corpus replayed on every push pins
    oracle cleanliness *and* behavioural digests — any engine change that
    shifts a fuzzed run's outcome shows up as digest drift here before it
    can reach a promoted scenario.

    A corpus directory may nest *sub-campaigns* — subdirectories with
    their own ``campaign.json`` (e.g. a campaign against a skewed-key
    base workload).  They are replayed too, in sorted directory order,
    with their results prefixed ``<subdir>/``; one CI invocation covers
    every committed campaign.
    """
    root = Path(directory)
    results = _replay_campaign(root)
    for child in sorted(path for path in root.iterdir() if path.is_dir()):
        if (child / "campaign.json").is_file():
            results.extend(
                dataclasses.replace(result, name=f"{child.name}/{result.name}")
                for result in _replay_campaign(child)
            )
    return results


def _replay_campaign(root: Path) -> list[ReplayResult]:
    """Replay one campaign directory (no recursion)."""
    manifest = json.loads((root / "campaign.json").read_text())
    if manifest.get("format_version") != CORPUS_FORMAT:
        raise ValueError(
            f"corpus format {manifest.get('format_version')!r} unsupported "
            f"(expected {CORPUS_FORMAT})"
        )
    config = FuzzConfig(**{
        key: tuple(value) if isinstance(value, list) else value
        for key, value in manifest["config"].items()
    })
    harness = FuzzHarness(config)
    results = []
    for name in manifest["entries"]:
        data = json.loads((root / name).read_text())
        spec = ScenarioSpec.from_dict(data["spec"])
        oracles = harness.run_oracles(spec)
        violations = [
            f"{oracle}: {violation}"
            for oracle, found in oracles.items()
            for violation in found
        ]
        drift = []
        run = harness.primary(spec)
        if run.digest != data["run_digest"]:
            drift.append(
                f"run digest drifted: {run.digest[:12]} != "
                f"{data['run_digest'][:12]}"
            )
        if run.forensics_digest != data["forensics_digest"]:
            drift.append("forensics digest drifted")
        stored = {
            oracle: list(found) for oracle, found in data["oracles"].items()
        }
        replayed = {oracle: list(found) for oracle, found in oracles.items()}
        if stored != replayed:
            drift.append("oracle verdicts drifted from the stored corpus")
        results.append(ReplayResult(name=name, violations=violations, drift=drift))
    return results
