"""Experiment definitions: Table 3 and Figures 7-19, with paper values.

The registry (:mod:`repro.bench.registry`) builds every experiment spec
from the definitions and the paper's reported numbers here.

Scale: the paper runs 10,000 transactions per workload; experiments default
to ``REPRO_BENCH_TXS`` (4,000) and scale phase counts proportionally.  The
shapes (who wins, in which direction) are the claims of
:mod:`repro.bench.claims`, each checked from the smallest budget at which
it holds; absolute numbers sit next to the paper's in EXPERIMENTS.md.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from repro.bench.harness import MakeBundle
from repro.core.recommendations import OptimizationKind as K
from repro.fabric.reorder import SCHEDULERS
from repro.workloads.loan import generate_loan_event_log, loan_workload
from repro.workloads.spec import ControlVariables, WorkloadType
from repro.workloads.synthetic import synthetic_workload
from repro.workloads.usecases import (
    UseCaseSpec,
    drm_workload,
    ehr_workload,
    scm_workload,
    voting_workload,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.control.spec import ControlSpec
    from repro.scenario.spec import ScenarioSpec

#: Bench transaction budget (the paper uses 10,000).
SCALE_TXS = int(os.environ.get("REPRO_BENCH_TXS", "4000"))


def scaled(paper_count: int, total: int | None = None) -> int:
    """Scale one of the paper's per-10,000-transaction counts to a budget.

    ``total`` defaults to the bench budget (``REPRO_BENCH_TXS``); pass an
    explicit budget to scale consistently under overrides.  Single source
    for every derived count (loan applications, voting query/vote split).
    """
    budget = SCALE_TXS if total is None else total
    return max(100, round(paper_count * budget / 10_000))


# -- Table 3: the 15 synthetic experiments ---------------------------------------

def synthetic_spec(experiment: str, seed: int = 7) -> ControlVariables:
    """The ControlVariables for one named synthetic experiment.

    Names follow Table 3 plus the two extra figure configurations
    (``block_count_100``, ``block_count_500``, ``send_rate_500``,
    ``send_rate_500_1000``, ``endorsement_policy_p3``).
    """
    spec = ControlVariables(total_transactions=SCALE_TXS, seed=seed)
    if experiment == "default":
        pass
    elif experiment == "endorsement_policy_p1":
        spec.endorsement_policy, spec.num_orgs = "P1", 4
    elif experiment == "endorsement_policy_p2_skew":
        spec.endorsement_policy, spec.num_orgs = "P2", 4
        spec.endorser_dist_skew = 6.0
    elif experiment == "endorsement_policy_p3":
        spec.endorsement_policy, spec.num_orgs = "P3", 4
    elif experiment == "num_orgs_4":
        spec.num_orgs = 4
    elif experiment == "workload_read_heavy":
        spec.workload_type = WorkloadType.READ_HEAVY
    elif experiment == "workload_update_heavy":
        spec.workload_type = WorkloadType.UPDATE_HEAVY
    elif experiment == "workload_insert_heavy":
        spec.workload_type = WorkloadType.INSERT_HEAVY
    elif experiment == "workload_rangeread_heavy":
        spec.workload_type = WorkloadType.RANGEREAD_HEAVY
    elif experiment == "key_dist_skew_2":
        spec.key_dist_skew = 2.0
    elif experiment == "block_count_50":
        spec.block_count = 50
    elif experiment == "block_count_100":
        spec.block_count = 100
    elif experiment == "block_count_300":
        spec.block_count = 300
    elif experiment == "block_count_500":
        spec.block_count = 500
    elif experiment == "block_count_1000":
        spec.block_count = 1000
    elif experiment == "send_rate_50":
        spec.send_rate = 50.0
    elif experiment == "send_rate_300":
        spec.send_rate = 300.0
    elif experiment == "send_rate_500":
        spec.send_rate = 500.0
    elif experiment == "send_rate_1000":
        spec.send_rate = 1000.0
    elif experiment == "send_rate_500_1000":
        half = SCALE_TXS // 2
        spec.send_rate_phases = [(half, 500.0), (SCALE_TXS - half, 1000.0)]
    elif experiment == "tx_dist_skew_70":
        spec.tx_dist_skew = 0.7
    else:
        raise KeyError(f"unknown synthetic experiment {experiment!r}")
    return spec


def make_synthetic(
    experiment: str,
    seed: int = 7,
    scheduler: str = "fifo",
    total_transactions: int | None = None,
    **overrides,
) -> MakeBundle:
    """Bundle factory for a named synthetic experiment, optionally tuned.

    ``total_transactions`` overrides the bench budget (tests use small
    runs); phased schedules rescale their per-phase counts proportionally.
    Each further keyword names one of :data:`TUNABLE_FIELDS` and sets
    that field on top of :func:`synthetic_spec`'s ``experiment`` — what
    lets a matrix (:mod:`repro.bench.matrix`) cross *numeric* factors
    (block size × send rate × workload mix) that no single named
    experiment exposes.  Names are checked when this factory is called:
    the experiment, the fields, the ``workload_type`` values and the
    ``scheduler``.  The combined spec is re-validated when the bundle is
    built, so an impossible combination (e.g. a P1 policy with 2 orgs)
    fails then, before the run.
    """
    synthetic_spec(experiment)  # unknown experiment names fail here
    if scheduler not in SCHEDULERS:
        raise ValueError(f"unknown scheduler {scheduler!r}; known: {', '.join(SCHEDULERS)}")
    for field_name in overrides:
        if field_name not in TUNABLE_FIELDS:
            raise KeyError(
                f"unknown tunable field {field_name!r}; "
                f"valid: {', '.join(sorted(TUNABLE_FIELDS))}"
            )
    if "workload_type" in overrides:
        overrides["workload_type"] = WorkloadType(overrides["workload_type"])

    def make():
        spec = synthetic_spec(experiment, seed=seed)
        spec.scheduler = scheduler
        for field_name, value in overrides.items():
            setattr(spec, field_name, value)
        if overrides:
            spec.__post_init__()  # re-validate the combined knob settings
        if total_transactions is not None:
            _rescale_transactions(spec, total_transactions)
        return synthetic_workload(spec)

    return make


#: ControlVariables knobs :func:`make_synthetic` takes as keyword
#: overrides (next to its own ``scheduler``).  Deliberately scalar-only:
#: phased/profiled schedules stay the domain of named experiments and
#: scenarios.
TUNABLE_FIELDS = frozenset(
    {
        "workload_type",
        "endorsement_policy",
        "endorser_dist_skew",
        "key_dist_skew",
        "num_orgs",
        "block_count",
        "block_timeout",
        "send_rate",
        "tx_dist_skew",
        "num_keys",
        "clients_per_org",
        "endorsers_per_org",
    }
)


def _rescale_transactions(spec: ControlVariables, total: int) -> None:
    """Set a new transaction budget, keeping phase proportions intact."""
    if spec.send_rate_phases:
        old_total = sum(count for count, _ in spec.send_rate_phases)
        phases = [
            (max(1, round(count * total / old_total)), rate)
            for count, rate in spec.send_rate_phases[:-1]
        ]
        consumed = sum(count for count, _ in phases)
        phases.append((max(1, total - consumed), spec.send_rate_phases[-1][1]))
        spec.send_rate_phases = phases
        total = sum(count for count, _ in phases)
    spec.total_transactions = total


#: Table 3: experiment -> the recommendations the paper reports.
TABLE3_EXPECTED: dict[str, set[K]] = {
    "endorsement_policy_p1": {K.ENDORSER_RESTRUCTURING, K.ACTIVITY_REORDERING},
    "endorsement_policy_p2_skew": {K.ENDORSER_RESTRUCTURING, K.ACTIVITY_REORDERING},
    "num_orgs_4": {K.TRANSACTION_RATE_CONTROL},
    "workload_read_heavy": {K.ACTIVITY_REORDERING},
    "workload_update_heavy": {K.TRANSACTION_RATE_CONTROL},
    "workload_insert_heavy": {K.ACTIVITY_REORDERING},
    "workload_rangeread_heavy": {K.ACTIVITY_REORDERING, K.TRANSACTION_RATE_CONTROL},
    "key_dist_skew_2": {
        K.ACTIVITY_REORDERING,
        K.SMART_CONTRACT_PARTITIONING,
        K.BLOCK_SIZE_ADAPTATION,
    },
    "block_count_50": {K.ACTIVITY_REORDERING, K.TRANSACTION_RATE_CONTROL},
    "block_count_300": {K.ACTIVITY_REORDERING, K.TRANSACTION_RATE_CONTROL},
    "block_count_1000": {K.ACTIVITY_REORDERING},
    "send_rate_50": {K.ACTIVITY_REORDERING},
    "send_rate_300": {
        K.ACTIVITY_REORDERING,
        K.BLOCK_SIZE_ADAPTATION,
        K.TRANSACTION_RATE_CONTROL,
    },
    "send_rate_1000": {K.ACTIVITY_REORDERING, K.TRANSACTION_RATE_CONTROL},
    "tx_dist_skew_70": {K.ACTIVITY_REORDERING, K.CLIENT_RESOURCE_BOOST},
}


# -- Figures 7-12: paper values (throughput tps, latency s, success %) ------------

FIG7_ENDORSER = {
    "endorsement_policy_p1": {
        "without": (107.1, 16.8, 87.5),
        "endorser restructuring": (151.4, 10.4, 89.4),
    },
    "endorsement_policy_p2_skew": {
        "without": (103.4, 19.2, 77.4),
        "endorser restructuring": (141.1, 12.3, 87.9),
    },
}

FIG8_CLIENT_BOOST = {
    "tx_dist_skew_70": {
        "without": (160.8, 3.3, 59.9),
        "client resource boost": (190.6, 0.8, 64.4),
    }
}

FIG9_BLOCK_SIZE = {
    "block_count_50": {
        "without": (14.8, 3.3, 13.8),
        "block size adaptation": (217.9, 4.9, 92.8),
    },
    "block_count_100": {
        "without": (43.6, 6.8, 37.6),
        "block size adaptation": (217.9, 4.4, 92.6),
    },
    "send_rate_1000": {
        "without": (189.1, 11.4, 63.3),
        "block size adaptation": (199.1, 11.2, 65.7),
    },
    "send_rate_500_1000": {
        "without": (182.8, 12.5, 79.0),
        "block size adaptation": (227.3, 10.0, 84.5),
    },
}

FIG10_RATE_CONTROL = {
    "endorsement_policy_p3": {
        "without": (121.9, 16.1, 84.7),
        "transaction rate control": (88.6, 4.8, 97.3),
    },
    "num_orgs_4": {
        "without": (117.7, 16.7, 84.9),
        "transaction rate control": (90.1, 4.3, 97.4),
    },
    "workload_update_heavy": {
        "without": (179.4, 6.1, 83.5),
        "transaction rate control": (95.3, 2.2, 97.0),
    },
    "key_dist_skew_2": {
        "without": (99.3, 2.9, 37.7),
        "transaction rate control": (40.6, 1.2, 41.3),
    },
    "block_count_300": {
        "without": (173.3, 8.1, 81.6),
        "transaction rate control": (97.0, 1.4, 99.1),
    },
    "block_count_500": {
        "without": (204.1, 6.7, 91.8),
        "transaction rate control": (95.7, 1.6, 99.1),
    },
    "block_count_1000": {
        "without": (211.6, 6.3, 91.9),
        "transaction rate control": (95.7, 2.0, 98.7),
    },
    "send_rate_500": {
        "without": (155.7, 13.3, 85.4),
        "transaction rate control": (94.9, 1.9, 98.9),
    },
    "send_rate_1000": {
        "without": (189.1, 11.4, 63.3),
        "transaction rate control": (96.7, 1.4, 99.2),
    },
    "send_rate_500_1000": {
        "without": (182.8, 12.5, 79.0),
        "transaction rate control": (95.6, 1.9, 98.8),
    },
    "tx_dist_skew_70": {
        "without": (160.8, 3.3, 59.9),
        "transaction rate control": (73.4, 1.1, 74.0),
    },
}

FIG11_REORDERING = {
    "endorsement_policy_p1": {
        "without": (107.1, 16.8, 87.5),
        "activity reordering": (198.2, 7.1, 92.1),
    },
    "endorsement_policy_p2_skew": {
        "without": (103.4, 19.2, 77.4),
        "activity reordering": (152.3, 9.5, 91.5),
    },
    "workload_read_heavy": {
        "without": (231.8, 4.3, 95.2),
        "activity reordering": (243.9, 3.9, 96.2),
    },
    "workload_insert_heavy": {
        "without": (208.1, 6.4, 97.2),
        "activity reordering": (239.0, 4.1, 97.9),
    },
    "workload_rangeread_heavy": {
        "without": (12.4, 27.3, 11.5),
        "activity reordering": (36.2, 22.7, 27.8),
    },
    "key_dist_skew_2": {
        "without": (99.3, 2.9, 37.7),
        "activity reordering": (172.1, 2.0, 67.8),
    },
    "block_count_50": {
        "without": (14.8, 3.3, 13.8),
        "activity reordering": (19.2, 2.3, 18.4),
    },
    "block_count_300": {
        "without": (173.3, 8.1, 81.6),
        "activity reordering": (221.7, 5.0, 92.7),
    },
    "block_count_1000": {
        "without": (211.6, 6.3, 91.9),
        "activity reordering": (239.6, 3.7, 94.4),
    },
    "send_rate_50": {
        "without": (49.2, 1.5, 99.4),
        "activity reordering": (49.6, 1.1, 99.7),
    },
    "send_rate_300": {
        "without": (174.4, 7.3, 90.9),
        "activity reordering": (188.2, 6.8, 92.1),
    },
    "send_rate_1000": {
        "without": (189.1, 11.4, 63.3),
        "activity reordering": (200.6, 10.4, 64.6),
    },
    "tx_dist_skew_70": {
        "without": (160.8, 3.3, 59.9),
        "activity reordering": (217.8, 2.1, 77.8),
    },
}

FIG12_COMBINED = {
    "endorsement_policy_p1": {
        "without": (107.1, 16.8, 87.5),
        "all": (159.3, 11.8, 89.8),
    },
    "endorsement_policy_p2_skew": {
        "without": (103.4, 19.2, 77.4),
        "all": (152.1, 12.2, 85.0),
    },
    "key_dist_skew_2": {"without": (99.3, 2.9, 37.7), "all": (67.2, 1.2, 68.5)},
    "block_count_50": {"without": (14.8, 3.3, 13.8), "all": (230.6, 3.6, 93.6)},
    "block_count_300": {"without": (173.3, 8.1, 81.6), "all": (97.1, 1.3, 99.3)},
    "block_count_1000": {"without": (211.6, 6.3, 91.9), "all": (97.5, 1.6, 99.1)},
    "send_rate_1000": {"without": (189.1, 11.4, 63.3), "all": (95.7, 1.7, 98.9)},
    "tx_dist_skew_70": {"without": (160.8, 3.3, 59.9), "all": (85.8, 0.8, 86.6)},
}


# -- Figures 13-17: use cases -------------------------------------------------------

FIG13_SCM = {
    "without": (207.48, 7.28, 79.83),
    "transaction rate control": (98.18, 1.10, 99.47),
    "activity reordering": (275.31, 2.59, 94.22),
    "process model pruning": (286.62, 1.87, 99.04),
    "all": (96.76, 3.79, 97.73),
}

FIG14_DRM = {
    "without": (35.1, 14.0, 20.1),
    "delta writes": (60.7, 18.1, 49.7),
    "activity reordering": (81.4, 11.7, 47.6),
    "smart contract partitioning": (53.4, 10.5, 27.3),
    "all": (110.7, 6.0, 82.6),
}

FIG15_EHR = {
    "without": (55.57, 6.40, 19.70),
    "transaction rate control": (64.34, 1.78, 65.39),
    "activity reordering": (135.96, 3.57, 57.94),
    "process model pruning": (99.56, 2.31, 35.01),
    "all": (75.97, 1.77, 78.85),
}

FIG16_DV = {
    "without": (4.2, 4.6, 10.2),
    "transaction rate control": (4.7, 3.7, 11.3),
    "data model alteration": (54.3, 4.1, 100.0),
    "all": (46.3, 2.3, 100.0),
}

FIG17_LAP = {
    "send_rate_10": {
        "without": (3.2, 1.5, 31.8),
        "data model alteration": (6.6, 1.2, 66.0),
    },
    "send_rate_300": {
        "without": (18.7, 2.0, 7.0),
        "data model alteration": (63.3, 1.4, 22.0),
        "transaction rate control": (14.2, 1.1, 14.4),
        "all": (24.4, 1.6, 24.9),
    },
}


# -- Figures 18-19: Fabric extensions ------------------------------------------------

FIG18_FABRICSHARP = {
    "endorsement_policy_p1": {
        "without": (100.92, 2.09, 94.14),
        "endorser restructuring": (103.56, 2.07, 96.56),
    },
    "endorsement_policy_p2_skew": {
        "without": (96.56, 2.04, 90.08),
        "endorser restructuring": (99.16, 1.90, 92.50),
    },
    "workload_insert_heavy": {
        "without": (93.36, 3.54, 87.17),
        "transaction rate control": (62.32, 1.42, 99.47),
    },
}

FIG19_FABRICPP = {
    "workload_update_heavy": {
        "without": (106.27, 3.62, 41.04),
        "transaction rate control": (57.56, 1.33, 59.22),
        "activity reordering": (159.47, 3.13, 61.87),
        "all": (69.41, 1.57, 71.37),
    },
    "workload_read_heavy": {
        "without": (144.61, 2.58, 53.70),
        "transaction rate control": (69.02, 1.56, 70.36),
        "activity reordering": (194.22, 2.87, 77.49),
        "all": (83.70, 1.10, 85.02),
    },
    "workload_rangeread_heavy": {
        "without": (95.78, 10.36, 45.57),
        "transaction rate control": (56.28, 1.01, 57.14),
        "activity reordering": (213.47, 1.85, 78.24),
        "all": (83.92, 1.02, 85.33),
    },
}


# -- Use-case bundle factories --------------------------------------------------------

def make_usecase(
    usecase: str, total_transactions: int | None = None, seed: int = 7
) -> MakeBundle:
    """Bundle factory for one of the paper's use cases."""
    total = total_transactions if total_transactions is not None else SCALE_TXS
    if usecase == "loan":
        return make_loan(10.0, seed=seed, total_transactions=total)
    if usecase == "synthetic":
        return make_synthetic("default", seed=seed, total_transactions=total)
    if usecase not in ("scm", "drm", "ehr", "voting"):
        raise KeyError(f"unknown use case {usecase!r}")

    def make():
        spec = UseCaseSpec(total_transactions=total, seed=seed)
        if usecase == "scm":
            return scm_workload(spec)
        if usecase == "drm":
            return drm_workload(spec)
        if usecase == "ehr":
            return ehr_workload(spec)
        return voting_workload(
            spec,
            query_count=scaled(1000, total),
            vote_count=scaled(5000, total),
        )

    return make


def make_scenario(
    base: str,
    scenario: str | ScenarioSpec,
    mitigation: str = "none",
    retry_attempts: int = 1,
    policy: str | ControlSpec = "off",
    seed: int = 7,
    total_transactions: int | None = None,
) -> MakeBundle:
    """Bundle factory for a synthetic experiment run under a scenario.

    ``base`` is any :func:`synthetic_spec` experiment name; ``scenario``
    is a :mod:`repro.scenario.library` name or a
    :class:`~repro.scenario.spec.ScenarioSpec`, set as the config's
    ``scenario``, so the baseline and every plan run (a copy of that
    config) run under it.  Beside it ride a ``mitigation``
    (:data:`repro.fabric.config.MITIGATIONS`), a client
    :class:`~repro.fabric.retry.RetryPolicy` when ``retry_attempts`` > 1,
    and the live SLO-guardian controller: ``policy`` is ``"off"``, a
    policy name (:data:`repro.control.spec.POLICIES`, default interval and
    SLO targets) or a full :class:`~repro.control.spec.ControlSpec`.  The
    defaults reproduce the plain scenario run bit for bit — the ``none``
    and ``off`` sweep cells.  Every name and choice is resolved and
    checked once, when this factory is called.
    """
    from repro.control.bounds import validate_actuation
    from repro.control.spec import ControlSpec
    from repro.fabric.retry import RetryPolicy
    from repro.scenario.library import get_scenario

    inner = make_synthetic(base, seed=seed, total_transactions=total_transactions)
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    validate_actuation("mitigation", mitigation)
    retry = RetryPolicy(max_attempts=retry_attempts) if retry_attempts > 1 else None
    control = policy
    if not isinstance(policy, ControlSpec):
        control = None if policy == "off" else ControlSpec(policy=policy)

    def make():
        config, family, requests = inner()
        config.mitigation = mitigation
        config.retry = retry
        config.control = control
        config.scenario = scenario
        return config, family, requests

    return make


def make_loan(
    send_rate: float, seed: int = 7, total_transactions: int | None = None
) -> MakeBundle:
    """LAP bundle at a specific send rate (the paper runs 10 and 300 TPS).

    The paper's 2,000 loan applications per 10,000 transactions scale
    with ``total_transactions`` (default: the bench budget).
    """
    send_rate = float(send_rate)
    applications = scaled(2000, total_transactions)

    def make():
        events = generate_loan_event_log(num_applications=applications, seed=seed)
        return loan_workload(UseCaseSpec(seed=seed), events=events, send_rate=send_rate)

    return make


def usecase_plans(usecase: str) -> list[tuple[str, tuple[K, ...]]]:
    """The per-figure optimization plans for a use case."""
    plans: dict[str, list[tuple[str, tuple[K, ...]]]] = {
        "scm": [
            ("transaction rate control", (K.TRANSACTION_RATE_CONTROL,)),
            ("activity reordering", (K.ACTIVITY_REORDERING,)),
            ("process model pruning", (K.PROCESS_MODEL_PRUNING,)),
            (
                "all",
                (
                    K.TRANSACTION_RATE_CONTROL,
                    K.ACTIVITY_REORDERING,
                    K.PROCESS_MODEL_PRUNING,
                ),
            ),
        ],
        "drm": [
            ("delta writes", (K.DELTA_WRITES,)),
            ("activity reordering", (K.ACTIVITY_REORDERING,)),
            ("smart contract partitioning", (K.SMART_CONTRACT_PARTITIONING,)),
            (
                "all",
                (K.ACTIVITY_REORDERING, K.DELTA_WRITES),
            ),
        ],
        "ehr": [
            ("transaction rate control", (K.TRANSACTION_RATE_CONTROL,)),
            ("activity reordering", (K.ACTIVITY_REORDERING,)),
            ("process model pruning", (K.PROCESS_MODEL_PRUNING,)),
            (
                "all",
                (
                    K.TRANSACTION_RATE_CONTROL,
                    K.ACTIVITY_REORDERING,
                    K.PROCESS_MODEL_PRUNING,
                ),
            ),
        ],
        "voting": [
            ("transaction rate control", (K.TRANSACTION_RATE_CONTROL,)),
            ("data model alteration", (K.DATA_MODEL_ALTERATION,)),
            ("all", (K.TRANSACTION_RATE_CONTROL, K.DATA_MODEL_ALTERATION)),
        ],
        "loan": [
            ("data model alteration", (K.DATA_MODEL_ALTERATION,)),
        ],
        "synthetic": [
            ("activity reordering", (K.ACTIVITY_REORDERING,)),
            ("transaction rate control", (K.TRANSACTION_RATE_CONTROL,)),
        ],
    }
    if usecase not in plans:
        raise KeyError(f"unknown use case {usecase!r}")
    return plans[usecase]


#: The bundle factories an :class:`~repro.bench.registry.ExperimentSpec`
#: names as its ``maker``; its ``maker_args`` are the factory's keyword
#: arguments, and a matrix's factors are read off the same signatures.
MAKERS = {
    "synthetic": make_synthetic,
    "scenario": make_scenario,
    "usecase": make_usecase,
    "loan": make_loan,
}
