"""Workload generation: Table 2 control variables, use cases, loan log.

Every generator returns ``(NetworkConfig, ContractFamily, requests)``:
the one family the requests were drawn for, so
``run_workload(config, family.deploy().contracts, requests)`` runs them
and :func:`repro.core.apply.apply_recommendations` swaps in its
variants.  The bench makers return these bundles as they are.  The send
rate lives in the request submit times; skews and key choices flow
through the seeded :class:`repro.sim.rng.SimRng`.
"""

from repro.workloads.loan import LoanEvent, generate_loan_event_log, loan_workload
from repro.workloads.schedule import (
    cap_rate,
    constant_rate_times,
    phased_times,
    reorder_requests,
)
from repro.workloads.spec import ControlVariables, WorkloadType
from repro.workloads.synthetic import iter_synthetic_requests, synthetic_workload
from repro.workloads.usecases import (
    drm_workload,
    ehr_workload,
    scm_workload,
    voting_workload,
)

__all__ = [
    "ControlVariables",
    "LoanEvent",
    "WorkloadType",
    "cap_rate",
    "constant_rate_times",
    "drm_workload",
    "ehr_workload",
    "generate_loan_event_log",
    "loan_workload",
    "phased_times",
    "reorder_requests",
    "scm_workload",
    "iter_synthetic_requests",
    "synthetic_workload",
    "voting_workload",
]
