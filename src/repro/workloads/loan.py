"""Loan application process (LAP) event log and workload.

The paper replays the first 2,000 applications of the public BPI-2017
loan event log of a Dutch financial institute.  That dataset is not
available offline, so :func:`generate_loan_event_log` synthesizes an event
log with the same structure: each application flows through the published
process model (create → submit → accept → offer → send → validate →
outcome), events of concurrent applications interleave, and employees are
assigned with a Zipf skew so that employee ``EMP001`` handles by far the
most applications — the hot key behind Figure 17's data-model-alteration
recommendation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.contracts.registry import ContractFamily, loan_family
from repro.fabric.config import NetworkConfig
from repro.fabric.transaction import TxRequest
from repro.sim.rng import SimRng, WeightedSampler, zipf_weights
from repro.workloads.schedule import constant_rate_times
from repro.workloads.usecases import UseCaseSpec

#: The main flow every application goes through before its outcome.
LOAN_FLOW = (
    "createApplication",
    "submitApplication",
    "acceptApplication",
    "createOffer",
    "sendOffer",
    "validateApplication",
)

#: Terminal outcomes with their probabilities (approve / reject / cancel).
LOAN_OUTCOMES = (("approveApplication", 0.6), ("rejectApplication", 0.25), ("cancelApplication", 0.15))

LOAN_TYPES = ("personal", "home", "car", "business")


@dataclass(frozen=True)
class LoanEvent:
    """One event of the loan application process."""

    order: int
    application_id: str
    activity: str
    employee_id: str
    loan_type: str
    amount: float


def generate_loan_event_log(
    num_applications: int = 2000,
    num_employees: int = 30,
    employee_skew: float = 2.5,
    seed: int = 7,
) -> list[LoanEvent]:
    """Synthesize a BPI-2017-shaped event log.

    Every application yields ``len(LOAN_FLOW) + 1`` events (2,000
    applications ≈ 14,000 events; the paper rounds to "20,000 corresponding
    transactions" after including repeats/validations).  Applications are
    interleaved round-robin with jitter so concurrent cases overlap, and
    each event is handled by the application's main employee with
    occasional hand-offs.
    """
    rng = SimRng(seed)
    outcome_stream = rng.stream("loan-outcome")
    handoff_stream = rng.stream("loan-handoff")
    employees = WeightedSampler(
        rng.stream("loan-employee"), zipf_weights(num_employees, employee_skew)
    )

    per_application: list[list[tuple[str, str, str, float]]] = []
    for app_index in range(num_applications):
        app_id = f"APP{app_index:06d}"
        main_employee = f"EMP{employees.draw() + 1:03d}"
        loan_type = LOAN_TYPES[int(outcome_stream.integers(0, len(LOAN_TYPES)))]
        amount = float(outcome_stream.integers(1, 500)) * 1000.0

        roll = outcome_stream.random()
        cumulative = 0.0
        outcome = LOAN_OUTCOMES[-1][0]
        for name, probability in LOAN_OUTCOMES:
            cumulative += probability
            if roll < cumulative:
                outcome = name
                break

        steps: list[tuple[str, str, str, float]] = []
        for activity in (*LOAN_FLOW, outcome):
            employee = main_employee
            if handoff_stream.random() < 0.15:
                employee = f"EMP{int(handoff_stream.integers(0, num_employees)) + 1:03d}"
            steps.append((app_id, activity, employee, amount))
        per_application.append([(a, act, emp, amount) for a, act, emp, amount in steps])
        del loan_type  # loan type rides along in the workload args below

    # Interleave applications: each round advances a random subset of open
    # cases, so events of many applications overlap in time.
    events: list[LoanEvent] = []
    cursors = [0] * num_applications
    open_cases = list(range(num_applications))
    order = 0
    interleave = rng.stream("loan-interleave")
    while open_cases:
        window = open_cases[: max(1, min(50, len(open_cases)))]
        pick = window[int(interleave.integers(0, len(window)))]
        app_id, activity, employee, amount = per_application[pick][cursors[pick]]
        loan_type = LOAN_TYPES[pick % len(LOAN_TYPES)]
        events.append(
            LoanEvent(
                order=order,
                application_id=app_id,
                activity=activity,
                employee_id=employee,
                loan_type=loan_type,
                amount=amount,
            )
        )
        order += 1
        cursors[pick] += 1
        if cursors[pick] >= len(per_application[pick]):
            open_cases.remove(pick)
    return events


def loan_workload(
    spec: UseCaseSpec | None = None,
    events: list[LoanEvent] | None = None,
    send_rate: float | None = None,
) -> tuple[NetworkConfig, ContractFamily, list[TxRequest]]:
    """Turn a loan event log into a Fabric workload.

    The paper runs the same 20,000 transactions at 10 TPS (manual
    processing) and 300 TPS (automated processing); pass ``send_rate`` to
    choose.  Events are replayed in log order.
    """
    spec = spec or UseCaseSpec(send_rate=10.0)
    if send_rate is not None:
        spec.send_rate = send_rate
    if events is None:
        events = generate_loan_event_log(seed=spec.seed)
    family = loan_family()
    contract_name = family.deploy().contracts[0].name

    times = constant_rate_times(len(events), spec.send_rate)
    requests = [
        TxRequest(
            submit_time=time,
            activity=event.activity,
            args=(event.application_id, event.employee_id, event.loan_type, event.amount),
            contract=contract_name,
        )
        for time, event in zip(times, sorted(events, key=lambda e: e.order))
    ]
    return spec.to_network_config(), family, requests
