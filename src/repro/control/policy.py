"""Control policies: windowed observables + SLO targets → bounded actuations.

A policy is a pure decision function — it never touches the network.  It
receives the closed :class:`~repro.control.monitor.WindowObservables` and
the :class:`ControllerState` of the current actuator values, and
returns :class:`Proposal`s; the :class:`~repro.control.controller
.SLOGuardian` clamps each proposal through :mod:`repro.control.bounds`,
applies it and records the decision.  The interface is deliberately the
same shape as the offline rules in :mod:`repro.core.rules` (observables
in, recommended parameter moves out) so recommender rules can be lifted
into live policies later.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.control.bounds import BOUNDS
from repro.control.monitor import WindowObservables
from repro.control.spec import SLOTargets

#: Abort causes the conflict-pressure rule reacts to (key contention).
CONFLICT_CAUSES = frozenset(
    {"mvcc_conflict", "phantom_conflict", "early_abort_stale_read"}
)


@dataclass(frozen=True)
class Proposal:
    """One proposed actuation: set ``actuator`` to ``value`` (rule-attributed)."""

    rule: str
    actuator: str
    #: Target value; ``None`` clears a clearable actuator (the send cap).
    value: object


@dataclass(frozen=True)
class ControllerState:
    """A read-only snapshot of the actuator values the controller manages.

    The controller reads it off the live network at every tick
    (:attr:`~repro.control.controller.SLOGuardian.state`): policies decide
    against what is *currently in effect*, never against the immutable
    :class:`~repro.fabric.config.NetworkConfig`, and act only by proposing.
    """

    block_count: int
    block_timeout: float
    mitigation: str
    send_rate_cap: float | None = None
    #: ``None`` when the run has no client retry policy to tighten.
    retry_max_attempts: int | None = None


class ControlPolicy:
    """Decision interface: one :meth:`decide` call per closed window."""

    #: Registry name (subclasses override).
    name = "abstract"

    def decide(
        self, window: WindowObservables, state: ControllerState
    ) -> list[Proposal]:
        """Proposed actuations for this window (empty = hold steady)."""
        raise NotImplementedError


class NoopPolicy(ControlPolicy):
    """Observe and record, never actuate.

    The determinism baseline: a controller-on run with the noop policy
    must produce the exact run digest of a controller-off run — ticks
    ride the control lane but touch nothing the simulation observes.
    """

    name = "noop"

    def decide(
        self, window: WindowObservables, state: ControllerState
    ) -> list[Proposal]:
        """Never proposes anything."""
        del window, state
        return []


class GuardianPolicy(ControlPolicy):
    """Rule-based SLO guardian: the first pressured rule wins each tick.

    Rules, in priority order:

    1. **endorsement pressure** — a ``policy_*`` cause dominates the
       window's aborts (crashed peers, endorsement timeouts): throttle
       the client send rate so traffic drains into the recovery window
       instead of piling onto the fault, tightening an existing cap by
       ``CAP_STEP`` each window the pressure persists.
    2. **conflict pressure** — a keyed conflict cause dominates (MVCC /
       phantom / stale read): switch the mitigation to conflict-aware
       ``reorder`` first; if contention persists, throttle.
    3. **latency pressure** — the window's p95 commit latency exceeds the
       SLO: re-size the block to the paper's block-size adaptation rule
       (``arrival rate × block timeout``), when that moves the block
       count by more than ``RESIZE_DEADBAND``.
    4. **recovery** — the abort rate is comfortably under the SLO and a
       cap is active: relax it by ``1 / CAP_STEP``, clearing it entirely
       once it no longer binds (hysteresis against flapping).
    """

    name = "guardian"

    #: Minimum submissions in a window before a *pressure* rule may fire.
    #: The recovery rule runs on thinner windows — a hard throttle must
    #: not starve itself of the samples needed to relax it — but never on
    #: *empty* ones: zero completions is no evidence of health, and
    #: clearing a cap on it would flush the paced backlog into a fault
    #: that is still in progress.
    MIN_SAMPLES = 8
    #: Multiplicative relax step for the recovery ramp.
    CAP_STEP = 0.75
    #: The throttle never caps below this admission rate (tx/s): the
    #: floor of the send cap's bounded envelope.
    CAP_FLOOR = BOUNDS["send_rate_cap"][0]
    #: Relative block-count move below which rule 3 holds steady.
    RESIZE_DEADBAND = 0.2

    def __init__(self, slo: SLOTargets) -> None:
        self.slo = slo

    def decide(
        self, window: WindowObservables, state: ControllerState
    ) -> list[Proposal]:
        """Apply the rule cascade to one closed window."""
        over_abort = window.abort_rate > self.slo.max_abort_rate
        dominant = window.dominant_cause

        if window.submitted >= self.MIN_SAMPLES:
            if over_abort and dominant is not None and dominant.startswith("policy_"):
                return [self._throttle(window, state, rule="endorsement_pressure")]

            if over_abort and dominant in CONFLICT_CAUSES:
                if state.mitigation != "reorder":
                    return [
                        Proposal(
                            rule="conflict_pressure",
                            actuator="mitigation",
                            value="reorder",
                        )
                    ]
                return [self._throttle(window, state, rule="conflict_pressure")]

            if window.p95_latency > self.slo.max_p95_latency and window.throughput > 0:
                target = window.throughput * state.block_timeout
                if (
                    abs(target - state.block_count)
                    > self.RESIZE_DEADBAND * state.block_count
                ):
                    return [
                        Proposal(
                            rule="latency_pressure",
                            actuator="block_count",
                            value=target,
                        )
                    ]
                return []

        if (
            state.send_rate_cap is not None
            and window.submitted > 0
            and window.abort_rate <= self.slo.max_abort_rate / 2.0
        ):
            relaxed = state.send_rate_cap / self.CAP_STEP
            duration = window.end - window.start
            arrival_rate = window.submitted / duration if duration > 0 else 0.0
            # Once the relaxed cap clears twice the observed completion
            # rate it no longer binds — drop it instead of ratcheting.
            if relaxed >= 2.0 * max(arrival_rate, self.CAP_FLOOR):
                return [Proposal(rule="recovery", actuator="send_rate_cap", value=None)]
            return [Proposal(rule="recovery", actuator="send_rate_cap", value=relaxed)]

        return []

    def _throttle(
        self, window: WindowObservables, state: ControllerState, rule: str
    ) -> Proposal:
        """Tighten the send cap (or retries first, when a retry storm feeds it).

        The cap targets the *success-weighted* completion rate — the rate
        at which work currently survives the fault.  A window where
        everything aborts therefore throttles admissions to the floor,
        draining arrivals into the recovery window instead of feeding
        them to certain failure; the recovery rule ramps the cap back out
        once windows come back healthy.
        """
        if (
            state.retry_max_attempts is not None
            and state.retry_max_attempts > 1
            and window.retry_rate > 0.25
        ):
            return Proposal(
                rule=rule,
                actuator="retry_max_attempts",
                value=state.retry_max_attempts - 1,
            )
        duration = window.end - window.start
        completion_rate = window.submitted / duration if duration > 0 else 0.0
        target = max(completion_rate * (1.0 - window.abort_rate), self.CAP_FLOOR)
        if state.send_rate_cap is not None:
            target = min(target, state.send_rate_cap * self.CAP_STEP)
        return Proposal(rule=rule, actuator="send_rate_cap", value=target)


def make_policy(name: str, slo: SLOTargets) -> ControlPolicy:
    """Instantiate a registered policy by name."""
    if name == "guardian":
        return GuardianPolicy(slo)
    if name == "noop":
        return NoopPolicy()
    from repro.control.spec import POLICIES

    raise ValueError(f"unknown control policy {name!r}; known: {', '.join(POLICIES)}")
