"""The SLO guardian: a kernel-scheduled closed-loop controller.

:class:`SLOGuardian` runs *inside* a simulation.  Installed by
:class:`~repro.fabric.network.FabricNetwork` when the config carries a
:class:`~repro.control.spec.ControlSpec`, it ticks on the kernel's
control lane (after interventions, before arrivals at the same instant):
each tick closes the :class:`~repro.control.monitor.WindowedMonitor`
window, asks the policy for proposals, clamps them through
:mod:`repro.control.bounds`, applies them to the network's *live*
actuation seams and records the decision in the
:class:`~repro.control.timeline.ControlTimeline`.

Determinism: ticks are ordinary kernel events, observables are pure
functions of kernel-ordered transaction completions, and policies are
pure functions of observables — so a controller-on run is bit-reproducible
per (seed, policy, scenario) across replays.  The
controller never mutates the shared :class:`~repro.fabric.config
.NetworkConfig`: block cutting is re-sized on the live orderer, the
mitigation/retry toggles go through network setters, and the rate
throttle through :class:`~repro.fabric.conditions.NetworkConditions` —
the same attributed seam the scenario engine writes (last writer wins,
both journaled).
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from repro.control.bounds import ActuationError, clamp_actuation, validate_actuation
from repro.control.monitor import WindowedMonitor
from repro.control.policy import ControllerState, Proposal, make_policy
from repro.control.spec import ControlSpec
from repro.control.timeline import ControlAction, ControlDecision, ControlTimeline

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fabric.network import FabricNetwork


class SLOGuardian:
    """Windowed monitor + policy + bounded actuators, wired to one network."""

    def __init__(self, network: "FabricNetwork", spec: ControlSpec) -> None:
        self.network = network
        self.spec = spec
        self.monitor = WindowedMonitor()
        self.policy = make_policy(spec.policy, spec.slo)
        self.timeline = ControlTimeline(policy=spec.policy)
        retry = network.retry_policy
        self.state = ControllerState(
            block_count=network.orderer.block_count,
            block_timeout=network.orderer.block_timeout,
            mitigation=network.mitigation,
            send_rate_cap=network.conditions.send_rate_cap,
            retry_max_attempts=None if retry is None else retry.max_attempts,
        )

    def install(self) -> None:
        """Register the monitor on the network's stream; schedule the first tick.

        As a transaction consumer, the monitor sees every finished
        transaction at its completion event, before any later tick: the
        validator hands each block to the stream in the event that
        commits it, and aborts reach the stream synchronously.
        """
        self.network.stream.add_transaction_consumer(self.monitor)
        self.network.kernel.schedule_control(self.spec.interval, self._tick)

    def _tick(self) -> None:
        kernel = self.network.kernel
        now = kernel.now
        self.timeline.ticks += 1
        window = self.monitor.snapshot(now)
        proposals = self.policy.decide(window, self.state)
        actions = []
        for proposal in proposals:
            action = self._apply(proposal)
            if action is not None:
                actions.append(action)
        if actions:
            self.timeline.record(
                ControlDecision(
                    time=now,
                    rule=proposals[0].rule,
                    observables=window.to_dict(),
                    actions=tuple(actions),
                )
            )
        # Reschedule only while other events remain: a tick must never be
        # the event keeping the simulation alive, or the run never ends.
        if kernel.pending() > 0:
            kernel.schedule_control(now + self.spec.interval, self._tick)

    def _apply(self, proposal: Proposal) -> ControlAction | None:
        """Clamp and apply one proposal; ``None`` when it is a no-op."""
        network = self.network
        state = self.state
        name, value = proposal.actuator, proposal.value

        if name == "send_rate_cap":
            old = state.send_rate_cap
            if value is None:
                if old is None:
                    return None
                network.conditions.set_send_rate_cap(None, source="control")
                state.send_rate_cap = None
                return ControlAction("send_rate_cap", old, None)
            new, clamped = clamp_actuation("send_rate_cap", float(value))
            if new == old:
                return None
            network.conditions.set_send_rate_cap(new, source="control")
            state.send_rate_cap = new
            return ControlAction("send_rate_cap", old, new, clamped=clamped)

        if name == "block_count":
            new, clamped = clamp_actuation("block_count", float(value))
            old = network.orderer.block_count
            if new == old:
                return None
            network.orderer.block_count = new
            state.block_count = new
            return ControlAction("block_count", old, new, clamped=clamped)

        if name == "block_timeout":
            new, clamped = clamp_actuation("block_timeout", float(value))
            old = network.orderer.block_timeout
            if new == old:
                return None
            network.orderer.block_timeout = new
            state.block_timeout = new
            return ControlAction("block_timeout", old, new, clamped=clamped)

        if name == "mitigation":
            validate_actuation("mitigation", value)
            old = state.mitigation
            if value == old:
                return None
            network.set_mitigation(str(value))
            state.mitigation = str(value)
            return ControlAction("mitigation", old, value)

        if name == "retry_max_attempts":
            retry = network.retry_policy
            if retry is None:
                return None
            new, clamped = clamp_actuation("retry_max_attempts", float(value))
            if new == retry.max_attempts:
                return None
            old = retry.max_attempts
            network.set_retry_policy(replace(retry, max_attempts=new))
            state.retry_max_attempts = new
            return ControlAction("retry_max_attempts", old, new, clamped=clamped)

        raise ActuationError(f"policy proposed unknown actuator {name!r}")
