"""The SLO guardian: a kernel-scheduled closed-loop controller.

:class:`SLOGuardian` runs *inside* a simulation.  Installed by
:class:`~repro.fabric.network.FabricNetwork` when the config carries a
:class:`~repro.control.spec.ControlSpec`, it ticks on the kernel's
control lane (after interventions, before arrivals at the same instant):
each tick closes the :class:`~repro.control.monitor.WindowedMonitor`
window, reads the actuator values in effect off the network, asks the
policy for proposals, clamps them through
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
from typing import TYPE_CHECKING, Callable

from repro.control.bounds import ActuationError, clamp_actuation, validate_actuation
from repro.control.monitor import WindowedMonitor
from repro.control.policy import ControllerState, Proposal, make_policy
from repro.control.spec import ControlSpec
from repro.control.timeline import ControlAction, ControlDecision, ControlTimeline

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fabric.network import FabricNetwork


#: How each actuator reaches the live network, as ``setter(network,
#: value)`` (docs/CONTROL.md's "applied through" column).
SETTERS: dict[str, Callable[["FabricNetwork", object], None]] = {
    "send_rate_cap": lambda network, cap: (
        network.conditions.set_send_rate_cap(cap, source="control")
    ),
    "block_count": lambda network, count: (
        setattr(network.orderer, "block_count", count)
    ),
    "block_timeout": lambda network, timeout: (
        setattr(network.orderer, "block_timeout", timeout)
    ),
    "mitigation": lambda network, mitigation: network.set_mitigation(mitigation),
    "retry_max_attempts": lambda network, attempts: network.set_retry_policy(
        replace(network.retry_policy, max_attempts=attempts)
    ),
}


class SLOGuardian:
    """Windowed monitor + policy + bounded actuators, wired to one network."""

    def __init__(self, network: "FabricNetwork", spec: ControlSpec) -> None:
        self.network = network
        self.spec = spec
        self.monitor = WindowedMonitor()
        self.policy = make_policy(spec.policy, spec.slo)
        self.timeline = ControlTimeline(policy=spec.policy)

    @property
    def state(self) -> ControllerState:
        """The actuator values in effect now, read off the live network."""
        network = self.network
        retry = network.retry_policy
        return ControllerState(
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
        name, value = proposal.actuator, proposal.value
        setter = SETTERS.get(name)
        if setter is None:
            raise ActuationError(f"policy proposed unknown actuator {name!r}")
        old = getattr(self.state, name)
        if name == "retry_max_attempts" and old is None:
            return None  # no retry policy to tighten
        clamped = False
        if name == "mitigation":
            validate_actuation(name, value)
        elif not (name == "send_rate_cap" and value is None):  # None clears the cap
            value, clamped = clamp_actuation(name, float(value))
        if value == old:
            return None
        setter(self.network, value)
        return ControlAction(name, old, value, clamped=clamped)
