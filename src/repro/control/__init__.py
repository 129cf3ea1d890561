"""Live SLO-guardian control: closed-loop in-run adaptation (docs/CONTROL.md).

The paper leaves "a self-adaptive system with a feedback loop" to future
work.  This package closes that loop *inside* a run: a deterministic,
kernel-scheduled controller watches windowed observables (abort causes,
retry traffic, endorsement gaps, latency quantiles) and applies bounded
actuations — block re-sizing, rate throttling, mitigation toggles, retry
tightening — while the faults of a scenario are being injected.  Every
actuation is recorded in a JSON-round-trippable, digestable
:class:`~repro.control.timeline.ControlTimeline`.

Attach a :class:`~repro.control.spec.ControlSpec` to
:attr:`repro.fabric.config.NetworkConfig.control` to turn it on; leave it
``None`` (the default) and the package is completely inert — controller-off
runs are byte-identical to builds without it.
"""

from repro.control.bounds import (
    BOUNDS,
    ActuationError,
    actuation_names,
    clamp_actuation,
    validate_actuation,
)
from repro.control.controller import SLOGuardian
from repro.control.monitor import WindowedMonitor, WindowObservables
from repro.control.policy import (
    ControllerState,
    ControlPolicy,
    GuardianPolicy,
    NoopPolicy,
    Proposal,
    make_policy,
)
from repro.control.spec import POLICIES, ControlSpec, SLOTargets
from repro.control.timeline import (
    ControlAction,
    ControlDecision,
    ControlTimeline,
    render_control_timeline,
)

__all__ = [
    "ActuationError",
    "BOUNDS",
    "ControlAction",
    "ControlDecision",
    "ControlPolicy",
    "ControlSpec",
    "ControlTimeline",
    "ControllerState",
    "GuardianPolicy",
    "NoopPolicy",
    "POLICIES",
    "Proposal",
    "SLOGuardian",
    "SLOTargets",
    "WindowObservables",
    "WindowedMonitor",
    "actuation_names",
    "clamp_actuation",
    "make_policy",
    "render_control_timeline",
    "validate_actuation",
]
