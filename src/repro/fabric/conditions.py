"""Time-varying network-wide conditions.

Every component that previously read the static
``TimingConfig.network_delay`` now reads it through one shared
:class:`NetworkConditions` instance, so scenario interventions
(:mod:`repro.scenario`) can inflate the delay mid-run — a latency spike —
and restore it later.  The delay in effect when a message is *scheduled*
is the delay it experiences; messages already in flight are unaffected.

**The actuation seam.**  Two writers mutate conditions mid-run: the
scenario engine (fault injection) and the SLO-guardian controller
(:mod:`repro.control`).  Both go through the same setters, which makes
the composition rule explicit — *last writer wins*, in kernel event
order, which is deterministic because interventions and controller ticks
ride ordered priority lanes.  Every write is appended to :attr:`journal`
with its ``source`` attribution, so both timelines can prove who set
what, when, over what previous value.

A network with neither writer builds them ``fixed``: every setter
raises, so a job may read the next hop's delay when it is booked and
schedule that stage itself (see :class:`~repro.sim.resources.Server`).
"""

from __future__ import annotations

from repro.fabric.config import TimingConfig


class NetworkConditions:
    """Mutable wide-area conditions shared by all components of one network.

    Two multiplicative delay layers compose: a network-wide multiplier
    (latency spikes) and per-organization multipliers (``region_lag`` —
    one region sits behind a congested WAN link while the rest of the
    network is nominal).  A message attributed to an org experiences the
    product of both; messages without an org attribution (block delivery)
    see only the global layer.

    A third, independent surface is the **send-rate cap**: an admission
    pacer over client submissions (the controller's rate throttle).  It
    is ``None`` — completely inert — unless a writer sets it, so
    controller-off runs are byte-identical to builds without it.
    """

    def __init__(self, timing: TimingConfig, fixed: bool = False) -> None:
        self._timing = timing
        #: No writer may change these conditions (see the module note).
        self.fixed = fixed
        self._delay_multiplier = 1.0
        self._org_multipliers: dict[str, float] = {}
        self._send_rate_cap: float | None = None
        #: Every mutation in kernel order: ``(source, field, old, new)``.
        self.journal: list[tuple[str, str, object, object]] = []

    @property
    def delay_multiplier(self) -> float:
        """Current network-delay inflation factor (1.0 = nominal)."""
        return self._delay_multiplier

    @property
    def send_rate_cap(self) -> float | None:
        """Current admission cap in transactions/second (None = uncapped)."""
        return self._send_rate_cap

    def set_delay_multiplier(self, factor: float, source: str = "scenario") -> None:
        """Inflate (or restore) the one-way delay of subsequent messages."""
        if factor <= 0:
            raise ValueError(f"delay multiplier must be positive, got {factor!r}")
        self._record(source, "delay_multiplier", self._delay_multiplier, factor)
        self._delay_multiplier = factor

    def set_org_delay_multiplier(
        self, org: str, factor: float, source: str = "scenario"
    ) -> None:
        """Inflate (or restore, at 1.0) one organization's one-way delays."""
        if factor <= 0:
            raise ValueError(f"delay multiplier must be positive, got {factor!r}")
        old = self._org_multipliers.get(org, 1.0)
        self._record(source, f"org_delay_multiplier[{org}]", old, factor)
        if factor == 1.0:
            self._org_multipliers.pop(org, None)
        else:
            self._org_multipliers[org] = factor

    def set_send_rate_cap(self, cap: float | None, source: str = "control") -> None:
        """Cap (or, with ``None``, uncap) the client submission admission rate.

        The value is advisory: :class:`~repro.fabric.network.FabricNetwork`
        reads it at each admission decision, pacing queued submissions
        ``1 / cap`` apart and flushing the queue when the cap clears.
        """
        if cap is not None and cap <= 0:
            raise ValueError(f"send rate cap must be positive, got {cap!r}")
        self._record(source, "send_rate_cap", self._send_rate_cap, cap)
        self._send_rate_cap = cap

    def _record(self, source: str, field: str, old: object, new: object) -> None:
        if self.fixed:
            raise RuntimeError(f"{source} cannot set {field}: the conditions are fixed")
        self.journal.append((source, field, old, new))

    def network_delay(self, org: str | None = None) -> float:
        """One-way delay a message sent *right now* experiences.

        ``org`` attributes the message to an organization so regional
        asymmetry applies; ``None`` (the default) is org-agnostic traffic
        such as block delivery, which only the global multiplier affects.
        """
        delay = self._timing.network_delay * self._delay_multiplier
        if org is not None and self._org_multipliers:
            delay *= self._org_multipliers.get(org, 1.0)
        return delay
