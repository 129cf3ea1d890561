"""Client-side retry / resubmission policy.

Real Fabric clients (Caliper workers, gateway SDKs) do not give up after
one ``MVCC_READ_CONFLICT``: they resubmit the transaction, which re-runs
the chaincode against the *current* committed state — a brand-new
read-write set — and adds genuine follow-on load to every pipeline stage.
The seed reproduction modeled fire-and-forget clients only, understating
contention; a :class:`RetryPolicy` on
:class:`~repro.fabric.config.NetworkConfig` turns failures into that
realistic retry traffic.

Semantics (see docs/FAILURES.md for the taxonomy interaction):

* a transaction whose final status is a failure is resubmitted as a *new*
  proposal after a deterministic exponential backoff, up to
  ``max_attempts`` total attempts per logical transaction;
* resubmission re-enters the pipeline at the proposal stage: fresh client
  occupancy, fresh endorsement, fresh read-write set
  (*resubmit-as-new-read-set* semantics — the retry can succeed precisely
  because it re-reads);
* chaincode-level early aborts (``abort_stage == "endorsement"``) are
  **not** retried: the contract deterministically rejects the arguments,
  so a retry would fail identically.

Determinism: the backoff is a pure function of the attempt number unless
``jitter`` is positive, in which case the perturbation is drawn from the
dedicated ``client-retry`` :class:`~repro.sim.rng.SimRng` stream — the
same seed therefore reproduces the exact retry traffic, which
``tests/test_retry_model.py`` pins down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class RetryPolicy:
    """How a client resubmits failed transactions.

    ``max_attempts`` counts *total* attempts per logical transaction, the
    original submission included; ``1`` disables retries entirely (the
    seed behaviour).  The backoff before attempt ``n+1`` is
    ``backoff_base * backoff_multiplier**(n-1)`` seconds, optionally
    perturbed by up to ``±jitter`` (a fraction) drawn deterministically
    from the simulation's seeded RNG.
    """

    max_attempts: int = 3
    backoff_base: float = 0.25
    backoff_multiplier: float = 2.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base <= 0:
            raise ValueError(f"backoff_base must be positive, got {self.backoff_base}")
        if self.backoff_multiplier < 1.0:
            raise ValueError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def delay(self, failed_attempts: int, uniform: Callable[[], float] | None = None) -> float:
        """Backoff (seconds) before the attempt after ``failed_attempts``.

        ``uniform`` supplies draws on ``[0, 1)`` for the jitter term; it is
        only consulted when ``jitter > 0``, so jitter-free policies touch
        no RNG stream at all.
        """
        if failed_attempts < 1:
            raise ValueError(f"failed_attempts must be >= 1, got {failed_attempts}")
        backoff = self.backoff_base * self.backoff_multiplier ** (failed_attempts - 1)
        if self.jitter > 0.0 and uniform is not None:
            backoff *= 1.0 + self.jitter * (2.0 * uniform() - 1.0)
        return backoff
