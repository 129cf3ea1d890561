"""Validation phase: policy check, MVCC check, phantom check, commit.

Every peer validates every transaction; since all peers hold identical
state and reach identical verdicts, one validation pipeline stands for the
network.  Transactions inside a block are validated *in order* against the
evolving state — a transaction reading a key written by an earlier
transaction in the same block fails with an intra-block MVCC conflict,
exactly as in Fabric.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.fabric.chaincode import MISSING_VERSION
from repro.fabric.config import NetworkConfig
from repro.fabric.ledger import Block
from repro.fabric.policy import EndorsementPolicy
from repro.fabric.state import StateDatabase
from repro.fabric.transaction import ReadWriteSet, Transaction, TxStatus, Version
from repro.sim.kernel import Kernel
from repro.sim.resources import Server

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.logs.stream import RunStream


def rwset_conflict(namespace, rwset: ReadWriteSet) -> tuple[TxStatus, str] | None:
    """Check a read-write set against the current committed state.

    Returns ``(status, key)`` for the first conflict found — the failure
    status Fabric's validator would assign and the key that caused it (for
    a phantom, the key whose range *membership* changed) — or ``None``
    when every read is still current.  Shared by the validation pipeline
    and the ``early_abort`` mitigation, which runs the same check at
    packaging time (see docs/FAILURES.md).
    """
    # Point reads: version must match current committed state.
    for key, read_version in rwset.reads.items():
        current = namespace.version(key)
        if read_version == MISSING_VERSION:
            if current is not None:
                return TxStatus.MVCC_CONFLICT, key
        elif current != read_version:
            return TxStatus.MVCC_CONFLICT, key

    # Range reads: membership change -> phantom, version change -> MVCC.
    # An unchanged scan, the common case, settles in one tuple comparison.
    for query in rwset.range_queries:
        scan = tuple([
            (key, entry.version) for key, entry in namespace.range_scan(query.start, query.end)
        ])
        if scan == query.results:
            continue
        current, recorded = dict(scan), dict(query.results)
        if current.keys() != recorded.keys():
            return TxStatus.PHANTOM_CONFLICT, min(current.keys() ^ recorded.keys())
        for key, read_version in query.results:
            if current[key] != read_version:
                return TxStatus.MVCC_CONFLICT, key
    return None


class ValidationPipeline:
    """Validates ordered blocks; commits them to world state and the run's stream."""

    def __init__(
        self,
        kernel: Kernel,
        config: NetworkConfig,
        policy: EndorsementPolicy,
        state_db: StateDatabase,
        stream: "RunStream",
    ) -> None:
        self._kernel = kernel
        self._timing = config.timing
        self._policy = policy
        self._state_db = state_db
        self._stream = stream
        #: Post-commit hook, called with each committed block.  The network
        #: binds it for the length of a run (see
        #: ``FabricNetwork._pump_arrivals``).
        self.on_block_committed: Callable[[Block], None] | None = None
        self._server = Server(kernel, "validator")
        # Policy evaluation is a pure function of the endorser-name tuple,
        # and workloads draw from a handful of endorser sets — memoizing it
        # removes a per-transaction set comprehension + policy tree walk.
        self._policy_cache: dict[tuple[str, ...], bool] = {}

    @property
    def server(self) -> Server:
        """The validation pipeline's server resource."""
        return self._server

    #: Extra validation cost per key observed through a range query, as a
    #: fraction of ``validate_per_tx`` — re-scanning ranges is what makes
    #: range-read-heavy workloads collapse the validation pipeline
    #: (Figure 11's RangeRead-heavy column).
    RANGE_KEY_COST = 0.15

    def _tx_cost_factor(self, tx: Transaction) -> float:
        range_keys = 0
        for query in tx.rwset.range_queries:
            range_keys += len(query.results)
        return 1.0 + self.RANGE_KEY_COST * range_keys

    def receive_block(self, transactions: list[Transaction], cut_reason: str) -> None:
        """An ordered batch arrives from the ordering service."""
        cost_sum = sum(map(self._tx_cost_factor, transactions))
        service = self._timing.commit_per_block + self._timing.validate_per_tx * cost_sum

        def on_done() -> None:
            self._validate_and_commit(transactions, cut_reason)

        self._server.submit(service, on_done)

    # -- validation logic ------------------------------------------------------

    def _validate_and_commit(self, transactions: list[Transaction], cut_reason: str) -> None:
        block_number = self._stream.height
        now = self._kernel.now
        for index, tx in enumerate(transactions):
            status = self._validate(tx)
            tx.status = status
            tx.block_number = block_number
            tx.commit_time = now
            if status is TxStatus.SUCCESS:
                self._apply_writes(tx, Version(block=block_number, tx=index))

        block = Block(
            number=block_number,
            transactions=list(transactions),
            previous_hash=self._stream.tip_hash,
            cut_reason=cut_reason,
            created_at=now,
            committed_at=now,
        )
        self._stream.accept_block(block)
        if self.on_block_committed is not None:
            self.on_block_committed(block)

    def _validate(self, tx: Transaction) -> TxStatus:
        if tx.is_config:
            return TxStatus.SUCCESS
        satisfied = self._policy_cache.get(tx.endorsers)
        if satisfied is None:
            endorsing_orgs = {name.rpartition("-peer")[0] for name in tx.endorsers}
            satisfied = self._policy.is_satisfied_by(endorsing_orgs)
            self._policy_cache[tx.endorsers] = satisfied
        if not satisfied:
            return TxStatus.ENDORSEMENT_FAILURE

        namespace = self._state_db.namespace(tx.contract)
        verdict = rwset_conflict(namespace, tx.rwset)
        if verdict is not None:
            status, key = verdict
            tx.conflict_key = key
            return status
        return TxStatus.SUCCESS

    def _apply_writes(self, tx: Transaction, version: Version) -> None:
        namespace = self._state_db.namespace(tx.contract)
        for key, value in tx.rwset.writes.items():
            namespace.put(key, value, version)
