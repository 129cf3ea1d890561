"""The distributed ledger: an append-only chain of blocks.

Fabric appends *every* transaction — successful or failed — to the ledger;
only successful ones update world state.  That append-all property is what
makes the ledger a complete activity log and the primary data source for
BlockOptR (Section 4 of the paper).  A network keeps its chain through
:class:`KeptChain`, a consumer of the run's
:class:`~repro.logs.stream.RunStream`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterator

from repro.fabric.transaction import Transaction


@dataclass
class Block:
    """One block: an ordered batch of transactions plus chain metadata."""

    number: int
    transactions: list[Transaction]
    previous_hash: str
    cut_reason: str = "count"  # "count" | "timeout" | "bytes" | "final" | "genesis"
    created_at: float = 0.0
    committed_at: float | None = None
    block_hash: str = field(default="", init=False)

    def __post_init__(self) -> None:
        self.block_hash = self._compute_hash()

    def _compute_hash(self) -> str:
        digest = hashlib.sha256()
        digest.update(self.previous_hash.encode())
        digest.update(str(self.number).encode())
        for tx in self.transactions:
            digest.update(tx.tx_id.encode())
        return digest.hexdigest()

    def __len__(self) -> int:
        return len(self.transactions)


class Ledger:
    """Append-only block store with hash chaining."""

    GENESIS_HASH = "0" * 64

    def __init__(self) -> None:
        self._blocks: list[Block] = []

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self._blocks)

    @property
    def height(self) -> int:
        """Number of blocks on the chain (the next block number)."""
        return len(self._blocks)

    @property
    def tip_hash(self) -> str:
        """Hash of the newest block (chained into the next one)."""
        return self._blocks[-1].block_hash if self._blocks else self.GENESIS_HASH

    def append(self, block: Block) -> None:
        """Append ``block``; enforces number and hash-chain continuity."""
        if block.number != self.height:
            raise ValueError(
                f"block number {block.number} does not extend ledger height {self.height}"
            )
        if block.previous_hash != self.tip_hash:
            raise ValueError("block does not chain from current tip")
        self._blocks.append(block)

    def transactions(self, include_config: bool = True) -> Iterator[Transaction]:
        """All transactions in commit order."""
        for block in self._blocks:
            for tx in block.transactions:
                if include_config or not tx.is_config:
                    yield tx

    def verify_chain(self) -> bool:
        """Recompute hashes and check chain integrity end to end."""
        previous = self.GENESIS_HASH
        for block in self._blocks:
            if block.previous_hash != previous:
                return False
            if block.block_hash != block._compute_hash():
                return False
            previous = block.block_hash
        return True


class KeptChain:
    """The whole run kept in memory: the ledger plus the aborted list.

    A chain consumer of :class:`~repro.logs.stream.RunStream`: a network
    built without a caller's stream registers one before its genesis
    block, and the post-run readers (``run_digest``, ``forensics_report``,
    ``ChainLog``, ``verify_serializability``) walk it.
    """

    def __init__(self) -> None:
        self.ledger = Ledger()
        #: Transactions that aborted before reaching the chain, in order.
        self.aborted: list[Transaction] = []

    def accept_block(self, block: Block) -> None:
        """Append one committed block to the ledger."""
        self.ledger.append(block)

    def accept_abort(self, tx: Transaction) -> None:
        """Keep one transaction that never reached the chain."""
        self.aborted.append(tx)
