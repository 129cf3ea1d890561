"""genChain: the generic synthetic smart contract.

The paper's synthetic workloads run against ``genChain`` (from the
authors' earlier HyperledgerLab study), a contract with one function per
basic transaction type — read, write, update, range read, delete — over a
prepopulated key space.  Keys are zero-padded so lexicographic order
matches numeric order, which keeps range reads meaningful.
"""

from __future__ import annotations

from functools import lru_cache

from repro.fabric.chaincode import ChaincodeContext, Contract, contract_function
from repro.fabric.state import VersionedValue, WorldState
from repro.fabric.transaction import Version

#: The value every genesis key holds.
INITIAL_VALUE = 100


class GenChainContract(Contract):
    """Generic read/write/update/range/delete contract."""

    name = "genchain"

    def __init__(self, num_keys: int = 1000) -> None:
        if not 1 <= num_keys <= 999_999:
            raise ValueError(
                f"num_keys must be in 1..999,999: a key is 'key' plus a 6-digit "
                f"rank, and a 7-digit one sorts out of rank order; got {num_keys}"
            )
        self.num_keys = num_keys

    @staticmethod
    def key(index: int) -> str:
        """Stable zero-padded key name for rank ``index``."""
        return f"key{index:06d}"

    def setup(self, state: WorldState) -> None:
        """Load the shared genesis snapshot: key ``i`` at version ``(0, i)``."""
        state.load(_genesis(self.num_keys))

    @contract_function
    def read(self, ctx: ChaincodeContext, key: str) -> object:
        """Point read; fails MVCC if the key is updated before commit."""
        return ctx.get_state(key)

    @contract_function
    def write(self, ctx: ChaincodeContext, key: str, value: object) -> None:
        """Blind write: no read, so it cannot cause an MVCC conflict itself."""
        ctx.put_state(key, value)

    @contract_function
    def update(self, ctx: ChaincodeContext, key: str, value: object = 0) -> None:
        """Read-modify-write — the conflict-prone transaction type.

        Writes a caller-supplied value (not an increment): the paper notes
        the synthetic contract has "no branches, increment/decrement
        operations or complex data model", which is why delta writes are
        never recommended for it.
        """
        current = ctx.get_state(key)
        del current
        ctx.put_state(key, value)

    @contract_function
    def range_read(self, ctx: ChaincodeContext, start: str, end: str) -> list:
        """Range scan; exposed to phantom read conflicts."""
        return ctx.get_state_range(start, end)

    @contract_function
    def delete(self, ctx: ChaincodeContext, key: str) -> None:
        """Delete after existence check (a read), like the original genChain."""
        ctx.get_state(key)
        ctx.delete_state(key)


@lru_cache(maxsize=1)
def _genesis(num_keys: int) -> dict[str, VersionedValue]:
    """The genesis entries in rank order, shared by every network: ``load``
    copies the dict and the entries are immutable.  A sweep over key
    counts holds one snapshot at a time."""
    return {
        GenChainContract.key(index): VersionedValue(INITIAL_VALUE, Version(0, index))
        for index in range(num_keys)
    }
