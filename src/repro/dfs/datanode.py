"""Datanode: stores checksummed block replicas and reports usage."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dfs.block import Block, BlockId, block_checksum
from repro.errors import ChecksumError, StorageError


@dataclass
class DataNode:
    """One storage node in the simulated cluster.

    Each replica is stored as ``(payload, expected_crc32)``; the
    checksum is fixed at write time, so silent payload corruption (bit
    rot, a misdirected write — injected here via :meth:`corrupt_block`)
    is detected the next time the replica is read or scrubbed.
    """

    node_id: str
    capacity: int | None = None  # bytes; None = unbounded
    alive: bool = True
    _blocks: dict[BlockId, tuple[bytes, int]] = field(default_factory=dict, repr=False)
    #: Running total behind :attr:`used_bytes` — replica placement sorts
    #: on it for every write, so it is never recounted from the blocks.
    _used_bytes: int = field(default=0, init=False, repr=False)

    @property
    def used_bytes(self) -> int:
        """Physical bytes stored on this node."""
        return self._used_bytes

    @property
    def block_count(self) -> int:
        """Number of replicas resident on this node."""
        return len(self._blocks)

    def free_bytes(self) -> float:
        """Remaining capacity (``inf`` when unbounded)."""
        if self.capacity is None:
            return float("inf")
        return self.capacity - self.used_bytes

    def store(self, block: Block) -> None:
        """Accept a block replica (payload + checksum).

        Raises:
            StorageError: if the node is dead or out of capacity.
        """
        if not self.alive:
            raise StorageError(f"datanode {self.node_id} is down")
        if self.capacity is not None and self.used_bytes + block.size > self.capacity:
            raise StorageError(f"datanode {self.node_id} is full")
        replaced = self._blocks.get(block.block_id)
        if replaced is not None:
            self._used_bytes -= len(replaced[0])
        self._blocks[block.block_id] = (block.data, block.checksum)
        self._used_bytes += len(block.data)

    def read(self, block_id: BlockId, verify: bool = True) -> bytes:
        """Serve a block replica, verifying its checksum by default.

        Raises:
            StorageError: if the node is dead or lacks the replica.
            ChecksumError: if the stored payload fails verification.
        """
        if not self.alive:
            raise StorageError(f"datanode {self.node_id} is down")
        try:
            data, expected = self._blocks[block_id]
        except KeyError:
            raise StorageError(
                f"datanode {self.node_id} has no replica of block {block_id}"
            ) from None
        if verify and block_checksum(data) != expected:
            raise ChecksumError(
                f"datanode {self.node_id}: block {block_id} replica is corrupt"
            )
        return data

    def replica_is_valid(self, block_id: BlockId) -> bool:
        """True when a resident replica's payload matches its checksum
        (used by the scrub pass; does not raise, dead nodes included)."""
        entry = self._blocks.get(block_id)
        if entry is None:
            return False
        data, expected = entry
        return block_checksum(data) == expected

    def corrupt_block(self, block_id: BlockId, offset: int = 0) -> bool:
        """Flip one payload byte without touching the stored checksum —
        the fault-injection hook for silent corruption.  Returns False
        when the replica is absent or empty."""
        entry = self._blocks.get(block_id)
        if entry is None or not entry[0]:
            return False
        data, expected = entry
        offset %= len(data)
        flipped = data[:offset] + bytes([data[offset] ^ 0xFF]) + data[offset + 1 :]
        self._blocks[block_id] = (flipped, expected)
        return True

    def drop(self, block_id: BlockId) -> None:
        """Delete a replica if present (idempotent)."""
        dropped = self._blocks.pop(block_id, None)
        if dropped is not None:
            self._used_bytes -= len(dropped[0])

    def has_block(self, block_id: BlockId) -> bool:
        """True when this node holds a replica of the block."""
        return block_id in self._blocks

    def block_ids(self) -> list[BlockId]:
        """Every block id with a replica resident on this node."""
        return list(self._blocks)

    def fail(self) -> None:
        """Simulate a crash: replicas become unreachable (not erased —
        a restarted node reports them back, like HDFS block reports)."""
        self.alive = False

    def restart(self) -> None:
        """Bring the node back with whatever replicas it still holds."""
        self.alive = True
