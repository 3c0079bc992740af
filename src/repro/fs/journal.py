"""Transactional metadata journal for SimpleFS.

The paper recovers EXT4 — a *journaling* filesystem — and the rollback's
crash-like cut is exactly the state journals exist for.  This module
implements ext4-style ordered-mode metadata journaling:

1. data blocks are written in place first (ordered mode);
2. the operation's metadata block updates are staged;
3. the staged payloads are written into the journal ring, followed by one
   **commit record** naming their targets and a checksum;
4. only then do the in-place metadata writes happen.

A crash (or a mapping-table rollback) can therefore land only *between*
transactions or before a commit record — never inside one.  Recovery is
**replay**: apply every committed transaction in sequence order; the
checksum rejects stale commit records whose payload slots were since
reused by the wrapping ring.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from repro.errors import FilesystemError
from repro.fs.layout import decode_block, encode_block
from repro.units import BLOCK_SIZE


def _checksum(payloads: Sequence[bytes]) -> str:
    digest = hashlib.sha256()
    for payload in payloads:
        digest.update(payload)
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class JournalTransaction:
    """One committed transaction, as recovered from the ring."""

    seq: int
    updates: Tuple[Tuple[int, bytes], ...]


class MetadataJournal:
    """A block ring holding transactions of metadata updates.

    Args:
        start: First LBA of the journal region.
        blocks: Ring size in blocks; a transaction of ``k`` metadata
            updates occupies ``k + 1`` blocks (payloads + commit record).
        read_block / write_block: Device accessors supplied by the
            filesystem (the journal never talks to the device directly).
    """

    def __init__(
        self,
        start: int,
        blocks: int,
        read_block: Callable[[int], bytes],
        write_block: Callable[[int, bytes], None],
    ) -> None:
        if blocks < 2:
            raise FilesystemError(f"journal needs >= 2 blocks, got {blocks}")
        self.start = start
        self.blocks = blocks
        self._read = read_block
        self._write = write_block
        self._next_seq = 1
        self._cursor = 0

    # -- committing --------------------------------------------------------

    def commit(self, updates: Sequence[Tuple[int, bytes]]) -> int:
        """Write one transaction to the ring; returns its sequence number.

        ``updates`` is the ordered list of ``(target_lba, payload)``
        metadata block writes.  The commit record goes last — its presence
        (with a matching checksum) is what makes the transaction durable.
        """
        if not updates:
            raise FilesystemError("empty journal transaction")
        needed = len(updates) + 1
        if needed > self.blocks:
            raise FilesystemError(
                f"transaction of {len(updates)} updates exceeds the "
                f"{self.blocks}-block journal"
            )
        for _, payload in updates:
            if len(payload) != BLOCK_SIZE:
                raise FilesystemError("journal payloads are whole blocks")
        if self._cursor + needed > self.blocks:
            self._cursor = 0  # wrap: the tail stays as dead slots
        base = self.start + self._cursor
        for offset, (_, payload) in enumerate(updates):
            self._write(base + offset, payload)
        seq = self._next_seq
        record = {
            "jc": 1,
            "seq": seq,
            "targets": [target for target, _ in updates],
            "sum": _checksum([payload for _, payload in updates]),
        }
        self._write(base + len(updates), encode_block(record))
        self._next_seq += 1
        self._cursor += needed
        return seq

    # -- recovery ----------------------------------------------------------

    def scan(self) -> List[JournalTransaction]:
        """Recover every committed transaction, oldest first.

        Every block is tried as a potential commit record; the checksum
        over the preceding payload blocks authenticates it, so records
        whose payloads were overwritten by newer transactions are
        rejected.
        """
        transactions: List[JournalTransaction] = []
        for offset in range(self.blocks):
            lba = self.start + offset
            try:
                record = decode_block(self._read(lba))
            except FilesystemError:
                continue
            if not record or record.get("jc") != 1:
                continue
            targets = record.get("targets", [])
            if not targets or offset - len(targets) < 0:
                continue
            payloads = [
                self._read(self.start + offset - len(targets) + index)
                for index in range(len(targets))
            ]
            if _checksum(payloads) != record.get("sum"):
                continue  # stale record: its payload slots were reused
            transactions.append(
                JournalTransaction(
                    seq=int(record["seq"]),
                    updates=tuple(zip((int(t) for t in targets), payloads)),
                )
            )
        transactions.sort(key=lambda txn: txn.seq)
        return transactions

    def replay(self) -> int:
        """Apply all committed transactions in order; returns the count.

        Ascending sequence order makes stale state harmless: older
        transactions' targets are overwritten by newer ones.
        """
        transactions = self.scan()
        for transaction in transactions:
            for target, payload in transaction.updates:
                self._write(target, payload)
        if transactions:
            self._next_seq = transactions[-1].seq + 1
        return len(transactions)
