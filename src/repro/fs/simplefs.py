"""SimpleFS: flat-namespace filesystem over the simulated SSD.

Write-through and deliberately journal-less: every operation updates data
blocks, the bitmap, the inode table and the superblock as *separate* device
writes spread over simulated time, so a mapping-table rollback that cuts
through an operation leaves realistic metadata inconsistencies — the state
fsck exists to repair (the paper compares post-recovery state to a sudden
power loss 10 seconds in the past, §III-C).
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import (
    FileNotFoundFsError,
    FilesystemError,
    FsFullError,
)
from repro.fs.inode import Inode
from repro.fs.layout import (
    INODES_PER_BLOCK,
    MAGIC,
    FsLayout,
    decode_block,
    encode_block,
)
from repro.ssd.device import SimulatedSSD
from repro.units import BLOCK_SIZE


class SimpleFS:
    """A mounted SimpleFS instance.

    Args:
        device: The SSD to live on.
        num_inodes: Inode-table capacity (max live files).
        block_op_cost: Simulated seconds each block transfer advances the
            device clock — this is what gives filesystem activity a
            realistic I/O *rate* for the in-SSD detector to observe.
        metadata_flush_interval: When positive, superblock and bitmap
            updates are buffered in memory and flushed to the device only
            every this-many seconds — real filesystems' delayed writeback
            (ext4's commit interval).  The on-disk counters are therefore
            habitually stale, which is exactly why a crash (or a
            mapping-table rollback) leaves the Table II inconsistencies
            for fsck to repair.  Zero means write-through.
        journal_blocks: When positive, a metadata write-ahead journal of
            this many blocks is reserved; every metadata block update is
            committed to the ring before its in-place write, so crash-like
            states repair by *replay* (see :mod:`repro.fs.journal`) rather
            than fsck heuristics.
    """

    def __init__(
        self,
        device: SimulatedSSD,
        num_inodes: int = 256,
        block_op_cost: float = 0.001,
        metadata_flush_interval: float = 0.0,
        journal_blocks: int = 0,
    ) -> None:
        self.device = device
        self.layout = FsLayout(total_blocks=device.num_lbas,
                               num_inodes=num_inodes,
                               journal_blocks=journal_blocks)
        self.block_op_cost = block_op_cost
        self.metadata_flush_interval = metadata_flush_interval
        self._bitmap: Optional[bytearray] = None
        self._inodes: List[Inode] = []
        self._free_count = 0
        self._used_inodes = 0
        self._super_dirty = False
        self._dirty_bitmap_blocks: set = set()
        self._last_flush = 0.0
        self.journal = None
        self._txn: List = []
        self._journal_active = False
        if journal_blocks > 0:
            from repro.fs.journal import MetadataJournal

            self.journal = MetadataJournal(
                start=self.layout.journal_start,
                blocks=journal_blocks,
                read_block=self._read,
                write_block=self._write,
            )
            # Journaling supersedes the delayed-writeback model: every
            # operation commits transactionally instead.
            self.metadata_flush_interval = 0.0

    # -- lifecycle --------------------------------------------------------

    def format(self) -> None:
        """Write a fresh, empty filesystem."""
        layout = self.layout
        self._journal_active = False
        self._bitmap = bytearray(layout.bitmap_blocks * BLOCK_SIZE)
        self._inodes = [Inode(index=i) for i in range(layout.num_inodes)]
        self._free_count = layout.data_blocks
        self._used_inodes = 0
        # A fresh filesystem needs no replayable history: wipe the journal
        # ring so no stale commit record from a previous life survives.
        for journal_lba in range(layout.journal_start,
                                 layout.journal_start + layout.journal_blocks):
            self._write(journal_lba, encode_block({}))
        for block_index in range(layout.bitmap_blocks):
            self._write_bitmap_block(block_index)
        for block_lba in range(layout.inode_start, layout.inode_start + layout.inode_blocks):
            self._write_inode_block_at(block_lba)
        self._write_superblock()
        self.sync()  # a fresh filesystem is always durable
        self._journal_active = self.journal is not None

    def mount(self) -> None:
        """Load metadata from disk (after format, recovery, or fsck).

        With journaling enabled, committed-but-unapplied metadata updates
        are replayed first — the journal's whole purpose after a crash or
        a rollback.
        """
        layout = self.layout
        if self.journal is not None:
            self.journal.replay()
            self._journal_active = True
        super_record = decode_block(self._read(layout.superblock_lba))
        if super_record.get("magic") != MAGIC:
            raise FilesystemError("no SimpleFS superblock found; format() first")
        self._free_count = int(super_record["free"])
        self._used_inodes = int(super_record["inodes"])
        bitmap = bytearray()
        for block_index in range(layout.bitmap_blocks):
            bitmap += self._read(layout.bitmap_start + block_index)
        self._bitmap = bitmap
        self._inodes = []
        for block_lba in range(layout.inode_start, layout.inode_start + layout.inode_blocks):
            records = decode_block(self._read(block_lba)).get("i", [])
            base = (block_lba - layout.inode_start) * INODES_PER_BLOCK
            for offset in range(INODES_PER_BLOCK):
                index = base + offset
                if index >= layout.num_inodes:
                    break
                record = records[offset] if offset < len(records) else {}
                self._inodes.append(Inode.from_record(index, record))

    # -- file operations ---------------------------------------------------

    def create(self, name: str, data: bytes) -> Inode:
        """Create a file; fails if the name exists."""
        self._require_mounted()
        if self._find(name) is not None:
            raise FilesystemError(f"file {name!r} already exists")
        inode = self._alloc_inode()
        blocks = self._alloc_blocks(self._blocks_needed(data))
        self._write_data(blocks, data)
        inode.used = True
        inode.name = name
        inode.size_bytes = len(data)
        inode.block_count = len(blocks)
        inode.blocks = blocks
        inode.mtime = self.device.clock.now
        self._used_inodes += 1
        self._write_inode_block_at(self.layout.inode_block_of(inode.index))
        self._write_superblock()
        self._commit_meta()
        return inode

    def read_file(self, name: str) -> bytes:
        """Read a whole file's contents."""
        inode = self._require_file(name)
        data = b"".join(
            self._read(lba) for lba in inode.blocks
        )
        return data[: inode.size_bytes]

    def overwrite(self, name: str, data: bytes) -> Inode:
        """Replace a file's contents in place (reallocating if it grows)."""
        inode = self._require_file(name)
        needed = self._blocks_needed(data)
        if needed != len(inode.blocks):
            self._free_blocks(inode.blocks)
            inode.blocks = self._alloc_blocks(needed)
            inode.block_count = needed
        self._write_data(inode.blocks, data)
        inode.size_bytes = len(data)
        inode.mtime = self.device.clock.now
        self._write_inode_block_at(self.layout.inode_block_of(inode.index))
        self._write_superblock()
        self._commit_meta()
        return inode

    def append(self, name: str, data: bytes) -> Inode:
        """Extend a file with more data (log-style workloads)."""
        inode = self._require_file(name)
        combined = self.read_file(name) + data
        return self.overwrite(name, combined)

    def rename(self, old_name: str, new_name: str) -> Inode:
        """Rename a file (metadata-only: one inode-block transaction)."""
        if self._find(new_name) is not None:
            raise FilesystemError(f"file {new_name!r} already exists")
        inode = self._require_file(old_name)
        inode.name = new_name
        inode.mtime = self.device.clock.now
        self._write_inode_block_at(self.layout.inode_block_of(inode.index))
        self._commit_meta()
        return inode

    def delete(self, name: str) -> None:
        """Remove a file, trimming its data blocks."""
        inode = self._require_file(name)
        self._free_blocks(inode.blocks)
        for lba in inode.blocks:
            self.device.trim(lba, now=self._advance())
        inode.used = False
        inode.name = ""
        inode.size_bytes = 0
        inode.block_count = 0
        inode.blocks = []
        self._used_inodes -= 1
        self._write_inode_block_at(self.layout.inode_block_of(inode.index))
        self._write_superblock()
        self._commit_meta()

    def list_files(self) -> List[str]:
        """Names of all live files."""
        self._require_mounted()
        return [inode.name for inode in self._inodes if inode.used]

    def stat(self, name: str) -> Inode:
        """The inode of a file."""
        return self._require_file(name)

    @property
    def free_blocks(self) -> int:
        """Superblock's free-data-block counter."""
        return self._free_count

    # -- allocation ---------------------------------------------------------

    def _blocks_needed(self, data: bytes) -> int:
        return max(1, -(-len(data) // BLOCK_SIZE))

    def _alloc_inode(self) -> Inode:
        for inode in self._inodes:
            if not inode.used:
                return inode
        raise FsFullError("no free inodes")

    def _alloc_blocks(self, count: int) -> List[int]:
        if count > self._free_count:
            raise FsFullError(f"need {count} blocks, {self._free_count} free")
        layout = self.layout
        blocks: List[int] = []
        lba = layout.data_start
        while len(blocks) < count and lba < layout.total_blocks:
            if not self._bit(lba):
                self._set_bit(lba, True)
                blocks.append(lba)
            lba += 1
        if len(blocks) < count:
            # The free counter said there was room but the bitmap disagreed
            # (possible after recovery, before fsck).
            for b in blocks:
                self._set_bit(b, False)
            raise FsFullError("bitmap exhausted; run fsck")
        self._free_count -= count
        for block in self._touched_bitmap_blocks(blocks):
            self._write_bitmap_block(block)
        return blocks

    def _free_blocks(self, blocks: List[int]) -> None:
        for lba in blocks:
            if self._bit(lba):
                self._set_bit(lba, False)
                self._free_count += 1
        for block in self._touched_bitmap_blocks(blocks):
            self._write_bitmap_block(block)

    def _touched_bitmap_blocks(self, lbas: List[int]) -> List[int]:
        bits_per_block = BLOCK_SIZE * 8
        return sorted({lba // bits_per_block for lba in lbas})

    # -- bitmap helpers ----------------------------------------------------

    def _bit(self, lba: int) -> bool:
        return bool(self._bitmap[lba // 8] & (1 << (lba % 8)))

    def _set_bit(self, lba: int, value: bool) -> None:
        if value:
            self._bitmap[lba // 8] |= 1 << (lba % 8)
        else:
            self._bitmap[lba // 8] &= ~(1 << (lba % 8))

    # -- on-disk writes -----------------------------------------------------

    def sync(self) -> None:
        """Flush any buffered superblock/bitmap state to the device."""
        for bitmap_block in sorted(self._dirty_bitmap_blocks):
            self._flush_bitmap_block(bitmap_block)
        self._dirty_bitmap_blocks.clear()
        if self._super_dirty or self.metadata_flush_interval > 0:
            self._flush_superblock()
        self._super_dirty = False
        self._commit_meta()
        self._last_flush = self.device.clock.now

    def _maybe_flush(self) -> None:
        if self.metadata_flush_interval <= 0:
            return
        if self.device.clock.now - self._last_flush >= self.metadata_flush_interval:
            self.sync()

    def _write_superblock(self) -> None:
        if self.metadata_flush_interval > 0:
            self._super_dirty = True
            self._maybe_flush()
            return
        self._flush_superblock()

    def _flush_superblock(self) -> None:
        record = {
            "magic": MAGIC,
            "blocks": self.layout.total_blocks,
            "ninodes": self.layout.num_inodes,
            "journal": self.layout.journal_blocks,
            "free": self._free_count,
            "inodes": self._used_inodes,
        }
        self._write_meta(self.layout.superblock_lba, encode_block(record))

    def _write_bitmap_block(self, bitmap_block: int) -> None:
        if self.metadata_flush_interval > 0:
            self._dirty_bitmap_blocks.add(bitmap_block)
            self._maybe_flush()
            return
        self._flush_bitmap_block(bitmap_block)

    def _flush_bitmap_block(self, bitmap_block: int) -> None:
        start = bitmap_block * BLOCK_SIZE
        self._write_meta(
            self.layout.bitmap_start + bitmap_block,
            bytes(self._bitmap[start : start + BLOCK_SIZE]),
        )

    def _write_inode_block_at(self, block_lba: int) -> None:
        base = (block_lba - self.layout.inode_start) * INODES_PER_BLOCK
        records = []
        for offset in range(INODES_PER_BLOCK):
            index = base + offset
            if index < len(self._inodes):
                records.append(self._inodes[index].to_record())
        self._write_meta(block_lba, encode_block({"i": records}))

    def _write_meta(self, lba: int, payload: bytes) -> None:
        """Metadata block write: staged for the transaction when the
        journal is active, direct otherwise."""
        if self._journal_active:
            self._txn.append((lba, payload))
        else:
            self._write(lba, payload)

    def _commit_meta(self) -> None:
        """Commit the staged metadata transaction (journal, then in place).

        Ordered-mode guarantee: by the time this runs, the operation's
        data blocks are already on the device; the journal commit makes
        the metadata durable atomically; the in-place writes follow.
        """
        if not self._journal_active or not self._txn:
            self._txn = []
            return
        latest = {}
        order = []
        for lba, payload in self._txn:
            if lba not in latest:
                order.append(lba)
            latest[lba] = payload
        updates = [(lba, latest[lba]) for lba in order]
        self._txn = []
        self.journal.commit(updates)
        for lba, payload in updates:
            self._write(lba, payload)

    def _write_data(self, blocks: List[int], data: bytes) -> None:
        for position, lba in enumerate(blocks):
            chunk = data[position * BLOCK_SIZE : (position + 1) * BLOCK_SIZE]
            chunk = chunk + b"\x00" * (BLOCK_SIZE - len(chunk))
            self._write(lba, chunk)

    # -- device plumbing ----------------------------------------------------

    def _advance(self) -> float:
        return self.device.clock.advance(self.block_op_cost)

    def _read(self, lba: int) -> bytes:
        return self.device.read(lba, now=self._advance())

    def _write(self, lba: int, payload: bytes) -> None:
        self.device.write(lba, payload, now=self._advance())

    def _require_mounted(self) -> None:
        if self._bitmap is None:
            raise FilesystemError("filesystem not mounted; call format() or mount()")

    def _find(self, name: str) -> Optional[Inode]:
        self._require_mounted()
        for inode in self._inodes:
            if inode.used and inode.name == name:
                return inode
        return None

    def _require_file(self, name: str) -> Inode:
        inode = self._find(name)
        if inode is None:
            raise FileNotFoundFsError(f"no such file: {name!r}")
        return inode
