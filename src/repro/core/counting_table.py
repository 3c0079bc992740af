"""The counting table of Fig. 3: run-lengths of reads and the overwrites
that follow them.

An :class:`TableEntry` covers one run of consecutively-read LBAs.  ``RL`` is
the run's read length; ``WL`` counts the overwrites that later hit the run.
A write to an LBA counts as an *overwrite* only when the LBA is present in
the table — i.e. it was read within the current detection window (the
paper's footnote 1) — which is exactly the read-encrypt-overwrite signature
of crypto ransomware.

A hash index keyed by LBA gives O(1) access from a request to its entry
(the paper's "hash table consisting of LBAs for keys").  The five update
operations named in Fig. 3(b) — ``NewEntry``, ``UpdateEntryR``,
``SplitEntry``, ``UpdateEntryW``, ``MergeEntry`` — map onto the code paths
of :meth:`CountingTable.record_reads` and :meth:`CountingTable.record_writes`,
which fold one whole request per call.

Hot-path layout (docs/performance.md):

* entries live in **expiry buckets** keyed by their ``Time`` slice, so
  :meth:`CountingTable.expire` touches only the stale buckets instead of
  scanning (and ``list.remove``-ing from) every live entry;
* a bounded **free list** recycles :class:`TableEntry` objects, keeping the
  steady-state update path allocation-free the way a fixed firmware entry
  pool would;
* a running **WL total** makes :meth:`CountingTable.mean_wl` (the AVGWIO
  source, evaluated at every slice boundary) O(1) instead of a full-table
  sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Set

#: Per-structure unit sizes (bytes) from the paper's Table III.
HASH_ENTRY_SIZE_BYTES = 42
TABLE_ENTRY_SIZE_BYTES = 12

#: Longest run a single entry may cover.  Firmware entries are fixed-size,
#: and expiry granularity demands bounded runs: an unbounded run built by a
#: long sequential scan would be kept alive in its entirety by any single
#: read that touches it (the entry's Time field is per run), making blocks
#: look "recently read" ~arbitrarily long after they were scanned.
MAX_RUN_BLOCKS = 64

#: Recycled-entry pool bound; beyond this, freed entries go back to the
#: allocator (a firmware pool would simply be fixed-size).
FREE_LIST_CAP = 4096


@dataclass(eq=False, init=False)
class TableEntry:
    """One run of consecutively read LBAs and its overwrite count.

    Attributes:
        slice_index: Time slice of the last update (the Fig. 3 ``Time``).
            Also the key of the expiry bucket holding the entry — mutate it
            only through :meth:`CountingTable._touch`.
        lba: Starting LBA of the run.
        rl: Read run length — the run covers ``[lba, lba + rl)``.
        wl: Overwrite count accumulated by the run (repeat overwrites of
            one block keep counting; only OWST de-duplicates).

    Slot-backed like :class:`~repro.blockdev.request.IORequest`: slotted
    fields cannot carry class-level defaults, so they sit in ``__init__``.
    """

    __slots__ = ("slice_index", "lba", "rl", "wl")

    slice_index: int
    lba: int
    rl: int
    wl: int

    def __init__(self, slice_index: int, lba: int, rl: int = 1, wl: int = 0) -> None:
        self.slice_index = slice_index
        self.lba = lba
        self.rl = rl
        self.wl = wl

    @property
    def end_lba(self) -> int:
        """One past the last LBA covered."""
        return self.lba + self.rl

    def covers(self, lba: int) -> bool:
        """True when ``lba`` lies inside the run."""
        return self.lba <= lba < self.end_lba


class CountingTable:
    """Run-length table + LBA hash index (Fig. 3a)."""

    def __init__(self) -> None:
        self._index: Dict[int, TableEntry] = {}
        # Expiry buckets: slice_index -> insertion-ordered set of entries
        # last touched in that slice (dict-as-ordered-set keeps iteration
        # deterministic).  Live buckets only span the detection window, so
        # expire() scans O(window) keys, never O(entries).
        self._buckets: Dict[int, Dict[TableEntry, None]] = {}
        self._count = 0
        self._wl_total = 0
        self._free: list = []

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[TableEntry]:
        for key in sorted(self._buckets):
            yield from self._buckets[key]

    @property
    def hash_entries(self) -> int:
        """LBAs currently indexed (Table III "hash table" population)."""
        return len(self._index)

    def entry_for(self, lba: int) -> Optional[TableEntry]:
        """The entry covering ``lba``, or None."""
        return self._index.get(lba)

    def mean_wl(self) -> float:
        """Average WL over all live entries — the AVGWIO feature source."""
        if not self._count:
            return 0.0
        return self._wl_total / self._count

    def memory_bytes(self) -> int:
        """DRAM footprint under the paper's Table III unit sizes."""
        return (
            len(self._index) * HASH_ENTRY_SIZE_BYTES
            + self._count * TABLE_ENTRY_SIZE_BYTES
        )

    # -- entry store ----------------------------------------------------

    def _alloc(self, slice_index: int, lba: int, rl: int = 1, wl: int = 0) -> TableEntry:
        """Take an entry from the free list (or allocate) and register it."""
        if self._free:
            entry = self._free.pop()
            entry.slice_index = slice_index
            entry.lba = lba
            entry.rl = rl
            entry.wl = wl
        else:
            entry = TableEntry(slice_index, lba, rl, wl)
        bucket = self._buckets.get(slice_index)
        if bucket is None:
            self._buckets[slice_index] = {entry: None}
        else:
            bucket[entry] = None
        self._count += 1
        self._wl_total += wl
        return entry

    def _release(self, entry: TableEntry, unindex: bool, unbucket: bool = True) -> None:
        """Drop ``entry`` from the table and recycle its storage."""
        if unindex:
            index = self._index
            for lba in range(entry.lba, entry.end_lba):
                if index.get(lba) is entry:
                    del index[lba]
        if unbucket:
            bucket = self._buckets.get(entry.slice_index)
            if bucket is not None:
                bucket.pop(entry, None)
                if not bucket:
                    del self._buckets[entry.slice_index]
        self._count -= 1
        self._wl_total -= entry.wl
        if len(self._free) < FREE_LIST_CAP:
            self._free.append(entry)

    def _touch(self, entry: TableEntry, slice_index: int) -> None:
        """Refresh the entry's ``Time``, moving it between expiry buckets."""
        old = entry.slice_index
        if old == slice_index:
            return
        buckets = self._buckets
        bucket = buckets[old]
        del bucket[entry]
        if not bucket:
            del buckets[old]
        entry.slice_index = slice_index
        bucket = buckets.get(slice_index)
        if bucket is None:
            buckets[slice_index] = {entry: None}
        else:
            bucket[entry] = None

    # -- updates --------------------------------------------------------

    def record_reads(self, lba: int, length: int, slice_index: int) -> None:
        """Fold a ``length``-block read into the table, block by block.

        Per block: refresh an entry that already covers the LBA
        (UpdateEntryR), or hand it to :meth:`_add_read` to extend a run or
        start one.  An entry already stamped with ``slice_index`` needs no
        refresh, which is the common case for repeat reads in one slice.
        """
        index = self._index
        end = lba + length
        # A while loop, not range(): most requests are one block long, and
        # building a range object for one iteration would double the cost.
        while lba < end:
            entry = index.get(lba)
            if entry is None:
                self._add_read(lba, slice_index)
            elif entry.slice_index != slice_index:
                self._touch(entry, slice_index)
            lba += 1

    def record_read(self, lba: int, slice_index: int) -> TableEntry:
        """Fold a unit-length read into the table; returns its entry."""
        self.record_reads(lba, 1, slice_index)
        return self._index[lba]

    def _add_read(self, lba: int, slice_index: int) -> None:
        """Read an untracked LBA: extend an adjacent run (UpdateEntryR +
        possible MergeEntry) or start a fresh one (NewEntry)."""
        index = self._index
        left = index.get(lba - 1)
        if left is not None and left.lba + left.rl == lba and left.rl < MAX_RUN_BLOCKS:
            left.rl += 1
            if left.slice_index != slice_index:
                self._touch(left, slice_index)
            index[lba] = left
            if lba + 1 in index:
                self._maybe_merge(left, slice_index)
            return

        right = index.get(lba + 1)
        if right is not None and right.lba == lba + 1 and right.rl < MAX_RUN_BLOCKS:
            right.lba = lba
            right.rl += 1
            if right.slice_index != slice_index:
                self._touch(right, slice_index)
            index[lba] = right
            # Merging must be symmetric: the freshly extended run may now
            # abut a run on its *left* (scanned right-to-left); merge that
            # neighbour forward into place (MergeEntry).
            if left is not None and left.lba + left.rl == lba:
                self._maybe_merge(left, slice_index)
            return

        index[lba] = self._alloc(slice_index, lba)

    def record_writes(self, lba: int, length: int, slice_index: int,
                      overwritten: Set[int]) -> int:
        """Fold a ``length``-block write into the table.

        Returns how many of its blocks are *overwrites* — LBAs read within
        the window — and adds those LBAs to ``overwritten``.  Writes to
        untracked LBAs leave the table unchanged (Algorithm 1 line 10 only
        counts blocks "already in the table").
        """
        index = self._index
        end = lba + length
        count = 0
        while lba < end:
            entry = index.get(lba)
            if entry is not None:
                if entry.wl == 0 and lba > entry.lba:
                    # The overwrite starts mid-run: split so the overwritten
                    # part heads its own entry and WL measures the
                    # contiguous overwrite run-length (SplitEntry).
                    entry = self._split(entry, lba)
                entry.wl += 1
                if entry.slice_index != slice_index:
                    self._touch(entry, slice_index)
                overwritten.add(lba)
                count += 1
            lba += 1
        if count:
            self._wl_total += count
        return count

    def record_write(self, lba: int, slice_index: int) -> bool:
        """Fold a unit-length write; True when it is an overwrite."""
        return self.record_writes(lba, 1, slice_index, set()) == 1

    def _split(self, entry: TableEntry, at_lba: int) -> TableEntry:
        """Split ``entry`` so a new entry begins at ``at_lba``."""
        right = self._alloc(
            entry.slice_index,
            at_lba,
            rl=entry.end_lba - at_lba,
            wl=0,
        )
        entry.rl = at_lba - entry.lba
        for lba in range(right.lba, right.end_lba):
            self._index[lba] = right
        return right

    def _maybe_merge(self, entry: TableEntry, slice_index: int) -> None:
        """Merge ``entry`` with the run starting at its end (MergeEntry).

        Only overwrite-free runs merge; runs that already carry overwrite
        counts stay separate so WL keeps measuring one contiguous episode.
        """
        neighbour = self._index.get(entry.end_lba)
        if (
            neighbour is None
            or neighbour is entry
            or neighbour.lba != entry.end_lba
            or entry.wl != 0
            or neighbour.wl != 0
            or entry.rl + neighbour.rl > MAX_RUN_BLOCKS
        ):
            return
        entry.rl += neighbour.rl
        self._touch(entry, slice_index)
        for lba in range(neighbour.lba, neighbour.end_lba):
            self._index[lba] = entry
        self._release(neighbour, unindex=False)

    # -- expiry --------------------------------------------------------

    def expire(self, oldest_live_slice: int) -> int:
        """Drop entries last touched before ``oldest_live_slice``.

        Called when the window slides (Algorithm 1 line 6).  Returns the
        number of entries dropped.  Cost is O(stale entries + live
        buckets); live buckets span at most the detection window, so the
        scan never touches surviving entries.
        """
        stale_keys = [key for key in self._buckets if key < oldest_live_slice]
        dropped = 0
        for key in stale_keys:
            bucket = self._buckets.pop(key)
            for entry in bucket:
                self._release(entry, unindex=True, unbucket=False)
                dropped += 1
        return dropped

    def clear(self) -> None:
        """Drop everything (used when the detector resets after recovery)."""
        self._index.clear()
        self._buckets.clear()
        self._count = 0
        self._wl_total = 0
        self._free.clear()
