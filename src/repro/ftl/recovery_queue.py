"""The recovery queue: SSD-Insider's change log of superseded pages.

Every time a live LBA is overwritten (or trimmed), the Insider FTL pushes a
:class:`BackupEntry` recording which physical page held the previous version
and when the change happened.  Entries older than the detection window
(10 s by default) expire — the paper guarantees data written more than a
window ago is safe — and only unexpired entries pin their old physical pages
against garbage collection (Fig. 5).

Hot-path notes (the device-path fast lane)
------------------------------------------
The queue sits on the write path, so its bookkeeping is amortized the same
way the detector's ``CountingTable`` is:

* :meth:`expire` keeps the oldest queued timestamp cached (``_head_ts``)
  and returns immediately — without allocating — while nothing can have
  expired.  Because entries arrive in time order the deque *is* the time
  index; the cached head timestamp makes the "nothing to do" check O(1),
  and each entry is popped exactly once over its lifetime, so expiry is
  O(1) amortized per request.
* :meth:`log_run` logs a host write run with one expiry check (every
  entry of a run shares its timestamp) and one append per entry.
* :meth:`log` (expire, then append), :meth:`push` and :meth:`expire`
  return the shared empty tuple (:data:`RecoveryQueue.EMPTY`) when nothing
  was evicted/expired, so the common case allocates no list.  Callers
  must treat the return value as read-only.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import count, repeat
from typing import Callable, Deque, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigError, FtlError


#: Per-entry DRAM footprint in bytes used by the paper's Table III.
ENTRY_SIZE_BYTES = 12

#: Shared zero-allocation "nothing happened" result for push/expire.
_EMPTY: Tuple["BackupEntry", ...] = ()

_INF = float("inf")


class BackupEntry:
    """One logged change: ``lba`` moved off ``old_ppa`` at ``timestamp``.

    ``old_ppa`` is ``None`` when the write was the first ever for the LBA
    (rolling it back means unmapping the LBA, which is what removes freshly
    written encrypted copies left by out-of-place ransomware).

    A ``__slots__`` class rather than a dataclass: one of these is built
    on every host write, and slots shave both the construction cost and
    the per-entry footprint on the queue's hot path.  Mutable on purpose
    (GC relocation rewrites ``old_ppa`` in place via ``repin``).
    """

    __slots__ = ("lba", "old_ppa", "new_ppa", "timestamp")

    def __init__(self, lba: int, old_ppa: Optional[int],
                 new_ppa: Optional[int], timestamp: float) -> None:
        self.lba = lba
        self.old_ppa = old_ppa
        self.new_ppa = new_ppa
        self.timestamp = timestamp

    def __repr__(self) -> str:
        return (f"BackupEntry(lba={self.lba!r}, old_ppa={self.old_ppa!r}, "
                f"new_ppa={self.new_ppa!r}, timestamp={self.timestamp!r})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BackupEntry):
            return NotImplemented
        return (self.lba == other.lba
                and self.old_ppa == other.old_ppa
                and self.new_ppa == other.new_ppa
                and self.timestamp == other.timestamp)


class RecoveryQueue:
    """FIFO of backup entries with window-based expiry and PPA pinning."""

    #: The shared empty tuple returned when a push evicts nothing or an
    #: expire call finds nothing past the window.  Identity-comparable
    #: (``result is RecoveryQueue.EMPTY``) so tests can assert the hot
    #: path really is allocation-free.
    EMPTY: Tuple[BackupEntry, ...] = _EMPTY

    def __init__(self, retention: float = 10.0, capacity: Optional[int] = None) -> None:
        if not 0 < retention < math.inf:  # also false for NaN
            raise ConfigError(
                f"retention must be positive and finite, got {retention}")
        if capacity is not None and capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {capacity}")
        self.retention = retention
        self.capacity = capacity
        #: Entries evicted early because the queue hit its capacity —
        #: each one is recovery coverage lost inside the window (real
        #: firmware provisions the queue so this stays zero; Table III).
        self.evictions = 0
        #: Number of expire() calls that actually popped entries (the
        #: amortized scans); the fast-guard hit rate is
        #: ``1 - expiry_scans / calls``.
        self.expiry_scans = 0
        #: High-water mark of the queue depth over this queue's lifetime.
        self.depth_peak = 0
        self._entries: Deque[BackupEntry] = deque()
        self._pinned: Dict[int, BackupEntry] = {}
        self._last_timestamp = float("-inf")
        #: Timestamp of the oldest queued entry (+inf when empty); the
        #: O(1) guard that lets expire() skip the pop loop entirely.
        self._head_ts = _INF
        #: Optional callables ``(ppa) -> None`` invoked when a PPA gains
        #: or loses its pin (push, expiry, capacity eviction, rollback
        #: drain, GC repin).  The FTL's victim index listens here; a pin
        #: *replacement* (a newer entry re-pinning an already-pinned PPA)
        #: is not a transition and fires neither hook.
        self.on_pin: Optional[Callable[[int], None]] = None
        self.on_unpin: Optional[Callable[[int], None]] = None

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[BackupEntry]:
        return iter(self._entries)

    @property
    def pinned_count(self) -> int:
        """Old-version physical pages currently protected from GC."""
        return len(self._pinned)

    def log(self, lba: int, old_ppa: Optional[int], new_ppa: Optional[int],
            timestamp: float) -> Tuple[Sequence[BackupEntry], Sequence[BackupEntry]]:
        """Log one supersession: expire past the window, then append.

        Returns ``(expired, evicted)``; each is the shared read-only
        :data:`EMPTY` tuple when nothing left the queue.  The FTL logs
        through :meth:`log_run`, which is this for a run of LBAs.
        """
        expired = self.expire(timestamp)
        # Positional construction: keyword argument binding costs ~240 ns
        # per entry inside the timed window.
        return expired, self._append(
            (BackupEntry(lba, old_ppa, new_ppa, timestamp),)
        )

    def log_run(self, lba: int, old_ppas: Sequence[Optional[int]],
                new_ppas: Sequence[Optional[int]], timestamp: float,
                note: Optional[Callable] = None) -> None:
        """Log the supersession of consecutive LBAs from ``lba`` at one time.

        Entry ``i`` records ``lba + i`` moving off ``old_ppas[i]`` onto
        ``new_ppas[i]``.  Expiry runs once, before the first append —
        every entry shares ``timestamp``, so expiring again between them
        would find nothing — and capacity evictions and pins happen per
        entry, in LBA order, exactly as one :meth:`log` call per entry.
        ``note(expired, evicted, entry)``, when given, is called after
        each append, at that entry's queue depth; ``expired`` is only
        non-empty for the first entry.
        """
        expired = self.expire(timestamp)
        self._append(
            map(BackupEntry, count(lba), old_ppas, new_ppas,
                repeat(timestamp)),
            note, expired,
        )

    def push(self, entry: BackupEntry) -> Sequence[BackupEntry]:
        """Append a change-log entry (timestamps must be non-decreasing).

        Returns any entries evicted early to respect the capacity bound;
        their old pages become reclaimable immediately.  When nothing is
        evicted — always, for the unbounded queues real firmware sizes
        for — the shared read-only :data:`EMPTY` tuple comes back and no
        list is allocated.  Unlike :meth:`log`, no expiry runs first
        (power-loss rebuild pushes entries reconstructed from NAND).
        """
        return self._append((entry,))

    def _append(self, new_entries: Iterable[BackupEntry],
                note: Optional[Callable] = None,
                expired: Sequence[BackupEntry] = _EMPTY) -> Sequence[BackupEntry]:
        """Append entries in order; returns what the last one evicted.

        The shared body of :meth:`log`, :meth:`log_run` and :meth:`push`:
        none calls another, so a per-function tracer counts each append
        once, under the entry point that made it.  ``note`` is called
        after each append as :meth:`log_run` describes.
        """
        entries = self._entries
        pinned = self._pinned
        on_pin = self.on_pin
        capacity = self.capacity
        depth = len(entries)
        evicted: Sequence[BackupEntry] = _EMPTY
        for entry in new_entries:
            timestamp = entry.timestamp
            if timestamp < self._last_timestamp:
                raise ConfigError(
                    f"backup entries must arrive in time order "
                    f"({timestamp} < {self._last_timestamp})"
                )
            self._last_timestamp = timestamp
            evicted = _EMPTY
            if capacity is not None and depth >= capacity:
                popped: List[BackupEntry] = []
                self.evictions += depth - capacity + 1
                while depth >= capacity:
                    popped.append(self._pop_front())
                    depth -= 1
                evicted = popped
            if not depth:
                self._head_ts = timestamp
            entries.append(entry)
            depth += 1
            if depth > self.depth_peak:
                self.depth_peak = depth
            old_ppa = entry.old_ppa
            if old_ppa is not None:
                previous = pinned.get(old_ppa)
                pinned[old_ppa] = entry
                if previous is None and on_pin is not None:
                    on_pin(old_ppa)
            if note is not None:
                note(expired, evicted, entry)
                expired = _EMPTY
        return evicted

    def _pop_front(self) -> BackupEntry:
        entry = self._entries.popleft()
        self._head_ts = self._entries[0].timestamp if self._entries else _INF
        if entry.old_ppa is not None and self._pinned.get(entry.old_ppa) is entry:
            del self._pinned[entry.old_ppa]
            if self.on_unpin is not None:
                self.on_unpin(entry.old_ppa)
        return entry

    def expire(self, now: float) -> Sequence[BackupEntry]:
        """Drop (and return) entries older than the retention window.

        Expired entries release their pins: the paper deems data overwritten
        *more than* a window ago safe, so the old pages become reclaimable.
        The comparison is strict — an entry logged exactly one retention
        window ago is on the boundary the paper still guarantees
        recoverable, so it stays queued (and pinned) until time moves past
        it.

        O(1) and allocation-free when nothing has expired (the cached
        oldest-entry timestamp answers without touching the deque); the
        pop loop only runs — and a fresh list is only built — when at
        least one entry is actually past the window.
        """
        cutoff = now - self.retention
        if cutoff <= self._head_ts:
            return _EMPTY
        self.expiry_scans += 1
        expired: List[BackupEntry] = []
        while self._entries and self._entries[0].timestamp < cutoff:
            expired.append(self._pop_front())
        return expired

    def is_pinned(self, ppa: int) -> bool:
        """True if ``ppa`` holds an old version GC must preserve."""
        return ppa in self._pinned

    def repin(self, old_ppa: int, new_ppa: int) -> None:
        """Record that GC relocated a pinned old version to ``new_ppa``."""
        entry = self._pinned.pop(old_ppa, None)
        if entry is None:
            raise ConfigError(f"{ppa_msg(old_ppa)} is not pinned")
        entry.old_ppa = new_ppa
        self._pinned[new_ppa] = entry
        if self.on_unpin is not None:
            self.on_unpin(old_ppa)
        if self.on_pin is not None:
            self.on_pin(new_ppa)

    def drain(self, predicate=None) -> List[BackupEntry]:
        """Remove and return entries (used by rollback).

        With a ``predicate``, only matching entries leave the queue; the
        rest stay, order preserved — this is what makes *selective*
        (per-namespace) rollback possible.
        """
        if predicate is None:
            entries = list(self._entries)
            self._entries.clear()
            self._head_ts = _INF
            released = list(self._pinned)
            self._pinned.clear()
            if self.on_unpin is not None:
                for ppa in released:
                    self.on_unpin(ppa)
            return entries
        drained: List[BackupEntry] = []
        kept: List[BackupEntry] = []
        for entry in self._entries:
            (drained if predicate(entry) else kept).append(entry)
        self._entries = type(self._entries)(kept)
        self._head_ts = kept[0].timestamp if kept else _INF
        for entry in drained:
            if entry.old_ppa is not None and self._pinned.get(entry.old_ppa) is entry:
                del self._pinned[entry.old_ppa]
                if self.on_unpin is not None:
                    self.on_unpin(entry.old_ppa)
        return drained

    def memory_bytes(self) -> int:
        """Current DRAM footprint under the paper's Table III sizing."""
        return len(self._entries) * ENTRY_SIZE_BYTES

    def audit(self) -> None:
        """Verify the pin index against the queue; raise on inconsistency.

        Invariants (the ones block retirement and GC relocation must
        preserve): every pinned PPA points at an entry that is still
        queued and whose ``old_ppa`` is that PPA, no two pins share an
        entry, and the cached head timestamp matches the actual oldest
        entry.  Tests and the fault sweep call this after stressful
        transitions (retirement, repin, power-loss rebuild).
        """
        expected_head = self._entries[0].timestamp if self._entries else _INF
        if self._head_ts != expected_head:
            raise FtlError(
                f"expiry guard corrupt: cached head timestamp "
                f"{self._head_ts} != actual {expected_head}"
            )
        queued = {id(entry) for entry in self._entries}
        seen = set()
        for ppa, entry in self._pinned.items():
            if entry.old_ppa != ppa:
                raise FtlError(
                    f"pin index corrupt: PPA {ppa} maps to an entry whose "
                    f"old_ppa is {entry.old_ppa}"
                )
            if id(entry) not in queued:
                raise FtlError(
                    f"pin index corrupt: PPA {ppa} pins an entry no longer "
                    f"in the queue"
                )
            if id(entry) in seen:
                raise FtlError(
                    f"pin index corrupt: entry for LBA {entry.lba} is "
                    f"pinned under two PPAs"
                )
            seen.add(id(entry))


def ppa_msg(ppa: int) -> str:
    """Render a PPA for error messages."""
    return f"PPA {ppa}"
