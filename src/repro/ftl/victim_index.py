"""Incrementally maintained GC victim index.

Profiling the golden attack replay showed ``ftl.gc.select_victim`` at
74.5 % of device-path wall time: every GC invocation linearly scanned all
blocks and, per candidate, re-walked every page to count recovery-queue
pins.  This module replaces the scan with bookkeeping updated at the
events that actually change a block's standing:

* page programs, invalidations (host overwrite/trim, GC/rollback
  bookkeeping) and erases — reported by the
  :class:`~repro.nand.array.NandArray` through its ``block_listener``
  hook;
* recovery-queue pin transitions (push, expiry, capacity eviction,
  rollback drain, GC repin) — reported by the
  :class:`~repro.ftl.recovery_queue.RecoveryQueue` through its
  ``on_pin``/``on_unpin`` hooks;
* block retirement — reported by the FTL itself.

Bucket re-filing is *deferred*: the event hooks only update the O(1)
per-block counters and mark the block dirty (:meth:`note`, :meth:`pin`,
:meth:`unpin`); the bucket walk a dirty block needs happens once, in
:meth:`_flush`, when a reader (:meth:`select`, :meth:`audit`) next looks
at the buckets.  A hot write that programs one page, invalidates the old
one and pins it costs three set-adds instead of three bucket re-files —
the difference between ~3 µs and ~0.5 µs of bookkeeping per host write —
and the flushed bucket state is identical to what eager re-filing would
have built, because every counter the re-file reads is maintained
eagerly and unchanged blocks are never re-filed anyway.

Per block the index keeps ``reclaimable = invalid - pinned`` and files the
block under a count-indexed bucket.  ``select`` then answers in O(buckets)
for GREEDY/WEAR_AWARE (walk buckets from the fullest down, pick the
tie-break winner inside the first non-empty one) and in O(candidates) —
with O(1) scoring off cached metadata, no page walks — for COST_BENEFIT.
A max-heap keyed once is *unsound* for cost-benefit: its score is
age-dependent and the pairwise order of two blocks can flip as ``now``
advances, so stale keys are lower bounds only; the index instead caches
each block's frozen ``newest`` timestamp (a full block receives no
further programs, so the value cannot change while the block is indexed)
and rescans the candidate table with scalar arithmetic.

Selection is bit-equivalent to the brute-force scan in
``tests/oracles/victim.py`` — both score through
:func:`~repro.ftl.victim.score_block` — and :meth:`audit` recounts the
whole structure from NAND ground truth, raising on any drift.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Set

from repro.errors import FtlError
from repro.ftl.victim import VictimPolicy, block_newest, score_block
from repro.nand.array import NandArray
from repro.nand.block import PageState


class VictimIndex:
    """Bucketed per-block ``reclaimable`` counters with O(1) updates.

    Args:
        nand: The NAND array whose blocks are indexed.  The index reads
            block counters (write pointer, valid count, erase count) live
            and keeps only what cannot be read in O(1): per-block pin
            counts and the frozen newest-page timestamp.

    The index keeps the array's ``Block`` objects and its per-PPA
    ``states`` and ``written_at`` lists, never the array itself: the
    array holds the index's :meth:`note` as its ``block_listener``, and a
    reference back would tie the whole device into a reference cycle
    (see DESIGN.md, "Ownership").  The array only ever assigns into those
    lists, never rebinds them, so the index reads them live.
    """

    def __init__(self, nand: NandArray) -> None:
        self._ppb = nand.geometry.pages_per_block
        num_blocks = nand.num_blocks
        self._blocks = [nand.block(b) for b in range(num_blocks)]
        self._states = nand.states
        self._written_at = nand.written_at
        #: Recovery-queue pins per block (any pinned PPA counts one).
        self._pinned: List[int] = [0] * num_blocks
        #: Bucket (= reclaimable count) each block is filed under; -1 when
        #: the block is not indexed (open, empty, unreclaimable, or gone).
        self._bucket_of: List[int] = [-1] * num_blocks
        #: Blocks permanently out of circulation (retired as bad).
        self._removed: List[bool] = [False] * num_blocks
        #: Cached newest-page timestamp, frozen while the block is full;
        #: ``_newest_gen`` stamps which erase generation the cache is for.
        self._newest: List[float] = [0.0] * num_blocks
        self._newest_gen: List[int] = [-1] * num_blocks
        self._buckets: List[Set[int]] = [set() for _ in range(self._ppb + 1)]
        #: Blocks whose bucket filing may be stale; re-filed by
        #: :meth:`_flush` before the next bucket read.
        self._dirty: Set[int] = set()
        self.rebuild()

    # -- event hooks ----------------------------------------------------

    def note(self, global_block: int) -> None:
        """Record that a block's page accounting changed (O(1), no re-file).

        This is the ``NandArray.block_listener`` target: called on every
        program, invalidate, revalidate and erase.  The actual bucket
        re-file is deferred to :meth:`_flush`, which runs before any
        bucket reader — a block touched many times between two GC
        selections is re-filed once, not once per event.
        """
        self._dirty.add(global_block)

    def touch(self, global_block: int) -> None:
        """Re-file one block against current NAND state (O(1) amortized).

        The newest-timestamp cache is refreshed at most once per fill per
        erase generation — checked whenever the block is (re-)filed, not
        only on the unfiled->filed edge, because with deferred re-filing
        a block can stay filed across an erase-and-refill that happened
        entirely between two flushes.
        """
        if self._removed[global_block]:
            return
        block = self._blocks[global_block]
        current = self._bucket_of[global_block]
        if block.write_pointer < self._ppb or block.is_bad:
            if current >= 0:
                self._buckets[current].discard(global_block)
                self._bucket_of[global_block] = -1
            return
        reclaimable = (self._ppb - block.valid_count
                       - self._pinned[global_block])
        if reclaimable <= 0:
            if current >= 0:
                self._buckets[current].discard(global_block)
                self._bucket_of[global_block] = -1
            return
        if current == reclaimable:
            return
        if current >= 0:
            self._buckets[current].discard(global_block)
        if self._newest_gen[global_block] != block.erase_count:
            # First filing this erase generation: freeze the newest
            # timestamp.  A full block receives no further programs, so
            # the cached value stays exact until the next erase.
            self._newest[global_block] = block_newest(
                self._written_at, global_block * self._ppb,
                block.write_pointer)
            self._newest_gen[global_block] = block.erase_count
        self._buckets[reclaimable].add(global_block)
        self._bucket_of[global_block] = reclaimable

    def pin(self, ppa: int) -> None:
        """A recovery-queue pin appeared on ``ppa``."""
        global_block = ppa // self._ppb
        self._pinned[global_block] += 1
        self._dirty.add(global_block)

    def unpin(self, ppa: int) -> None:
        """A recovery-queue pin on ``ppa`` was released."""
        global_block = ppa // self._ppb
        count = self._pinned[global_block] - 1
        if count < 0:
            raise FtlError(
                f"victim index corrupt: unpin of PPA {ppa} drops block "
                f"{global_block} below zero pins"
            )
        self._pinned[global_block] = count
        self._dirty.add(global_block)

    def remove(self, global_block: int) -> None:
        """Take a retired block out of the index permanently."""
        current = self._bucket_of[global_block]
        if current >= 0:
            self._buckets[current].discard(global_block)
            self._bucket_of[global_block] = -1
        self._removed[global_block] = True
        self._dirty.discard(global_block)

    def rebuild(self) -> None:
        """Recompute the whole index from NAND state (power-loss path)."""
        for bucket in self._buckets:
            bucket.clear()
        self._dirty.clear()
        for global_block, block in enumerate(self._blocks):
            self._bucket_of[global_block] = -1
            self._removed[global_block] = block.is_bad
            self._newest_gen[global_block] = -1
            self.touch(global_block)

    # -- queries --------------------------------------------------------

    def _flush(self) -> None:
        """Re-file every dirty block; buckets match ground truth after.

        Touch order is irrelevant: each re-file reads only its own
        block's live counters.  Flushing before a read yields exactly the
        state eager per-event re-filing would have built, because no
        counter a re-file depends on is deferred.
        """
        dirty = self._dirty
        if dirty:
            touch = self.touch
            for global_block in dirty:
                touch(global_block)
            dirty.clear()

    def pinned_in(self, global_block: int) -> int:
        """Recovery-queue pins currently inside one block (O(1))."""
        return self._pinned[global_block]

    def select(
        self,
        is_candidate: Callable[[int], bool],
        policy: VictimPolicy = VictimPolicy.GREEDY,
        now: float = 0.0,
    ) -> Optional[int]:
        """The block a brute-force scan under ``policy`` would pick.

        ``is_candidate`` is still consulted live: the (at most two) open
        active blocks sit in the buckets once full but must be skipped
        until the allocator opens their successors.
        """
        self._flush()
        if policy is VictimPolicy.COST_BENEFIT:
            return self._select_cost_benefit(is_candidate, now)
        wear_aware = policy is VictimPolicy.WEAR_AWARE
        for reclaimable in range(self._ppb, 0, -1):
            bucket = self._buckets[reclaimable]
            if not bucket:
                continue
            best: Optional[int] = None
            best_key = None
            for global_block in bucket:
                if not is_candidate(global_block):
                    continue
                if wear_aware:
                    # Same order as the oracle's reclaimable + 0.5 * wear
                    # bias: the bias is < 1, so the bucket decides and the
                    # least-worn (then lowest-index) block wins inside it.
                    key = (self._blocks[global_block].erase_count,
                           global_block)
                else:
                    key = global_block
                if best is None or key < best_key:
                    best, best_key = global_block, key
            if best is not None:
                return best
        return None

    def _select_cost_benefit(
        self, is_candidate: Callable[[int], bool], now: float
    ) -> Optional[int]:
        """O(candidates) scan with O(1) scoring off cached metadata.

        Replicates the oracle's tie-breaking exactly: among equal scores
        the lowest block index wins (the oracle iterates by index with a
        strict comparison).
        """
        best: Optional[int] = None
        best_score = 0.0
        pages = self._ppb
        blocks = self._blocks
        newest = self._newest
        for reclaimable in range(1, pages + 1):
            for global_block in self._buckets[reclaimable]:
                if not is_candidate(global_block):
                    continue
                score = score_block(
                    VictimPolicy.COST_BENEFIT, reclaimable, pages,
                    blocks[global_block].erase_count, newest[global_block],
                    now,
                )
                if score > best_score or (
                    score == best_score
                    and best is not None
                    and global_block < best
                ):
                    best_score = score
                    best = global_block
        return best

    # -- invariant checking ---------------------------------------------

    def audit(
        self,
        pinned_ppas: Iterable[int] = (),
        is_retired: Optional[Callable[[int], bool]] = None,
    ) -> None:
        """Recount the index against NAND ground truth; raise on drift.

        ``pinned_ppas`` is the recovery queue's authoritative pin set;
        ``is_retired`` (when given) must agree with the index's removed
        set.  Checked invariants: every pinned PPA sits on an INVALID
        page, per-block pin counts match a fresh recount, every block is
        filed under exactly its recomputed ``reclaimable`` bucket (or not
        filed when ineligible), the frozen newest cache matches a fresh
        page scan, and no bucket holds a stray entry.  Pending deferred
        re-files are flushed first — the audit checks the state queries
        see, not the transient between event and flush.  Fault-sweep and
        rollback tests call this after stressful transitions (retirement,
        power-loss rebuild, rollback).
        """
        self._flush()
        recount = [0] * len(self._blocks)
        states = self._states
        for ppa in pinned_ppas:
            if not 0 <= ppa < len(states):
                raise FtlError(
                    f"victim index invariant broken: pinned PPA {ppa} is "
                    f"outside the array"
                )
            state = states[ppa]
            if state is not PageState.INVALID:
                raise FtlError(
                    f"victim index invariant broken: pinned PPA {ppa} is "
                    f"{state.value}, expected invalid"
                )
            recount[ppa // self._ppb] += 1
        for global_block, block in enumerate(self._blocks):
            if recount[global_block] != self._pinned[global_block]:
                raise FtlError(
                    f"victim index corrupt: block {global_block} holds "
                    f"{recount[global_block]} pins but the index says "
                    f"{self._pinned[global_block]}"
                )
            if is_retired is not None and is_retired(global_block) and not (
                self._removed[global_block] or self._bucket_of[global_block] < 0
            ):
                raise FtlError(
                    f"victim index corrupt: retired block {global_block} "
                    f"is still indexed"
                )
            eligible = (
                not self._removed[global_block]
                and not block.is_bad
                and block.write_pointer >= self._ppb
            )
            reclaimable = (
                self._ppb - block.valid_count - recount[global_block]
                if eligible else 0
            )
            filed = self._bucket_of[global_block]
            if eligible and reclaimable > 0:
                if filed != reclaimable:
                    raise FtlError(
                        f"victim index corrupt: block {global_block} filed "
                        f"under bucket {filed}, reclaimable is {reclaimable}"
                    )
                if global_block not in self._buckets[reclaimable]:
                    raise FtlError(
                        f"victim index corrupt: block {global_block} "
                        f"missing from bucket {reclaimable}"
                    )
                newest = block_newest(self._written_at,
                                      global_block * self._ppb,
                                      block.write_pointer)
                if (self._newest_gen[global_block] == block.erase_count
                        and self._newest[global_block] != newest):
                    raise FtlError(
                        f"victim index corrupt: block {global_block} newest "
                        f"cache {self._newest[global_block]} != recomputed "
                        f"{newest}"
                    )
            elif filed != -1:
                raise FtlError(
                    f"victim index corrupt: ineligible block {global_block} "
                    f"(reclaimable {reclaimable}) filed under {filed}"
                )
        for reclaimable, bucket in enumerate(self._buckets):
            for global_block in bucket:
                if self._bucket_of[global_block] != reclaimable:
                    raise FtlError(
                        f"victim index corrupt: bucket {reclaimable} holds "
                        f"block {global_block} whose filing is "
                        f"{self._bucket_of[global_block]}"
                    )
