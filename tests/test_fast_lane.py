"""Device-path fast lane: queue logging and span writes.

* :meth:`RecoveryQueue.log` is ``expire()`` then ``push()`` in one call —
  entries, pins, hook transitions and every counter must match the
  two-call form, across expiry and capacity eviction.
* :meth:`PageMappedFTL.write_span` is one FTL call per host write
  request; it must leave the same FTL state behind as the per-block
  ``write()`` loop, on the flat table and its dict oracle, profiler
  armed or not — and stop at exactly the same block when the span runs
  off the logical space.
"""

from __future__ import annotations

import random
from contextlib import nullcontext

import pytest

import repro.ftl.base
from repro.errors import AddressError, ConfigError
from repro.ftl.insider import InsiderFTL
from repro.ftl.recovery_queue import BackupEntry, RecoveryQueue
from repro.nand.array import NandArray
from repro.nand.block import PageState
from repro.nand.geometry import NandGeometry
from repro.obs.prof import LayerProfiler
from tests.oracles.mapping import DictMappingTable


# -- helpers ------------------------------------------------------------------

def queue_snapshot(queue: RecoveryQueue) -> dict:
    """Value-level snapshot of the queue and its pin index."""
    return {
        "entries": [(e.lba, e.old_ppa, e.new_ppa, e.timestamp)
                    for e in queue],
        "pinned": {ppa: (e.lba, e.old_ppa, e.new_ppa, e.timestamp)
                   for ppa, e in queue._pinned.items()},
        "len": len(queue),
        "pinned_count": queue.pinned_count,
        "evictions": queue.evictions,
        "expiry_scans": queue.expiry_scans,
        "depth_peak": queue.depth_peak,
    }


def random_stream(seed: int, n: int = 400, ppa_universe: int = 128,
                  retention: float = 5.0):
    """A time-ordered change stream with repeats, Nones and window jumps."""
    rng = random.Random(seed)
    timestamp = 0.0
    stream = []
    for i in range(n):
        roll = rng.random()
        if roll < 0.05:
            timestamp += retention * rng.uniform(1.0, 2.5)  # force expiry
        elif roll < 0.8:
            timestamp += rng.uniform(0.0, 0.4)  # includes equal timestamps
        old_ppa = None if rng.random() < 0.15 else rng.randrange(ppa_universe)
        stream.append((i, old_ppa, ppa_universe + i, timestamp))
    return stream


def reference_apply(queue: RecoveryQueue, lba, old_ppa, new_ppa, timestamp):
    expired = queue.expire(timestamp)
    evicted = queue.push(BackupEntry(lba, old_ppa, new_ppa, timestamp))
    return expired, evicted


def entry_values(entries):
    return [(e.lba, e.old_ppa, e.new_ppa, e.timestamp) for e in entries]


# -- RecoveryQueue.log() ------------------------------------------------------

class TestFusedLogEquivalence:
    @pytest.mark.parametrize("capacity", [None, 1, 4, 16, 64])
    @pytest.mark.parametrize("seed", [0, 7, 20180706])
    def test_matches_expire_plus_push(self, capacity, seed):
        fast = RecoveryQueue(retention=5.0, capacity=capacity)
        ref = RecoveryQueue(retention=5.0, capacity=capacity)
        for lba, old_ppa, new_ppa, timestamp in random_stream(seed):
            expired, evicted = fast.log(lba, old_ppa, new_ppa, timestamp)
            ref_expired, ref_evicted = reference_apply(
                ref, lba, old_ppa, new_ppa, timestamp)
            assert entry_values(expired) == entry_values(ref_expired)
            assert entry_values(evicted) == entry_values(ref_evicted)
        assert queue_snapshot(fast) == queue_snapshot(ref)
        fast.audit()
        ref.audit()

    @pytest.mark.parametrize("capacity", [1, 8])
    def test_hook_transition_sequences_identical(self, capacity):
        fast = RecoveryQueue(retention=5.0, capacity=capacity)
        ref = RecoveryQueue(retention=5.0, capacity=capacity)
        fast_calls, ref_calls = [], []
        fast.on_pin = lambda ppa: fast_calls.append(("pin", ppa))
        fast.on_unpin = lambda ppa: fast_calls.append(("unpin", ppa))
        ref.on_pin = lambda ppa: ref_calls.append(("pin", ppa))
        ref.on_unpin = lambda ppa: ref_calls.append(("unpin", ppa))
        for lba, old_ppa, new_ppa, timestamp in random_stream(11, n=300):
            fast.log(lba, old_ppa, new_ppa, timestamp)
            reference_apply(ref, lba, old_ppa, new_ppa, timestamp)
        assert fast_calls == ref_calls
        assert queue_snapshot(fast) == queue_snapshot(ref)

    def test_rejects_time_regression(self):
        queue = RecoveryQueue(capacity=4)
        queue.log(1, 100, 200, 5.0)
        with pytest.raises(ConfigError):
            queue.log(2, 101, 201, 4.0)

    def test_capacity_one_recycles_in_place(self):
        """The evicted entry is the queue's only (head) entry."""
        queue = RecoveryQueue(retention=10.0, capacity=1)
        queue.log(1, 100, 200, 0.0)
        queue.log(2, 101, 201, 1.0)
        assert [(e.lba, e.old_ppa) for e in queue] == [(2, 101)]
        assert queue.evictions == 1
        assert not queue.is_pinned(100)
        assert queue.is_pinned(101)
        queue.audit()  # cached head timestamp must be the *new* one

    def test_depth_peak_matches_push_semantics(self):
        queue = RecoveryQueue(retention=100.0, capacity=3)
        for i in range(10):
            queue.log(i, i, 100 + i, float(i))
        assert len(queue) == 3
        assert queue.depth_peak == 3
        assert queue.evictions == 7

    def test_nothing_left_returns_the_shared_empty_tuple(self):
        queue = RecoveryQueue(retention=10.0)
        expired, evicted = queue.log(1, 100, 200, 0.0)
        assert expired is RecoveryQueue.EMPTY
        assert evicted is RecoveryQueue.EMPTY


# -- write_span() -------------------------------------------------------------

def make_pair(capacity=8):
    """Two identical Insider FTLs: one for write_span, one for the loop."""
    def build():
        nand = NandArray(NandGeometry(channels=1, ways=1, blocks_per_chip=12,
                                      pages_per_block=8))
        return InsiderFTL(nand, op_ratio=0.45, retention=5.0,
                          queue_capacity=capacity)

    return build(), build()


def assert_ftl_state_equal(span_ftl, loop_ftl):
    assert list(span_ftl.mapping.items()) == list(loop_ftl.mapping.items())
    assert span_ftl.mapping.mapped_count() == loop_ftl.mapping.mapped_count()
    assert span_ftl.stats.host_writes == loop_ftl.stats.host_writes
    assert span_ftl.stats.gc_page_copies == loop_ftl.stats.gc_page_copies
    assert queue_snapshot(span_ftl.queue) == queue_snapshot(loop_ftl.queue)
    span_ftl.audit_victim_index()
    loop_ftl.audit_victim_index()


class TestWriteSpanEquivalence:
    @pytest.mark.parametrize("profiled", [True, False])
    @pytest.mark.parametrize("mapping_backend", ["flat", "dict"])
    def test_state_matches_per_block_loop(self, profiled, mapping_backend,
                                          monkeypatch):
        """The span writer (optionally under an armed profiler) leaves
        the same state as a plain per-block loop, on the production
        table and on the dict oracle swapped in for it."""
        if mapping_backend == "dict":
            monkeypatch.setattr(repro.ftl.base, "MappingTable",
                                DictMappingTable)
        span_ftl, loop_ftl = make_pair()
        rng = random.Random(42)
        num_lbas = span_ftl.mapping.num_lbas
        spans = []
        timestamp = 0.0
        for _ in range(120):
            timestamp += rng.uniform(0.0, 0.5)
            length = rng.randint(1, 6)
            spans.append((rng.randrange(max(1, num_lbas - length)), length,
                          timestamp))
        with LayerProfiler() if profiled else nullcontext():
            for lba, length, timestamp in spans:
                span_ftl.write_span(lba, length, timestamp)
        for lba, length, timestamp in spans:
            for offset in range(length):
                loop_ftl.write(lba + offset, timestamp)
        assert_ftl_state_equal(span_ftl, loop_ftl)

    def test_out_of_range_span_raises_like_the_loop(self):
        span_ftl, loop_ftl = make_pair()
        num_lbas = span_ftl.mapping.num_lbas
        with pytest.raises(AddressError):
            span_ftl.write_span(num_lbas - 2, 4, 1.0)
        with pytest.raises(AddressError):
            for offset in range(4):
                loop_ftl.write(num_lbas - 2 + offset, 1.0)
        # Both stopped at the same block: the two in-range writes landed,
        # and the rejected block programmed nothing.
        assert span_ftl.stats.host_writes == loop_ftl.stats.host_writes == 2
        for ftl in (span_ftl, loop_ftl):
            valid = ftl.nand.states.count(PageState.VALID)
            assert valid == ftl.mapping.mapped_count() == 2
