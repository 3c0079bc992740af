"""Property-based tests (hypothesis) on the core data structures.

These assert the invariants the whole system leans on: the counting table's
index/entry consistency, the FTL's read-your-writes and rollback-restores-
past-state guarantees, the recovery queue's pin accounting, and the ID3
tree's structural soundness.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.counting_table import MAX_RUN_BLOCKS, CountingTable
from repro.core.id3 import DecisionTree
from repro.core.score import ScoreTracker
from repro.ftl.insider import InsiderFTL
from repro.ftl.recovery_queue import BackupEntry, RecoveryQueue
from repro.nand.array import NandArray
from repro.nand.geometry import NandGeometry


# -- counting table ---------------------------------------------------------

ops = st.lists(
    st.tuples(
        st.sampled_from(["R", "W"]),
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=15),
    ),
    max_size=200,
)


@given(ops)
@settings(max_examples=60, deadline=None)
def test_counting_table_index_consistency(operations):
    """Every indexed LBA maps to an entry that covers it; every entry's
    span is indexed to itself or to nothing stale."""
    table = CountingTable()
    max_slice = 0
    for mode, lba, slice_index in operations:
        slice_index = max_slice = max(max_slice, slice_index)
        if mode == "R":
            table.record_read(lba, slice_index)
        else:
            table.record_write(lba, slice_index)
    entries = list(table)
    for entry in entries:
        assert 1 <= entry.rl <= MAX_RUN_BLOCKS
        assert entry.wl >= 0
    for lba in range(62):
        entry = table.entry_for(lba)
        if entry is not None:
            assert entry in entries
            assert entry.covers(lba)


@given(ops, st.integers(min_value=0, max_value=20))
@settings(max_examples=40, deadline=None)
def test_counting_table_expiry_total(operations, horizon):
    """After expiring everything, the table is truly empty."""
    table = CountingTable()
    max_slice = 0
    for mode, lba, slice_index in operations:
        slice_index = max_slice = max(max_slice, slice_index)
        if mode == "R":
            table.record_read(lba, slice_index)
        else:
            table.record_write(lba, slice_index)
    table.expire(oldest_live_slice=max_slice + 1 + horizon)
    assert len(table) == 0
    assert table.hash_entries == 0


# -- score tracker ----------------------------------------------------------

@given(st.lists(st.integers(min_value=0, max_value=1), max_size=100),
       st.integers(min_value=1, max_value=10))
@settings(max_examples=60, deadline=None)
def test_score_equals_recent_window_sum(verdicts, window):
    tracker = ScoreTracker(window)
    for verdict in verdicts:
        tracker.push(verdict)
    assert tracker.score == sum(verdicts[-window:])
    assert 0 <= tracker.score <= window


# -- recovery queue -----------------------------------------------------------

queue_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30),        # lba
        st.one_of(st.none(), st.integers(0, 500)),     # old_ppa
        st.floats(min_value=0.0, max_value=100.0,
                  allow_nan=False),                    # time delta
    ),
    max_size=80,
)


@given(queue_ops, st.integers(min_value=1, max_value=20))
@settings(max_examples=60, deadline=None)
def test_queue_pin_accounting(operations, capacity):
    """Pins always equal the distinct old PPAs of live entries."""
    queue = RecoveryQueue(retention=10.0, capacity=capacity)
    now = 0.0
    used_ppas = set()
    for lba, old_ppa, delta in operations:
        if old_ppa in used_ppas:
            continue  # a physical page becomes "old" only once
        if old_ppa is not None:
            used_ppas.add(old_ppa)
        now += delta
        queue.push(BackupEntry(lba=lba, old_ppa=old_ppa, new_ppa=None,
                               timestamp=now))
        assert len(queue) <= capacity
        live_pins = {e.old_ppa for e in queue if e.old_ppa is not None}
        assert queue.pinned_count == len(live_pins)
        for ppa in live_pins:
            assert queue.is_pinned(ppa)


# -- insider FTL -------------------------------------------------------------

ftl_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=25),  # lba
        st.integers(min_value=0, max_value=2),   # 0/1 write, 2 trim
    ),
    min_size=1,
    max_size=120,
)


def fresh_ftl() -> InsiderFTL:
    nand = NandArray(NandGeometry(channels=1, ways=1, blocks_per_chip=12,
                                  pages_per_block=8))
    return InsiderFTL(nand, op_ratio=0.45, queue_capacity=512)


@given(ftl_ops)
@settings(max_examples=40, deadline=None)
def test_ftl_read_your_writes(operations):
    """The FTL always returns the latest committed version."""
    ftl = fresh_ftl()
    shadow = {}
    now = 0.0
    for lba, action in operations:
        lba %= ftl.num_lbas
        now += 0.01
        if action == 2:
            ftl.trim(lba, now)
            shadow.pop(lba, None)
        else:
            payload = f"{lba}@{now:.2f}".encode()
            ftl.write(lba, now, payload)
            shadow[lba] = payload
    for lba, payload in shadow.items():
        assert ftl.read(lba).payload == payload


@given(ftl_ops)
@settings(max_examples=30, deadline=None)
def test_ftl_rollback_restores_pre_window_state(operations):
    """Whatever the attack does inside one window, rollback returns the
    device to its pre-window contents (the paper's core guarantee)."""
    ftl = fresh_ftl()
    baseline = {}
    for lba in range(0, ftl.num_lbas, 3):
        ftl.write(lba, 0.0, b"base%d" % lba)
        baseline[lba] = b"base%d" % lba
    # Window opens at t=100; all mutations happen inside it.
    now = 100.0
    for lba, action in operations:
        lba %= ftl.num_lbas
        now += 0.01
        if action == 2:
            ftl.trim(lba, now)
        else:
            ftl.write(lba, now, b"evil")
    ftl.rollback(now=now + 0.1)
    for lba in range(ftl.num_lbas):
        if lba in baseline:
            assert ftl.read(lba).payload == baseline[lba]
        else:
            assert not ftl.mapping.is_mapped(lba)


# -- ID3 ----------------------------------------------------------------------

@given(
    st.lists(
        st.tuples(st.floats(-10, 10, allow_nan=False),
                  st.floats(-10, 10, allow_nan=False),
                  st.integers(0, 1)),
        min_size=4,
        max_size=120,
    )
)
@settings(max_examples=40, deadline=None)
def test_id3_structural_soundness(rows):
    """Fitted trees respect depth bounds and classify every input to 0/1."""
    X = [[a, b] for a, b, _ in rows]
    y = [label for _, _, label in rows]
    tree = DecisionTree(max_depth=4, min_samples_split=2, min_samples_leaf=1,
                        feature_names=("a", "b")).fit(X, y)
    assert tree.depth() <= 4
    for row in X:
        assert tree.predict_one(row) in (0, 1)
    # Serialisation roundtrip preserves behaviour.
    clone = DecisionTree.from_dict(tree.to_dict())
    assert clone.predict(X) == tree.predict(X)


@given(
    st.lists(st.floats(0, 1000, allow_nan=False), min_size=8, max_size=60),
    st.floats(0.1, 999.9, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_id3_learns_separable_threshold(values, threshold):
    """Any threshold-separable 1-D problem with enough mass on both sides
    is learned exactly on the training data."""
    labels = [int(v > threshold) for v in values]
    if len(set(labels)) < 2:
        return  # degenerate draw
    X = [[v, 0.0] for v in values]
    tree = DecisionTree(max_depth=4, min_samples_split=2, min_samples_leaf=1,
                        feature_names=("a", "b")).fit(X, labels)
    assert tree.predict(X) == labels
