"""Counting table: run-length tracking, overwrite detection, expiry."""

import copy
import dataclasses
import pickle

import pytest

from repro.core.counting_table import MAX_RUN_BLOCKS, CountingTable, TableEntry


@pytest.fixture
def table() -> CountingTable:
    return CountingTable()


class TestReads:
    def test_new_entry(self, table):
        entry = table.record_read(10, slice_index=0)
        assert entry.lba == 10 and entry.rl == 1 and entry.wl == 0
        assert len(table) == 1

    def test_reread_refreshes_time(self, table):
        table.record_read(10, 0)
        entry = table.record_read(10, 3)
        assert entry.slice_index == 3
        assert len(table) == 1

    def test_extend_right(self, table):
        table.record_read(10, 0)
        entry = table.record_read(11, 0)
        assert entry.lba == 10 and entry.rl == 2
        assert len(table) == 1

    def test_extend_left(self, table):
        table.record_read(10, 0)
        entry = table.record_read(9, 0)
        assert entry.lba == 9 and entry.rl == 2

    def test_merge_adjacent_runs(self, table):
        table.record_read(10, 0)
        table.record_read(12, 0)
        # Reading 11 bridges the two runs into one (MergeEntry).
        entry = table.record_read(11, 0)
        assert entry.lba == 10 and entry.rl == 3
        assert len(table) == 1

    def test_merge_after_left_extension(self, table):
        """Scanning left-to-right: extending [10] to [10,11] must merge with
        the run starting at 12."""
        table.record_read(10, 0)
        table.record_read(12, 0)
        entry = table.record_read(11, 0)
        assert entry.lba == 10 and entry.rl == 3
        assert len(table) == 1

    def test_merge_after_right_extension(self, table):
        """The right-extension path (`right is not None`) historically never
        merged with a further-left run; merging is now symmetric.  The
        asymmetry was latent under today's extension conditions (a run
        ending at ``lba`` always covers ``lba - 1``, so the left branch
        wins first), but the symmetry must hold regardless of which branch
        bridges the gap — fragmented runs skew AVGWIO's denominator."""
        table.record_read(12, 0)   # seed the right run first...
        table.record_read(10, 0)   # ...then a run to its left
        entry = table.record_read(11, 0)  # bridges the two runs
        assert entry.lba == 10 and entry.rl == 3
        assert len(table) == 1
        assert table.entry_for(10) is table.entry_for(12)

    def test_no_unhealed_fragments_either_direction(self, table):
        """The observable meaning of symmetric merging: whichever direction
        runs are scanned or bridged from, the table never retains two
        abutting overwrite-free runs that a single merge could coalesce."""
        import random

        rng = random.Random(7)
        lbas = list(range(0, 48))
        for trial in range(20):
            table.clear()
            rng.shuffle(lbas)
            for lba in lbas:
                table.record_read(lba, 0)
            entries = {e.lba: e for e in table}
            for e in entries.values():
                neighbour = entries.get(e.end_lba)
                assert not (
                    neighbour is not None
                    and e.wl == 0
                    and neighbour.wl == 0
                    and e.rl + neighbour.rl <= MAX_RUN_BLOCKS
                ), f"unmerged fragments at {e.lba}+{e.rl} (trial {trial})"

    def test_right_to_left_scan_coalesces(self, table):
        """A strictly descending scan coalesces into one run, exactly like
        the ascending scan does."""
        for lba in range(19, 9, -1):
            table.record_read(lba, 0)
        ascending = CountingTable()
        for lba in range(10, 20):
            ascending.record_read(lba, 0)
        assert len(table) == len(ascending) == 1
        assert table.entry_for(10).rl == 10

    def test_merge_symmetry_respects_run_cap(self, table):
        """Right-extension merging honours MAX_RUN_BLOCKS like the left
        path does."""
        for lba in range(MAX_RUN_BLOCKS):
            table.record_read(lba, 0)
        table.record_read(MAX_RUN_BLOCKS + 1, 0)
        table.record_read(MAX_RUN_BLOCKS, 0)  # extends the singleton leftward
        assert all(e.rl <= MAX_RUN_BLOCKS for e in table)
        assert len(table) == 2

    def test_disjoint_runs_stay_separate(self, table):
        table.record_read(10, 0)
        table.record_read(20, 0)
        assert len(table) == 2

    def test_run_length_capped(self, table):
        for lba in range(MAX_RUN_BLOCKS + 10):
            table.record_read(lba, 0)
        assert all(e.rl <= MAX_RUN_BLOCKS for e in table)
        assert len(table) >= 2

    def test_hash_entries_track_coverage(self, table):
        for lba in range(5):
            table.record_read(lba, 0)
        assert table.hash_entries == 5


class TestWrites:
    def test_write_untracked_is_not_overwrite(self, table):
        assert table.record_write(10, 0) is False
        assert len(table) == 0

    def test_write_after_read_is_overwrite(self, table):
        table.record_read(10, 0)
        assert table.record_write(10, 0) is True
        assert table.entry_for(10).wl == 1

    def test_repeat_overwrites_keep_counting(self, table):
        """DoD-style wipes overwrite the same block repeatedly; WL (and so
        OWIO) counts every pass — only OWST de-duplicates."""
        table.record_read(10, 0)
        for _ in range(7):
            table.record_write(10, 0)
        assert table.entry_for(10).wl == 7

    def test_split_on_mid_run_overwrite(self, table):
        for lba in range(10, 16):
            table.record_read(lba, 0)
        table.record_write(13, 0)
        left = table.entry_for(10)
        right = table.entry_for(13)
        assert left is not right
        assert left.rl == 3 and left.wl == 0
        assert right.lba == 13 and right.wl == 1

    def test_sequential_overwrite_accumulates_in_one_entry(self, table):
        for lba in range(10, 18):
            table.record_read(lba, 0)
        for lba in range(10, 18):
            table.record_write(lba, 0)
        entry = table.entry_for(10)
        assert entry.wl == 8

    def test_mean_wl(self, table):
        table.record_read(0, 0)
        table.record_read(10, 0)
        table.record_write(0, 0)
        table.record_write(0, 0)
        assert table.mean_wl() == pytest.approx(1.0)  # (2 + 0) / 2

    def test_mean_wl_empty(self, table):
        assert table.mean_wl() == 0.0


class TestExpiry:
    def test_expire_drops_stale_entries(self, table):
        table.record_read(10, 0)
        table.record_read(20, 5)
        assert table.expire(oldest_live_slice=3) == 1
        assert table.entry_for(10) is None
        assert table.entry_for(20) is not None

    def test_expired_lba_no_longer_overwritable(self, table):
        table.record_read(10, 0)
        table.expire(oldest_live_slice=5)
        assert table.record_write(10, 6) is False

    def test_refresh_prevents_expiry(self, table):
        table.record_read(10, 0)
        table.record_read(10, 5)
        assert table.expire(oldest_live_slice=3) == 0

    def test_expire_unindexes_whole_run(self, table):
        for lba in range(10, 14):
            table.record_read(lba, 0)
        table.expire(oldest_live_slice=1)
        assert table.hash_entries == 0

    def test_clear(self, table):
        table.record_read(10, 0)
        table.clear()
        assert len(table) == 0 and table.hash_entries == 0


class TestMemory:
    def test_memory_accounting(self, table):
        for lba in range(3):
            table.record_read(lba, 0)
        # One entry (merged run of 3) + three hash slots.
        assert table.memory_bytes() == 3 * 42 + 1 * 12


class TestSlimEntry:
    """Entries are slot-backed and behave as the plain dataclass did."""

    def test_no_instance_dict(self, table):
        assert not hasattr(TableEntry(0, 10), "__dict__")
        assert not hasattr(table.record_read(10, 0), "__dict__")

    def test_defaults_and_keywords(self):
        entry = TableEntry(slice_index=2, lba=10)
        assert (entry.slice_index, entry.lba, entry.rl, entry.wl) == (2, 10, 1, 0)
        assert TableEntry(2, 10, 5, 3).end_lba == 15

    def test_fields_stay_mutable(self):
        entry = TableEntry(0, 10)
        entry.rl += 2
        entry.wl = 4
        assert (entry.rl, entry.wl) == (3, 4)
        with pytest.raises(AttributeError):
            entry.extra = 1

    def test_dataclasses_replace(self):
        entry = dataclasses.replace(TableEntry(1, 10, rl=4, wl=2), lba=20)
        assert (entry.slice_index, entry.lba, entry.rl, entry.wl) == (1, 20, 4, 2)

    def test_equality_and_hash_are_identity(self):
        # Entries key the expiry buckets, so two equal-looking runs are
        # still two entries.
        a, b = TableEntry(0, 10), TableEntry(0, 10)
        assert a != b and a == a
        assert len({a: None, b: None}) == 2

    @pytest.mark.parametrize("clone", [
        lambda e: pickle.loads(pickle.dumps(e)),
        copy.deepcopy,
    ])
    def test_copies_round_trip(self, clone):
        entry = TableEntry(7, 1 << 33, rl=12, wl=3)
        copied = clone(entry)
        assert (copied.slice_index, copied.lba, copied.rl, copied.wl) == (
            7, 1 << 33, 12, 3)

    def test_repr_unchanged(self):
        assert repr(TableEntry(3, 10, wl=2)) == (
            "TableEntry(slice_index=3, lba=10, rl=1, wl=2)")
