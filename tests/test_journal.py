"""Transactional metadata journaling."""

import pytest

from repro.errors import FilesystemError
from repro.fs.fsck import fsck
from repro.fs.journal import MetadataJournal
from repro.fs.simplefs import SimpleFS
from repro.ssd.config import SSDConfig
from repro.ssd.device import SimulatedSSD
from repro.units import BLOCK_SIZE


def block(tag: int) -> bytes:
    return bytes([tag]) * BLOCK_SIZE


class InMemoryStore:
    """Backing store stub for unit-testing the journal in isolation."""

    def __init__(self):
        self.blocks = {}

    def read(self, lba: int) -> bytes:
        return self.blocks.get(lba, bytes(BLOCK_SIZE))

    def write(self, lba: int, payload: bytes) -> None:
        self.blocks[lba] = payload


@pytest.fixture
def store() -> InMemoryStore:
    return InMemoryStore()


@pytest.fixture
def journal(store) -> MetadataJournal:
    return MetadataJournal(start=100, blocks=16,
                           read_block=store.read, write_block=store.write)


class TestCommitAndScan:
    def test_commit_then_scan(self, journal):
        seq = journal.commit([(5, block(1)), (7, block(2))])
        transactions = journal.scan()
        assert len(transactions) == 1
        assert transactions[0].seq == seq
        assert dict(transactions[0].updates) == {5: block(1), 7: block(2)}

    def test_sequences_ascend(self, journal):
        first = journal.commit([(5, block(1))])
        second = journal.commit([(5, block(2))])
        assert second == first + 1

    def test_replay_applies_newest_last(self, journal, store):
        journal.commit([(5, block(1))])
        journal.commit([(5, block(2))])
        assert journal.replay() == 2
        assert store.read(5) == block(2)

    def test_wrap_invalidates_overwritten_transactions(self, journal):
        # Fill the 16-block ring with 2-block transactions, then keep going.
        for tag in range(20):
            journal.commit([(5, block(tag % 250))])
        transactions = journal.scan()
        # Stale commit records whose payloads were reused must be rejected
        # (checksums), and replay order must still ascend.
        seqs = [t.seq for t in transactions]
        assert seqs == sorted(seqs)
        newest = dict(u for t in transactions for u in t.updates)
        assert newest[5] == block(19 % 250)

    def test_uncommitted_payloads_ignored(self, journal, store):
        # A payload written without its commit record (the torn-commit
        # case) must not replay.
        store.write(100, block(9))
        assert journal.scan() == []

    def test_oversized_transaction_rejected(self, journal):
        with pytest.raises(FilesystemError):
            journal.commit([(i, block(1)) for i in range(16)])

    def test_empty_transaction_rejected(self, journal):
        with pytest.raises(FilesystemError):
            journal.commit([])

    def test_partial_payload_rejected(self, journal):
        with pytest.raises(FilesystemError):
            journal.commit([(5, b"short")])


class TestJournaledFilesystem:
    @pytest.fixture
    def device(self) -> SimulatedSSD:
        return SimulatedSSD(SSDConfig.tiny(detector_enabled=False))

    @pytest.fixture
    def jfs(self, device) -> SimpleFS:
        filesystem = SimpleFS(device, num_inodes=16, journal_blocks=16)
        filesystem.format()
        return filesystem

    def test_basic_operations_still_work(self, jfs):
        jfs.create("a", b"hello")
        jfs.overwrite("a", b"world")
        assert jfs.read_file("a") == b"world"
        jfs.delete("a")
        assert jfs.list_files() == []

    def test_remount_replays_cleanly(self, jfs, device):
        jfs.create("a", b"data" * 300)
        remounted = SimpleFS(device, num_inodes=16, journal_blocks=16)
        remounted.mount()
        assert remounted.read_file("a") == b"data" * 300

    def test_fsck_replays_journal(self, jfs, device):
        jfs.create("a", b"x" * 9000)
        report = fsck(device)
        assert report.journal_replayed > 0
        assert report.clean

    def test_torn_inplace_write_repaired_by_replay(self, jfs, device):
        """Simulate the crash the journal exists for: the transaction is
        committed but an in-place metadata write never landed."""
        jfs.create("a", b"A" * 5000)
        jfs.create("b", b"B" * 5000)
        # Clobber the inode table in place (as if the in-place write was
        # cut mid-flight); the journaled copy must restore it.
        device.write(jfs.layout.inode_start, bytes(BLOCK_SIZE))
        report = fsck(device)
        assert report.journal_replayed > 0
        remounted = SimpleFS(device, num_inodes=16, journal_blocks=16)
        remounted.mount()
        assert sorted(remounted.list_files()) == ["a", "b"]
        assert remounted.read_file("a") == b"A" * 5000
