"""Failure injection: power loss, mid-operation cuts, queue starvation.

The paper equates post-rollback state with "a power failure ... 10 seconds
before" (§III-C); these tests exercise the crash-like states directly and
confirm the repair path holds them all.
"""

import pytest

from repro.fs import SimpleFS, fsck
from repro.fs.fsck import CorruptionType
from repro.nand.geometry import NandGeometry
from repro.ssd.config import SSDConfig
from repro.ssd.device import SimulatedSSD


def make_device() -> SimulatedSSD:
    return SimulatedSSD(SSDConfig.tiny(detector_enabled=False))


class TestPowerLossWithDelayedWriteback:
    """Simulated power loss = abandon the in-memory FS object (its
    buffered metadata dies) and re-examine the on-disk state."""

    def test_clean_when_synced(self):
        device = make_device()
        fs = SimpleFS(device, num_inodes=16, metadata_flush_interval=5.0)
        fs.format()
        fs.create("a", b"data" * 500)
        fs.sync()
        # power loss here
        assert fsck(device).clean

    def test_stale_counters_without_sync(self):
        device = make_device()
        fs = SimpleFS(device, num_inodes=16, metadata_flush_interval=100.0)
        fs.format()
        fs.create("a", b"data" * 500)
        fs.create("b", b"more" * 2000)
        # power loss: buffered superblock/bitmap never reached the device.
        report = fsck(device)
        assert not report.clean
        assert (report.count(CorruptionType.FREE_BLOCK_COUNT) > 0
                or report.count(CorruptionType.FREE_SPACE_BITMAP) > 0)

    def test_files_survive_unsynced_crash(self):
        """Inode writes are write-through, so the files themselves are
        durable; only the allocator metadata goes stale."""
        device = make_device()
        fs = SimpleFS(device, num_inodes=16, metadata_flush_interval=100.0)
        fs.format()
        fs.create("a", b"payload" * 100)
        fsck(device)
        recovered = SimpleFS(device, num_inodes=16)
        recovered.mount()
        assert recovered.read_file("a") == b"payload" * 100

    def test_fs_usable_after_crash_repair(self):
        device = make_device()
        fs = SimpleFS(device, num_inodes=16, metadata_flush_interval=100.0)
        fs.format()
        fs.create("a", b"x" * 5000)
        fs.delete("a")
        fs.create("b", b"y" * 5000)
        fsck(device)
        recovered = SimpleFS(device, num_inodes=16)
        recovered.mount()
        recovered.create("c", b"post-crash")
        assert recovered.read_file("c") == b"post-crash"
        assert fsck(device).clean

    def test_periodic_flush_bounds_staleness(self):
        """With a short commit interval, activity keeps flushing: the
        crash window is at most one interval wide."""
        device = make_device()
        fs = SimpleFS(device, num_inodes=32, metadata_flush_interval=0.5)
        fs.format()
        for index in range(12):
            fs.create(f"f{index}", b"z" * 3000)
        # The last op may be buffered, but most state must be on disk:
        report = fsck(device)
        recovered = SimpleFS(device, num_inodes=32)
        recovered.mount()
        assert len(recovered.list_files()) == 12


class TestRollbackUnderQueueStarvation:
    """When the recovery queue was too small for the window, rollback is
    *partial* — evicted entries are gone — but must never corrupt the FTL."""

    def test_partial_rollback_keeps_invariants(self):
        from repro.ftl.insider import InsiderFTL
        from repro.nand.array import NandArray
        from repro.nand.block import PageState

        nand = NandArray(NandGeometry(channels=1, ways=1, blocks_per_chip=12,
                                      pages_per_block=8))
        ftl = InsiderFTL(nand, op_ratio=0.45, queue_capacity=6)
        for lba in range(20):
            ftl.write(lba, 0.0, b"old%d" % lba)
        for lba in range(20):
            ftl.write(lba, 100.0, b"new%d" % lba)
        assert ftl.queue.evictions > 0
        ftl.rollback(now=101.0)
        for lba, ppa in ftl.mapping.items():
            assert nand.page_state(ppa) is PageState.VALID
            assert nand.lbas[ppa] == lba
        # The last 6 logged changes were recoverable; all restored blocks
        # carry their old payloads.
        restored = [lba for lba in range(20)
                    if ftl.mapping.is_mapped(lba)
                    and ftl.read(lba).payload == b"old%d" % lba]
        assert len(restored) >= 1

    def test_device_survives_starved_recovery(self, pretrained_tree):
        """Even with a tiny queue, alarm + recover + continue must work."""
        from repro.workloads import LbaRegion, make_ransomware

        config = SSDConfig(
            geometry=NandGeometry(channels=2, ways=2, blocks_per_chip=96,
                                  pages_per_block=64),
            queue_capacity=200,
        )
        ssd = SimulatedSSD(config, tree=pretrained_tree)
        for lba in range(8000):
            ssd.write(lba, b"x", now=0.0005 * lba)
        ssd.tick(30.0)
        attack = make_ransomware("mole", LbaRegion(0, 8000), start=30.0,
                                 duration=30.0, seed=3)
        for request in attack.requests():
            ssd.submit(request)
            if ssd.alarm_raised:
                break
        assert ssd.alarm_raised
        report = ssd.recover()
        assert report.entries_applied <= 200
        ssd.write(0, b"alive", now=ssd.clock.now + 1.0)
        assert ssd.read(0)[:5] == b"alive"
