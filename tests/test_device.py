"""SimulatedSSD: host API, read-only lockdown, recovery flow."""

import dataclasses

import pytest

from repro.blockdev.request import IORequest, read as read_req, write as write_req
from repro.core.detector import RansomwareDetector
from repro.core.id3 import DecisionTree, TreeNode
from repro.errors import AddressError, RecoveryError
from repro.faults.config import FaultConfig
from repro.nand.block import PageState
from repro.obs import Observability
from repro.ssd.config import SSDConfig
from repro.ssd.device import SimulatedSSD
from repro.tools.profile import GOLDEN_SEED, golden_scenario
from repro.units import BLOCK_SIZE


def constant_tree(label: int) -> DecisionTree:
    tree = DecisionTree()
    tree.root = TreeNode(label=label)
    return tree


def plain_ssd() -> SimulatedSSD:
    return SimulatedSSD(SSDConfig.tiny(detector_enabled=False))


def paranoid_ssd() -> SimulatedSSD:
    """A device whose detector alarms after three slices of anything."""
    return SimulatedSSD(SSDConfig.tiny(), tree=constant_tree(1))


class TestHostIo:
    def test_write_read_roundtrip(self):
        ssd = plain_ssd()
        ssd.write(5, b"payload", now=1.0)
        assert ssd.read(5) == b"payload"

    def test_unmapped_reads_zeroes(self):
        ssd = plain_ssd()
        data = ssd.read(7)
        assert data == bytes(BLOCK_SIZE)
        assert ssd.stats.unmapped_reads == 1

    def test_submit_multiblock(self):
        ssd = plain_ssd()
        ssd.submit(write_req(1.0, 3, length=4))
        assert ssd.stats.writes == 4

    def test_submit_advances_clock(self):
        ssd = plain_ssd()
        ssd.submit(read_req(4.5, 0))
        assert ssd.clock.now == 4.5

    def test_capacity_properties(self):
        ssd = plain_ssd()
        assert ssd.capacity_bytes == ssd.num_lbas * BLOCK_SIZE

    def test_trim_then_read_zeroes(self):
        ssd = plain_ssd()
        ssd.write(5, b"data", now=1.0)
        ssd.trim(5, now=2.0)
        assert ssd.read(5) == bytes(BLOCK_SIZE)


class TestAlarmLockdown:
    def test_alarm_sets_read_only(self):
        ssd = paranoid_ssd()
        ssd.tick(5.0)
        assert ssd.alarm_raised
        assert ssd.read_only

    def test_writes_dropped_while_locked(self):
        ssd = paranoid_ssd()
        ssd.tick(5.0)
        ssd.write(3, b"evil", now=6.0)
        assert ssd.stats.dropped_writes == 1
        assert ssd.read(3) == bytes(BLOCK_SIZE)

    def test_reads_still_served_while_locked(self):
        ssd = paranoid_ssd()
        ssd.write(3, b"good", now=0.5)
        ssd.tick(5.0)
        assert ssd.read(3) == b"good"

    def test_host_alarm_callback(self):
        events = []
        ssd = SimulatedSSD(SSDConfig.tiny(), tree=constant_tree(1),
                           on_alarm=events.append)
        ssd.tick(5.0)
        assert len(events) == 1
        assert events[0].score >= 3


class TestRecovery:
    def test_recover_without_alarm_rejected(self):
        ssd = paranoid_ssd()
        with pytest.raises(RecoveryError):
            ssd.recover()

    def test_recover_unlocks_and_resets(self):
        ssd = paranoid_ssd()
        ssd.tick(5.0)
        report = ssd.recover()
        assert not ssd.read_only
        assert not ssd.alarm_raised
        assert report in ssd.rollback_reports

    def test_recover_restores_overwritten_data(self):
        ssd = paranoid_ssd()
        ssd.write(3, b"original", now=0.5)
        ssd.tick(20.0)  # the original version ages out of the window
        ssd.dismiss_alarm()  # constant tree alarms on anything; clear it
        ssd.write(3, b"encrypted", now=21.0)
        ssd.tick(24.5)
        assert ssd.alarm_raised
        ssd.recover()
        assert ssd.read(3) == b"original"

    def test_dismiss_alarm_keeps_new_data(self):
        ssd = paranoid_ssd()
        ssd.write(3, b"v1", now=0.5)
        ssd.tick(20.0)
        ssd.dismiss_alarm()
        ssd.write(3, b"v2", now=21.0)
        ssd.tick(24.5)
        ssd.dismiss_alarm()
        assert ssd.read(3) == b"v2"
        assert not ssd.read_only

    def test_detectorless_device_has_no_alarm(self):
        ssd = plain_ssd()
        ssd.tick(60.0)
        assert not ssd.alarm_raised

    def test_detectorless_manual_rollback_allowed(self):
        """Without a detector, recover() is a host-initiated rollback —
        useful for 'undo the last 10 seconds' tooling."""
        ssd = plain_ssd()
        ssd.write(3, b"old", now=1.0)
        ssd.write(3, b"mistake", now=20.0)
        report = ssd.recover()
        assert report.lbas_restored == 1
        assert ssd.read(3) == b"old"

    def test_repeated_recover_without_new_alarm_rejected(self):
        ssd = paranoid_ssd()
        ssd.tick(5.0)
        ssd.recover()
        with pytest.raises(RecoveryError):
            ssd.recover()


class TestOutOfRangeRejected:
    """A request reaching past the logical space changes no state."""

    @staticmethod
    def snapshot(ssd):
        detector = ssd.detector
        current = detector._current
        return {
            "slice": (current.index, current.rio, current.wio, current.owio),
            "table": len(detector.table),
            "events": list(detector.events),
            "queue": [(e.lba, e.old_ppa, e.new_ppa, e.timestamp)
                      for e in ssd.ftl.queue],
            "ftl_stats": dataclasses.replace(ssd.ftl.stats),
            "device_stats": dataclasses.replace(ssd.stats),
            "mapping": list(ssd.ftl.mapping.items()),
            "clock": ssd.clock.now,
            "power_losses": ssd.stats.power_losses,
        }

    def test_rejected_before_any_state_changes(self):
        # The second device has a power loss scheduled: a rejected request
        # stamped past it must not fire it.
        for faults in (None, FaultConfig(power_loss_at=100.0)):
            self.check_rejections_leave_no_trace(
                SimulatedSSD(SSDConfig.small(faults=faults)))

    def check_rejections_leave_no_trace(self, ssd):
        end = ssd.num_lbas
        for lba in range(8):
            ssd.write(lba, now=0.5)
        ssd.write(3, now=1.0)  # an overwrite: queue holds a backup
        before = self.snapshot(ssd)
        rejected = [
            lambda: ssd.write(end, now=500.0),
            lambda: ssd.write(-1, now=500.0),
            lambda: ssd.read(end, now=500.0),
            lambda: ssd.trim(end, now=500.0),
            lambda: ssd.submit(write_req(500.0, end - 2, length=4)),
            lambda: ssd.submit_batch([write_req(900.0, end - 1, length=2)]),
            lambda: ssd.submit(read_req(500.0, end, length=1)),
        ]
        for call in rejected:
            with pytest.raises(AddressError):
                call()
        assert self.snapshot(ssd) == before
        valid = ssd.nand.states.count(PageState.VALID)
        assert valid == ssd.ftl.mapping.mapped_count() == 8
        # The next valid write is logged at its own time, not at the
        # rejected requests' (the retention window rollback relies on).
        ssd.submit(write_req(2.0, 3))
        assert list(ssd.ftl.queue)[-1].timestamp == 2.0

    def test_last_block_still_writable(self):
        ssd = SimulatedSSD(SSDConfig.small())
        ssd.submit(write_req(0.5, ssd.num_lbas - 2, length=2))
        assert ssd.ftl.mapping.mapped_count() == 2


class TestOneFrontDoor:
    """``submit(r)`` is ``submit_batch((r,))``: a per-request loop and
    batched submission must leave identical devices behind."""

    DURATION = 15.0
    DEVICES = {
        "plain": lambda: SimulatedSSD(SSDConfig.small()),
        "observed": lambda: SimulatedSSD(SSDConfig.small(),
                                         obs=Observability.on()),
        "faulty": lambda: SimulatedSSD(SSDConfig.small(faults=FaultConfig(
            seed=5, program_fail_rate=0.001, read_fault_rate=0.001,
            power_loss_at=7.0))),
    }

    @pytest.fixture(scope="class")
    def golden_trace(self):
        run = golden_scenario(duration=self.DURATION).build(seed=GOLDEN_SEED)
        num_lbas = SimulatedSSD(SSDConfig.small()).num_lbas
        return [
            IORequest(time=r.time, lba=r.lba % max(1, num_lbas - r.length),
                      mode=r.mode, length=r.length, source=r.source)
            for r in run.trace
        ]

    @staticmethod
    def answer(ssd):
        """Recover-on-alarm; a media lockdown (no alarm) is dismissed."""
        if ssd.alarm_raised:
            ssd.recover()
        else:
            ssd.dismiss_alarm()

    @staticmethod
    def outcome(ssd):
        return {
            "events": list(ssd.detector.events),
            "rollbacks": list(ssd.rollback_reports),
            "ftl_stats": dataclasses.replace(ssd.ftl.stats),
            "device_stats": dataclasses.replace(ssd.stats),
        }

    @pytest.mark.parametrize("kind", sorted(DEVICES))
    def test_batch_matches_per_request_loop(self, kind, golden_trace):
        looped = self.DEVICES[kind]()
        loop_lockdowns = []
        for index, request in enumerate(golden_trace):
            looped.submit(request)
            if looped.read_only:
                loop_lockdowns.append(index)
                self.answer(looped)

        batched = self.DEVICES[kind]()
        batch_lockdowns = []
        index = 0
        while index < len(golden_trace):
            remaining = golden_trace[index:]
            executed = batched.submit_batch(remaining)
            index += executed
            if batched.read_only:
                # Stopped right after the request that locked the device.
                assert executed < len(remaining) or index == len(golden_trace)
                batch_lockdowns.append(index - 1)
                self.answer(batched)
            else:
                assert executed == len(remaining)

        assert loop_lockdowns, "golden replay never locked down"
        assert batch_lockdowns == loop_lockdowns
        assert self.outcome(batched) == self.outcome(looped)
        assert looped.rollback_reports, "no alarm was recovered from"
        if looped.fault_injector is not None:
            assert looped.stats.power_losses == 1

