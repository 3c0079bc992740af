"""Device-level faults: detector equivalence, power loss, degradation.

The acceptance bar for the fault subsystem: fault injection defaults
*off*, and attaching it must be invisible to detection — the detector
sees request headers only, so a fault-enabled run (short of a power loss,
which reboots the firmware) produces a bit-identical DetectionEvent
stream.  The golden scenario here is the same one the hot-path
equivalence suite replays against :mod:`tests.oracles.reference`.
"""

import pytest

from repro.blockdev.request import IOMode, IORequest
from repro.faults.config import FaultConfig
from repro.faults.sweep import run_fault_trial
from repro.nand.geometry import NandGeometry
from repro.ssd.config import SSDConfig
from repro.ssd.device import SimulatedSSD
from repro.ssd.smart import (
    ATTR_BAD_BLOCKS,
    ATTR_CORRECTED_READS,
    ATTR_DEGRADED,
    ATTR_POWER_LOSSES,
    ATTR_UNCORRECTABLE_READS,
    smart_report,
)
from repro.tools.profile import GOLDEN_SEED, golden_scenario


def replay_golden(config):
    """Replay the golden trace through a device; return its event stream."""
    device = SimulatedSSD(config)
    num_lbas = device.num_lbas
    run = golden_scenario().build(seed=GOLDEN_SEED)
    for request in run.trace:
        lba = request.lba % max(1, num_lbas - request.length)
        device.submit(IORequest(time=request.time, lba=lba, mode=request.mode,
                                length=request.length, source=request.source))
        if device.read_only:
            device.dismiss_alarm()
    return device


def event_stream(device):
    return [
        (e.slice_index, e.time, e.features, e.verdict, e.score, e.alarm)
        for e in device.detector.events
    ]


class TestDetectionEquivalence:
    def test_zero_rate_injector_is_bit_identical(self):
        """Attaching an all-off FaultConfig must not move a single bit of
        the DetectionEvent stream."""
        baseline = replay_golden(SSDConfig.small())
        with_injector = replay_golden(
            SSDConfig.small(faults=FaultConfig())
        )
        assert event_stream(baseline) == event_stream(with_injector)
        assert baseline.stats == with_injector.stats

    def test_media_faults_leave_detection_untouched(self):
        """Read/program/erase faults change latencies and relocations but
        never the header stream the detector scores (the paper's
        detector is deliberately content- and media-blind)."""
        baseline = replay_golden(SSDConfig.small())
        faulty = replay_golden(
            SSDConfig.small(faults=FaultConfig(
                seed=3, read_fault_rate=0.01, read_transient_share=0.5,
                program_fail_rate=1e-6, erase_fail_rate=1e-6,
                factory_bad_blocks=2,
            ))
        )
        assert event_stream(baseline) == event_stream(faulty)
        # ... while the media visibly suffered.
        assert faulty.nand.reliability.corrected_reads > 0

    def test_faults_default_off(self):
        device = SimulatedSSD(SSDConfig.small())
        assert device.fault_injector is None
        assert device.nand.faults is None


class TestPowerLossRecovery:
    def test_mid_attack_power_cut_still_recovers_perfectly(self):
        """The full §V story under a power cut: populate, attack, lose
        power mid-attack, rebuild from OOB, alarm, roll back, audit
        every LBA bit-exact."""
        result = run_fault_trial(0.0, power_loss=True)
        assert result.power_loss_fired
        assert result.alarm_raised and result.alarm_within_window
        assert result.lost_lbas_media == 0
        assert result.lost_lbas_rollback == 0
        assert result.audited_lbas > 0
        assert result.perfect_recovery

    def test_power_loss_fires_on_idle_tick_too(self):
        config = SSDConfig.tiny(
            detector_enabled=False,
            faults=FaultConfig(power_loss_at=5.0),
        )
        device = SimulatedSSD(config)
        device.write(0, b"x", now=1.0)
        assert device.stats.power_losses == 0
        device.tick(6.0)
        assert device.stats.power_losses == 1
        # Data survives the cut (rebuilt from OOB).
        assert device.read(0)[:1] == b"x"

    def test_power_loss_fires_once(self):
        config = SSDConfig.tiny(
            detector_enabled=False,
            faults=FaultConfig(power_loss_at=5.0),
        )
        device = SimulatedSSD(config)
        device.tick(6.0)
        device.tick(7.0)
        device.tick(100.0)
        assert device.stats.power_losses == 1


class TestGracefulDegradation:
    def test_exhausted_program_retries_lock_the_device(self):
        config = SSDConfig.tiny(
            detector_enabled=False,
            faults=FaultConfig(program_fail_rate=1.0),
        )
        device = SimulatedSSD(config)
        device.write(0, b"x", now=1.0)
        assert device.stats.failed_writes == 1
        assert device.degraded
        assert device.read_only

    @pytest.mark.parametrize("fault_seed", [1, 2, 3])
    def test_spare_pool_exhaustion_locks_the_device(self, fault_seed):
        """Retirements that eat every spare block end the span in a
        lockdown, the way exhausted program retries do, instead of an
        ``OutOfSpaceError`` escaping ``submit``."""
        device = SimulatedSSD(SSDConfig.small(faults=FaultConfig(
            seed=fault_seed, program_fail_rate=0.01, erase_fail_rate=0.002)))
        reasons = []
        degrade = device._media_degrade

        def record(reason, lockdown, **details):
            reasons.append(reason)
            degrade(reason, lockdown, **details)

        device._media_degrade = record
        num_lbas = device.num_lbas
        for request in golden_scenario(10.0).build(seed=GOLDEN_SEED).trace:
            lba = request.lba % max(1, num_lbas - request.length)
            device.submit(IORequest(time=request.time, lba=lba,
                                    mode=request.mode, length=request.length,
                                    source=request.source))
            if device.read_only and not device.degraded:
                device.dismiss_alarm()
        assert reasons == ["out_of_space"]
        assert device.degraded and device.read_only
        assert device.stats.failed_writes == 1
        assert device.stats.dropped_writes > 0
        device.ftl.audit_victim_index()
        device.ftl.queue.audit()

    def test_uncorrectable_read_degrades_without_lockdown(self):
        config = SSDConfig.tiny(
            detector_enabled=False,
            faults=FaultConfig(read_fault_rate=1.0,
                               read_transient_share=0.0,
                               read_hard_share=1.0),
        )
        device = SimulatedSSD(config)
        device.write(0, b"x", now=1.0)
        data = device.read(0)
        assert data == bytes(len(data))  # zero-filled sentinel
        assert device.stats.uncorrectable_reads == 1
        assert device.degraded
        assert not device.read_only  # reads keep flowing; host decides

    def test_power_cycle_clears_the_degraded_latch(self):
        config = SSDConfig.tiny(
            detector_enabled=False,
            faults=FaultConfig(read_fault_rate=1.0, read_hard_share=1.0,
                               read_transient_share=0.0),
        )
        device = SimulatedSSD(config)
        device.write(0, b"x", now=1.0)
        device.read(0)
        assert device.degraded
        device.power_cycle()
        assert not device.degraded


class TestSmartReliabilityAttributes:
    def test_report_carries_media_health(self):
        config = SSDConfig.tiny(
            detector_enabled=False,
            faults=FaultConfig(read_fault_rate=1.0,
                               read_transient_share=1.0,
                               read_hard_share=0.0),
        )
        device = SimulatedSSD(config)
        device.write(0, b"x", now=1.0)
        device.read(0)
        report = smart_report(device)
        assert report[ATTR_CORRECTED_READS] >= 1
        assert report[ATTR_UNCORRECTABLE_READS] == 0
        assert report[ATTR_BAD_BLOCKS] == 0
        assert report[ATTR_POWER_LOSSES] == 0
        assert report[ATTR_DEGRADED] == 0
