"""A dropped device frees itself: its object graph holds no reference cycle.

The lifetime checks run with the cyclic collector switched off, so an
object still alive right after ``del`` is held by a cycle (or leaked)
rather than waiting for a collection.  See DESIGN.md, "Ownership".
"""

import gc
import weakref
from contextlib import contextmanager

import pytest

from repro.core.id3 import DecisionTree
from repro.faults.config import FaultConfig
from repro.fleet.orchestrator import run_fleet
from repro.fleet.plan import FleetPlan
from repro.fleet.worker import build_device
from repro.ftl.scrub import ScrubConfig
from repro.ftl.wearlevel import WearLevelConfig
from repro.obs import Observability
from repro.obs.flightrec import FlightRecorder
from repro.ssd.config import SSDConfig
from repro.ssd.device import SimulatedSSD
from repro.ssd.namespaces import NamespaceManager
from tests.test_fleet_run import small_plan


@contextmanager
def collector_off():
    """Only reference counting frees objects inside the block."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


#: Alarms after three slices of anything.
ALARM_TREE = DecisionTree.constant(1)


def churn(device, span: int, writes: int = 1_500) -> None:
    """Overwrites and reads enough to run GC on a tiny array.

    A detector alarm is dismissed so the writes keep landing; an idle
    tick at the end runs background maintenance.
    """
    now = 0.0
    for step in range(writes):
        now = 0.002 * step
        device.write(step % span, b"v%d" % step, now=now)
        device.read((7 * step) % span, now=now)
        if device.alarm_raised:
            device.dismiss_alarm()
    device.tick(now + 1.0)


def recovered() -> SimulatedSSD:
    device = SimulatedSSD(SSDConfig.tiny(), tree=ALARM_TREE)
    for lba in range(40):
        device.write(lba, b"v", now=0.01 * lba)
    device.tick(5.0)
    assert device.alarm_raised
    device.recover()
    return device


def power_cycled() -> SimulatedSSD:
    device = SimulatedSSD(SSDConfig.tiny())
    churn(device, span=100)
    device.power_cycle()
    return device


def churned(config: SSDConfig, span: int = 100, obs=None):
    def build() -> SimulatedSSD:
        device = SimulatedSSD(config, obs=obs() if obs is not None else None)
        churn(device, span=span)
        return device
    return build


def fleet_device() -> SimulatedSSD:
    device = build_device(FleetPlan(devices=2, seed=7, num_lbas=4_000))
    churn(device, span=1_000)
    return device


CONFIGS = {
    "small": churned(SSDConfig.small(), span=2_000),
    "faults": churned(SSDConfig.tiny(faults=FaultConfig(
        seed=3, program_fail_rate=0.002, read_fault_rate=0.01))),
    "wear_level": churned(SSDConfig.tiny(wear_level=WearLevelConfig(
        spread_threshold=2, check_every_erases=1))),
    "scrub": churned(SSDConfig.tiny(scrub=ScrubConfig(read_limit=20),
                                    maintenance_interval=0.5)),
    "recovered": recovered,
    "power_cycled": power_cycled,
    "fleet": fleet_device,
    "armed": churned(SSDConfig.small(), span=2_000, obs=Observability.on),
    "armed_flight": churned(
        SSDConfig.small(), span=2_000,
        obs=lambda: Observability.on(flight=FlightRecorder())),
}


def graph_refs(device, detector=None):
    """Weak references to a device and the parts it owns."""
    detector = detector if detector is not None else device.detector
    assert detector is not None
    return {
        "device": weakref.ref(device),
        "ftl": weakref.ref(device.ftl),
        "nand": weakref.ref(device.nand),
        "detector": weakref.ref(detector),
    }


def alive(refs):
    return sorted(name for name, ref in refs.items() if ref() is not None)


class TestDevicesFreeThemselves:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_dropped_device_is_freed_without_a_collection(self, name):
        with collector_off():
            device = CONFIGS[name]()
            refs = graph_refs(device)
            del device
            assert alive(refs) == []

    def test_namespace_device_is_freed_without_a_collection(self):
        with collector_off():
            manager = NamespaceManager(
                SimulatedSSD(SSDConfig.tiny(detector_enabled=False)), count=2)
            for step in range(400):
                manager[step % 2].write(step % 50, b"v", now=0.002 * step)
            refs = graph_refs(manager.device, manager[0].detector)
            refs["manager"] = weakref.ref(manager)
            refs["namespace"] = weakref.ref(manager[1])
            del manager
            assert alive(refs) == []

    def test_fleet_run_leaves_nothing_for_the_collector(self):
        with collector_off():
            result = run_fleet(small_plan(), shards=1)
            assert len(result.records) == small_plan().devices
            del result
            assert gc.collect() == 0


class TestDetectorOutlivesItsOwner:
    def test_device_detector_alarms_into_a_no_op(self):
        with collector_off():
            device = SimulatedSSD(SSDConfig.tiny(), tree=ALARM_TREE)
            detector = device.detector
            owner = weakref.ref(device)
            del device
            assert owner() is None
        detector.tick(5.0)
        assert detector.alarm_raised

    def test_namespace_detector_alarms_into_a_no_op(self):
        alarms = []
        with collector_off():
            manager = NamespaceManager(
                SimulatedSSD(SSDConfig.tiny(detector_enabled=False)), count=2,
                tree=ALARM_TREE,
                on_alarm=lambda ns, event: alarms.append(ns.index))
            detector = manager[0].detector
            owner = weakref.ref(manager[0])
            del manager
            assert owner() is None
        detector.tick(5.0)
        assert detector.alarm_raised
        assert alarms == []

    def test_orphaned_namespace_locks_itself_without_its_manager(self):
        alarms = []
        manager = NamespaceManager(
            SimulatedSSD(SSDConfig.tiny(detector_enabled=False)), count=2,
            tree=ALARM_TREE,
            on_alarm=lambda ns, event: alarms.append(ns.index))
        namespace = manager[0]
        del manager
        namespace.write(0, b"v", now=0.5)
        namespace.tick(5.0)
        assert namespace.read_only
        assert alarms == []


class TestAlarmCallbacksUnchanged:
    def test_host_callback_fires_once_per_alarm(self):
        events = []
        device = SimulatedSSD(SSDConfig.tiny(), tree=ALARM_TREE,
                              on_alarm=events.append)
        device.write(3, b"in-window", now=0.5)
        device.tick(5.0)
        assert len(events) == 1 and device.read_only
        device.tick(8.0)
        assert len(events) == 1
        device.recover()
        # The rollback undid the write made inside the retention window.
        assert len(device.rollback_reports) == 1
        assert device.read(3) == bytes(4096)
        assert not device.read_only and not device.alarm_raised
        device.tick(12.0)
        assert len(events) == 2 and device.read_only
        device.dismiss_alarm()
        assert not device.read_only and not device.alarm_raised
        device.write(4, b"kept", now=12.5)
        assert device.read(4) == b"kept"
        device.tick(16.0)
        assert len(events) == 3

    def test_namespace_callback_fires_once_per_alarm(self):
        alarms = []
        manager = NamespaceManager(
            SimulatedSSD(SSDConfig.tiny(detector_enabled=False)), count=2,
            tree=ALARM_TREE,
            on_alarm=lambda ns, event: alarms.append(ns.index))
        manager[0].tick(5.0)
        manager[0].tick(8.0)
        assert alarms == [0]
        manager[0].recover()
        manager[0].tick(12.0)
        assert alarms == [0, 0]
