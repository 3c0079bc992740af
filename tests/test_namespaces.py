"""Multi-tenant namespaces: isolation, blast radius, selective rollback."""

import pytest

from repro.errors import AddressError, ConfigError
from repro.nand.geometry import NandGeometry
from repro.obs import Observability
from repro.obs.flightrec import FlightRecorder
from repro.ssd.config import SSDConfig
from repro.ssd.device import SimulatedSSD
from repro.ssd.namespaces import NamespaceManager
from repro.workloads import LbaRegion, make_ransomware


@pytest.fixture
def manager(pretrained_tree) -> NamespaceManager:
    device = SimulatedSSD(
        SSDConfig(
            geometry=NandGeometry(channels=2, ways=4, blocks_per_chip=128,
                                  pages_per_block=64),
            detector_enabled=False,  # per-namespace detectors instead
            queue_capacity=20_000,
        )
    )
    return NamespaceManager(device, count=2, tree=pretrained_tree)


def populate(namespace, blocks, tag):
    for lba in range(blocks):
        namespace.write(lba, b"%s-%d" % (tag, lba),
                        now=namespace.device.clock.now + 0.0005)


def attack(namespace, blocks, start):
    sample = make_ransomware("wannacry", LbaRegion(0, blocks), start=start,
                             duration=30.0, seed=7)
    for request in sample.requests():
        for unit in request.split():
            if unit.is_read:
                namespace.read(unit.lba, now=unit.time)
            else:
                namespace.write(unit.lba, b"ciphertext", now=unit.time)
        if namespace.alarm_raised:
            break


class TestIsolation:
    def test_lba_spaces_disjoint(self, manager):
        manager[0].write(0, b"tenant0", now=0.1)
        manager[1].write(0, b"tenant1", now=0.2)
        assert manager[0].read(0)[:7] == b"tenant0"
        assert manager[1].read(0)[:7] == b"tenant1"

    def test_out_of_range_rejected(self, manager):
        with pytest.raises(AddressError):
            manager[0].read(manager[0].num_lbas)

    def test_sizes_equal(self, manager):
        assert manager[0].num_lbas == manager[1].num_lbas
        assert len(manager) == 2

    def test_device_detector_rejected(self, pretrained_tree):
        device = SimulatedSSD(SSDConfig.tiny(), tree=pretrained_tree)
        with pytest.raises(ConfigError, match="detector_enabled=False"):
            NamespaceManager(device, count=2, tree=pretrained_tree)

    def test_too_many_namespaces_rejected(self, pretrained_tree):
        device = SimulatedSSD(SSDConfig.tiny(detector_enabled=False))
        with pytest.raises(ConfigError):
            NamespaceManager(device, count=10 ** 9, tree=pretrained_tree)


class TestBlastRadius:
    @pytest.fixture
    def attacked(self, manager):
        populate(manager[0], 8_000, b"a")
        populate(manager[1], 8_000, b"b")
        manager.device.tick(30.0)
        manager[0].tick(30.0)
        manager[1].tick(30.0)
        attack(manager[0], 8_000, start=30.0)
        return manager

    def test_only_infected_namespace_alarms(self, attacked):
        assert attacked[0].alarm_raised
        assert not attacked[1].alarm_raised
        assert attacked.alarmed == [attacked[0]]

    def test_other_tenant_keeps_writing(self, attacked):
        now = attacked.device.clock.now
        attacked[1].write(42, b"still-alive", now=now + 1.0)
        assert attacked[1].read(42)[:11] == b"still-alive"
        assert attacked[1].stats.dropped_writes == 0

    def test_infected_namespace_drops_writes(self, attacked):
        now = attacked.device.clock.now
        attacked[0].write(0, b"more-evil", now=now + 1.0)
        assert attacked[0].stats.dropped_writes >= 1

    def test_selective_recovery(self, attacked):
        """Rolling namespace 0 back must not disturb namespace 1's recent
        writes."""
        now = attacked.device.clock.now
        attacked[1].write(7, b"fresh-bystander", now=now + 0.5)
        report = attacked[0].recover()
        assert report.mapping_updates > 0
        # Tenant 0's data is back...
        assert attacked[0].read(0)[:3] == b"a-0"
        # ...tenant 1's post-attack write survived the rollback.
        assert attacked[1].read(7)[:15] == b"fresh-bystander"
        assert not attacked[0].alarm_raised

    def test_bystander_backups_stay_queued(self, attacked):
        """After tenant 0's selective rollback, tenant 1's own recovery
        coverage is still in the queue."""
        now = attacked.device.clock.now
        attacked[1].write(3, b"overwrite-b3", now=now + 0.5)
        queue_before = len(attacked.device.ftl.queue)
        attacked[0].recover()
        remaining = [entry.lba for entry in attacked.device.ftl.queue]
        assert remaining  # tenant 1's entries survived
        assert all(lba >= attacked[1].start_lba for lba in remaining)
        assert len(attacked.device.ftl.queue) < queue_before


class TestObservedDevice:
    """Namespace I/O goes through the device's host-request seam, so an
    armed observability bundle sees it like any other host request."""

    def test_namespace_requests_are_traced_counted_and_recorded(
            self, pretrained_tree):
        obs = Observability.on(flight=FlightRecorder())
        device = SimulatedSSD(SSDConfig.small(detector_enabled=False), obs=obs)
        namespaces = NamespaceManager(device, count=2, tree=pretrained_tree)
        for step in range(50):
            namespaces[step % 2].write(step, b"x", now=0.01 * step)
        for step in range(50):
            namespaces[step % 2].read(step, now=1.0 + 0.01 * step)
        assert device.ftl.stats.host_writes == 50
        assert len(obs.tracer.find("ssd.request")) == 100
        requests = obs.metrics.get("ssd_requests_total")
        blocks = obs.metrics.get("ssd_blocks_total")
        assert requests.value(mode="W") == requests.value(mode="R") == 50
        assert blocks.value(mode="W") == blocks.value(mode="R") == 50
        assert obs.flightrec.requests_recorded == 100
        # The recorder keeps the device's physical addresses.
        assert namespaces[1].start_lba + 1 in {
            lba for _, lba, *_ in obs.flightrec.requests}
