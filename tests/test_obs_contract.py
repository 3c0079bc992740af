"""The observability contract: inert, and every name it emits documented.

Inertness is one matrix over all 16 subsets of {tracer, metrics, flight recorder,
fleet telemetry emitter}, on two devices:

* the golden defend — ``defend --sample wannacry --seed 3``: a populated
  device, attacked, alarmed, locked down and rolled back;
* a fault-armed, GC-heavy fleet device (``test-iometer-cryptoshield``
  with read, program and erase faults) that loses power, raises media
  alarms, retires blocks and alarms on the attack.

Every subset must reproduce the unobserved run's DetectionEvents,
RollbackReports, FtlStats, DeviceStats and fleet-record bytes exactly.

The name contract: the metric families and trace events those two
devices and the first fleet-smoke devices emit are exactly the ones the
tables in ``docs/observability.md`` list.
"""

from __future__ import annotations

import dataclasses
import re
from itertools import combinations
from pathlib import Path

import pytest

from repro.faults.config import FaultConfig
from repro.fleet import worker
from repro.fleet.plan import FleetPlan, ScenarioMix
from repro.fleet.record import dumps_record
from repro.nand.geometry import NandGeometry
from repro.obs import EventTracer, MetricsRegistry, Observability
from repro.obs.flightrec import FlightRecorder
from repro.obs.telemetry import WorkerEmitter
from repro.ssd.config import SSDConfig
from repro.ssd.device import SimulatedSSD
from repro.ssd.harness import run_defense

SINKS = ("tracer", "metrics", "flightrec", "telemetry")
SUBSETS = [frozenset(combo) for size in range(len(SINKS) + 1)
           for combo in combinations(SINKS, size)]

#: The fault-armed fleet device: scenario and fault draw.
FLEET_PLAN = FleetPlan(devices=1, seed=7, num_lbas=4_000, duration=10.0,
                       mix=ScenarioMix.parse("test-iometer-cryptoshield"),
                       benign_fraction=0.0)
FLEET_FAULTS = FaultConfig(seed=3, read_fault_rate=0.01, read_hard_share=0.3,
                           program_fail_rate=0.001, erase_fail_rate=0.01,
                           power_loss_at=4.0)


def _label(subset) -> str:
    return "+".join(sink for sink in SINKS if sink in subset) or "unobserved"


def _observability(subset):
    """The bundle a subset arms (None: nothing but, maybe, telemetry)."""
    if not subset & {"tracer", "metrics", "flightrec"}:
        return None
    return Observability(
        tracer=EventTracer() if "tracer" in subset else None,
        metrics=MetricsRegistry() if "metrics" in subset else None,
        flightrec=FlightRecorder() if "flightrec" in subset else None,
    )


def _emitter(subset, messages):
    if "telemetry" not in subset:
        return None
    return WorkerEmitter(messages.append, interval=0.0,
                         timeline="tracer" in subset,
                         metrics="metrics" in subset)


def _behaviour(device, **extra):
    """Everything observability must leave untouched, as plain values."""
    return {
        "events": list(device.detector.events),
        "alarm": device.detector.alarm_event,
        "fast_forwarded": device.detector.fast_forwarded_slices,
        "rollbacks": device.rollback_reports,
        "ftl": dataclasses.asdict(device.ftl.stats),
        "device": dataclasses.asdict(device.stats),
        **extra,
    }


def golden_defend(subset, devices=None):
    """``defend --sample wannacry --seed 3`` under ``subset``.

    Appends the device to ``devices`` when given.
    """
    messages = []
    emitter = _emitter(subset, messages)
    device = SimulatedSSD(
        SSDConfig(geometry=NandGeometry(channels=2, ways=4,
                                        blocks_per_chip=128,
                                        pages_per_block=64),
                  queue_capacity=20_000),
        obs=_observability(subset),
    )
    outcome = run_defense(device, sample="wannacry", seed=3)
    if devices is not None:
        devices.append(device)
    if emitter is not None:
        # Ship what the fleet worker ships at completion.
        if emitter.metrics:
            device.refresh_obs_metrics()
            emitter.emit_metrics(0, "golden", device.obs.metrics)
        if emitter.timeline:
            emitter.emit_trace(0, "golden", device.obs.tracer)
        emitter.heartbeat(0, "golden", "done", force=True)
        assert messages
    outcome = dataclasses.replace(outcome, obs=None, incidents=[])
    return _behaviour(device, outcome=outcome)


def faulty_fleet_device(subset, devices=None):
    """The fault-armed fleet device under ``subset``, via ``run_device``.

    Appends the device to ``devices`` when given.
    """
    messages = []
    built = [] if devices is None else devices

    def build_device(plan, flight=False, emitter=None):
        device = SimulatedSSD(
            SSDConfig(geometry=worker.device_geometry(plan.num_lbas),
                      op_ratio=0.2, faults=FLEET_FAULTS),
            obs=_observability(subset),
        )
        built.append(device)
        return device

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(worker, "build_device", build_device)
        record, incident = worker.run_device(
            FLEET_PLAN, FLEET_PLAN.device_spec(0),
            flight="flightrec" in subset, emitter=_emitter(subset, messages))
    device = built[-1]
    assert (incident is not None) == ("flightrec" in subset)
    return _behaviour(device, record=dumps_record(record))


RUNS = {"golden": golden_defend, "faulty": faulty_fleet_device}


@pytest.fixture(scope="module")
def unobserved():
    """The plain runs every subset is compared against."""
    return {name: run(frozenset()) for name, run in RUNS.items()}


def test_the_devices_exercise_every_event(unobserved):
    golden = unobserved["golden"]
    assert golden["outcome"].perfect_recovery
    assert golden["fast_forwarded"] > 0
    faulty = unobserved["faulty"]
    assert faulty["alarm"] is not None
    assert faulty["device"]["power_losses"] == 1
    assert faulty["device"]["uncorrectable_reads"] > 0
    assert faulty["ftl"]["gc_runs"] > 0
    assert faulty["ftl"]["bad_blocks"] > 0


@pytest.mark.parametrize("subset", SUBSETS, ids=_label)
@pytest.mark.parametrize("device", sorted(RUNS))
def test_every_subset_leaves_the_run_unchanged(device, subset, unobserved):
    """The empty subset re-runs the reference: the runs are repeatable."""
    assert RUNS[device](subset) == unobserved[device]


#: Fleet-smoke devices (``fleet run --devices 32 --seed 7``) replayed for
#: the name contract: between them, GC passes and queue evictions.
SMOKE_DEVICES = 2
DOC = Path(__file__).resolve().parents[1] / "docs" / "observability.md"


def _documented(heading: str):
    """Names in the first column of the table under ``heading``."""
    text = DOC.read_text(encoding="utf-8")
    section = text.split(heading, 1)[1]
    table = re.search(r"\n(\|.*\|\n)+", section).group(0)
    names = set()
    for row in table.strip().splitlines()[2:]:
        first = row.split("|")[1]
        names.update(re.sub(r"\{.*?\}", "", name)
                     for name in re.findall(r"`([^`]+)`", first))
    return names


@pytest.fixture(scope="module")
def emitted():
    """(trace event names, metric family names) of the observed runs."""
    devices = []
    everything = frozenset(SINKS)
    golden_defend(everything, devices)
    faulty_fleet_device(everything, devices)
    original = worker.build_device

    def build_device(plan, flight=False, emitter=None):
        devices.append(original(plan, flight=flight, emitter=emitter))
        return devices[-1]

    plan = FleetPlan(devices=32, seed=7)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(worker, "build_device", build_device)
        for index in range(SMOKE_DEVICES):
            worker.run_device(plan, plan.device_spec(index), flight=True)
    events, families = set(), set()
    for device in devices:
        device.refresh_obs_metrics()
        events.update(event.name for event in device.obs.tracer.events)
        families.update(family.name for family in device.obs.metrics)
    return events, families


def test_trace_events_match_the_taxonomy_table(emitted):
    assert emitted[0] == _documented("## Event taxonomy")


def test_metric_families_match_the_families_table(emitted):
    assert emitted[1] == _documented("The families the data path maintains")
