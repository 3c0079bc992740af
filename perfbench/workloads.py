"""The benchmark's workloads: inputs, one timed replay, and its fingerprint.

Every workload is a closed loop driven by one client with no threads: the
next request goes out when the previous call returns.  A workload object
builds its inputs from the seed in :meth:`Workload.setup`, runs one
untimed :meth:`Workload.warmup`, and then any number of
:meth:`Workload.replay` calls, each on fresh state so that every replay of
one seed does the same work and yields the same :class:`Replay`
fingerprint.  Only the layer APIs of ``repro`` are used.

Why these four (sizes are for the default ``--seconds 10``):

``golden_attack``
    WannaCry over cloud storage, folded onto ``SSDConfig.small()``; every
    alarm is answered with ``recover()``.  Overwrite- and GC-heavy, with
    rollbacks: FTL write, GC, recovery queue and NAND program dominate.
``benign_readmix``
    hdtunepro with its ransomware sample withheld, on a device filled
    once before the replay.  Three quarters of the blocks are reads of
    mapped pages and GC is light: the read path of the same layers.
``detector_1m``
    One million synthetic headers through a bare detector.  Only ``core``
    works; the 400k-LBA sweep keeps far more counting-table runs live than
    the device workloads, and a one-hour idle gap exercises fast-forward.
``fleet_testing``
    48 devices drawn from ``fleet run``'s default mix, the Table I testing
    rows, at fleet seed 7, through ``run_fleet`` with two spawned workers:
    scenario build, ``submit_batch``, pool sharding and the fleetrec codec.
    The population is pinned: ``--seed`` does not redraw it, because a
    redraw changes which scenarios the devices replay, and that alone
    spread throughput across ten fleet seeds by 25 % (IQR over median).
"""

from __future__ import annotations

import gc
import hashlib
import json
import tempfile
import traceback
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Dict, List, Optional

from perfbench import ROOT
from perfbench.mix import synthesize_mix
from repro.blockdev.request import IORequest
from repro.core.detector import RansomwareDetector
from repro.fleet.orchestrator import run_fleet
from repro.fleet.plan import FleetPlan, ScenarioMix
from repro.ssd.config import SSDConfig
from repro.ssd.device import SimulatedSSD
from repro.workloads.catalog import training_scenarios
from repro.workloads.scenario import Scenario


def scratch_dir() -> tempfile.TemporaryDirectory:
    """A temporary directory inside the checkout, removed on exit."""
    return tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT)


def digest(value) -> str:
    """sha256 of a JSON-serialisable value in canonical form."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Replay:
    """What one timed replay did."""

    #: Wall time of the timed region, in seconds.
    wall_s: float = 0.0
    #: Host requests sent (for the fleet: replayed by all devices).
    requests: int = 0
    #: Units counted by failure accounting: requests, or fleet devices.
    units: int = 0
    #: Units lost to device-level errors the run reported (fleet only).
    failed_units: int = 0
    #: Per-call latency samples in nanoseconds, when every call is timed.
    latencies_ns: Optional[array] = None
    #: Wall time of each ``recover()`` call, in nanoseconds.
    rollbacks_ns: List[int] = field(default_factory=list)
    #: Devices completed (fleet only).
    devices: int = 0
    #: Counters behind the derived per-layer ratios.
    counters: Dict[str, int] = field(default_factory=dict)
    #: What the replay computed; equal for every replay of one seed.
    fingerprint: Dict[str, object] = field(default_factory=dict)
    #: Why the replay cannot be trusted (exception, failed audit).
    error: Optional[str] = None


class Workload:
    """One named workload at one seed (``smoke`` shrinks it for tests)."""

    name = ""
    default_seed = 0

    def __init__(self, seed: Optional[int] = None, smoke: bool = False,
                 traced: bool = False) -> None:
        self.seed = self.default_seed if seed is None else seed
        self.smoke = smoke
        #: The run records per-layer spans (set for the whole run, so the
        #: untraced reference replay takes the same path).
        self.traced = traced

    def sizes(self) -> Dict[str, object]:
        """The size parameters recorded with every run."""
        raise NotImplementedError

    def setup(self) -> None:
        """Build the inputs; repeated, and the last build is kept."""
        raise NotImplementedError

    def warmup(self) -> None:
        """One replay outside the timed loop, so caches and lazy set-up
        are warm; its wall time counts toward set-up."""
        raise NotImplementedError

    def units(self) -> int:
        """Units one replay attempts, for failure accounting."""
        raise NotImplementedError

    def replay(self, tracer=None) -> Replay:
        """One timed replay on fresh state, recorded by ``tracer`` if given."""
        raise NotImplementedError


class _PinnedOnsetScenario(Scenario):
    """A scenario whose attack starts at ``onset`` whatever the seed.

    ``Scenario.build`` draws the onset from the seed, and the onset sets
    how much of the run is attack traffic, hence the request count and the
    number of rollbacks.  Pinning it lets the seed vary the trace without
    varying its size.
    """

    def _draw_onset(self, seed: int, run_duration: float) -> float:
        return self.onset


class DeviceWorkload(Workload):
    """A trace replayed request by request through ``SimulatedSSD.submit``."""

    #: Fill every LBA once before each replay, so reads hit NAND.
    precondition = False
    #: Answer an alarm with ``recover()`` (else ``dismiss_alarm()``).
    recover_on_alarm = False
    #: Simulated seconds of trace, full size and ``--smoke``.
    DURATION = 60.0
    SMOKE_DURATION = 10.0

    def __init__(self, seed: Optional[int] = None, smoke: bool = False,
                 traced: bool = False) -> None:
        super().__init__(seed, smoke, traced)
        self.duration = self.SMOKE_DURATION if smoke else self.DURATION
        self.requests: List[IORequest] = []
        self.device: Optional[SimulatedSSD] = None

    def build_trace(self, num_lbas: int) -> List[IORequest]:
        """The request list for a device of ``num_lbas`` blocks."""
        raise NotImplementedError

    def fresh_device(self) -> SimulatedSSD:
        """A new device in the state every replay starts from."""
        device = SimulatedSSD(SSDConfig.small())
        if self.precondition:
            device.ftl.write_span(0, device.num_lbas, 0.0)
        return device

    def setup(self) -> None:
        self.device = self.fresh_device()
        self.requests = self.build_trace(self.device.num_lbas)

    def warmup(self) -> None:
        self._run(self.device, None)

    def units(self) -> int:
        return len(self.requests)

    def replay(self, tracer=None) -> Replay:
        return self._run(self.fresh_device(), tracer)

    def _run(self, device: SimulatedSSD, tracer) -> Replay:
        submit = device.submit
        clock = perf_counter_ns
        samples = array("q")
        append = samples.append
        rollbacks: List[int] = []
        alarm_slices: List[int] = []
        reports = []
        record = tracer.recording if tracer is not None else nullcontext
        before = _device_counters(device)
        gc.collect()
        started = perf_counter()
        with record():
            for request in self.requests:
                t0 = clock()
                submit(request)
                append(clock() - t0)
                if device.read_only:
                    alarm_slices.append(device.detector.alarm_event.slice_index)
                    if self.recover_on_alarm:
                        t0 = clock()
                        reports.append(device.recover())
                        rollbacks.append(clock() - t0)
                    else:
                        device.dismiss_alarm()
            device.tick(self.duration)
        wall = perf_counter() - started
        after = _device_counters(device)
        result = Replay(
            wall_s=wall,
            requests=len(self.requests),
            units=len(self.requests),
            latencies_ns=samples,
            rollbacks_ns=rollbacks,
            # The replay's own work, without the preconditioning fill.
            counters={key: after[key] - before[key] for key in after},
            fingerprint=_device_fingerprint(device, alarm_slices, reports),
        )
        result.error = _audit(device)
        return result


class GoldenAttack(DeviceWorkload):
    """WannaCry x cloud storage with recovery on every alarm."""

    name = "golden_attack"
    default_seed = 20180706
    recover_on_alarm = True
    #: The onset ``Scenario.build`` draws at the default seed, so the
    #: default trace is the repository's golden replay request for request.
    ONSET = 29.513750086036282
    # The attack must start inside the smoke trace too.
    SMOKE_DURATION = 40.0

    def sizes(self) -> Dict[str, object]:
        return {"scenario": "golden-cloudstorage-wannacry",
                "duration_s": self.duration, "onset_s": self.ONSET,
                "device": "SSDConfig.small", "requests": len(self.requests)}

    def build_trace(self, num_lbas: int) -> List[IORequest]:
        scenario = _PinnedOnsetScenario(
            "golden-cloudstorage-wannacry", ransomware="wannacry",
            app="cloudstorage", category="heavy_overwrite",
            duration=self.duration, onset=self.ONSET,
        )
        run = scenario.build(seed=self.seed, duration=self.duration)
        if run.onset != self.ONSET:
            raise RuntimeError(
                f"golden_attack expects its attack onset pinned at "
                f"{self.ONSET} s, but Scenario.build drew {run.onset}")
        # Fold the 120k-LBA scenario onto the small device's address space.
        return [
            IORequest(time=r.time, lba=r.lba % max(1, num_lbas - r.length),
                      mode=r.mode, length=r.length, source=r.source)
            for r in run.trace
        ]


class BenignReadmix(DeviceWorkload):
    """hdtunepro without its sample, on a filled device; alarms dismissed."""

    name = "benign_readmix"
    default_seed = 20180706
    precondition = True

    def sizes(self) -> Dict[str, object]:
        return {"scenario": "train-hdtunepro-zerber", "include_ransomware": False,
                "duration_s": self.duration, "device": "SSDConfig.small",
                "precondition": "write_span(0, num_lbas)",
                "requests": len(self.requests)}

    def build_trace(self, num_lbas: int) -> List[IORequest]:
        scenario = {s.name: s for s in training_scenarios()}[
            "train-hdtunepro-zerber"]
        run = scenario.build(seed=self.seed, num_lbas=num_lbas,
                             duration=self.duration, include_ransomware=False)
        return list(run.trace)


class Detector1M(Workload):
    """The synthetic mix through a bare ``RansomwareDetector.observe``."""

    name = "detector_1m"
    default_seed = 7
    GAP_S = 3600.0

    def __init__(self, seed: Optional[int] = None, smoke: bool = False,
                 traced: bool = False) -> None:
        super().__init__(seed, smoke, traced)
        self.num_requests = 20_000 if smoke else 1_000_000
        self.gap_s = 60.0 if smoke else self.GAP_S
        self.warmup_requests = self.num_requests // 10
        self.requests: List[IORequest] = []

    def sizes(self) -> Dict[str, object]:
        return {"requests": self.num_requests, "gap_s": self.gap_s,
                "lba_span": 400_000, "warmup_requests": self.warmup_requests}

    def setup(self) -> None:
        self.requests = []  # let the previous build go before the next
        self.requests = synthesize_mix(self.num_requests, self.gap_s, self.seed)

    def warmup(self) -> None:
        self._run(self.requests[:self.warmup_requests], None)

    def units(self) -> int:
        return len(self.requests)

    def replay(self, tracer=None) -> Replay:
        return self._run(self.requests, tracer)

    def _run(self, requests: List[IORequest], tracer) -> Replay:
        detector = RansomwareDetector()
        observe = detector.observe
        clock = perf_counter_ns
        samples = array("q")
        append = samples.append
        record = tracer.recording if tracer is not None else nullcontext
        gc.collect()
        started = perf_counter()
        with record():
            for request in requests:
                t0 = clock()
                observe(request)
                append(clock() - t0)
            detector.tick(requests[-1].time + detector.config.slice_duration)
        wall = perf_counter() - started
        events = detector.events
        alarm = detector.alarm_event
        return Replay(
            wall_s=wall,
            requests=len(requests),
            units=len(requests),
            latencies_ns=samples,
            counters={"slices_closed": len(events),
                      "fast_forwarded_slices": detector.fast_forwarded_slices},
            fingerprint={
                "alarm_slice": None if alarm is None else alarm.slice_index,
                "slices_closed": len(events),
                "fast_forwarded_slices": detector.fast_forwarded_slices,
                "events": digest([
                    [e.slice_index, e.verdict, e.score, e.alarm,
                     list(e.features.as_tuple())] for e in events
                ]),
            },
        )


class FleetTesting(Workload):
    """``run_fleet`` over the testing-mix population, two spawned workers."""

    name = "fleet_testing"
    default_seed = 7
    MIX = "testing"
    SHARDS = 2

    def __init__(self, seed: Optional[int] = None, smoke: bool = False,
                 traced: bool = False) -> None:
        # The population is the one fleet seed 7 draws, whatever ``seed``.
        super().__init__(self.default_seed, smoke, traced)
        self.devices = 4 if smoke else 48
        self.duration = 10.0 if smoke else 30.0
        self.plan: Optional[FleetPlan] = None

    def sizes(self) -> Dict[str, object]:
        return {"devices": self.devices, "mix": self.MIX,
                "fleet_seed": self.seed, "num_lbas": 12_000,
                "duration_s": self.duration, "shards": self.SHARDS,
                "traced_shards": 1}

    def _plan(self, devices: int) -> FleetPlan:
        return FleetPlan(devices=devices, seed=self.seed,
                         mix=ScenarioMix.parse(self.MIX),
                         num_lbas=12_000, duration=self.duration)

    def setup(self) -> None:
        self.plan = self._plan(self.devices)
        self.plan.validate()
        list(self.plan.specs())

    def warmup(self) -> None:
        run_fleet(self._plan(2 * self.SHARDS), shards=self._shards())

    def units(self) -> int:
        return self.devices

    def _shards(self) -> int:
        # The tracer's wrappers cannot reach spawned workers, so a traced
        # run replays the same plan in-process; fleet output is identical
        # for any shard count.
        return 1 if self.traced else self.SHARDS

    def replay(self, tracer=None) -> Replay:
        shards = self._shards()
        record = tracer.recording if tracer is not None else nullcontext
        with scratch_dir() as work:
            path = Path(work) / "fleet.fleetrec"
            gc.collect()
            started = perf_counter()
            with record():
                result = run_fleet(self.plan, shards=shards, out_path=path)
            wall = perf_counter() - started
            data = path.read_bytes()
        records = result.records
        replayed = sum(int(r["requests_replayed"]) for r in records)
        return Replay(
            wall_s=wall,
            requests=replayed,
            units=len(records),
            failed_units=sum(1 for r in records if r.get("error")),
            devices=len(records),
            fingerprint={
                "fleetrec_sha256": hashlib.sha256(data).hexdigest(),
                "verdicts": dict(sorted(result.summary.verdicts.items())),
                "requests_replayed": replayed,
            },
        )


WORKLOADS = {w.name: w for w in (GoldenAttack, BenignReadmix, Detector1M,
                                 FleetTesting)}


def _device_counters(device: SimulatedSSD) -> Dict[str, int]:
    stats = device.ftl.stats
    return {
        "host_writes": stats.host_writes,
        "gc_page_copies": stats.gc_page_copies,
        "erases": stats.erases,
        "queue_evictions": device.ftl.queue.evictions,
        "nand_programs": device.nand.total_programs(),
        "slices_closed": len(device.detector.events),
        "fast_forwarded_slices": device.detector.fast_forwarded_slices,
    }


#: The fields that make up a fingerprint.  Listed, not introspected, so a
#: field added to a report later does not change the pinned fingerprints.
_ROLLBACK_FIELDS = ("triggered_at", "entries_scanned", "entries_applied",
                    "lbas_restored", "lbas_unmapped", "mapping_updates")
_FTL_FIELDS = ("host_writes", "gc_page_copies", "gc_pinned_copies", "erases")
_DEVICE_FIELDS = ("reads", "writes", "dropped_writes", "unmapped_reads",
                  "uncorrectable_reads", "failed_writes", "power_losses")


def _device_fingerprint(device: SimulatedSSD, alarm_slices: List[int],
                        reports) -> Dict[str, object]:
    rollbacks = []
    for report in reports:
        entry = {name: getattr(report, name) for name in _ROLLBACK_FIELDS}
        entry["restored_lbas"] = digest(sorted(report.restored_lbas))
        rollbacks.append(entry)
    return {
        "alarm_slices": alarm_slices,
        "rollbacks": rollbacks,
        "ftl": {name: getattr(device.ftl.stats, name) for name in _FTL_FIELDS},
        "device": {name: getattr(device.stats, name) for name in _DEVICE_FIELDS},
        "queue_evictions": device.ftl.queue.evictions,
        "slices_closed": len(device.detector.events),
        "fast_forwarded_slices": device.detector.fast_forwarded_slices,
    }


def _audit(device: SimulatedSSD) -> Optional[str]:
    """Run the FTL's own consistency audits; the failure text, if any."""
    try:
        device.ftl.audit_victim_index()
        device.ftl.queue.audit()
    except Exception:  # noqa: BLE001 - any audit failure fails the replay
        return traceback.format_exc(limit=3)
    return None
