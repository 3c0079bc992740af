"""The run-at-a-time host path equals the per-block loop it replaced.

Every device kind replays the same golden slice (WannaCry over cloud
storage) twice: through :class:`~repro.ssd.device.SimulatedSSD`, whose
requests reach the FTL, NAND and recovery queue one block *run* per call,
and through the per-block oracle in ``tests/oracles/blockpath.py``, whose
GC and block retirement also relocate one page program at a time.  The
two must agree on the device and FTL counters, the rollback reports, every
NAND page, the recovery queue and its pins, the media-fault counters and,
when observability is armed, every tracer instant, metric and incident
bundle.  Both victim indexes must also pass their audit.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.entropy import HybridDetector
from repro.core.pretrained import default_tree
from repro.errors import ProgramFailError
from repro.faults.config import FaultConfig
from repro.faults.injector import FaultInjector
from repro.ftl.insider import InsiderFTL
from repro.nand.array import NandArray
from repro.nand.geometry import NandGeometry
from repro.obs import Observability
from repro.obs.flightrec import FlightRecorder
from repro.ssd.config import SSDConfig
from repro.ssd.device import SimulatedSSD
from repro.tools.profile import GOLDEN_SEED, golden_scenario
from tests.oracles.blockpath import BlockPathFTL, BlockPathSSD

DURATION = 12.0

#: Device kind -> (config faults, hybrid detector, observability armed).
KINDS = {
    "plain": (None, False, False),
    "observed": (None, False, True),
    # Transient and hard read faults (uncorrectable reads raise the media
    # alarm mid-request), program and erase failures (block retirement).
    "faults": (FaultConfig(seed=5, read_fault_rate=0.02, read_hard_share=0.3,
                           program_fail_rate=0.0004, erase_fail_rate=0.005),
               False, True),
    # Program failures turned up to exhaust a write's remap budget in the
    # middle of a request; the device locks itself down.
    "exhausted": (FaultConfig(seed=1, program_fail_rate=0.001,
                              read_fault_rate=0.01, read_hard_share=0.5),
                  False, True),
    "hybrid": (None, True, False),
    "dropping_read_only": (None, False, False),
}

#: Requests a read-only kind stays locked before it recovers.
LOCKED_REQUESTS = 300


def _replay(device_class, kind):
    """Replay the golden slice on a fresh device; returns it and a tally."""
    faults, hybrid, observed = KINDS[kind]
    config = SSDConfig.small()
    if faults is not None:
        config = dataclasses.replace(config, faults=faults)
    device = device_class(
        config,
        tree=HybridDetector(default_tree()) if hybrid else None,
        obs=Observability.on(flight=FlightRecorder()) if observed else None,
    )
    run = golden_scenario(duration=DURATION).build(seed=GOLDEN_SEED,
                                                   duration=DURATION)
    num_lbas = device.num_lbas
    tally = {"mid_request_failures": 0,
             "relocation_program_fails": 0}
    _count_relocation_program_fails(device, tally)
    locked = 0
    for index, request in enumerate(run.trace):
        if kind == "exhausted":
            # A burst of failing programs on writes after GC is warm,
            # until one write exhausts its remap budget.
            injector = device.fault_injector
            burst = (not device.stats.failed_writes and (
                injector.config.program_fail_rate > 0.5
                or (index >= 2500 and request.is_write
                    and request.length > 4)))
            injector.config = dataclasses.replace(
                faults, program_fail_rate=0.6 if burst else 0.001)
        lba = request.lba % max(1, num_lbas - request.length)
        failed_before = device.stats.failed_writes
        writes_before = device.stats.writes
        device.submit(dataclasses.replace(request, lba=lba))
        if (device.stats.failed_writes > failed_before
                and device.stats.writes - writes_before > 1):
            tally["mid_request_failures"] += 1
        if device.read_only:
            locked += 1
            if kind.endswith("read_only") and locked < LOCKED_REQUESTS:
                continue
            locked = 0
            if device.alarm_raised:
                device.recover()
            else:
                device.dismiss_alarm()
    device.tick(run.duration)
    return device, tally


def _count_relocation_program_fails(device, tally):
    """Tally verify failures of programs into the device's GC block."""
    nand = device.nand
    program_many = nand.program_many

    def counting_program_many(global_block, *pages):
        try:
            return program_many(global_block, *pages)
        except ProgramFailError:
            if global_block == device.ftl.allocator.gc_active:
                tally["relocation_program_fails"] += 1
            raise

    nand.program_many = counting_program_many


def _snapshot(device):
    """Everything the two paths must agree on, as plain values."""
    ftl = device.ftl
    nand = device.nand
    state = {
        "device": dataclasses.asdict(device.stats),
        "read_only": device.read_only,
        "degraded": device.degraded,
        "ftl": dataclasses.asdict(ftl.stats),
        "rollbacks": device.rollback_reports,
        "mapping": list(ftl.mapping.items()),
        "queue": [(e.lba, e.old_ppa, e.new_ppa, e.timestamp)
                  for e in ftl.queue],
        "pins": {ppa: (e.lba, e.timestamp)
                 for ppa, e in ftl.queue._pinned.items()},
        "queue_counters": (ftl.queue.evictions, ftl.queue.expiry_scans,
                           ftl.queue.depth_peak),
        "blocks": [
            (block.write_pointer, block.valid_count, block.erase_count,
             block.is_bad, block.reads_since_erase)
            for block in (nand.block(index)
                          for index in range(nand.num_blocks))
        ],
        "pages": (nand.states, nand.lbas, nand.written_at, nand.payloads),
        "chips": [nand.chip(index).counters
                  for index in range(nand.geometry.num_chips)],
        "busy": (nand.busy_time, nand.busy_breakdown),
        "reliability": nand.reliability,
        "detector": (device.detector.events, device.detector.alarm_event),
    }
    if device.fault_injector is not None:
        state["faults"] = device.fault_injector.stats
    if device.obs is not None:
        state["instants"] = [
            (event.name, event.phase, event.sim_ts, event.args)
            for event in device.obs.tracer.events if event.phase in "iC"
        ]
        state["metrics"] = [
            family for family in device.obs.metrics.to_dict()["families"]
            if family["name"] != "ssd_request_latency_seconds"
        ]
        state["incidents"] = device.incidents
    return state


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_run_path_matches_per_block_loop(kind):
    device, tally = _replay(SimulatedSSD, kind)
    oracle, oracle_tally = _replay(BlockPathSSD, kind)
    assert tally == oracle_tally
    assert _snapshot(device) == _snapshot(oracle)
    device.ftl.audit_victim_index()
    oracle.ftl.audit_victim_index()
    device.ftl.queue.audit()
    # Each kind reaches the path it is named for.
    stats = device.stats
    if kind == "faults":
        assert stats.uncorrectable_reads > 0
        assert device.ftl.stats.program_fails > 0
    if kind == "exhausted":
        assert tally["mid_request_failures"] == stats.failed_writes == 1
        assert tally["relocation_program_fails"] > 0
    if kind == "dropping_read_only":
        assert stats.dropped_writes > 0
    assert device.rollback_reports


def _ftl_pair(faults=None, blocks=12):
    """The run-path FTL and the per-block oracle on identical arrays."""
    def build(cls):
        nand = NandArray(
            NandGeometry(channels=1, ways=1, blocks_per_chip=blocks,
                         pages_per_block=8),
            faults=FaultInjector(faults) if faults is not None else None,
        )
        return cls(nand, op_ratio=0.45, retention=5.0, queue_capacity=8)

    return build(InsiderFTL), build(BlockPathFTL)


def _ftl_state(ftl):
    return (
        list(ftl.mapping.items()),
        dataclasses.asdict(ftl.stats),
        [(e.lba, e.old_ppa, e.new_ppa, e.timestamp) for e in ftl.queue],
        sorted(ftl.queue._pinned),
        [(block.write_pointer, block.valid_count, block.erase_count,
          block.is_bad)
         for block in (ftl.nand.block(index)
                       for index in range(ftl.nand.num_blocks))],
        ftl.nand.states,
        ftl.allocator.free_blocks,
        ftl.allocator.host_active,
    )


def test_span_crossing_into_the_gc_trigger_matches_the_loop():
    """A span that opens a new host block exactly as the free pool drops
    to the GC trigger: every block after the boundary runs GC first."""
    span_ftl, loop_ftl = _ftl_pair()
    trigger = span_ftl.gc_policy.trigger_free_blocks
    num_lbas = span_ftl.num_lbas
    pages = span_ftl.nand.geometry.pages_per_block
    timestamp = 0.0
    lba = 0
    # Fill until opening one more host block brings the pool to the
    # trigger, then stop two pages short of the open block's end.
    while not (span_ftl.allocator.free_blocks == trigger + 1
               and span_ftl.nand.block(
                   span_ftl.allocator.host_active).free_pages == 2):
        for ftl in (span_ftl, loop_ftl):
            ftl.write_span(lba, 1, timestamp)
        lba = (lba + 3) % num_lbas
        timestamp += 0.5
    erases = span_ftl.stats.erases
    span_ftl.write_span(0, pages + 2, timestamp)
    loop_ftl.write_span(0, pages + 2, timestamp)
    assert span_ftl.stats.erases > erases, "GC must run inside the span"
    assert _ftl_state(span_ftl) == _ftl_state(loop_ftl)
    span_ftl.audit_victim_index()
    loop_ftl.audit_victim_index()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_spans_under_program_faults_match_the_loop(seed, monkeypatch):
    """Program failures inside a run: the landed pages are committed, the
    block retired, and the failing LBA retried, as the loop does."""
    landed = []
    program_many = NandArray.program_many

    def recording_program_many(self, global_block, *pages):
        try:
            return program_many(self, global_block, *pages)
        except ProgramFailError as exc:
            landed.append(exc.landed)
            raise

    monkeypatch.setattr(NandArray, "program_many", recording_program_many)
    span_ftl, loop_ftl = _ftl_pair(
        FaultConfig(seed=seed, program_fail_rate=0.01), blocks=64)
    num_lbas = span_ftl.num_lbas
    timestamp = 0.0
    for step in range(180):
        lba = (step * 7) % (num_lbas - 6)
        length = 1 + step % 6
        span_ftl.write_span(lba, length, timestamp)
        loop_ftl.write_span(lba, length, timestamp)
        timestamp += 0.25
    assert any(landed), "a program must fail after pages of its run landed"
    assert _ftl_state(span_ftl) == _ftl_state(loop_ftl)
    span_ftl.audit_victim_index()
    loop_ftl.audit_victim_index()
