"""Mapping-table equivalence oracle: flat-array vs dict, end to end.

The flat-array translation table is a pure representation change — the
sparse dict table (``tests/oracles/mapping.py``) is the reference
implementation, swapped in for the production table by monkeypatching
``repro.ftl.base.MappingTable``, and this soak proves the two are
indistinguishable through the full device: a seeded mixed
write/read/trim stream under every GC victim policy, with enough churn
to force relocation of valid *and* pinned pages, a mid-soak power-loss
rebuild, and (in the fault variant) program/erase failures retiring
blocks mid-GC.  After all of that, the LBA -> PPA state and the
DetectionEvent streams must match bit for bit.
"""

import random
from contextlib import contextmanager

import pytest

import repro.ftl.base
from repro.blockdev.request import IOMode, IORequest
from repro.faults.config import FaultConfig
from repro.ftl.gc import GcPolicy
from repro.ftl.mapping import MappingTable
from repro.ftl.victim import VictimPolicy
from repro.nand.geometry import NandGeometry
from repro.ssd.config import SSDConfig
from repro.ssd.device import SimulatedSSD
from tests.oracles.mapping import DictMappingTable

#: The table class each backend name puts behind every FTL it builds.
BACKENDS = {"flat": MappingTable, "dict": DictMappingTable}

SOAK_STEPS = 1200
POWER_CYCLE_AT = 800  # step index of the mid-soak power loss


def op_stream(seed, num_lbas, steps=SOAK_STEPS):
    """One seeded op list both backends replay verbatim."""
    rng = random.Random(seed)
    t = 0.0
    ops = []
    for _ in range(steps):
        t += rng.uniform(0.002, 0.02)
        roll = rng.random()
        if roll < 0.65:
            length = 1 if rng.random() < 0.7 else rng.randrange(2, 5)
            ops.append(("write", t, rng.randrange(num_lbas - length), length))
        elif roll < 0.85:
            ops.append(("read", t, rng.randrange(num_lbas), 1))
        else:
            ops.append(("trim", t, rng.randrange(num_lbas), 1))
    return ops


@contextmanager
def mapping_backend(backend):
    """Build every FTL (power-cycle rebuilds included) on ``backend``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.ftl.base, "MappingTable", BACKENDS[backend])
        yield


def soak(backend, policy, ops, faults=None):
    with mapping_backend(backend):
        return _soak(policy, ops, faults)


def _soak(policy, ops, faults):
    """Drive one device through the op list; returns its observable state."""
    # Short retention plus a few extra blocks of slack: the soak
    # compresses ~13 simulated seconds of heavy churn onto a 3-MiB
    # device, and the paper's 10 s window would pin nearly every
    # superseded page against GC and run the array out of free blocks.
    config = SSDConfig(
        geometry=NandGeometry(channels=1, ways=1, blocks_per_chip=24,
                              pages_per_block=32),
        op_ratio=0.45,
        gc_policy=GcPolicy(victim_policy=policy),
        retention=1.0,
        faults=faults,
    )
    device = SimulatedSSD(config=config)
    dismissed = 0
    for step, (kind, t, lba, length) in enumerate(ops):
        if step == POWER_CYCLE_AT:
            device.power_cycle()
        if kind == "trim":
            device.trim(lba, now=t)
        else:
            mode = IOMode.WRITE if kind == "write" else IOMode.READ
            device.submit(IORequest(time=t, lba=lba, mode=mode,
                                    length=length))
        if device.read_only:
            dismissed += 1
            device.dismiss_alarm()
    events = [
        (e.slice_index, e.features, e.verdict, e.score, e.alarm)
        for e in device.detector.events
    ]
    stats = device.ftl.stats
    return {
        "mapping": dict(device.ftl.mapping.items()),
        "mapped_count": device.ftl.mapping.mapped_count(),
        "events": events,
        "dismissed": dismissed,
        "queue": [
            (e.lba, e.old_ppa, e.new_ppa, e.timestamp)
            for e in device.ftl.queue
        ],
        "pinned": sorted(device.ftl._pinned_ppas()),
        "stats": (stats.host_writes, stats.host_trims, stats.gc_runs,
                  stats.gc_page_copies, stats.gc_pinned_copies,
                  stats.erases, stats.bad_blocks),
    }


@pytest.mark.parametrize("policy", list(VictimPolicy))
def test_backends_identical_through_soak(policy):
    ops = op_stream(seed=20180706, num_lbas=112)
    flat = soak("flat", policy, ops)
    dict_ = soak("dict", policy, ops)
    assert flat == dict_
    assert flat["stats"][2] > 0, "soak never triggered GC: not a real test"
    assert flat["events"], "soak closed no detector slices"


def test_backends_identical_under_media_faults():
    """Program/erase failures retire blocks mid-GC (relocation retries
    around verify failures) — the backends must still match bit for
    bit."""
    faults = FaultConfig(seed=11, program_fail_rate=0.002,
                         erase_fail_rate=0.01, factory_bad_blocks=1)
    ops = op_stream(seed=42, num_lbas=112)
    flat = soak("flat", VictimPolicy.GREEDY, ops, faults=faults)
    dict_ = soak("dict", VictimPolicy.GREEDY, ops, faults=faults)
    assert flat == dict_
    assert flat["stats"][-1] > 0, (
        "fault soak retired no blocks: not a real test"
    )


def test_power_cycle_rebuilds_each_backend():
    """The rebuilt FTL keeps the swapped-in table class (and the rebuilt
    state still matches across backends — covered above; this pins the
    table class surviving the rebuild)."""
    ops = op_stream(seed=3, num_lbas=112, steps=120)
    for backend, table_class in BACKENDS.items():
        with mapping_backend(backend):
            device = SimulatedSSD(config=SSDConfig.tiny())
            for kind, t, lba, length in ops:
                if kind == "write":
                    device.submit(IORequest(time=t, lba=lba,
                                            mode=IOMode.WRITE,
                                            length=length))
            before = dict(device.ftl.mapping.items())
            device.power_cycle()
            assert type(device.ftl.mapping) is table_class
            assert dict(device.ftl.mapping.items()) == before
