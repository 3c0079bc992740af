"""The incremental victim index vs the brute-force oracle.

``VictimIndex`` replaces the per-GC full scan of every block (and every
page of every block, for pin counting) with counters maintained at the
events that change them.  Its contract is *bit-identical* victim choice:
for any reachable device state and any policy, ``VictimIndex.select``
must return exactly what the O(blocks × pages) scan in
:func:`tests.oracles.victim.select_victim` returns — same block, same
tie-breaks, same float scores.  These tests enforce that contract with
seeded random interleavings of every event kind the index listens to
(write, invalidate, trim, pin, expiry, capacity eviction, rollback
drain, GC relocation/repin, erase, program-fail retirement), plus the
``audit()`` recount invariant after each burst.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import FtlError
from repro.faults.config import FaultConfig
from repro.faults.injector import FaultInjector
from repro.ftl.conventional import ConventionalFTL
from repro.ftl.gc import GcPolicy
from repro.ftl.insider import InsiderFTL
from repro.ftl.victim import VictimPolicy
from repro.ftl.victim_index import VictimIndex
from repro.nand.array import NandArray
from repro.nand.geometry import NandGeometry
from tests.oracles.victim import select_victim

GEOMETRY = NandGeometry(channels=1, ways=2, blocks_per_chip=16,
                        pages_per_block=8)

ALL_POLICIES = list(VictimPolicy)


def make_insider(policy=VictimPolicy.GREEDY, faults=None, **kwargs):
    nand = NandArray(GEOMETRY, faults=faults)
    kwargs.setdefault("op_ratio", 0.4)
    kwargs.setdefault("retention", 2.0)
    kwargs.setdefault("queue_capacity", 24)
    return InsiderFTL(nand, gc_policy=GcPolicy(victim_policy=policy),
                      **kwargs)


def assert_matches_oracle(ftl, *, policies=ALL_POLICIES):
    """The index and the scan must agree for every policy, right now.

    ``select`` is a pure query, so all three policies can be checked
    against any state regardless of which one the FTL is configured
    with.
    """
    now = ftl._last_timestamp
    for policy in policies:
        got = ftl.victim_index.select(ftl._gc_candidate, policy=policy,
                                      now=now)
        want = select_victim(ftl.nand, ftl._gc_candidate, ftl._is_pinned,
                             policy=policy, now=now)
        assert got == want, (
            f"{policy}: index chose {got}, oracle chose {want}"
        )


def arm_live_checker(ftl):
    """Check every *real* GC selection against the oracle as it happens."""
    index = ftl.victim_index
    real_select = index.select
    checked = {"calls": 0}

    def select(is_candidate, policy, now):
        got = real_select(is_candidate, policy=policy, now=now)
        want = select_victim(ftl.nand, is_candidate, ftl._is_pinned,
                             policy=policy, now=now)
        assert got == want, (
            f"live GC selection diverged: index {got}, oracle {want}"
        )
        checked["calls"] += 1
        return got

    index.select = select
    return checked


class ScheduledProgramFailures(FaultInjector):
    """Fail verify at fixed points in the program stream.

    Deterministic and sparse: each failure retires one block, and a small
    device cannot afford to lose more than a few.
    """

    def __init__(self, fail_at=(400, 1100, 1900)):
        super().__init__(FaultConfig())
        self._fail_at = set(fail_at)
        self._count = 0

    def on_program(self, global_block):
        self._count += 1
        return self._count in self._fail_at


def run_soak(ftl, rng, steps, *, check_every=101):
    """Random interleaving of every event the index must track."""
    checked = arm_live_checker(ftl)
    t = 0.0
    for step in range(steps):
        t = max(t + rng.uniform(0.001, 0.05), ftl._last_timestamp)
        op = rng.random()
        lba = rng.randrange(ftl.num_lbas)
        if op < 0.72:
            # Zipf-ish hot set so some blocks go dense-invalid.
            if rng.random() < 0.5:
                lba = lba % max(1, ftl.num_lbas // 4)
            ftl.write(lba, t, payload=b"p%d" % step)
        elif op < 0.84:
            try:
                ftl.trim(lba, t)
            except FtlError:
                pass
        elif op < 0.96:
            try:
                ftl.read(lba, t)
            except FtlError:
                pass
        elif isinstance(ftl, InsiderFTL):
            if rng.random() < 0.5:
                ftl.rollback(t)
            else:
                half = ftl.num_lbas // 2
                ftl.rollback(t, lba_range=(0, half))
        if step % check_every == 0:
            ftl.audit_victim_index()
            if isinstance(ftl, InsiderFTL):
                ftl.queue.audit()
            assert_matches_oracle(ftl)
    ftl.audit_victim_index()
    assert_matches_oracle(ftl)
    return checked


class TestOracleEquivalenceSoak:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_insider_soak_matches_oracle(self, policy):
        """~10k ops of writes/trims/expiry/evictions/rollbacks per policy.

        The small queue capacity forces steady capacity evictions, the
        2 s retention forces expiries, and the rollback mix exercises
        both full drains and selective (predicate) drains.
        """
        rng = random.Random(hash(policy.value) & 0xFFFF)
        ftl = make_insider(policy)
        checked = run_soak(ftl, rng, steps=3500)
        assert checked["calls"] > 0, "GC never ran; soak is inert"
        assert ftl.stats.gc_runs > 0

    def test_conventional_soak_matches_oracle(self):
        """No pins at all: the index degenerates to invalid-count buckets."""
        nand = NandArray(GEOMETRY)
        ftl = ConventionalFTL(nand, op_ratio=0.4)
        rng = random.Random(7)
        checked = run_soak(ftl, rng, steps=3500)
        assert checked["calls"] > 0

    def test_soak_with_program_failures_and_retirement(self):
        """Retired blocks must leave the index permanently.

        Scheduled program-fail injections force real retirements
        mid-soak; the oracle (which consults the allocator's candidate
        filter) and the index must keep agreeing through each one.
        """
        ftl = make_insider(VictimPolicy.GREEDY,
                           faults=ScheduledProgramFailures())
        rng = random.Random(11)
        run_soak(ftl, rng, steps=3000, check_every=67)
        assert ftl.stats.bad_blocks > 0, (
            "no retirement happened; raise the injection rate"
        )
        retired = [b for b in range(ftl.nand.num_blocks)
                   if ftl.allocator.is_retired(b)]
        for block in retired:
            assert ftl.victim_index.pinned_in(block) == 0


class TestIndexMaintenance:
    def test_rebuild_after_power_loss_matches_oracle(self):
        ftl = make_insider(VictimPolicy.COST_BENEFIT)
        rng = random.Random(5)
        run_soak(ftl, rng, steps=1200, check_every=211)
        rebuilt = InsiderFTL.rebuild(ftl.nand, op_ratio=0.4,
                                     gc_policy=ftl.gc_policy,
                                     retention=2.0, queue_capacity=24)
        rebuilt.audit_victim_index()
        assert_matches_oracle(rebuilt)

    def test_unpin_without_pin_rejected(self):
        index = VictimIndex(NandArray(GEOMETRY))
        with pytest.raises(FtlError):
            index.unpin(0)

    def test_audit_catches_pin_drift(self):
        ftl = make_insider()
        for lba in range(ftl.num_lbas):
            ftl.write(lba, 1.0, payload=b"x")
        for lba in range(8):
            ftl.write(lba, 1.5, payload=b"y")
        assert ftl.queue.pinned_count > 0
        ftl.audit_victim_index()
        victim = next(iter(ftl.queue._pinned)) // GEOMETRY.pages_per_block
        ftl.victim_index._pinned[victim] += 1
        with pytest.raises(FtlError):
            ftl.audit_victim_index()

    def test_audit_catches_bucket_drift(self):
        # Conventional FTL: no pins, so overwrites leave blocks with
        # reclaimable pages — i.e. blocks actually filed in buckets.
        ftl = ConventionalFTL(NandArray(GEOMETRY), op_ratio=0.4)
        for lba in range(ftl.num_lbas):
            ftl.write(lba, 1.0, payload=b"x")
        for lba in range(8):
            ftl.write(lba, 1.5, payload=b"y")
        index = ftl.victim_index
        ftl.audit_victim_index()  # flush deferred re-files, then corrupt
        filed = next(b for b in range(ftl.nand.num_blocks)
                     if index._bucket_of[b] >= 0)
        bucket = index._bucket_of[filed]
        index._buckets[bucket].discard(filed)
        target = bucket + 1 if bucket + 1 < len(index._buckets) else bucket - 1
        index._buckets[target].add(filed)
        index._bucket_of[filed] = target
        with pytest.raises(FtlError):
            ftl.audit_victim_index()

    def test_retired_block_never_selected(self):
        ftl = ConventionalFTL(NandArray(GEOMETRY), op_ratio=0.4)
        for lba in range(ftl.num_lbas):
            ftl.write(lba, 1.0, payload=b"x")
        for lba in range(8):
            ftl.write(lba, 1.1, payload=b"y")
        victim = ftl.victim_index.select(ftl._gc_candidate,
                                         policy=VictimPolicy.GREEDY,
                                         now=ftl._last_timestamp)
        assert victim is not None
        ftl._retire_block(victim)
        ftl.audit_victim_index()
        assert_matches_oracle(ftl)
        again = ftl.victim_index.select(ftl._gc_candidate,
                                        policy=VictimPolicy.GREEDY,
                                        now=ftl._last_timestamp)
        assert again != victim


class TestGcPolicyRoundTrip:
    """``GcPolicy(**policy.as_dict())`` must reconstruct the policy.

    ``as_dict`` renders the enum as its string value (for JSON report
    contexts); feeding that dict back through the constructor used to
    leave a bare string in ``victim_policy``, which then failed the
    ``is VictimPolicy.GREEDY`` identity checks in selection.
    """

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_round_trips_every_policy(self, policy):
        original = GcPolicy(victim_policy=policy)
        restored = GcPolicy(**original.as_dict())
        assert restored == original
        assert isinstance(restored.victim_policy, VictimPolicy)

    def test_default_fills_greedy(self):
        assert GcPolicy().victim_policy is VictimPolicy.GREEDY
        assert GcPolicy(victim_policy=None).victim_policy is VictimPolicy.GREEDY

    def test_unknown_string_rejected(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError, match="unknown victim_policy"):
            GcPolicy(victim_policy="fastest")


class TestDeviceGoldenEquivalence:
    """Whole-device gate: the index must be invisible end to end.

    The golden attack scenario is replayed through two identical devices
    — one selecting victims through the incremental index, one
    monkeypatched to run the brute-force scan — and the DetectionEvent
    streams plus the GC accounting must match bit for bit.
    """

    DURATION = 15.0

    def replay(self, policy, use_oracle):
        from repro.blockdev.request import IORequest
        from repro.ssd.config import SSDConfig
        from repro.ssd.device import SimulatedSSD
        from repro.tools.bench import GOLDEN_SEED
        from repro.tools.profile import golden_scenario

        run = golden_scenario(duration=self.DURATION).build(seed=GOLDEN_SEED)
        device = SimulatedSSD(
            SSDConfig.small(gc_policy=GcPolicy(victim_policy=policy)))
        ftl = device.ftl
        if use_oracle:
            def oracle(is_candidate, policy, now):
                return select_victim(ftl.nand, is_candidate, ftl._is_pinned,
                                     policy=policy, now=now)
            ftl.victim_index.select = oracle
        num_lbas = device.num_lbas
        for request in run.trace:
            lba = request.lba % max(1, num_lbas - request.length)
            device.submit(IORequest(time=request.time, lba=lba,
                                    mode=request.mode, length=request.length,
                                    source=request.source))
            if device.read_only:
                device.dismiss_alarm()
        device.tick(self.DURATION)
        return device

    @pytest.mark.parametrize("policy",
                             [VictimPolicy.GREEDY, VictimPolicy.COST_BENEFIT])
    def test_detection_stream_bit_identical(self, policy):
        indexed = self.replay(policy, use_oracle=False)
        oracle = self.replay(policy, use_oracle=True)
        assert indexed.ftl.stats.gc_runs > 0, "golden replay must run GC"
        fast_events = indexed.detector.events
        ref_events = oracle.detector.events
        assert len(fast_events) == len(ref_events)
        for ours, ref in zip(fast_events, ref_events):
            assert ours.slice_index == ref.slice_index
            assert ours.time == ref.time
            assert ours.features == ref.features
            assert ours.verdict == ref.verdict
            assert ours.score == ref.score
            assert ours.alarm == ref.alarm
        for field in ("host_writes", "gc_runs", "gc_page_copies",
                      "gc_pinned_copies", "erases"):
            assert (getattr(indexed.ftl.stats, field)
                    == getattr(oracle.ftl.stats, field)), field
        indexed.ftl.audit_victim_index()
