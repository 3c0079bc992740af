"""Recovery queue vs GC and retirement: pins must survive relocation.

The paper's guarantee depends on one invariant chain: an old version
pinned by the recovery queue may be *moved* (GC relocation, block
retirement) but never *dropped* until its entry expires — and every move
must update the pin index (``repin``) so rollback still finds the bytes.
These are the regression tests for that chain.

Getting GC to actually relocate a pinned page takes a staged timeline:
greedy selection skips blocks with nothing reclaimable, so a victim block
must mix *expired* (reclaimable) invalids with still-pinned ones.  The
fixture stripes block 0 that way: half its pages invalidated by
overwrites a window ago (entries expired), half by the "attack" just now
(entries pinned).
"""

import pytest

from repro.ftl.insider import InsiderFTL
from repro.nand.array import NandArray
from repro.nand.geometry import NandGeometry
from tests.oracles.victim import block_ppas


PAGES_PER_BLOCK = 8
ATTACK_TIME = 50.0


def make_ftl(blocks=16, retention=10.0, capacity=1000) -> InsiderFTL:
    nand = NandArray(NandGeometry(channels=1, ways=1, blocks_per_chip=blocks,
                                  pages_per_block=PAGES_PER_BLOCK))
    return InsiderFTL(nand, op_ratio=0.45, retention=retention,
                      queue_capacity=capacity)


def stage_attack(ftl):
    """Build the mixed-block state: v1 corpus, stale overwrites of LBAs
    0-3 a window before the attack, attack overwrites of LBAs 4-7.

    Returns the expected post-rollback contents: LBAs 4-7 restored to v1,
    everything else at its latest write.
    """
    contents = {}
    for lba in range(ftl.num_lbas):
        payload = b"v1-%d" % lba
        ftl.write(lba, 1.0, payload=payload)
        contents[lba] = payload
    for lba in range(4):
        payload = b"stale-%d" % lba
        ftl.write(lba, 20.0, payload=payload)
        contents[lba] = payload
    for lba in range(4, 8):
        # Victim overwrites; rollback must bring v1 back, so `contents`
        # keeps the v1 payloads for these.
        ftl.write(lba, ATTACK_TIME, payload=b"ransom-%d" % lba)
    return contents


def victim_pins(ftl):
    return {entry.old_ppa for entry in ftl.queue
            if entry.old_ppa is not None}


def churn_until_pins_move(ftl, max_writes=40):
    """Overwrite non-victim LBAs until GC has relocated a pinned page.

    One write at a time with an early exit: every in-window overwrite
    pins another old page, so unbounded churn would pin the device solid.
    The churn writes land inside the window too, so rollback undoes them
    as well — expected contents stay at the pre-churn versions.
    """
    free_lbas = list(range(8, ftl.num_lbas))
    before = ftl.stats.gc_pinned_copies
    for step in range(max_writes):
        lba = free_lbas[step % len(free_lbas)]
        ftl.write(lba, ATTACK_TIME + 0.001 * (step + 1),
                  payload=b"churn-%d" % step)
        if ftl.stats.gc_pinned_copies > before:
            return
    raise AssertionError("GC never relocated a pinned page; test is inert")


def assert_restored(ftl, contents):
    report = ftl.rollback(now=ATTACK_TIME + 1.0)
    assert report.lbas_restored >= 4
    for lba, payload in contents.items():
        assert ftl.read(lba).payload == payload, f"LBA {lba} corrupt"


class TestRollbackAfterGcRelocation:
    def test_rollback_restores_after_pins_moved(self):
        ftl = make_ftl()
        contents = stage_attack(ftl)
        pins_before = victim_pins(ftl)
        churn_until_pins_move(ftl)
        assert victim_pins(ftl) != pins_before, "pins must have been moved"
        ftl.queue.audit()
        ftl.audit_victim_index()
        assert_restored(ftl, contents)

    def test_audit_passes_throughout_churn(self):
        ftl = make_ftl()
        contents = stage_attack(ftl)
        free_lbas = list(range(8, ftl.num_lbas))
        for step in range(40):
            ftl.write(free_lbas[step % len(free_lbas)],
                      ATTACK_TIME + 0.001 * (step + 1), payload=b"x")
            ftl.queue.audit()  # must hold after every write and GC round
            ftl.audit_victim_index()


class TestRetirementDuringPinnedChurn:
    def test_stats_and_pins_consistent_across_retirement(self):
        ftl = make_ftl()
        contents = stage_attack(ftl)
        pinned_before = ftl.queue.pinned_count
        evictions_before = ftl.queue.evictions
        # Retire every block holding a pinned page — including blocks the
        # relocation itself just moved pins into (the loop revisits them),
        # so pins get bounced through several generations of homes.
        bounced = 0
        for block in range(ftl.nand.num_blocks):
            if any(ftl.queue.is_pinned(ppa)
                   for ppa in block_ppas(ftl.nand, block)):
                ftl._retire_block(block)
                bounced += 1
                if bounced == 3:
                    break
        assert bounced >= 1
        ftl.queue.audit()
        ftl.audit_victim_index()
        # Retirement relocates pins; it must not create or destroy them,
        # and it must never count as a capacity eviction.
        assert ftl.queue.pinned_count == pinned_before
        assert ftl.queue.evictions == evictions_before
        assert_restored(ftl, contents)

    def test_gc_then_retirement_then_rollback(self):
        """The full gauntlet: pins moved by GC, then their new home
        retired, then rollback — bytes still come back bit-exact."""
        ftl = make_ftl()
        contents = stage_attack(ftl)
        churn_until_pins_move(ftl)
        pinned_blocks = {
            ppa // PAGES_PER_BLOCK for ppa in victim_pins(ftl)
        }
        ftl._retire_block(next(iter(sorted(pinned_blocks))))
        ftl.queue.audit()
        ftl.audit_victim_index()
        assert_restored(ftl, contents)
