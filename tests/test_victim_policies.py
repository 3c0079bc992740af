"""GC victim-selection policies and wear accounting."""

import pytest

from repro.ftl.conventional import ConventionalFTL
from repro.ftl.gc import GcPolicy
from repro.ftl.victim import VictimPolicy
from repro.nand.array import NandArray
from repro.nand.geometry import NandGeometry
from tests.oracles.victim import select_victim


def array_with_blocks() -> NandArray:
    """Three full blocks: 0 mostly invalid, 1 half, 2 all valid."""
    nand = NandArray(NandGeometry(channels=1, ways=1, blocks_per_chip=4,
                                  pages_per_block=4))
    for block in range(3):
        for page in range(4):
            nand.program(block, lba=block * 4 + page, timestamp=float(block))
    for ppa in [0, 1, 2]:          # block 0: 3 invalid
        nand.invalidate(ppa)
    for ppa in [4, 5]:             # block 1: 2 invalid
        nand.invalidate(ppa)
    return nand


def never_pinned(ppa: int) -> bool:
    return False


def always_candidate(block: int) -> bool:
    return True


class TestGreedy:
    def test_picks_most_invalid(self):
        nand = array_with_blocks()
        victim = select_victim(nand, always_candidate, never_pinned,
                               VictimPolicy.GREEDY)
        assert victim == 0

    def test_ignores_open_blocks(self):
        nand = array_with_blocks()
        nand.program(3, lba=99, timestamp=0.0)  # block 3 not full
        nand.invalidate(3 * 4)
        victim = select_victim(nand, always_candidate, never_pinned,
                               VictimPolicy.GREEDY)
        assert victim == 0

    def test_none_when_nothing_reclaimable(self):
        nand = NandArray(NandGeometry(channels=1, ways=1, blocks_per_chip=2,
                                      pages_per_block=2))
        for page in range(2):
            nand.program(0, lba=page, timestamp=0.0)
        assert select_victim(nand, always_candidate, never_pinned,
                             VictimPolicy.GREEDY) is None

    def test_pins_reduce_reclaimable(self):
        nand = array_with_blocks()
        pinned = {0, 1, 2}  # all of block 0's invalid pages are pinned
        victim = select_victim(nand, always_candidate,
                               lambda ppa: ppa in pinned,
                               VictimPolicy.GREEDY)
        assert victim == 1  # block 0 reclaims nothing now

    def test_candidate_filter_respected(self):
        nand = array_with_blocks()
        victim = select_victim(nand, lambda b: b != 0, never_pinned,
                               VictimPolicy.GREEDY)
        assert victim == 1


class TestCostBenefit:
    def test_prefers_old_block_among_comparable(self):
        nand = NandArray(NandGeometry(channels=1, ways=1, blocks_per_chip=4,
                                      pages_per_block=4))
        # Block 0: old (t=0), 2 invalid.  Block 1: new (t=100), 2 invalid.
        for block, stamp in ((0, 0.0), (1, 100.0)):
            for page in range(4):
                nand.program(block, lba=block * 4 + page, timestamp=stamp)
            nand.invalidate(block * 4)
            nand.invalidate(block * 4 + 1)
        victim = select_victim(nand, always_candidate, never_pinned,
                               VictimPolicy.COST_BENEFIT, now=200.0)
        assert victim == 0

    def test_fully_invalid_block_always_wins(self):
        nand = array_with_blocks()
        nand.invalidate(3)  # block 0 now fully invalid
        victim = select_victim(nand, always_candidate, never_pinned,
                               VictimPolicy.COST_BENEFIT, now=10.0)
        assert victim == 0


class TestWearAware:
    def test_prefers_less_worn_on_tie(self):
        nand = NandArray(NandGeometry(channels=1, ways=1, blocks_per_chip=4,
                                      pages_per_block=4))
        # Wear block 0 heavily first.
        for _ in range(5):
            ppa = nand.program(0, lba=1, timestamp=0.0)
            nand.invalidate(ppa)
            for page in range(1, 4):
                p = nand.program(0, lba=page, timestamp=0.0)
                nand.invalidate(p)
            nand.erase(0)
        # Now both blocks are full with equal invalid counts.
        for block in (0, 1):
            for page in range(4):
                nand.program(block, lba=10 * block + page, timestamp=0.0)
            nand.invalidate(block * 4 + 0)
            nand.invalidate(block * 4 + 1)
        victim = select_victim(nand, always_candidate, never_pinned,
                               VictimPolicy.WEAR_AWARE)
        assert victim == 1  # the un-worn block


class TestWearStats:
    def test_even_wear_has_zero_spread(self, tiny_nand):
        stats = tiny_nand.wear_stats()
        assert stats.spread == 0
        assert stats.mean_erases == 0.0

    def test_spread_counts_difference(self):
        nand = NandArray(NandGeometry(channels=1, ways=1, blocks_per_chip=2,
                                      pages_per_block=2))
        ppa = nand.program(0, lba=0, timestamp=0.0)
        nand.invalidate(ppa)
        nand.erase(0)
        stats = nand.wear_stats()
        assert stats.max_erases == 1 and stats.min_erases == 0
        assert stats.spread == 1
        assert stats.std_erases > 0


class TestPolicyThroughFtl:
    @pytest.mark.parametrize("policy", list(VictimPolicy))
    def test_ftl_sustains_churn_under_every_policy(self, policy):
        nand = NandArray(NandGeometry(channels=1, ways=1, blocks_per_chip=12,
                                      pages_per_block=8))
        ftl = ConventionalFTL(nand, op_ratio=0.45,
                              gc_policy=GcPolicy(victim_policy=policy))
        for round_number in range(6):
            for lba in range(ftl.num_lbas):
                ftl.write(lba, float(round_number),
                          payload=b"%d" % round_number)
        for lba in range(ftl.num_lbas):
            assert ftl.read(lba).payload == b"5"
