"""Static wear leveling."""

import pytest

from repro.errors import ConfigError
from repro.ftl.conventional import ConventionalFTL
from repro.ftl.insider import InsiderFTL
from repro.ftl.wearlevel import StaticWearLeveler, WearLevelConfig
from repro.nand.array import NandArray
from repro.nand.geometry import NandGeometry


def hot_cold_ftl(wear_leveling=False, blocks=16):
    """An FTL with a cold region (written once) and a hot region."""
    nand = NandArray(NandGeometry(channels=1, ways=1, blocks_per_chip=blocks,
                                  pages_per_block=8))
    ftl = ConventionalFTL(nand, op_ratio=0.45)
    leveler = None
    if wear_leveling:
        leveler = ftl.attach_wear_leveling(
            WearLevelConfig(spread_threshold=4, check_every_erases=2)
        )
    cold = ftl.num_lbas // 2
    for lba in range(ftl.num_lbas):
        ftl.write(lba, 0.0, b"cold" if lba < cold else b"hot")
    return ftl, leveler, cold


def churn_hot(ftl, cold, rounds=40):
    for round_number in range(rounds):
        for lba in range(cold, ftl.num_lbas):
            ftl.write(lba, float(round_number + 1), b"hot%d" % round_number)


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            WearLevelConfig(spread_threshold=0)
        with pytest.raises(ConfigError):
            WearLevelConfig(check_every_erases=0)


class TestLeveling:
    def test_hot_churn_skews_wear_without_leveling(self):
        ftl, _, cold = hot_cold_ftl(wear_leveling=False)
        churn_hot(ftl, cold)
        assert ftl.nand.wear_stats().spread >= 4

    def test_leveler_narrows_the_distribution(self):
        plain, _, cold_a = hot_cold_ftl(wear_leveling=False)
        churn_hot(plain, cold_a)
        leveled, leveler, cold_b = hot_cold_ftl(wear_leveling=True)
        churn_hot(leveled, cold_b)
        assert leveler.migrations > 0
        # Wear concentrates on the hot half without leveling; with it, the
        # erase counts pull toward the mean (std roughly halves here).
        assert (leveled.nand.wear_stats().std_erases
                < 0.8 * plain.nand.wear_stats().std_erases)

    def test_data_intact_after_leveling(self):
        ftl, leveler, cold = hot_cold_ftl(wear_leveling=True)
        churn_hot(ftl, cold, rounds=30)
        assert leveler.migrations > 0
        for lba in range(cold):
            assert ftl.read(lba).payload == b"cold"
        for lba in range(cold, ftl.num_lbas):
            assert ftl.read(lba).payload == b"hot29"

    def test_no_migration_below_threshold(self):
        ftl, _, _ = hot_cold_ftl(wear_leveling=False)
        leveler = StaticWearLeveler(WearLevelConfig(spread_threshold=99))
        assert leveler.maybe_level(ftl) is False
        assert leveler.migrations == 0

    def test_level_once_picks_fully_valid_cold_block(self):
        ftl, _, cold = hot_cold_ftl(wear_leveling=False)
        leveler = StaticWearLeveler()
        assert leveler.level_once(ftl) is True
        # A cold block was erased and returned to the pool; data intact.
        for lba in range(cold):
            assert ftl.read(lba).payload == b"cold"


class TestLevelingWithInsider:
    def test_pinned_old_versions_survive_migration(self):
        nand = NandArray(NandGeometry(channels=1, ways=1, blocks_per_chip=16,
                                      pages_per_block=8))
        ftl = InsiderFTL(nand, op_ratio=0.45, queue_capacity=16)
        for lba in range(ftl.num_lbas):
            ftl.write(lba, 0.0, b"orig%d" % lba)
        # Overwrite a few within the window so old versions are pinned.
        for lba in range(4):
            ftl.write(lba, 1.0, b"new%d" % lba)
        leveler = StaticWearLeveler()
        moved = leveler.level_once(ftl)
        if moved:
            # Rollback must still restore the pinned versions.
            ftl.rollback(now=2.0)
            for lba in range(4):
                assert ftl.read(lba).payload == b"orig%d" % lba
