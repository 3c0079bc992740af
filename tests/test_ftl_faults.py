"""FTL fault handling: program-fail remap, block retirement, map-out."""

import pytest

from repro.errors import ExhaustedRetriesError
from repro.faults.config import FaultConfig
from repro.faults.injector import FaultInjector
from repro.ftl.conventional import ConventionalFTL
from repro.ftl.insider import InsiderFTL
from repro.nand.array import NandArray
from repro.nand.block import PageState
from repro.nand.geometry import NandGeometry
from tests.oracles.victim import block_ppas


GEOMETRY = NandGeometry(channels=1, ways=1, blocks_per_chip=12,
                        pages_per_block=8)


def make_ftl(config=None, insider=False, **kwargs):
    faults = FaultInjector(config) if config is not None else None
    nand = NandArray(GEOMETRY, faults=faults)
    cls = InsiderFTL if insider else ConventionalFTL
    return cls(nand, op_ratio=0.45, **kwargs)


class ScriptedInjector(FaultInjector):
    """Test double: answer program verifies from a script (True fails
    one), then pass."""

    def __init__(self, outcomes):
        super().__init__(FaultConfig())
        self.outcomes = list(outcomes)

    def on_program(self, global_block):
        return self.outcomes.pop(0) if self.outcomes else False


def ftl_with_scripted_programs(fail_programs, insider=False, **kwargs):
    nand = NandArray(GEOMETRY)
    nand.faults = ScriptedInjector([True] * fail_programs)
    cls = InsiderFTL if insider else ConventionalFTL
    return cls(nand, op_ratio=0.45, **kwargs)


class TestProgramFailRemap:
    def test_write_survives_one_verify_failure(self):
        ftl = ftl_with_scripted_programs(1)
        ppa = ftl.write(3, 1.0, payload=b"hello")
        assert ftl.read(3).payload == b"hello"
        assert ftl.stats.program_fails == 1
        assert ftl.stats.bad_blocks == 1
        # The burned page's block is gone from circulation.
        failed_block = None
        for block in range(ftl.nand.num_blocks):
            if ftl.nand.block(block).is_bad:
                failed_block = block
        assert failed_block is not None
        assert ftl.nand.geometry.block_of(ppa) != failed_block

    def test_retirement_relocates_valid_neighbours(self):
        """Pages already living in the failing block move out intact."""
        ftl = ftl_with_scripted_programs(0)
        first = ftl.write(0, 1.0, payload=b"keep-me")
        victim_block = first // GEOMETRY.pages_per_block
        # Arm the injector now: the next write lands in the same active
        # block and fails verify, forcing that block's retirement.
        ftl.nand.faults = ScriptedInjector([True])
        ftl.write(1, 2.0, payload=b"trigger")
        assert ftl.nand.block(victim_block).is_bad
        assert ftl.read(0).payload == b"keep-me"
        assert ftl.read(1).payload == b"trigger"
        assert ftl.stats.retirement_copies >= 1

    def test_every_block_failing_degrades_gracefully(self):
        ftl = make_ftl(FaultConfig(program_fail_rate=1.0))
        with pytest.raises(ExhaustedRetriesError):
            ftl.write(0, 1.0, payload=b"doomed")
        assert ftl.stats.program_fails == ftl.MAX_PROGRAM_ATTEMPTS

    def test_mapping_untouched_when_write_fails(self):
        ftl = ftl_with_scripted_programs(0)
        ftl.write(5, 1.0, payload=b"old")
        ftl.nand.faults = ScriptedInjector([True] * 10_000)
        with pytest.raises(ExhaustedRetriesError):
            ftl.write(5, 2.0, payload=b"new")
        ftl.nand.faults = None
        assert ftl.read(5).payload == b"old"


class TestInsiderRetirement:
    def test_pinned_old_versions_survive_retirement(self):
        """Retiring a block holding a recovery-pinned old version must
        keep the rollback path intact."""
        ftl = ftl_with_scripted_programs(0, insider=True, retention=10.0)
        old = ftl.write(1, 1.0, payload=b"original")
        # The overwrite happens a full window later, so the first-write
        # entry has expired and rollback stops at the original version.
        ftl.write(1, 50.0, payload=b"encrypted")
        assert ftl.queue.is_pinned(old)
        victim_block = old // GEOMETRY.pages_per_block
        ftl._retire_block(victim_block)
        ftl.queue.audit()
        ftl.audit_victim_index()
        assert ftl.nand.block(victim_block).is_bad
        report = ftl.rollback(now=51.0)
        assert report.lbas_restored >= 1
        assert ftl.read(1).payload == b"original"

    def test_queue_audit_consistent_after_many_retirements(self):
        ftl = ftl_with_scripted_programs(0, insider=True, retention=10.0,
                                         queue_capacity=1000)
        for lba in range(ftl.num_lbas):
            ftl.write(lba, 1.0, payload=b"v1-%d" % lba)
        # A window later the v1 first-write entries have expired; only the
        # v2 overwrites are rollback targets.  Only a subset is attacked:
        # pinned old versions occupy physical pages, and a device where
        # *every* page is pinned has nothing left for GC to reclaim.
        attacked = ftl.num_lbas // 4
        for lba in range(attacked):
            ftl.write(lba, 50.0, payload=b"v2-%d" % lba)
        # Retire two blocks that hold pinned pages.
        retired = 0
        for block in range(ftl.nand.num_blocks):
            ppas = block_ppas(ftl.nand, block)
            if any(ftl.queue.is_pinned(ppa) for ppa in ppas):
                ftl._retire_block(block)
                retired += 1
                if retired == 2:
                    break
        assert retired == 2
        ftl.queue.audit()
        ftl.audit_victim_index()
        report = ftl.rollback(now=51.0)
        assert report.lbas_restored == attacked
        for lba in range(ftl.num_lbas):
            assert ftl.read(lba).payload == b"v1-%d" % lba

    def test_retire_is_idempotent(self):
        ftl = ftl_with_scripted_programs(0, insider=True)
        ftl.write(0, 1.0, payload=b"x")
        block = 0
        ftl._retire_block(block)
        bad_before = ftl.stats.bad_blocks
        ftl._retire_block(block)
        assert ftl.stats.bad_blocks == bad_before
        ftl.audit_victim_index()


class TestRelocationRetries:
    def test_attempts_restart_after_landed_copies(self):
        """One GC relocation under scripted verify failures: a failure
        with nothing landed counts toward the page's limit, a failure
        after copies landed restarts the count at one, and the fourth
        consecutive failure of one page raises with every landed copy
        committed."""
        ftl = ftl_with_scripted_programs(0, insider=True, retention=10.0)
        ftl.write(0, 1.0, payload=b"lba0-v1")
        ftl.write(1, 1.0, payload=b"lba1")
        ftl.write(0, 2.0, payload=b"lba0-v2")
        for lba in range(2, 7):
            ftl.write(lba, 2.0, payload=b"lba%d" % lba)
        victim = 0
        assert ftl.nand.block(victim).is_full
        # Survivors in PPA order: lba0-v1 (pinned), lba1, lba0-v2, ...
        assert ftl.queue.is_pinned(0)
        fail, land = True, False
        injector = ScriptedInjector([
            fail,              # survivor 0 in G1, nothing landed: 1
            fail,              # survivor 0 in G2: 2
            land, land, fail,  # survivors 0-1 land in G3, 2 fails: 1
            land, land,        # retiring G3 moves both copies to G4
            fail, land, land,  # survivor 2 in G4: 2; copies to G5
            fail, land, land,  # in G5: 3; copies to G6
            fail, land, land,  # in G6: 4; copies to G7, then give up
        ])
        ftl.nand.faults = injector
        with pytest.raises(ExhaustedRetriesError):
            ftl._relocate_and_erase(victim)
        assert not injector.outcomes
        assert ftl.stats.program_fails == 6
        assert ftl.stats.bad_blocks == 6
        assert ftl.stats.retirement_copies == 4 * 2
        victim_ppas = block_ppas(ftl.nand, victim)
        # The landed copies are committed: the live one is mapped, the
        # old version's pin followed it.
        assert ftl.mapping.lookup(1) not in victim_ppas
        assert ftl.read(1).payload == b"lba1"
        pins = [ppa for ppa in range(GEOMETRY.pages_total)
                if ftl.queue.is_pinned(ppa)]
        assert len(pins) == 1 and pins[0] not in victim_ppas
        assert ftl.nand.page(pins[0]).payload == b"lba0-v1"
        # The rest never left the victim, which was not erased.
        assert not ftl.nand.block(victim).is_bad
        assert ftl.mapping.lookup(0) in victim_ppas
        assert ftl.read(0).payload == b"lba0-v2"
        for lba in range(2, 7):
            assert ftl.mapping.lookup(lba) in victim_ppas
            assert ftl.read(lba).payload == b"lba%d" % lba
        ftl.audit_victim_index()
        ftl.queue.audit()


class TestFactoryMapOut:
    def test_factory_bad_blocks_never_allocated(self):
        config = FaultConfig(seed=9, factory_bad_blocks=3)
        ftl = make_ftl(config)
        bad = [b for b in range(ftl.nand.num_blocks)
               if ftl.nand.block(b).is_bad]
        assert len(bad) == 3
        assert ftl.allocator.retired_blocks == 3
        for round_number in range(3):
            for lba in range(ftl.num_lbas):
                ftl.write(lba, float(round_number), payload=b"data")
        for block in bad:
            assert all(
                ftl.nand.page_state(ppa) is PageState.FREE
                for ppa in block_ppas(ftl.nand, block)
            )
