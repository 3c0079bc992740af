"""NAND-level fault surface: ECC retry loop, burned pages, erase wear-out."""

import pytest

from repro.errors import (
    ConfigError,
    EraseError,
    ProgramError,
    ProgramFailError,
    UncorrectableReadError,
)
from repro.faults.config import FaultConfig
from repro.faults.injector import FaultInjector, ReadFault
from repro.nand.array import NandArray
from repro.nand.block import PageState
from repro.nand.ecc import EccConfig
from repro.nand.geometry import NandGeometry
from repro.nand.latency import NandLatencies


GEOMETRY = NandGeometry(channels=1, ways=1, blocks_per_chip=8,
                        pages_per_block=8)


def make_array(config=None, ecc=None):
    faults = FaultInjector(config) if config is not None else None
    return NandArray(GEOMETRY, faults=faults, ecc=ecc)


class ScriptedInjector(FaultInjector):
    """Deterministic test double: returns a queued fault per read."""

    def __init__(self, read_faults):
        super().__init__(FaultConfig())
        self._queue = list(read_faults)

    def on_read(self, ppa):
        if self._queue:
            return self._queue.pop(0)
        return None


def scripted_array(read_faults, ecc=None):
    array = NandArray(GEOMETRY, ecc=ecc)
    array.faults = ScriptedInjector(read_faults)
    return array


class TestEccConfig:
    def test_rejects_negative_budget(self):
        with pytest.raises(ConfigError):
            EccConfig(max_read_retries=-1)

    def test_rejects_sub_unity_backoff(self):
        with pytest.raises(ConfigError):
            EccConfig(retry_backoff=0.5)

    def test_retry_latency_grows_with_attempt(self):
        latencies = NandLatencies()
        first = latencies.read_retry(1, backoff=2.0)
        third = latencies.read_retry(3, backoff=2.0)
        assert first == latencies.page_read
        assert third == latencies.page_read * 4.0
        with pytest.raises(ConfigError):
            latencies.read_retry(0)


class TestReadRetryLoop:
    def test_inline_correctable_costs_nothing_extra(self):
        array = scripted_array([ReadFault(ppa=0, retries_needed=0)])
        array.program(0, lba=1, timestamp=0.0, payload=b"x")
        reads_before = array.chip(0).counters.reads
        array.read(0)
        assert array.chip(0).counters.reads == reads_before + 1
        assert array.reliability.corrected_reads == 1
        assert array.reliability.read_retries == 0

    def test_transient_within_budget_recovers_after_retries(self):
        array = scripted_array([ReadFault(ppa=0, retries_needed=2)])
        array.program(0, lba=1, timestamp=0.0, payload=b"x")
        busy_before = array.busy_time
        reads_before = array.chip(0).counters.reads
        array.read(0)
        assert array.page(0).lba == 1
        # The original read plus two real retry reads (chip reads and
        # latency both accrue on retries).
        assert array.chip(0).counters.reads == reads_before + 3
        assert array.reliability.read_retries == 2
        assert array.reliability.corrected_reads == 1
        assert array.reliability.uncorrectable_reads == 0
        assert array.busy_time > busy_before + 2 * array.latencies.page_read

    def test_transient_beyond_budget_is_uncorrectable(self):
        ecc = EccConfig(max_read_retries=2)
        array = scripted_array([ReadFault(ppa=0, retries_needed=5)], ecc=ecc)
        array.program(0, lba=1, timestamp=0.0, payload=b"x")
        with pytest.raises(UncorrectableReadError) as excinfo:
            array.read(0)
        assert excinfo.value.retries == 2  # stopped at the budget
        assert array.reliability.uncorrectable_reads == 1

    def test_hard_fault_burns_whole_budget_then_raises(self):
        ecc = EccConfig(max_read_retries=3)
        array = scripted_array([ReadFault(ppa=0, hard=True)], ecc=ecc)
        array.program(0, lba=1, timestamp=0.0, payload=b"x")
        with pytest.raises(UncorrectableReadError) as excinfo:
            array.read(0)
        assert excinfo.value.ppa == 0
        assert array.reliability.read_retries == 3
        assert array.reliability.uncorrectable_reads == 1

    def test_no_injector_is_the_fast_path(self):
        array = make_array()
        array.program(0, lba=1, timestamp=0.0, payload=b"x")
        array.read(0)
        assert array.reliability.corrected_reads == 0
        assert array.reliability.read_retries == 0


class TestProgramFail:
    def test_burns_page_and_raises_with_ppa(self):
        array = make_array(FaultConfig(program_fail_rate=1.0))
        with pytest.raises(ProgramFailError) as excinfo:
            array.program(2, lba=7, timestamp=1.0, payload=b"x")
        ppa = excinfo.value.ppa
        assert array.geometry.block_of(ppa) == 2
        # The page is consumed but holds nothing readable.
        assert array.page_state(ppa) is PageState.INVALID
        page = array.page(ppa)
        assert page.lba is None and page.payload is None
        assert array.reliability.program_fails == 1
        assert array.chip(0).counters.program_fails == 1

    def test_next_program_lands_on_next_page(self):
        """A burned page must not be handed out again."""
        config = FaultConfig(program_fail_rate=1.0)
        array = make_array(config)
        with pytest.raises(ProgramFailError) as first:
            array.program(2, lba=7, timestamp=1.0)
        # Heal the injector so the follow-up program succeeds.
        array.faults = None
        ppa = array.program(2, lba=8, timestamp=1.0)
        assert ppa == first.value.ppa + 1


class TestEraseFail:
    def test_marks_block_bad_and_counts(self):
        array = make_array(FaultConfig(erase_fail_rate=1.0))
        with pytest.raises(EraseError):
            array.erase(3)
        assert array.block(3).is_bad
        assert array.reliability.erase_fails == 1
        assert array.chip(0).counters.erase_fails == 1

    def test_natural_wear_out_counts_in_same_ledger(self):
        array = make_array()
        array.block(5).fail_next_erase = True
        with pytest.raises(EraseError):
            array.erase(5)
        assert array.reliability.erase_fails == 1


class TestEraseMisuse:
    """Erasing a block with valid pages, or a bad one, is an FTL bug: it
    is refused before the chip is touched, never booked as wear-out."""

    def test_valid_pages_refused_without_booking_a_failure(self):
        array = NandArray()
        array.program(0, lba=0, timestamp=0.0)
        with pytest.raises(EraseError):
            array.erase(0)
        assert array.reliability.erase_fails == 0
        assert array.chip(0).counters.erase_fails == 0
        assert array.busy_breakdown.block_erase == 0.0
        assert array.busy_time == array.latencies.page_program
        assert not array.block(0).is_bad

    def test_misuse_draws_no_fault_and_keeps_the_block(self):
        array = make_array(FaultConfig(erase_fail_rate=1.0))
        array.program(0, lba=0, timestamp=0.0)
        with pytest.raises(EraseError):
            array.erase(0)
        assert array.faults.stats.erase_fails == 0
        assert array.reliability.erase_fails == 0
        assert not array.block(0).is_bad
        assert array.page_state(0) is PageState.VALID

    def test_bad_block_refused_without_booking_a_failure(self):
        array = make_array(FaultConfig(erase_fail_rate=1.0))
        array.block(3).is_bad = True
        with pytest.raises(EraseError):
            array.erase(3)
        assert array.faults.stats.erase_fails == 0
        assert array.reliability.erase_fails == 0
        assert array.busy_breakdown.block_erase == 0.0


class TestFactoryBadBlocks:
    def test_marked_bad_at_construction(self):
        array = make_array(FaultConfig(seed=5, factory_bad_blocks=3))
        bad = [b for b in range(array.num_blocks) if array.block(b).is_bad]
        assert len(bad) == 3
        assert bad == array.faults.factory_bad_blocks(array.num_blocks)

    def test_bad_block_rejects_programs(self):
        array = make_array(FaultConfig(seed=5, factory_bad_blocks=1))
        bad = next(b for b in range(array.num_blocks) if array.block(b).is_bad)
        with pytest.raises(ProgramError):
            array.program(bad, lba=0, timestamp=0.0)

    def test_reliability_snapshot_is_independent(self):
        array = make_array(FaultConfig(erase_fail_rate=1.0))
        snap = array.reliability.snapshot()
        with pytest.raises(EraseError):
            array.erase(0)
        assert snap.erase_fails == 0
        assert array.reliability.erase_fails == 1
