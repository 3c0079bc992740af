"""The deterministic fault injector the NAND array consults.

The injector owns independent, seed-derived RNG streams for reads,
programs and erases, so enabling one fault class never perturbs the
decision sequence of another — exactly the property the workload
generators already rely on (:mod:`repro.rand`).  Every decision is made
once, up front: a faulty read's full severity (in-line correctable,
transient needing *k* retries, or hard) is drawn in a single step, so the
firmware's retry loop replays deterministically no matter how it is
structured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.faults.config import FaultConfig
from repro.rand import derive_rng


@dataclass(frozen=True)
class ReadFault:
    """One faulty read, fully decided at injection time.

    Attributes:
        ppa: The flat physical page address that was read.
        retries_needed: ECC read retries required before the data
            corrects; 0 means the in-line ECC fixes it with no retry.
        hard: True when no number of retries will ever recover the page.
    """

    ppa: int
    retries_needed: int = 0
    hard: bool = False


@dataclass
class FaultStats:
    """How many faults the injector has actually fired, by class."""

    read_faults: int = 0
    read_faults_transient: int = 0
    read_faults_hard: int = 0
    program_fails: int = 0
    erase_fails: int = 0
    power_losses: int = 0

    @property
    def total_media_faults(self) -> int:
        """All per-operation faults injected so far."""
        return self.read_faults + self.program_fails + self.erase_fails

    def as_dict(self) -> dict:
        """JSON-ready counters (incident bundles, sweep reports)."""
        return {
            "read_faults": self.read_faults,
            "read_faults_transient": self.read_faults_transient,
            "read_faults_hard": self.read_faults_hard,
            "program_fails": self.program_fails,
            "erase_fails": self.erase_fails,
            "power_losses": self.power_losses,
            "total_media_faults": self.total_media_faults,
        }


class FaultInjector:
    """Seed-driven fault source consulted on every NAND operation.

    Args:
        config: Rates and shapes; see :class:`~repro.faults.config.FaultConfig`.

    The injector is intentionally stateless about the device — it knows
    nothing of blocks or mappings beyond the addresses it is asked about —
    so the same injector drives a bare :class:`~repro.nand.array.NandArray`
    or a whole :class:`~repro.ssd.device.SimulatedSSD` identically.
    """

    def __init__(self, config: FaultConfig) -> None:
        self.config = config
        self.stats = FaultStats()
        self._read_rng = derive_rng(config.seed, "faults", "read")
        self._program_rng = derive_rng(config.seed, "faults", "program")
        self._erase_rng = derive_rng(config.seed, "faults", "erase")
        self._power_loss_fired = False

    # -- per-operation decisions ------------------------------------------

    def on_read(self, ppa: int) -> Optional[ReadFault]:
        """Decide whether the read at ``ppa`` returns raw bit errors."""
        config = self.config
        if config.read_fault_rate <= 0.0:
            return None
        if self._read_rng.random() >= config.read_fault_rate:
            return None
        self.stats.read_faults += 1
        severity = self._read_rng.random()
        if severity < config.read_hard_share:
            self.stats.read_faults_hard += 1
            return ReadFault(ppa=ppa, retries_needed=0, hard=True)
        if severity < config.read_hard_share + config.read_transient_share:
            retries = 1 + int(
                self._read_rng.integers(0, config.transient_max_retries)
            )
            self.stats.read_faults_transient += 1
            return ReadFault(ppa=ppa, retries_needed=retries)
        return ReadFault(ppa=ppa, retries_needed=0)

    def on_program(self, global_block: int) -> bool:
        """True when the next program into ``global_block`` must fail."""
        if self.config.program_fail_rate <= 0.0:
            return False
        if self._program_rng.random() >= self.config.program_fail_rate:
            return False
        self.stats.program_fails += 1
        return True

    def on_erase(self, global_block: int) -> bool:
        """True when the erase of ``global_block`` must fail (wear-out)."""
        if self.config.erase_fail_rate <= 0.0:
            return False
        if self._erase_rng.random() >= self.config.erase_fail_rate:
            return False
        self.stats.erase_fails += 1
        return True

    # -- device-lifetime events -------------------------------------------

    def factory_bad_blocks(self, num_blocks: int) -> List[int]:
        """The blocks stamped bad at manufacture, for an array of ``num_blocks``.

        Deterministic in the seed and independent of the per-operation
        streams; at most ``num_blocks - 1`` blocks are returned so a
        device always has at least one usable block.
        """
        count = min(self.config.factory_bad_blocks, max(0, num_blocks - 1))
        if count == 0:
            return []
        rng = derive_rng(self.config.seed, "faults", "factory-bad")
        chosen = rng.choice(num_blocks, size=count, replace=False)
        return sorted(int(block) for block in chosen)

    def power_loss_due(self, now: float) -> bool:
        """True exactly once, when ``now`` first reaches ``power_loss_at``."""
        at = self.config.power_loss_at
        if at is None or self._power_loss_fired or now < at:
            return False
        self._power_loss_fired = True
        self.stats.power_losses += 1
        return True
