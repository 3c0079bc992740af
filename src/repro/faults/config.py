"""Fault-injection configuration.

One frozen dataclass describes everything the injector may do to the
device: how often reads come back with raw bit errors (and how severe
they are), how often programs and erases fail their verify step, how many
blocks ship factory-bad, and whether (and when) the whole device loses
power.  All of it defaults to **off** — a device built without a
:class:`FaultConfig` behaves bit-identically to one that never imported
this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError


@dataclass(frozen=True)
class FaultConfig:
    """Rates and shapes for every injectable fault, all off by default.

    Attributes:
        seed: Root seed for the injector's deterministic decision streams
            (independent of the workload seed, so the same fault pattern
            can be replayed under different traffic).
        read_fault_rate: Probability that one page read returns raw bit
            errors (read disturb / retention loss).  The severity of each
            faulty read is drawn from the three shares below.
        read_transient_share: Share of faulty reads that are *transient*:
            they clear after 1..``transient_max_retries`` ECC read
            retries (read-retry voltage shifts in real firmware).
        read_hard_share: Share of faulty reads that never correct — the
            page is lost once the retry budget runs out.  The remaining
            ``1 - transient - hard`` share is correctable in-line by ECC
            with no retry.
        transient_max_retries: Worst-case retries a transient fault may
            need; a draw above the device's ECC retry budget becomes an
            uncorrectable read even though the fault is "transient".
        program_fail_rate: Probability that one page program fails its
            verify step (the page is burned, the block must be retired).
        erase_fail_rate: Probability that one block erase fails its
            verify step (the block has worn out and must be retired).
        factory_bad_blocks: Blocks marked bad at manufacture time; the
            FTL maps them out before the first write.
        power_loss_at: Simulated time (seconds) at which the whole device
            loses power once; DRAM state vanishes and the firmware
            rebuilds from NAND out-of-band records.  ``None`` disables.
    """

    seed: int = 0
    read_fault_rate: float = 0.0
    read_transient_share: float = 0.30
    read_hard_share: float = 0.0
    transient_max_retries: int = 3
    program_fail_rate: float = 0.0
    erase_fail_rate: float = 0.0
    factory_bad_blocks: int = 0
    power_loss_at: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("read_fault_rate", "program_fail_rate", "erase_fail_rate"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        for name in ("read_transient_share", "read_hard_share"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if self.read_transient_share + self.read_hard_share > 1.0:
            raise ConfigError(
                "read_transient_share + read_hard_share must not exceed 1"
            )
        if self.transient_max_retries < 1:
            raise ConfigError("transient_max_retries must be >= 1")
        if self.factory_bad_blocks < 0:
            raise ConfigError("factory_bad_blocks must be >= 0")
        if self.power_loss_at is not None and self.power_loss_at < 0:
            raise ConfigError("power_loss_at must be >= 0")
