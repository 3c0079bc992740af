"""High-level defense harness: run an attack against a device, end to end.

The pattern every experiment, example and downstream user repeats — write
user data, unleash a sample, wait for the alarm, roll back, audit — in one
call with a structured outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.ftl.insider import RollbackReport
from repro.obs import Observability
from repro.rand import derive_rng
from repro.ssd.device import SimulatedSSD
from repro.workloads.base import LbaRegion
from repro.workloads.ransomware.profiles import make_ransomware


@dataclass
class DefenseOutcome:
    """What happened when a sample attacked a populated device."""

    sample: str
    alarm_raised: bool
    detection_latency: Optional[float]
    attack_requests_served: int
    dropped_writes: int
    rollback: Optional[RollbackReport]
    blocks_audited: int
    blocks_corrupted: int
    #: The device's observability bundle (tracer + metrics), when the run
    #: was instrumented; None for the un-observed default.
    obs: Optional[Observability] = None
    #: Incident bundles the device cut during the run (alarm, media
    #: alarm...), when a flight recorder was armed; empty otherwise.
    incidents: List[dict] = field(default_factory=list)

    @property
    def data_loss_rate(self) -> float:
        """Fraction of audited blocks not restored bit-exact."""
        if self.blocks_audited == 0:
            return 0.0
        return self.blocks_corrupted / self.blocks_audited

    @property
    def perfect_recovery(self) -> bool:
        """The paper's headline: detected, recovered, zero loss."""
        return (self.alarm_raised and self.rollback is not None
                and self.blocks_corrupted == 0)


def run_defense(
    device: SimulatedSSD,
    sample: str = "wannacry",
    user_blocks: Optional[int] = None,
    idle_gap: float = 15.0,
    attack_duration: float = 60.0,
    seed: int = 0,
    recover: bool = True,
    audit_stride: int = 97,
) -> DefenseOutcome:
    """Populate ``device``, attack it, optionally recover, and audit.

    Args:
        device: A fresh simulated SSD (its detector decides the outcome).
        sample: Ransomware profile name.
        user_blocks: How much user data to write first (default: a third
            of the logical space).
        idle_gap: Quiet seconds between the last user write and the attack
            (kept above the retention window so the corpus is "old and
            safe").
        attack_duration: Upper bound on the attack's simulated runtime.
        seed: Drives payload generation and the sample's stream.
        recover: Roll back on alarm (set False to audit the damage).
        audit_stride: Audit every ``stride``-th block (1 = audit all).
    """
    rng = derive_rng(seed, "defense-harness")
    if user_blocks is None:
        user_blocks = device.num_lbas // 3
    contents: Dict[int, bytes] = {}
    for lba in range(user_blocks):
        payload = bytes([int(rng.integers(0, 256))]) * 24
        device.write(lba, payload, now=device.clock.now + 0.0005)
        contents[lba] = payload
    device.tick(device.clock.now + max(idle_gap, device.config.retention + 1.0))

    onset = device.clock.now
    flight = getattr(device.obs, "flightrec", None)
    if flight is not None:
        # Time-to-detect in the incident report is measured from this
        # onset; the bundle carries it so the report needs nothing else.
        flight.set_context(
            sample=sample, seed=seed, attack_onset=onset,
            user_blocks=user_blocks,
        )
    attack = make_ransomware(
        sample,
        LbaRegion(0, user_blocks),
        start=onset,
        duration=attack_duration,
        seed=seed,
    )
    served = 0
    for request in attack.requests():
        device.submit(request)
        served += 1
        if device.alarm_raised:
            break
    detection_latency = (
        device.clock.now - onset if device.alarm_raised else None
    )
    rollback = None
    if device.alarm_raised and recover:
        rollback = device.recover()
    audited = corrupted = 0
    for lba in range(0, user_blocks, max(1, audit_stride)):
        audited += 1
        if device.read(lba)[: len(contents[lba])] != contents[lba]:
            corrupted += 1
    device.refresh_obs_metrics()
    return DefenseOutcome(
        sample=sample,
        alarm_raised=detection_latency is not None,
        detection_latency=detection_latency,
        attack_requests_served=served,
        dropped_writes=device.stats.dropped_writes,
        rollback=rollback,
        blocks_audited=audited,
        blocks_corrupted=corrupted,
        obs=device.obs,
        incidents=list(device.incidents),
    )
