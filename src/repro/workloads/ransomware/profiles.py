"""Behavioural profiles for the paper's ransomware samples.

The paper evaluates eight real-world samples — Locky.bdf, Locky.bbs,
Zerber.ufb, WannaCry, Jaff, Mole, GlobeImposter, CryptoShield — plus two
in-house ones built from open-source PoCs (one in-place, one out-of-place).
We cannot run the binaries, so each profile captures the *relative*
header-level behaviour the paper's figures document:

* WannaCry and Mole overwrite fast and steadily (the steep cumulative
  curves of Fig. 1b);
* Jaff and CryptoShield are slow/bursty — "too slow to be detected by
  OWIO and OWST" until PWIO accumulates over the window (Fig. 2c/d);
* the Locky and Zerber families sit in between.

Throughput numbers are simulation-scale (blocks per second of the
encrypt-overwrite pipeline), chosen to preserve those orderings; detection
thresholds are learned from the same simulated distributions, so the
pipeline is self-consistent end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import WorkloadError
from repro.workloads.base import LbaRegion
from repro.workloads.ransomware.base import OverwriteClass, Ransomware


@dataclass(frozen=True)
class RansomwareProfile:
    """Per-sample behaviour parameters."""

    name: str
    blocks_per_second: float
    overwrite_class: OverwriteClass
    chunk_blocks: int = 8
    pause_probability: float = 0.0
    pause_seconds: float = 1.0
    mean_file_blocks: int = 16
    speed_jitter_sigma: float = 0.8

    def build(
        self,
        region: LbaRegion,
        start: float = 0.0,
        duration: float = 60.0,
        seed: int = 0,
        time_scale: float = 1.0,
    ) -> Ransomware:
        """Instantiate the sample over a region."""
        return Ransomware(
            name=self.name,
            region=region,
            blocks_per_second=self.blocks_per_second,
            overwrite_class=self.overwrite_class,
            chunk_blocks=self.chunk_blocks,
            pause_probability=self.pause_probability,
            pause_seconds=self.pause_seconds,
            mean_file_blocks=self.mean_file_blocks,
            speed_jitter_sigma=self.speed_jitter_sigma,
            start=start,
            duration=duration,
            seed=seed,
            time_scale=time_scale,
        )


RANSOMWARE_PROFILES: Dict[str, RansomwareProfile] = {
    "wannacry": RansomwareProfile(
        name="wannacry",
        blocks_per_second=2400.0,
        overwrite_class=OverwriteClass.OUT_OF_PLACE,
        chunk_blocks=8,
    ),
    "mole": RansomwareProfile(
        name="mole",
        blocks_per_second=2000.0,
        overwrite_class=OverwriteClass.IN_PLACE,
        chunk_blocks=8,
    ),
    "globeimposter": RansomwareProfile(
        name="globeimposter",
        blocks_per_second=1700.0,
        overwrite_class=OverwriteClass.IN_PLACE,
        chunk_blocks=8,
    ),
    "locky.bdf": RansomwareProfile(
        name="locky.bdf",
        blocks_per_second=1300.0,
        overwrite_class=OverwriteClass.IN_PLACE,
        chunk_blocks=4,
    ),
    "locky.bbs": RansomwareProfile(
        name="locky.bbs",
        blocks_per_second=1200.0,
        overwrite_class=OverwriteClass.IN_PLACE,
        chunk_blocks=4,
    ),
    "zerber.ufb": RansomwareProfile(
        name="zerber.ufb",
        blocks_per_second=1100.0,
        overwrite_class=OverwriteClass.OUT_OF_PLACE,
        chunk_blocks=4,
    ),
    "jaff": RansomwareProfile(
        name="jaff",
        blocks_per_second=700.0,
        overwrite_class=OverwriteClass.OUT_OF_PLACE,
        chunk_blocks=4,
        pause_probability=0.15,
        pause_seconds=1.0,
        speed_jitter_sigma=0.4,
    ),
    "cryptoshield": RansomwareProfile(
        name="cryptoshield",
        blocks_per_second=350.0,
        overwrite_class=OverwriteClass.IN_PLACE,
        chunk_blocks=4,
        pause_probability=0.25,
        pause_seconds=0.8,
        speed_jitter_sigma=0.5,
    ),
    # The paper's two in-house samples, built from open-source PoCs
    # (github roothaxor/Ransom, mauri870/ransomware).
    "inhouse-inplace": RansomwareProfile(
        name="inhouse-inplace",
        blocks_per_second=900.0,
        overwrite_class=OverwriteClass.IN_PLACE,
        chunk_blocks=8,
    ),
    "inhouse-outplace": RansomwareProfile(
        name="inhouse-outplace",
        blocks_per_second=900.0,
        overwrite_class=OverwriteClass.OUT_OF_PLACE,
        chunk_blocks=8,
    ),
}


def make_ransomware(
    name: str,
    region: LbaRegion,
    start: float = 0.0,
    duration: float = 60.0,
    seed: int = 0,
    time_scale: float = 1.0,
) -> Ransomware:
    """Instantiate a named sample (case-insensitive)."""
    profile = RANSOMWARE_PROFILES.get(name.lower())
    if profile is None:
        known = ", ".join(sorted(RANSOMWARE_PROFILES))
        raise WorkloadError(f"unknown ransomware {name!r}; known samples: {known}")
    return profile.build(
        region, start=start, duration=duration, seed=seed, time_scale=time_scale
    )
