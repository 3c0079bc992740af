"""The seeded synthetic request mix behind the ``detector_1m`` workload.

The benchmark keeps its own copy of this generator so that the tools that
used to own it can change or disappear without moving the workload.  For a
given ``(num_requests, gap_seconds, seed)`` it yields the same requests as
the mix the repository's hot-path bench has always replayed.

Layout: background traffic (55 % of the budget), a ransomware
read-then-overwrite sweep (25 %), an idle gap with no I/O at all, then a
closing background burst.  Half the background hits a roving 64-LBA hot
set and half is cold-random over a 220k-LBA region, which keeps tens of
thousands of short counting-table runs live inside the detection window.
"""

from __future__ import annotations

import random
from typing import List

from repro.blockdev.request import IOMode, IORequest

BACKGROUND_SHARE = 0.55
RANSOMWARE_SHARE = 0.25


def synthesize_mix(
    num_requests: int,
    gap_seconds: float,
    seed: int,
    num_lbas: int = 400_000,
) -> List[IORequest]:
    """Background, ransomware sweep, idle gap, background: in time order."""
    rng = random.Random(seed)
    requests: List[IORequest] = []
    app_region = max(2, int(num_lbas * 0.55))
    n_before = int(num_requests * BACKGROUND_SHARE)
    n_ransom = int(num_requests * RANSOMWARE_SHARE)
    n_after = num_requests - n_before - n_ransom

    def background(count: int, start: float) -> float:
        clock = start
        hot = rng.randrange(0, max(1, app_region - 64))
        for i in range(count):
            # ~40k IOPS: dense enough that every 1 s slice carries a
            # realistic population for the counting table to expire.
            clock += rng.uniform(0.00001, 0.00004)
            if i % 256 == 0:
                hot = rng.randrange(0, max(1, app_region - 64))
            lba = hot + rng.randrange(0, 64) if rng.random() < 0.5 else (
                rng.randrange(0, app_region))
            mode = IOMode.READ if rng.random() < 0.6 else IOMode.WRITE
            length = 1 if rng.random() < 0.8 else rng.randrange(2, 9)
            requests.append(IORequest(time=clock, lba=lba, mode=mode,
                                      length=length, source="background"))
        return clock

    t = background(n_before, 0.0)
    victim = app_region
    produced = 0
    while produced < n_ransom:
        t += rng.uniform(0.0001, 0.0004)
        run = min(rng.randrange(4, 17), max(1, (n_ransom - produced) // 2))
        for offset in range(run):
            requests.append(IORequest(time=t, lba=victim + offset,
                                      mode=IOMode.READ, source="ransomware"))
        t += rng.uniform(0.0002, 0.0008)
        for offset in range(run):
            requests.append(IORequest(time=t, lba=victim + offset,
                                      mode=IOMode.WRITE, source="ransomware"))
        produced += 2 * run
        victim += run
        if victim >= num_lbas - 32:
            victim = app_region
    background(max(n_after, 0), t + gap_seconds)
    return requests
