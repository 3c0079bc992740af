"""GC victim-selection policies.

The paper's baseline FTL uses greedy selection (footnote 4): the victim is
the closed block with the most reclaimable pages.  Production firmware
often uses *cost-benefit* selection instead (Kawaguchi et al.), which
weighs reclaimable space by block age so cold blocks get cleaned even when
slightly fuller, and *wear-aware* variants that bias cleaning toward
low-erase-count blocks to level wear.  All three are implemented here so
the ablation benchmarks can quantify what the choice costs the Insider FTL
(pinned pages shift every policy's arithmetic the same way: a pinned page
is not reclaimable and must be copied).

The FTL selects through the incrementally maintained
:class:`~repro.ftl.victim_index.VictimIndex`; the brute-force scan it
replaced (profiling showed it at 74.5 % of device-path wall time) lives
on in ``tests/oracles/victim.py`` as the oracle the index must match for
every policy.  Both score blocks through the shared scalar helpers below,
so their arithmetic is bit-identical by construction.
"""

from __future__ import annotations

import enum
from typing import List


class VictimPolicy(enum.Enum):
    """Which block GC cleans next."""

    #: Most reclaimable pages (the paper's baseline).
    GREEDY = "greedy"
    #: Max (reclaimable / cost) x age — cleans cold blocks earlier.
    COST_BENEFIT = "cost_benefit"
    #: Greedy, tie-broken toward the least-worn block.
    WEAR_AWARE = "wear_aware"


def score_block(
    policy: VictimPolicy,
    reclaimable: int,
    pages: int,
    erase_count: int,
    newest: float,
    now: float,
) -> float:
    """Score one block from scalars (shared by the scan and the index).

    Greedy: the reclaimable count itself.  Wear-aware: greedy plus a wear
    bias strictly below 1, so reclaimable count still dominates and the
    bias only breaks ties toward less-worn blocks.  Cost-benefit
    (Kawaguchi et al.): benefit/cost weighted by the block's age — cost of
    cleaning = 1 read + u writes where u is the live fraction; benefit =
    reclaimed fraction; age = time since the block's newest page.
    """
    if policy is VictimPolicy.GREEDY:
        return float(reclaimable)
    if policy is VictimPolicy.WEAR_AWARE:
        wear_bias = 1.0 / (1.0 + erase_count)
        return reclaimable + 0.5 * wear_bias
    utilization = 1.0 - (reclaimable / pages)
    age = max(now - newest, 1e-6)
    if utilization >= 1.0:
        return 0.0
    return ((1.0 - utilization) * age) / (2.0 * utilization + 1e-9)


def block_newest(written_at: List[float], start: int,
                 write_pointer: int) -> float:
    """Timestamp of the newest programmed page (0.0 for an empty block).

    ``written_at`` is the NAND array's per-PPA timestamp list and
    ``start`` the block's first PPA.  The programmed pages are the ones
    below the write pointer; a burned page's cleared timestamp (0.0)
    never wins.
    """
    return max(written_at[start:start + write_pointer], default=0.0)
