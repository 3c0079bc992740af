"""Per-slice statistics and the sliding window over them.

The detector closes one :class:`SliceStats` per time slice and keeps the
last N of them; the six features are window aggregates over this ring
(plus the counting table's run-length state).

The window maintains **incremental running aggregates** — OWIO/WIO/RIO
sums and a refcounted multiset of overwritten LBAs — so every aggregate
the features read at a slice boundary is O(1) in the number of slices
instead of a re-sum/re-union over the whole ring (docs/performance.md).
A consequence: a :class:`SliceStats` must not be mutated after it has been
pushed (the detector only ever pushes slices it has finished filling).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, Optional, Set

from repro.errors import ConfigError


@dataclass
class SliceStats:
    """Raw counters accumulated during one time slice.

    Attributes:
        index: The slice number (time // slice_duration).
        rio: Read blocks observed during the slice.
        wio: Written blocks observed during the slice.
        owio: Overwrite events (repeat overwrites of one block all count —
            this is the paper's OWIO).
        overwritten_lbas: Distinct LBAs overwritten during the slice; the
            window-level union de-duplicates for OWST.
    """

    index: int
    rio: int = 0
    wio: int = 0
    owio: int = 0
    overwritten_lbas: Set[int] = field(default_factory=set)

    @property
    def io(self) -> int:
        """Total I/O of the slice (the Fig. 3 ``IO = RIO + WIO``)."""
        return self.rio + self.wio


class SlidingWindow:
    """Ring buffer of the last N closed slices, with running aggregates."""

    def __init__(self, num_slices: int) -> None:
        if num_slices < 1:
            raise ConfigError(f"window must hold >= 1 slice, got {num_slices}")
        self._slices: Deque[SliceStats] = deque()
        self.num_slices = num_slices
        self._rio_sum = 0
        self._wio_sum = 0
        self._owio_sum = 0
        # LBA -> number of window slices whose overwritten_lbas contain it;
        # the OWST numerator is simply the multiset's distinct-key count.
        self._ow_refcounts: Dict[int, int] = {}

    def push(self, stats: SliceStats) -> None:
        """Append a closed slice, evicting the oldest when full.

        ``stats`` is folded into the running aggregates and must not be
        mutated afterwards.
        """
        if len(self._slices) == self.num_slices:
            self._evict()
        self._slices.append(stats)
        self._rio_sum += stats.rio
        self._wio_sum += stats.wio
        self._owio_sum += stats.owio
        if stats.overwritten_lbas:
            refcounts = self._ow_refcounts
            for lba in stats.overwritten_lbas:
                refcounts[lba] = refcounts.get(lba, 0) + 1

    def _evict(self) -> None:
        oldest = self._slices.popleft()
        self._rio_sum -= oldest.rio
        self._wio_sum -= oldest.wio
        self._owio_sum -= oldest.owio
        if oldest.overwritten_lbas:
            refcounts = self._ow_refcounts
            for lba in oldest.overwritten_lbas:
                remaining = refcounts[lba] - 1
                if remaining:
                    refcounts[lba] = remaining
                else:
                    del refcounts[lba]

    def __len__(self) -> int:
        return len(self._slices)

    def __iter__(self) -> Iterator[SliceStats]:
        return iter(self._slices)

    @property
    def latest(self) -> Optional[SliceStats]:
        """The most recently closed slice, if any."""
        return self._slices[-1] if self._slices else None

    # -- window aggregates used by the features -------------------------

    def pwio(self) -> int:
        """Sum of OWIO over the window *excluding* the latest slice.

        This is the paper's PWIO: overwrites during the previous window
        (slices t-N .. t-1 when the latest closed slice is t).
        """
        if len(self._slices) <= 1:
            return 0
        return self._owio_sum - self._slices[-1].owio

    def wio_window(self) -> int:
        """Total written blocks over the window."""
        return self._wio_sum

    def unique_overwritten(self) -> int:
        """Distinct LBAs overwritten anywhere in the window (OWST numerator)."""
        return len(self._ow_refcounts)

    def snapshot(self) -> list:
        """JSON-ready per-slice counters, oldest first (incident bundles).

        Captures exactly what the ring holds at the instant an incident
        snapshot is cut: the raw counters the six features were computed
        from, so a bundle can show the window state behind the verdict.
        """
        return [
            {
                "index": stats.index,
                "rio": stats.rio,
                "wio": stats.wio,
                "owio": stats.owio,
                "unique_overwritten": len(stats.overwritten_lbas),
            }
            for stats in self._slices
        ]

    # -- fast-forward support (detector idle gaps) -----------------------

    def is_idle_saturated(self) -> bool:
        """True when the window is full and every slice in it is idle."""
        return (
            len(self._slices) == self.num_slices
            and self._rio_sum == 0
            and self._wio_sum == 0
            and self._owio_sum == 0
            and not self._ow_refcounts
        )

    def fill_idle(self, last_index: int) -> None:
        """Replace the contents with N idle slices ending at ``last_index``.

        Used by the detector's fast-forward path: after a long idle gap the
        window is, by construction, N empty slices whose indices end just
        before the current slice — this materialises that state directly
        instead of pushing each empty slice through the ring.
        """
        self._slices.clear()
        self._rio_sum = 0
        self._wio_sum = 0
        self._owio_sum = 0
        self._ow_refcounts.clear()
        for index in range(last_index - self.num_slices + 1, last_index + 1):
            self._slices.append(SliceStats(index=index))
