"""Naive reference implementations of the detector hot path.

These are the *semantics oracle* for the optimised pipeline in
:mod:`repro.core.counting_table`, :mod:`repro.core.window`, and
:mod:`repro.core.detector`: the same Fig. 3 / Algorithm 1 behaviour written
the obvious O(n) way — list-scan expiry, re-summed window aggregates,
re-unioned overwritten-LBA sets, and strict slice-by-slice window closing
with no idle fast-forward.

The equivalence tests (``tests/test_hotpath_equivalence.py``) replay
identical traces through :class:`ReferenceDetector` and
:class:`~repro.core.detector.RansomwareDetector` and require the two
:class:`~repro.core.detector.DetectionEvent` streams to match bit for bit —
features, verdicts, scores, and alarm slice.  Keep this module boring: its
only job is to be obviously correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.blockdev.request import IORequest
from repro.core.config import DetectorConfig
from repro.core.counting_table import MAX_RUN_BLOCKS
from repro.core.detector import DetectionEvent
from repro.core.features import FeatureVector
from repro.core.id3 import DecisionTree
from repro.core.score import ScoreTracker
from repro.core.window import SliceStats


@dataclass(eq=False)
class _NaiveEntry:
    slice_index: int
    lba: int
    rl: int = 1
    wl: int = 0

    @property
    def end_lba(self) -> int:
        return self.lba + self.rl


class NaiveCountingTable:
    """Fig. 3 counting table with list storage and full-scan expiry."""

    def __init__(self) -> None:
        self._index: Dict[int, _NaiveEntry] = {}
        self._entries: List[_NaiveEntry] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    @property
    def hash_entries(self) -> int:
        return len(self._index)

    def entry_for(self, lba: int) -> Optional[_NaiveEntry]:
        """Return the entry whose run covers ``lba``, if any."""
        return self._index.get(lba)

    def mean_wl(self) -> float:
        """AVGWIO numerator: mean write count over live entries (re-summed)."""
        if not self._entries:
            return 0.0
        return sum(entry.wl for entry in self._entries) / len(self._entries)

    def record_read(self, lba: int, slice_index: int) -> _NaiveEntry:
        """Fig. 3 read path: NewEntry / UpdateEntryR / MergeEntry."""
        entry = self._index.get(lba)
        if entry is not None:
            entry.slice_index = slice_index
            return entry
        left = self._index.get(lba - 1) if lba > 0 else None
        if left is not None and left.end_lba == lba and left.rl < MAX_RUN_BLOCKS:
            left.rl += 1
            left.slice_index = slice_index
            self._index[lba] = left
            self._maybe_merge(left, slice_index)
            return left
        right = self._index.get(lba + 1)
        if right is not None and right.lba == lba + 1 and right.rl < MAX_RUN_BLOCKS:
            right.lba = lba
            right.rl += 1
            right.slice_index = slice_index
            self._index[lba] = right
            if lba > 0:
                neighbour = self._index.get(lba - 1)
                if neighbour is not None and neighbour.end_lba == lba:
                    self._maybe_merge(neighbour, slice_index)
            return self._index[lba]
        entry = _NaiveEntry(slice_index=slice_index, lba=lba)
        self._entries.append(entry)
        self._index[lba] = entry
        return entry

    def record_write(self, lba: int, slice_index: int) -> bool:
        """Fig. 3 write path; True when the write overwrites a tracked run."""
        entry = self._index.get(lba)
        if entry is None:
            return False
        if entry.wl == 0 and lba > entry.lba:
            entry = self._split(entry, lba)
        entry.wl += 1
        entry.slice_index = slice_index
        return True

    def _split(self, entry: _NaiveEntry, at_lba: int) -> _NaiveEntry:
        right = _NaiveEntry(
            slice_index=entry.slice_index,
            lba=at_lba,
            rl=entry.end_lba - at_lba,
            wl=0,
        )
        entry.rl = at_lba - entry.lba
        self._entries.append(right)
        for lba in range(right.lba, right.end_lba):
            self._index[lba] = right
        return right

    def _maybe_merge(self, entry: _NaiveEntry, slice_index: int) -> None:
        neighbour = self._index.get(entry.end_lba)
        if (
            neighbour is None
            or neighbour is entry
            or neighbour.lba != entry.end_lba
            or entry.wl != 0
            or neighbour.wl != 0
            or entry.rl + neighbour.rl > MAX_RUN_BLOCKS
        ):
            return
        entry.rl += neighbour.rl
        entry.slice_index = slice_index
        for lba in range(neighbour.lba, neighbour.end_lba):
            self._index[lba] = entry
        self._entries.remove(neighbour)

    def expire(self, oldest_live_slice: int) -> int:
        """Drop entries older than the window by scanning the whole list."""
        stale = [e for e in self._entries if e.slice_index < oldest_live_slice]
        for entry in stale:
            for lba in range(entry.lba, entry.end_lba):
                if self._index.get(lba) is entry:
                    del self._index[lba]
            self._entries.remove(entry)
        return len(stale)

    def clear(self) -> None:
        """Forget everything."""
        self._index.clear()
        self._entries.clear()


class NaiveSlidingWindow:
    """Ring of the last N slices; every aggregate is a fresh re-scan."""

    def __init__(self, num_slices: int) -> None:
        self.num_slices = num_slices
        self._slices: List[SliceStats] = []

    def push(self, stats: SliceStats) -> None:
        """Append a closed slice, evicting the oldest past ``num_slices``."""
        self._slices.append(stats)
        if len(self._slices) > self.num_slices:
            self._slices.pop(0)

    def __len__(self) -> int:
        return len(self._slices)

    def __iter__(self):
        return iter(self._slices)

    @property
    def latest(self) -> Optional[SliceStats]:
        return self._slices[-1] if self._slices else None

    def pwio(self) -> int:
        """Overwrites in the window excluding the latest slice (re-summed)."""
        if len(self._slices) <= 1:
            return 0
        return sum(s.owio for s in self._slices[:-1])

    def wio_window(self) -> int:
        """Total writes across the window (re-summed)."""
        return sum(s.wio for s in self._slices)

    def unique_overwritten(self) -> int:
        """OWST numerator: distinct overwritten LBAs (re-unioned)."""
        union: Set[int] = set()
        for stats in self._slices:
            union |= stats.overwritten_lbas
        return len(union)


def naive_features(table, window) -> FeatureVector:
    """compute_features over duck-typed naive structures (same arithmetic)."""
    latest = window.latest
    if latest is None:
        return FeatureVector(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    owio = float(latest.owio)
    pwio = float(window.pwio())
    wio_window = window.wio_window()
    owst = window.unique_overwritten() / wio_window if wio_window > 0 else 0.0
    avgwio = table.mean_wl()
    owslope = owio / pwio if pwio > 0 else owio
    io = float(latest.io)
    return FeatureVector(owio=owio, owst=owst, pwio=pwio, avgwio=avgwio,
                         owslope=owslope, io=io)


class ReferenceDetector:
    """Algorithm 1, slice by slice, over the naive structures.

    Mirrors :class:`~repro.core.detector.RansomwareDetector`'s observable
    behaviour (event stream, alarm, score) with none of its shortcuts:
    requests are split into unit headers, every empty slice in an idle gap
    is closed individually, and every aggregate is recomputed from scratch.
    """

    def __init__(
        self,
        tree: Optional[DecisionTree] = None,
        config: Optional[DetectorConfig] = None,
    ) -> None:
        self.config = config or DetectorConfig()
        if tree is None:
            from repro.core.pretrained import default_tree

            tree = default_tree()
        self.tree = tree
        self.table = NaiveCountingTable()
        self.window = NaiveSlidingWindow(self.config.window_slices)
        self.scores = ScoreTracker(self.config.window_slices)
        self.events: List[DetectionEvent] = []
        self.alarm_event: Optional[DetectionEvent] = None
        self._current = SliceStats(index=0)

    @property
    def alarm_raised(self) -> bool:
        return self.alarm_event is not None

    def observe(self, request: IORequest) -> None:
        """Algorithm 1 ingest: close due slices, then record each unit."""
        self.tick(request.time)
        for unit in request.split():
            if unit.is_read:
                self._current.rio += 1
                self.table.record_read(unit.lba, self._current.index)
            else:
                self._current.wio += 1
                if self.table.record_write(unit.lba, self._current.index):
                    self._current.owio += 1
                    self._current.overwritten_lbas.add(unit.lba)

    def reset(self) -> None:
        """Forget the table, window, scores and alarm; keep the cursor."""
        self.table.clear()
        self.window = NaiveSlidingWindow(self.config.window_slices)
        self.scores.reset()
        self.alarm_event = None

    def tick(self, now: float) -> None:
        """Close every slice boundary up to ``now``, one at a time."""
        target_slice = int(now // self.config.slice_duration)
        while self._current.index < target_slice:
            self._close_slice()

    def _close_slice(self) -> None:
        closed = self._current
        self.window.push(closed)
        features = naive_features(self.table, self.window)
        verdict = self.tree.predict_one(features.as_tuple())
        score = self.scores.push(verdict)
        alarm = score >= self.config.threshold
        event = DetectionEvent(
            time=(closed.index + 1) * self.config.slice_duration,
            slice_index=closed.index,
            features=features,
            verdict=verdict,
            score=score,
            alarm=alarm,
        )
        self.events.append(event)
        if alarm and self.alarm_event is None:
            self.alarm_event = event
        next_index = closed.index + 1
        self.table.expire(next_index - self.config.window_slices)
        self._current = SliceStats(index=next_index)
