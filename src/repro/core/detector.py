"""The real-time detector: Algorithm 1 of the paper, end to end.

Feed it every I/O request header; it maintains the counting table, closes a
time slice whenever the timestamps cross a slice boundary, evaluates the
six features, runs the ID3 tree, slides the score window, and raises the
alarm once the score reaches the threshold.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice
from operator import eq, index as as_index
from typing import Callable, Iterator, List, Optional, Union

from repro.blockdev.request import IOMode, IORequest
from repro.core.config import DetectorConfig
from repro.core.counting_table import CountingTable
from repro.core.features import FeatureVector, compute_features
from repro.core.id3 import DecisionTree
from repro.core.score import ScoreTracker
from repro.core.window import SliceStats, SlidingWindow
from repro.obs.probe import NULL_PROBE, Probe

_READ = IOMode.READ


@dataclass(frozen=True)
class DetectionEvent:
    """One closed slice's outcome: features, verdict, and window score."""

    time: float
    slice_index: int
    features: FeatureVector
    verdict: int
    score: int
    alarm: bool


@dataclass(frozen=True)
class _Gap:
    """A fast-forwarded idle gap: ``count`` slices sharing one outcome."""

    before: int  # individually stored events that precede the gap
    first_slice: int
    count: int
    slice_duration: float
    features: FeatureVector
    verdict: int
    score: int
    alarm: bool

    def event(self, offset: int) -> DetectionEvent:
        """The gap's ``offset``-th event, as closing its slice would build it."""
        index = self.first_slice + offset
        return DetectionEvent(
            time=(index + 1) * self.slice_duration,
            slice_index=index,
            features=self.features,
            verdict=self.verdict,
            score=self.score,
            alarm=self.alarm,
        )


class EventHistory(Sequence):
    """Every closed slice's :class:`DetectionEvent`, in slice order.

    Reads like the list of all events: ``len``, int and negative indexing,
    slicing (to a list), iteration, and ``==`` against a list or another
    history.  Slices closed one by one are stored as their events; a
    fast-forwarded idle gap is stored as one segment — first slice, count
    and the features, verdict, score and alarm every slice of the gap
    shares — and its events are built when read.  So a gap of any length
    costs O(1) to record, and the events read back are equal to the ones
    slice-by-slice closing would have stored.
    """

    def __init__(self) -> None:
        self._events: List[DetectionEvent] = []
        self._gaps: List[_Gap] = []
        self._starts: List[int] = []  # each gap's first position, for bisect
        self._gap_events = 0

    def append(self, event: DetectionEvent) -> None:
        """Record one individually closed slice."""
        self._events.append(event)

    def append_gap(self, first_slice: int, count: int, slice_duration: float,
                   features: FeatureVector, verdict: int, score: int,
                   alarm: bool) -> None:
        """Record ``count`` skipped slices from ``first_slice`` on, which
        all share ``features``, ``verdict``, ``score`` and ``alarm``."""
        self._starts.append(len(self))
        self._gaps.append(_Gap(len(self._events), first_slice, count,
                               slice_duration, features, verdict, score, alarm))
        self._gap_events += count

    def __len__(self) -> int:
        return len(self._events) + self._gap_events

    def __getitem__(self, index: Union[int, slice]
                    ) -> Union[DetectionEvent, List[DetectionEvent]]:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        position = as_index(index)
        size = len(self)
        if position < 0:
            position += size
        if not 0 <= position < size:
            raise IndexError("event index out of range")
        k = bisect_right(self._starts, position) - 1
        if k < 0:
            return self._events[position]
        gap = self._gaps[k]
        offset = position - self._starts[k]
        if offset < gap.count:
            return gap.event(offset)
        return self._events[gap.before + offset - gap.count]

    def __iter__(self) -> Iterator[DetectionEvent]:
        events = iter(self._events)
        stored = 0
        for gap in self._gaps:
            yield from islice(events, gap.before - stored)
            stored = gap.before
            for offset in range(gap.count):
                yield gap.event(offset)
        yield from events

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (EventHistory, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return (f"EventHistory({len(self)} events, "
                f"{self._gap_events} in {len(self._gaps)} idle gaps)")


def weak_hook(method: Callable[[DetectionEvent], None]
              ) -> Callable[[DetectionEvent], None]:
    """``method``, a bound method, as an ``on_alarm`` hook held weakly.

    A device or a namespace owns its detector, so handing the detector
    the owner's bound method would make the pair a reference cycle that
    only the cyclic collector frees.  This hook keeps only a weak
    reference: the owner dies with its last reference, and a detector
    that outlives it alarms into a no-op.  The dereference costs once
    per alarm, never per request.
    """
    ref = weakref.WeakMethod(method)

    def hook(event: DetectionEvent) -> None:
        bound = ref()
        if bound is not None:
            bound(event)

    return hook


class RansomwareDetector:
    """Header-only behavioural ransomware detector (Algorithm 1).

    Args:
        tree: A trained ID3 tree; defaults to the library's pretrained tree.
        config: Slice/window/threshold parameters.
        on_alarm: Optional callback invoked once, with the triggering
            :class:`DetectionEvent`, when the score first reaches the
            threshold.
        keep_history: Record every :class:`DetectionEvent` in
            :attr:`events` (on by default), an :class:`EventHistory` that
            reads as one event per slice, fast-forwarded idle slices
            included.  It stores each individually closed slice's event
            and each fast-forwarded gap as one segment, so history grows
            with the slices actually closed, and a long idle gap costs
            O(1).  Disable it when nothing reads the events.
        probe: Where every closed slice and fast-forwarded gap is
            published (the device passes its own); the shared null probe
            by default.  Publishing only records, never steers: the
            event stream is identical whatever listens.
    """

    def __init__(
        self,
        tree: Optional[DecisionTree] = None,
        config: Optional[DetectorConfig] = None,
        on_alarm: Optional[Callable[[DetectionEvent], None]] = None,
        keep_history: bool = True,
        probe: Probe = NULL_PROBE,
    ) -> None:
        self.config = config or DetectorConfig()
        if tree is None:
            from repro.core.pretrained import default_tree

            tree = default_tree()
        self.tree = tree
        self.on_alarm = on_alarm
        self.keep_history = keep_history
        self.probe = probe
        self.table = CountingTable()
        self.window = SlidingWindow(self.config.window_slices)
        self.scores = ScoreTracker(self.config.window_slices)
        self.events = EventHistory()
        self.alarm_event: Optional[DetectionEvent] = None
        self._current = SliceStats(index=0)
        self._next_boundary = self._slice_start(1)
        #: Idle slices skipped by the fast-forward path (state-identical
        #: slices that were never individually evaluated).
        self.fast_forwarded_slices = 0

    # -- streaming interface ----------------------------------------------

    @property
    def alarm_raised(self) -> bool:
        """True once the score has reached the threshold."""
        return self.alarm_event is not None

    @property
    def score(self) -> int:
        """Current window score."""
        return self.scores.score

    def observe(self, request: IORequest) -> None:
        """Ingest one request header (multi-block requests are split).

        A header inside the current slice skips :meth:`tick` (one cached
        comparison), and the whole request folds into the counting table
        in one call — Algorithm 1's ``Length == 1`` semantics without
        per-block calls or per-unit :class:`IORequest` objects.
        """
        now = request.time
        if now >= self._next_boundary:
            self.tick(now)
        current = self._current
        length = request.length
        if request.mode is _READ:
            current.rio += length
            self.table.record_reads(request.lba, length, current.index)
        else:
            current.wio += length
            current.owio += self.table.record_writes(
                request.lba, length, current.index, current.overwritten_lbas)

    def tick(self, now: float) -> None:
        """Advance simulated time, closing any slices that have expired.

        Call this even without I/O so quiet periods still decay the score.
        Long idle gaps do not cost one loop iteration per empty slice: once
        the detector state has provably converged (empty counting table,
        idle-saturated window, constant verdict ring), the remaining gap is
        fast-forwarded in O(window_slices) — see :meth:`_try_fast_forward`.
        """
        target_slice = int(now // self.config.slice_duration)
        if self._current.index >= target_slice:
            return
        while self._current.index < target_slice:
            if self._try_fast_forward(target_slice):
                break
            self._close_slice()
        self._next_boundary = self._slice_start(self._current.index + 1)

    def _slice_start(self, index: int) -> float:
        """The smallest float ``t`` with ``int(t // slice_duration) >= index``.

        ``index * slice_duration`` is rounded, so it can sit an ulp short
        of the boundary that ``//`` sees (``0.5 // 0.1 == 4.0``), or past
        it once ``index`` itself no longer converts to float exactly.
        Stepping by ulps until ``//`` agrees makes the cached comparison
        in :meth:`observe` agree with :meth:`tick` for every timestamp.
        """
        duration = self.config.slice_duration
        start = index * duration
        while start // duration < index:
            start = math.nextafter(start, math.inf)
        while math.nextafter(start, -math.inf) // duration >= index:
            start = math.nextafter(start, -math.inf)
        return start

    def _try_fast_forward(self, target_slice: int) -> bool:
        """Jump a converged idle gap straight to ``target_slice``.

        Engages only when every remaining slice close is provably a
        state-identical no-op: the current slice saw no I/O, the counting
        table is empty (nothing left to expire), the window already holds N
        idle slices, and the verdict ring is saturated with one constant
        verdict — so features, verdict, score, and alarm state cannot
        change.  The window contents and slice cursor are rewritten to
        exactly what slice-by-slice closing would have produced; when
        ``keep_history`` is on, the skipped slices are recorded as one
        :class:`EventHistory` segment whose events read back bit-for-bit
        equal to the naive path's.
        """
        skipped = target_slice - self._current.index
        if skipped <= 1:
            return False
        current = self._current
        if current.rio or current.wio or current.owio:
            return False
        if len(self.table) != 0:
            return False
        if not self.window.is_idle_saturated():
            return False
        verdict = self.scores.saturated_constant()
        if verdict is None:
            return False
        # The ring may have saturated on verdicts computed while stale table
        # entries were still alive; fast-forward is only sound when the
        # idle-state features (all zeros here, by construction) keep
        # producing that same verdict.
        features = compute_features(self.table, self.window)
        if self.tree.predict_one(features.as_tuple()) != verdict:
            return False
        score = self.scores.push_constant(verdict, skipped)
        alarm = score >= self.config.threshold
        if self.keep_history:
            self.events.append_gap(current.index, skipped,
                                   self.config.slice_duration, features,
                                   verdict, score, alarm)
        self.window.fill_idle(last_index=target_slice - 1)
        self.fast_forwarded_slices += skipped
        self.probe.slices_skipped(self, features, verdict, score, alarm,
                                  current.index, skipped)
        self._current = SliceStats(index=target_slice)
        return True

    def _close_slice(self) -> None:
        closed = self._current
        self.window.push(closed)
        features = compute_features(self.table, self.window)
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
        if self.keep_history:
            self.events.append(event)
        self.probe.slice_closed(self, event)
        if alarm and self.alarm_event is None:
            self.alarm_event = event
            if self.on_alarm is not None:
                self.on_alarm(event)
        # After the push the window spans slices [next - N, closed.index];
        # entries last touched before that span expire (Alg. 1 line 6).
        next_index = closed.index + 1
        self.table.expire(next_index - self.config.window_slices)
        self._current = SliceStats(index=next_index)

    # -- control ----------------------------------------------------------

    def reset(self) -> None:
        """Forget all state (called after a recovery completes)."""
        self.table.clear()
        self.window = SlidingWindow(self.config.window_slices)
        self.scores.reset()
        self.alarm_event = None
        # Keep the slice cursor where it is: time does not rewind.

    def memory_bytes(self) -> int:
        """Detector DRAM footprint under Table III unit sizes."""
        return self.table.memory_bytes()
