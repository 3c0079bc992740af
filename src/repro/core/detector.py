"""The real-time detector: Algorithm 1 of the paper, end to end.

Feed it every I/O request header; it maintains the counting table, closes a
time slice whenever the timestamps cross a slice boundary, evaluates the
six features, runs the ID3 tree, slides the score window, and raises the
alarm once the score reaches the threshold.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Union

from repro.blockdev.request import IORequest
from repro.core.config import DetectorConfig
from repro.core.counting_table import CountingTable
from repro.core.features import FeatureVector, compute_features
from repro.core.id3 import DecisionTree
from repro.core.score import ScoreTracker
from repro.core.window import SliceStats, SlidingWindow
from repro.obs import Observability


@dataclass(frozen=True)
class DetectionEvent:
    """One closed slice's outcome: features, verdict, and window score."""

    time: float
    slice_index: int
    features: FeatureVector
    verdict: int
    score: int
    alarm: bool


class RansomwareDetector:
    """Header-only behavioural ransomware detector (Algorithm 1).

    Args:
        tree: A trained ID3 tree; defaults to the library's pretrained tree.
        config: Slice/window/threshold parameters.
        on_alarm: Optional callback invoked once, with the triggering
            :class:`DetectionEvent`, when the score first reaches the
            threshold.
        keep_history: Record every :class:`DetectionEvent` in
            :attr:`events` (on by default; disable for long streams).
        max_history: With ``keep_history``, bound :attr:`events` to the
            most recent ``max_history`` entries (drop-oldest ring;
            :attr:`dropped_events` counts evictions) so always-on history
            in long sweeps cannot grow without bound.
        obs: Observability bundle; when enabled, every closed slice emits
            a ``detector.slice`` instant (feature values + verdict +
            score) and the verdict/score metrics update.  When the bundle
            carries a :class:`~repro.obs.flightrec.FlightRecorder`, every
            closed slice is also attributed (exact ID3 tree path +
            margins) into its ring — recording only, never behaviour:
            the event stream stays bit-identical to an un-observed run.
    """

    def __init__(
        self,
        tree: Optional[DecisionTree] = None,
        config: Optional[DetectorConfig] = None,
        on_alarm: Optional[Callable[[DetectionEvent], None]] = None,
        keep_history: bool = True,
        max_history: Optional[int] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.config = config or DetectorConfig()
        if tree is None:
            from repro.core.pretrained import default_tree

            tree = default_tree()
        self.tree = tree
        self.on_alarm = on_alarm
        self.keep_history = keep_history
        self.obs = obs if obs is not None else Observability.off()
        self._m_slices = None
        self._m_score = None
        self._m_alarms = None
        if self.obs.enabled:
            metrics = self.obs.metrics
            self._m_slices = metrics.counter(
                "detector_slices_total",
                "Closed time slices, by tree verdict.",
                labelnames=("verdict",),
            )
            self._m_score = metrics.gauge(
                "detector_score",
                "Current sliding-window score (0..window size).",
            )
            self._m_alarms = metrics.counter(
                "detector_alarms_total", "Alarms raised."
            )
        self._fr = self.obs.flightrec
        if self._fr is not None:
            # The recorder classifies near-misses against this detector's
            # own operating point, not its construction-time default.
            self._fr.attribution.threshold = self.config.threshold
        self.table = CountingTable()
        self.window = SlidingWindow(self.config.window_slices)
        self.scores = ScoreTracker(self.config.window_slices)
        self.events: Union[List[DetectionEvent], Deque[DetectionEvent]] = (
            deque(maxlen=max_history) if max_history is not None else []
        )
        self._events_recorded = 0
        self.alarm_event: Optional[DetectionEvent] = None
        self._current = SliceStats(index=0)
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

    @property
    def dropped_events(self) -> int:
        """History entries evicted by the ``max_history`` ring so far."""
        return max(0, self._events_recorded - len(self.events))

    def observe(self, request: IORequest) -> None:
        """Ingest one request header (multi-block requests are split).

        Multi-block requests are folded block-by-block without materialising
        per-unit :class:`IORequest` objects — Algorithm 1's ``Length == 1``
        semantics at a fraction of the allocation cost.
        """
        self.tick(request.time)
        current = self._current
        index = current.index
        if request.is_read:
            current.rio += request.length
            record_read = self.table.record_read
            for lba in range(request.lba, request.end_lba):
                record_read(lba, index)
        else:
            current.wio += request.length
            record_write = self.table.record_write
            overwritten = current.overwritten_lbas
            for lba in range(request.lba, request.end_lba):
                if record_write(lba, index):
                    current.owio += 1
                    overwritten.add(lba)

    def tick(self, now: float) -> None:
        """Advance simulated time, closing any slices that have expired.

        Call this even without I/O so quiet periods still decay the score.
        Long idle gaps do not cost one loop iteration per empty slice: once
        the detector state has provably converged (empty counting table,
        idle-saturated window, constant verdict ring), the remaining gap is
        fast-forwarded in O(window_slices) — see :meth:`_try_fast_forward`.
        """
        target_slice = int(now // self.config.slice_duration)
        while self._current.index < target_slice:
            if self._try_fast_forward(target_slice):
                break
            self._close_slice()

    def _try_fast_forward(self, target_slice: int) -> bool:
        """Jump a converged idle gap straight to ``target_slice``.

        Engages only when every remaining slice close is provably a
        state-identical no-op: the current slice saw no I/O, the counting
        table is empty (nothing left to expire), the window already holds N
        idle slices, and the verdict ring is saturated with one constant
        verdict — so features, verdict, score, and alarm state cannot
        change.  The window contents and slice cursor are rewritten to
        exactly what slice-by-slice closing would have produced; when
        ``keep_history`` is on, the skipped slices' (identical) events are
        still recorded so the event stream stays bit-for-bit equal to the
        naive path.
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
            duration = self.config.slice_duration
            self.events.extend(
                DetectionEvent(
                    time=(index + 1) * duration,
                    slice_index=index,
                    features=features,
                    verdict=verdict,
                    score=score,
                    alarm=alarm,
                )
                for index in range(current.index, target_slice)
            )
            self._events_recorded += skipped
        if self._fr is not None:
            self._fr.attribution.record_repeat(
                self.tree, features.as_dict(), features.as_tuple(),
                verdict, score, alarm,
                first_index=current.index, count=skipped,
                slice_duration=self.config.slice_duration,
            )
        self.window.fill_idle(last_index=target_slice - 1)
        self.fast_forwarded_slices += skipped
        if self.obs.enabled:
            self._m_slices.inc(skipped, verdict=verdict)
            self._m_score.set(score)
            tracer = self.obs.tracer
            if tracer.enabled:
                tracer.instant(
                    "detector.fast_forward", category="detector",
                    sim_time=target_slice * self.config.slice_duration,
                    slices=skipped, verdict=verdict, score=score,
                )
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
            self._events_recorded += 1
        if self._fr is not None:
            # Attribute before the alarm hook runs: the incident snapshot
            # cut by the hook must already see the alarming slice's path.
            self._fr.attribution.record(
                self.tree, features.as_dict(), features.as_tuple(),
                event.time, closed.index, verdict, score, alarm,
            )
        if self.obs.enabled:
            self._m_slices.inc(verdict=verdict)
            self._m_score.set(score)
            tracer = self.obs.tracer
            if tracer.enabled:
                tracer.instant(
                    "detector.slice", category="detector",
                    sim_time=event.time, slice_index=closed.index,
                    verdict=verdict, score=score, **features.as_dict(),
                )
        if alarm and self.alarm_event is None:
            self.alarm_event = event
            if self.obs.enabled:
                self._m_alarms.inc()
                self.obs.tracer.instant(
                    "detector.alarm", category="detector",
                    sim_time=event.time, slice_index=closed.index,
                    score=score, threshold=self.config.threshold,
                )
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
