"""Decision attribution: why each slice was (or was not) called ransomware.

The detector's verdict per slice is a root-to-leaf walk of the ID3 tree;
this module captures that walk — node by node — together with the slice's
six-feature vector, the window score, and a per-feature **margin to
flip**: how far each tested feature value sits from the tightest
threshold on the path, i.e. the smallest change that would have sent the
walk down the other branch.  Alarms become explainable ("OWST=0.93
cleared the 0.41 threshold by 0.52") and so do **near-misses** — score
peaks that approached the alarm threshold without reaching it, which is
exactly the evidence needed to debug false-negative windows and
distribution shift (Reategui et al., 2024; see PAPERS.md).

Recording is strictly read-only over the detector's state: a
forensics-enabled run produces a bit-identical
:class:`~repro.core.detector.DetectionEvent` stream to a plain run
(asserted by ``tests/test_flightrec.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Deque, Dict, Optional, Tuple

from repro.core.id3 import DecisionTree, TreePath

#: Default ring capacity for recorded slice attributions.
DEFAULT_SLICE_CAPACITY = 64

#: Default bound on retained near-miss records.
DEFAULT_NEAR_MISS_CAPACITY = 16


def path_margins(path: TreePath) -> Dict[str, float]:
    """Per-feature margin to flip along one inference path.

    For every feature tested on the path, the margin is the minimum
    ``|value - threshold|`` over the nodes testing it — the smallest
    perturbation of that single feature that would change at least one
    branch decision.  Features never tested on the path do not appear:
    no change to them alone can alter this particular walk.
    """
    margins: Dict[str, float] = {}
    for step in path.steps:
        distance = abs(step.value - step.threshold)
        previous = margins.get(step.feature_name)
        if previous is None or distance < previous:
            margins[step.feature_name] = distance
    return margins


@dataclass(frozen=True)
class SliceAttribution:
    """One closed slice, fully explained.

    Attributes:
        time: Slice-close simulated time (matches the
            :class:`~repro.core.detector.DetectionEvent` timestamp).
        slice_index: The closed slice's index.
        features: The six-feature vector, by feature name.
        verdict: Raw tree verdict for the slice (0/1).
        score: Window score after the slice entered the ring.
        alarm: True when the score reached the alarm threshold.
        path: The exact root-to-leaf tree path that produced ``verdict``.
        margins: Per-feature margin to flip (see :func:`path_margins`).
        near_miss: Set on the retained copy of a score peak that stayed
            below the threshold (never set on ring entries in place).
    """

    time: float
    slice_index: int
    features: Dict[str, float]
    verdict: int
    score: int
    alarm: bool
    path: TreePath
    margins: Dict[str, float]
    near_miss: bool = False

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready rendering for incident bundles."""
        return {
            "time": self.time,
            "slice_index": self.slice_index,
            "features": dict(self.features),
            "verdict": self.verdict,
            "score": self.score,
            "alarm": self.alarm,
            "near_miss": self.near_miss,
            "path": self.path.as_dict(),
            "margins": dict(self.margins),
        }


class AttributionRecorder:
    """Bounded ring of slice attributions plus retained near-misses.

    Args:
        capacity: Ring size for recent slice attributions.
        threshold: Alarm threshold used to classify score peaks as
            near-misses; an :class:`~repro.obs.Observability` re-stamps
            it from the publishing detector's config.
        near_miss_capacity: Bound on retained near-miss records.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_SLICE_CAPACITY,
        threshold: int = 3,
        near_miss_capacity: int = DEFAULT_NEAR_MISS_CAPACITY,
    ) -> None:
        self.capacity = capacity
        self.threshold = threshold
        self.slices: Deque[SliceAttribution] = deque(maxlen=capacity)
        self.near_misses: Deque[SliceAttribution] = deque(
            maxlen=near_miss_capacity
        )
        #: Total attributions ever recorded (ring drops do not rewind it).
        self.recorded = 0
        self._previous: Optional[SliceAttribution] = None
        self._rising = False

    @property
    def dropped(self) -> int:
        """Attributions evicted from the ring so far."""
        return max(0, self.recorded - len(self.slices))

    @property
    def latest(self) -> Optional[SliceAttribution]:
        """The most recently recorded attribution, if any."""
        return self.slices[-1] if self.slices else None

    def record(
        self,
        tree: DecisionTree,
        features: Dict[str, float],
        feature_row: Tuple[float, ...],
        time: float,
        slice_index: int,
        verdict: int,
        score: int,
        alarm: bool,
    ) -> SliceAttribution:
        """Explain one closed slice and fold it into the ring."""
        path = tree.explain_one(feature_row)
        attribution = SliceAttribution(
            time=time,
            slice_index=slice_index,
            features=features,
            verdict=verdict,
            score=score,
            alarm=alarm,
            path=path,
            margins=path_margins(path),
        )
        self._note(attribution)
        return attribution

    def record_repeat(
        self,
        tree: DecisionTree,
        features: Dict[str, float],
        feature_row: Tuple[float, ...],
        verdict: int,
        score: int,
        alarm: bool,
        first_index: int,
        count: int,
        slice_duration: float,
    ) -> None:
        """Record ``count`` state-identical slices (the fast-forward gap).

        The tree path is computed once; only the last ``capacity`` of the
        gap's slices are materialised (the earlier ones would be evicted
        immediately), while :attr:`recorded` still advances by the full
        ``count`` so drop accounting stays exact.
        """
        if count <= 0:
            return
        path = tree.explain_one(feature_row)
        margins = path_margins(path)
        skipped = max(0, count - self.capacity)
        self.recorded += skipped
        for index in range(first_index + skipped, first_index + count):
            self._note(SliceAttribution(
                time=(index + 1) * slice_duration,
                slice_index=index,
                features=features,
                verdict=verdict,
                score=score,
                alarm=alarm,
                path=path,
                margins=margins,
            ))

    def _note(self, attribution: SliceAttribution) -> None:
        """Append to the ring and update the near-miss peak tracker."""
        self.slices.append(attribution)
        self.recorded += 1
        previous = self._previous
        if previous is not None:
            if attribution.score > previous.score:
                self._rising = True
            elif attribution.score < previous.score:
                if self._rising and previous.score < self.threshold:
                    self.near_misses.append(replace(previous, near_miss=True))
                self._rising = False
        elif attribution.score > 0:
            self._rising = True
        self._previous = attribution

    def snapshot(self, since_time: Optional[float] = None) -> Dict[str, object]:
        """JSON-ready dump of the ring (optionally trimmed to a window)."""
        slices = [
            attribution.as_dict()
            for attribution in self.slices
            if since_time is None or attribution.time >= since_time
        ]
        return {
            "capacity": self.capacity,
            "recorded": self.recorded,
            "dropped": self.dropped,
            "threshold": self.threshold,
            "slices": slices,
            "near_misses": [
                attribution.as_dict() for attribution in self.near_misses
            ],
        }
