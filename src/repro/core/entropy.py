"""Content-entropy augmentation (the SSD-Insider++ direction).

The paper's conclusion points at "better defense ... algorithms" as future
work; the authors' follow-on system (SSD-Insider++) augments the
header-only features with *content* signals the firmware can compute
cheaply while data streams through it — chiefly the write payload's byte
entropy, since ciphertext is near-uniform while most user data is not.

This module provides that augmentation as an opt-in layer:

* :func:`byte_entropy` — Shannon entropy of a payload sample, as firmware
  would compute it from a 256-bucket histogram;
* :class:`EntropyTracker` — per-slice mean write entropy;
* :class:`HybridDetector` — wraps any header-only model: a slice is
  flagged only when the model fires *and* (when payloads were seen) the
  slice's mean write entropy exceeds a threshold.  It suppresses the
  header-only detector's residual false alarms on wiping-style workloads
  whose overwrite pattern looks malicious but whose payloads are not
  ciphertext.

Trade-off faithfully modelled: entropy inspection costs firmware cycles
per written block (exposed through the Fig. 8 cost model as an extra
constant), and a ransomware that writes low-entropy "ciphertext" (e.g.
format-preserving encoding) defeats the entropy gate — which is why the
hybrid only ever *suppresses* alarms, never replaces the behavioural
features.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from typing import Deque, Optional, Sequence

#: Bytes hashed per payload; firmware would sample, not scan, each page.
SAMPLE_BYTES = 512

#: Per-write classification: ciphertext on a 512-byte sample lands near
#: 7.4+ bits; text/media containers usually below 6.5.
CIPHERTEXT_ENTROPY_BITS = 7.0

#: Per-slice gate: the share of ciphertext-like writes a malicious slice
#: must show.  Ransomware slices are dominated by ciphertext (>80 %, with
#: a little filesystem metadata mixed in); wiping patterns and ordinary
#: saves stay far below.
DEFAULT_CIPHERTEXT_FRACTION = 0.3


def byte_entropy(payload: bytes, sample_bytes: int = SAMPLE_BYTES) -> float:
    """Shannon entropy (bits/byte) over a bounded payload sample."""
    sample = payload[:sample_bytes]
    if not sample:
        return 0.0
    counts = Counter(sample)
    total = len(sample)
    return -sum(
        (count / total) * math.log2(count / total)
        for count in counts.values()
    )


@dataclass
class SliceEntropy:
    """One slice's write-payload entropy aggregate."""

    writes_seen: int = 0
    entropy_sum: float = 0.0
    ciphertext_writes: int = 0

    @property
    def mean(self) -> float:
        """Mean entropy of the slice's sampled writes (0 when none)."""
        if self.writes_seen == 0:
            return 0.0
        return self.entropy_sum / self.writes_seen


class EntropyTracker:
    """Accumulates per-slice write-payload entropy."""

    def __init__(self) -> None:
        self._current = SliceEntropy()

    def observe_write(self, payload: Optional[bytes]) -> None:
        """Fold one write's payload in (None payloads are skipped)."""
        if payload is None:
            return
        entropy = byte_entropy(payload)
        self._current.writes_seen += 1
        self._current.entropy_sum += entropy
        if entropy >= CIPHERTEXT_ENTROPY_BITS:
            self._current.ciphertext_writes += 1

    def close_slice(self) -> SliceEntropy:
        """End the current slice and return its aggregate."""
        closed = self._current
        self._current = SliceEntropy()
        return closed


class HybridDetector:
    """Header-model verdicts gated by write-payload entropy.

    The gate aggregates over the same sliding window the score uses: a
    per-slice gate would let read-only slices through (their verdict can
    be positive via PWIO while the slice itself wrote nothing), so the
    veto considers all writes of the last N slices.

    Args:
        model: Any object with ``predict_one(six_feature_row) -> int``.
        min_ciphertext_fraction: A positive header verdict is suppressed
            when the window's ciphertext-like write share falls below this
            (only when payloads were seen — a header-only deployment
            degrades gracefully to the model).
        window_slices: Gate window length (the paper's N = 10).
    """

    def __init__(
        self,
        model,
        min_ciphertext_fraction: float = DEFAULT_CIPHERTEXT_FRACTION,
        window_slices: int = 10,
    ) -> None:
        self.model = model
        self.min_ciphertext_fraction = min_ciphertext_fraction
        self.tracker = EntropyTracker()
        self._window: Deque[SliceEntropy] = deque(maxlen=window_slices)
        #: Positive header verdicts vetoed by low payload entropy.
        self.suppressed = 0

    def observe_write(self, payload: Optional[bytes]) -> None:
        """Feed one write's payload for the current slice."""
        self.tracker.observe_write(payload)

    def predict_one(self, row: Sequence[float]) -> int:
        """Classify the closing slice (call exactly once per slice)."""
        verdict = self.model.predict_one(row)
        self._window.append(self.tracker.close_slice())
        writes = sum(s.writes_seen for s in self._window)
        ciphertext = sum(s.ciphertext_writes for s in self._window)
        if (
            verdict == 1
            and writes > 0
            and ciphertext / writes < self.min_ciphertext_fraction
        ):
            self.suppressed += 1
            return 0
        return verdict
