"""Trace container: an ordered list of I/O request headers plus statistics.

Traces are how workloads, the detector, and the experiments communicate: a
workload *generates* a trace, the SSD *replays* it, and the analysis modules
*summarise* it.  Traces can be persisted as JSON-lines for inspection.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Union

from repro.blockdev.request import IOMode, IORequest
from repro.errors import TraceError


@dataclass(frozen=True)
class TraceStats:
    """Aggregate statistics over a trace."""

    num_requests: int
    num_reads: int
    num_writes: int
    blocks_read: int
    blocks_written: int
    duration: float
    unique_lbas: int

    @property
    def write_fraction(self) -> float:
        """Fraction of requests that are writes."""
        if self.num_requests == 0:
            return 0.0
        return self.num_writes / self.num_requests


class Trace:
    """An append-only, time-ordered sequence of :class:`IORequest`.

    Appends must be non-decreasing in time; this mirrors how a real block
    layer hands requests to the device and lets replay be a single pass.
    """

    def __init__(self, requests: Optional[Iterable[IORequest]] = None) -> None:
        self._requests: List[IORequest] = []
        if requests is not None:
            for request in requests:
                self.append(request)

    def append(self, request: IORequest) -> None:
        """Append one request; raises :class:`TraceError` on time regression."""
        if self._requests and request.time < self._requests[-1].time:
            raise TraceError(
                f"out-of-order append: {request.time} < {self._requests[-1].time}"
            )
        self._requests.append(request)

    def extend(self, requests: Iterable[IORequest]) -> None:
        """Append many requests in order."""
        for request in requests:
            self.append(request)

    def __len__(self) -> int:
        return len(self._requests)

    def __iter__(self) -> Iterator[IORequest]:
        return iter(self._requests)

    def __getitem__(self, index: int) -> IORequest:
        return self._requests[index]

    @property
    def duration(self) -> float:
        """Time span from the first to the last request (0 for short traces)."""
        if len(self._requests) < 2:
            return 0.0
        return self._requests[-1].time - self._requests[0].time

    @property
    def start_time(self) -> float:
        """Timestamp of the first request (0.0 for an empty trace)."""
        return self._requests[0].time if self._requests else 0.0

    @property
    def end_time(self) -> float:
        """Timestamp of the last request (0.0 for an empty trace)."""
        return self._requests[-1].time if self._requests else 0.0

    def stats(self) -> TraceStats:
        """Compute aggregate statistics in one pass."""
        num_reads = num_writes = blocks_read = blocks_written = 0
        lbas = set()
        for request in self._requests:
            if request.is_read:
                num_reads += 1
                blocks_read += request.length
            else:
                num_writes += 1
                blocks_written += request.length
            lbas.update(request.lbas())
        return TraceStats(
            num_requests=len(self._requests),
            num_reads=num_reads,
            num_writes=num_writes,
            blocks_read=blocks_read,
            blocks_written=blocks_written,
            duration=self.duration,
            unique_lbas=len(lbas),
        )

    def sources(self) -> Dict[str, int]:
        """Request counts per source label (unlabelled requests under '')."""
        counts: Dict[str, int] = {}
        for request in self._requests:
            key = request.source or ""
            counts[key] = counts.get(key, 0) + 1
        return counts

    # -- persistence ---------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        """Write the trace as JSON-lines (one request per line)."""
        path = Path(path)
        with path.open("w", encoding="utf-8") as handle:
            for request in self._requests:
                record = {
                    "t": request.time,
                    "lba": request.lba,
                    "mode": request.mode.value,
                    "len": request.length,
                }
                if request.source is not None:
                    record["src"] = request.source
                handle.write(json.dumps(record) + "\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Trace":
        """Read a trace previously written by :meth:`save`.

        Any malformed line — bad UTF-8 or JSON, a missing field, a time
        that is not a finite non-negative number, an LBA or length that is
        not an integer (booleans included), a bad mode or source — raises
        :class:`TraceError` naming the line, never a bare Python error.
        """
        path = Path(path)
        trace = cls()
        with path.open("rb") as handle:
            for line_number, raw in enumerate(handle, start=1):
                try:
                    line = raw.decode("utf-8").strip()
                    if not line:
                        continue
                    record = json.loads(line)
                    request = IORequest(
                        time=_typed(record["t"], "t", (int, float)),
                        lba=_typed(record["lba"], "lba", (int,)),
                        mode=IOMode(record["mode"]),
                        length=_typed(record["len"], "len", (int,)),
                        source=_typed(record.get("src"), "src", (str, type(None))),
                    )
                except (KeyError, ValueError, TypeError, RecursionError) as exc:
                    raise TraceError(f"{path}:{line_number}: bad record: {exc}") from exc
                trace.append(request)
        return trace

    def __repr__(self) -> str:
        return f"Trace(n={len(self._requests)}, duration={self.duration:.1f}s)"


def _typed(value: object, key: str, types: tuple) -> object:
    """``value`` if its exact type is one of ``types``, else ``TypeError``.

    Exact, so a JSON ``true`` is not taken for the integer 1.
    """
    if type(value) not in types:
        names = " or ".join(t.__name__ for t in types)
        raise TypeError(f"{key!r} must be {names}, got {type(value).__name__}")
    return value
