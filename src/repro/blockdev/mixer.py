"""Time-ordered merging of concurrent request streams.

A scenario runs a ransomware and a background application concurrently; each
produces its own time-stamped stream, and the block layer sees the merge.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator, List

from repro.blockdev.request import IORequest


def merge_streams(streams: Iterable[Iterable[IORequest]]) -> Iterator[IORequest]:
    """Merge independently time-ordered request streams into one.

    Each input stream must be non-decreasing in time; the output preserves a
    global time order.  Ties are broken by stream index so merging is
    deterministic.  A stream has at most one entry in the heap at a time,
    so ``(time, stream index)`` is unique and the heap never compares two
    requests.
    """
    iterators = [iter(stream) for stream in streams]
    heap: List = []
    for index, iterator in enumerate(iterators):
        first = next(iterator, None)
        if first is not None:
            heapq.heappush(heap, (first.time, index, first))
    while heap:
        _, index, request = heapq.heappop(heap)
        yield request
        following = next(iterators[index], None)
        if following is not None:
            heapq.heappush(heap, (following.time, index, following))
