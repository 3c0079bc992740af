"""Time-ordered stream merging."""

import hashlib

from repro.blockdev.mixer import merge_streams
from repro.blockdev.request import read
from repro.tools.profile import GOLDEN_SEED, golden_scenario


class TestMergeStreams:
    def test_merges_in_time_order(self):
        a = [read(0.0, 0), read(2.0, 1)]
        b = [read(1.0, 10), read(3.0, 11)]
        merged = list(merge_streams([a, b]))
        assert [r.time for r in merged] == [0.0, 1.0, 2.0, 3.0]

    def test_tie_broken_by_stream_index(self):
        a = [read(1.0, 0, source="a")]
        b = [read(1.0, 1, source="b")]
        merged = list(merge_streams([a, b]))
        assert [r.source for r in merged] == ["a", "b"]

    def test_empty_streams(self):
        assert list(merge_streams([[], []])) == []

    def test_single_stream_passthrough(self):
        a = [read(0.0, 0), read(1.0, 1)]
        assert list(merge_streams([a])) == a

    def test_preserves_within_stream_order_for_equal_times(self):
        a = [read(1.0, 0), read(1.0, 1), read(1.0, 2)]
        merged = list(merge_streams([a]))
        assert [r.lba for r in merged] == [0, 1, 2]

    def test_three_streams(self):
        streams = [
            [read(0.0, 0), read(3.0, 1)],
            [read(1.0, 2)],
            [read(2.0, 3)],
        ]
        merged = list(merge_streams(streams))
        assert [r.lba for r in merged] == [0, 2, 3, 1]

    def test_lazy_generators_supported(self):
        def generator(start):
            for i in range(3):
                yield read(start + i, 100 + i)

        merged = list(merge_streams([generator(0.0), generator(0.5)]))
        assert len(merged) == 6
        assert merged == sorted(merged, key=lambda r: r.time)

    def test_tied_timestamps_come_out_in_stream_order(self):
        # Every stream ties with every other at each instant; requests are
        # never compared, and each tie comes out lowest stream first.
        streams = [
            [read(float(t), 10 * t + index, source=str(index))
             for t in range(3)]
            for index in range(4)
        ]
        merged = list(merge_streams(streams))
        assert [(r.time, r.source) for r in merged] == [
            (float(t), str(index)) for t in range(3) for index in range(4)
        ]


def test_scenario_trace_unchanged():
    """The golden scenario's merged trace, request for request."""
    run = golden_scenario(duration=20.0).build(seed=GOLDEN_SEED,
                                               duration=20.0)
    digest = hashlib.sha256()
    sources = {}
    for request in run.trace:
        digest.update(repr((request.time, request.lba, request.length,
                            request.mode.value, request.source)).encode())
        sources[request.source] = sources.get(request.source, 0) + 1
    assert sources == {"cloudstorage": 120, "wannacry": 4122}
    assert digest.hexdigest() == (
        "1ecd25fad68941e42f6526cc728f63370d4791e7dce8ec1827be32a6683af43b")
