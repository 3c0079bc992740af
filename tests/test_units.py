"""Unit constants."""

import pytest

from repro import units


class TestTimeConstants:
    def test_ns_value(self):
        assert units.NS == pytest.approx(1e-9)

    def test_us_is_thousand_ns(self):
        assert units.US == pytest.approx(1000 * units.NS)


class TestSizeHelpers:
    def test_block_size_is_4k(self):
        assert units.BLOCK_SIZE == 4096
