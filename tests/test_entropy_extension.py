"""The SSD-Insider++-style entropy augmentation."""

import pytest

from repro.core.detector import RansomwareDetector
from repro.core.entropy import (
    EntropyTracker,
    HybridDetector,
    byte_entropy,
)
from repro.core.id3 import DecisionTree, TreeNode
from repro.fs.ransomfs import encrypt
from repro.ssd.config import SSDConfig
from repro.ssd.device import SimulatedSSD


def constant_tree(label: int) -> DecisionTree:
    tree = DecisionTree()
    tree.root = TreeNode(label=label)
    return tree


CIPHERTEXT = encrypt(b"The quick brown fox jumps over it. " * 100, b"k" * 32)
PLAINTEXT = b"All work and no play makes Jack a dull boy. " * 50


class TestByteEntropy:
    def test_ciphertext_near_eight_bits(self):
        assert byte_entropy(CIPHERTEXT) > 7.2

    def test_text_well_below(self):
        assert byte_entropy(PLAINTEXT) < 6.0

    def test_zeros_are_zero(self):
        assert byte_entropy(bytes(4096)) == 0.0

    def test_empty_payload(self):
        assert byte_entropy(b"") == 0.0

    def test_sampling_bounds_cost(self):
        # Only the sample prefix matters.
        payload = CIPHERTEXT[:512] + bytes(100_000)
        assert byte_entropy(payload) == byte_entropy(CIPHERTEXT[:512])


class TestEntropyTracker:
    def test_mean_over_slice(self):
        tracker = EntropyTracker()
        tracker.observe_write(bytes(512))       # 0 bits
        tracker.observe_write(CIPHERTEXT)       # ~7.4 bits
        closed = tracker.close_slice()
        assert closed.writes_seen == 2
        assert 3.0 < closed.mean < 4.5

    def test_none_payloads_skipped(self):
        tracker = EntropyTracker()
        tracker.observe_write(None)
        assert tracker.close_slice().writes_seen == 0

    def test_slices_independent(self):
        tracker = EntropyTracker()
        tracker.observe_write(CIPHERTEXT)
        tracker.close_slice()
        assert tracker.close_slice().writes_seen == 0

    def test_counts_ciphertext_writes(self):
        tracker = EntropyTracker()
        tracker.observe_write(CIPHERTEXT)
        tracker.observe_write(PLAINTEXT)
        tracker.observe_write(bytes(512))
        closed = tracker.close_slice()
        assert (closed.ciphertext_writes, closed.writes_seen) == (1, 3)


class TestHybridDetector:
    def test_suppresses_low_entropy_positive(self):
        hybrid = HybridDetector(constant_tree(1))
        hybrid.observe_write(bytes(4096))  # a wiper's zero-fill
        assert hybrid.predict_one([0] * 6) == 0
        assert hybrid.suppressed == 1

    def test_keeps_high_entropy_positive(self):
        hybrid = HybridDetector(constant_tree(1))
        hybrid.observe_write(CIPHERTEXT)
        assert hybrid.predict_one([0] * 6) == 1
        assert hybrid.suppressed == 0

    def test_header_only_degrades_to_model(self):
        """Without payloads the gate must not veto anything."""
        hybrid = HybridDetector(constant_tree(1))
        assert hybrid.predict_one([0] * 6) == 1

    def test_never_promotes_negative(self):
        hybrid = HybridDetector(constant_tree(0))
        hybrid.observe_write(CIPHERTEXT)
        assert hybrid.predict_one([0] * 6) == 0

    def test_threshold_configurable(self):
        hybrid = HybridDetector(constant_tree(1), min_ciphertext_fraction=0.0)
        hybrid.observe_write(PLAINTEXT)
        assert hybrid.predict_one([0] * 6) == 1  # a zero gate vetoes nothing


class TestHybridOnDevice:
    def test_zero_fill_wiping_never_alarms(self):
        """An always-positive header model, gated by entropy: zero-fill
        writes (wiper-like) are vetoed slice after slice."""
        hybrid = HybridDetector(constant_tree(1))
        ssd = SimulatedSSD(SSDConfig.tiny(), tree=hybrid)
        for i in range(200):
            ssd.write(i % 50, bytes(4096), now=0.05 * i)
        ssd.tick(12.0)
        assert not ssd.alarm_raised
        assert hybrid.suppressed > 0

    def test_ciphertext_writes_alarm(self):
        hybrid = HybridDetector(constant_tree(1))
        ssd = SimulatedSSD(SSDConfig.tiny(), tree=hybrid)
        for i in range(200):
            ssd.write(i % 50, CIPHERTEXT[:4096], now=0.05 * i)
        ssd.tick(12.0)
        assert ssd.alarm_raised

    def test_full_pipeline_fs_attack_still_detected(self, pretrained_tree):
        """The real tree + entropy gate still catches the FS ransomware
        (its payloads are genuine ciphertext)."""
        from repro.fs import FilesystemRansomware, SimpleFS
        from repro.nand.geometry import NandGeometry

        hybrid = HybridDetector(pretrained_tree)
        config = SSDConfig(
            geometry=NandGeometry(channels=2, ways=4, blocks_per_chip=128,
                                  pages_per_block=64),
            queue_capacity=16_000,
        )
        device = SimulatedSSD(config, tree=hybrid)
        fs = SimpleFS(device, num_inodes=512)
        fs.format()
        for index in range(250):
            fs.create(f"doc{index}", b"Quarterly report. " * (2000 + index))
        device.tick(device.clock.now + 12.0)
        attacker = FilesystemRansomware(fs, in_place=True, seed=4)
        attacker.run(stop_when=lambda: device.alarm_raised)
        assert device.alarm_raised
