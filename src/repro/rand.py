"""Seeded randomness plumbing.

Workload generators derive independent child RNGs from one root seed so that
adding a workload to a scenario never perturbs the streams of the others, and
the same seed always regenerates the same traces.
"""

from __future__ import annotations

import hashlib

import numpy as np

DEFAULT_SEED = 20180707  # ICDCS 2018 + a stable offset; arbitrary but fixed.


def derive_seed(seed: int, *labels: str) -> int:
    """Derive a stable child seed from a root seed and a label path.

    The derivation hashes the labels so that e.g. ``("scenario-3", "wannacry")``
    and ``("scenario-3", "dropbox")`` get decorrelated streams regardless of
    the order they are created in.
    """
    hasher = hashlib.sha256(str(seed).encode("utf-8"))
    for label in labels:
        hasher.update(b"/")
        hasher.update(label.encode("utf-8"))
    return int.from_bytes(hasher.digest()[:8], "big")


def derive_rng(seed: int, *labels: str) -> np.random.Generator:
    """Create a child RNG for ``labels`` under ``seed``."""
    return np.random.default_rng(derive_seed(seed, *labels))
