"""Seed derivation determinism and independence."""

from repro.rand import DEFAULT_SEED, derive_rng, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")

    def test_label_changes_seed(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_root_seed_changes_seed(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_label_order_matters(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")

    def test_nesting_is_not_concatenation(self):
        # ("ab",) and ("a", "b") must differ: the separator prevents
        # accidental collisions between label paths.
        assert derive_seed(1, "ab") != derive_seed(1, "a", "b")


class TestRngs:
    def test_derive_rng_streams_differ(self):
        a = derive_rng(7, "x").integers(0, 10**9)
        b = derive_rng(7, "y").integers(0, 10**9)
        assert a != b

    def test_default_seed_stable(self):
        assert DEFAULT_SEED == 20180707
