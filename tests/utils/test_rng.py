"""Unit tests for deterministic RNG helpers."""

from repro.utils.rng import DEFAULT_SEED, make_rng


class TestMakeRng:
    def test_same_seed_same_stream(self):
        a = make_rng(42).integers(0, 1000, size=10)
        b = make_rng(42).integers(0, 1000, size=10)
        assert (a == b).all()

    def test_different_seeds_differ(self):
        a = make_rng(1).integers(0, 1_000_000, size=10)
        b = make_rng(2).integers(0, 1_000_000, size=10)
        assert (a != b).any()

    def test_none_uses_default_seed(self):
        a = make_rng(None).integers(0, 1000, size=5)
        b = make_rng(DEFAULT_SEED).integers(0, 1000, size=5)
        assert (a == b).all()

