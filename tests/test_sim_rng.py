"""Deterministic RNG helpers."""

import copy

import pytest

from repro.sim.rng import DeterministicRng


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = DeterministicRng(7)
        b = DeterministicRng(7)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_seeds_differ(self):
        a = DeterministicRng(1)
        b = DeterministicRng(2)
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_fork_is_deterministic(self):
        a = DeterministicRng(7).fork(3)
        b = DeterministicRng(7).fork(3)
        assert a.random() == b.random()

    def test_fork_streams_are_independent(self):
        base = DeterministicRng(7)
        assert base.fork(1).random() != base.fork(2).random()


class TestZipf:
    def test_values_in_range(self):
        rng = DeterministicRng(1)
        samples = [rng.zipf(100, 1.0) for _ in range(500)]
        assert all(0 <= s < 100 for s in samples)

    def test_low_ranks_most_popular(self):
        rng = DeterministicRng(1)
        samples = [rng.zipf(1000, 1.2) for _ in range(5000)]
        top_decile = sum(1 for s in samples if s < 100)
        assert top_decile > len(samples) * 0.5

    def test_higher_alpha_more_skew(self):
        low = DeterministicRng(1)
        high = DeterministicRng(1)
        low_hits = sum(1 for _ in range(3000) if low.zipf(1000, 0.8) < 10)
        high_hits = sum(1 for _ in range(3000) if high.zipf(1000, 2.0) < 10)
        assert high_hits > low_hits

    def test_single_element(self):
        assert DeterministicRng(1).zipf(1, 1.0) == 0

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            DeterministicRng(1).zipf(0, 1.0)


def _drawn(rng: DeterministicRng) -> DeterministicRng:
    """``rng`` after a few draws; the odd gauss leaves one value cached."""
    [rng.random() for _ in range(3)]
    rng.gauss(0.0, 1.0)
    return rng


def _draws(rng: DeterministicRng) -> list:
    """One draw through each passthrough and one straight from the stream."""
    return [rng.random(), rng.gauss(0.0, 1.0), rng.uniform(0.0, 1.0),
            rng.expovariate(2.0), rng.randint(0, 1 << 30), rng.zipf(50),
            rng.stream.random()]


class TestCopy:
    """A deep copy is a second generator at the same point of the stream."""

    def test_copy_continues_the_sequence(self):
        rng = _drawn(DeterministicRng(7))
        twin = copy.deepcopy(rng)
        assert _draws(twin) == _draws(rng)

    def test_drawing_from_the_copy_leaves_the_original(self):
        rng = _drawn(DeterministicRng(7))
        twin = copy.deepcopy(rng)
        _draws(twin)
        assert _draws(rng) == _draws(_drawn(DeterministicRng(7)))

    def test_drawing_from_the_original_leaves_the_copy(self):
        rng = _drawn(DeterministicRng(7))
        twin = copy.deepcopy(rng)
        _draws(rng)
        assert _draws(twin) == _draws(_drawn(DeterministicRng(7)))

    def test_fork_ignores_the_stream_position(self):
        rng = _drawn(DeterministicRng(7))
        twin = copy.deepcopy(rng)
        _draws(twin)
        assert (_draws(twin.fork(3)) == _draws(rng.fork(3))
                == _draws(DeterministicRng(7).fork(3)))
