import numpy as np
import pytest

from spinbond.rng import RngStream

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**70 + 3]
KEYS = [(0,), (3, 0), (1, 2, 7), (2**33,)]


def _reference(seed: int, key: tuple[int, ...]) -> np.random.Generator:
    """numpy's own derivation, independent of the code under test."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def _assert_same_generator(gen: np.random.Generator, ref: np.random.Generator, i: int) -> None:
    assert gen.bit_generator.state == ref.bit_generator.state, i
    assert np.array_equal(gen.random(5), ref.random(5)), i
    assert gen.exponential() == ref.exponential(), i


@pytest.mark.parametrize("key", KEYS)
@pytest.mark.parametrize("seed", SEEDS)
def test_block_derivation_equals_seed_sequence(seed, key):
    # 2100 consecutive indices, each against numpy's own derivation.
    stream = RngStream(seed, key)
    for i in range(2100):
        _assert_same_generator(stream.substream(i), _reference(seed, key + (i,)), i)


@pytest.mark.parametrize(
    "indices",
    [
        [1023, 1024, 3, 5 * 1024 + 7, 3],  # indices out of order
        [2**32 - 2, 2**32 - 1, 2**32, 2**32 + 1],  # one to two 32-bit words
        [2**63, 2**64 - 1],  # the largest uint64 indices
    ],
)
def test_block_derivation_out_of_order_and_large(indices):
    stream = RngStream(2**70 + 3, (2**33,))
    for i in indices:
        _assert_same_generator(stream.substream(i), _reference(stream.seed, stream.key + (i,)), i)


def test_substream_spawns_like_seed_sequence():
    stream = RngStream(17, (4,))
    gen, ref = stream.substream(9), _reference(17, (4, 9))
    for n in (2, 1):  # the second spawn continues the first's child count
        for child, ref_child in zip(gen.spawn(n), ref.spawn(n)):
            _assert_same_generator(child, ref_child, n)
    seed_seq, ref_seq = gen.bit_generator.seed_seq, ref.bit_generator.seed_seq
    for n_words in (4, 8):
        assert np.array_equal(seed_seq.generate_state(n_words), ref_seq.generate_state(n_words))


def test_substreams_are_independent_generators():
    stream = RngStream(3)
    a, b = stream.substream(1), stream.substream(1)
    assert a is not b
    first = a.random(4)
    assert np.array_equal(b.random(4), first)


def test_block_derivation_rejects_what_seed_sequence_rejects():
    for seed, key, index in ((-1, (0,), 0), (0, (-2,), 0), (0, (0,), -1)):
        with pytest.raises(ValueError):
            _reference(seed, key + (index,))
        with pytest.raises(ValueError):
            RngStream(seed, key).substream(index)
