"""Stream keying: one reproducible, independent stream per (seed, path...) address."""

import numpy as np
import pytest

from cclab import seeding

ADDRESSES = [(0,), (0, 0, 4, 0), (7, 0, 16, 1), (2 ** 64 - 1, 0, 4), (2 ** 65 - 1, 0, 4),
             (2 ** 200 + 3, 2, 1024, 999)]


@pytest.mark.parametrize("address", ADDRESSES, ids=str)
def test_a_stream_reproduces_its_words(address):
    a = seeding.stream(*address).bit_generator.random_raw(1000)
    b = seeding.stream(*address).bit_generator.random_raw(1000)
    assert a.tobytes() == b.tobytes()


def test_adjacent_batch_addresses_share_no_word():
    # 10^7 random 64-bit words repeat with probability about 3e-6
    seed, n, batches = 2026, 1024, 1000
    heads = np.empty((batches, 10_000), dtype=np.uint64)
    for b in range(batches):
        heads[b] = seeding.stream(seed, 0, n, b).bit_generator.random_raw(heads.shape[1])
    for pool in (heads[:, 0], heads.ravel()):  # the first words, then all of them
        pool = np.sort(pool)
        assert not (pool[1:] == pool[:-1]).any()


def test_seeds_equal_modulo_2_to_the_64_draw_distinct_streams():
    seeds = [1, 2 ** 64 - 1, 2 ** 64, 2 ** 64 + 1, 2 ** 65 - 1, 2 ** 128 + 1]
    firsts = {int(seeding.stream(s, 0, 4).bit_generator.random_raw()) for s in seeds}
    assert len(firsts) == len(seeds)


def test_a_negative_seed_has_no_stream():
    with pytest.raises(ValueError):
        seeding.stream(-1, 0, 4)


def test_a_path_entry_outside_32_bits_has_no_stream():
    # SeedSequence reads each entry as 32-bit words, so a wider entry would
    # alias another path: stream(3, 0, 2**32 + 1, 5) and (3, 0, 1, 1 + 5 * 2**32)
    for path in ((0, 2 ** 32 + 1, 5), (0, 1, 1 + 5 * 2 ** 32), (0, 2 ** 32), (-1,)):
        with pytest.raises(ValueError, match="2\\^32"):
            seeding.stream(3, *path)
    draw = lambda *path: seeding.stream(3, *path).bit_generator.random_raw(4).tobytes()
    assert draw(0, 2 ** 32 - 1, 5) == draw(0, 2 ** 32 - 1, 5) != draw(0, 0, 5)


def test_a_wide_number_enters_a_path_as_the_words_it_was_read_as():
    # so an mcengine walk of n >= 2^32 steps keeps the stream it drew unchecked
    for x in (0, 5, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 36 - 1, 2 ** 64 + 7):
        old = np.random.SFC64(np.random.SeedSequence(3, spawn_key=(0, x, 5))).random_raw(4)
        assert seeding.stream(3, 0, *seeding.words(x), 5).bit_generator.random_raw(4).tobytes() \
            == old.tobytes()
