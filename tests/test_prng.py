import tracemalloc

import numpy as np
import pytest

from sievelab import prng
from sievelab.errors import DomainError


def test_mix64_is_deterministic_and_64bit():
    for z in [0, 1, 2**63, 2**64 - 1, 0xDEADBEEF]:
        a = prng.mix64(z)
        b = prng.mix64(z)
        assert a == b
        assert 0 <= a < 2**64


def test_mix64_published_test_vectors():
    # splitmix64 seeded with 0 emits these as its first three outputs
    # (the state advances by the golden gamma before each finalize)
    outs = [prng.mix64((k * prng._GAMMA) & prng._MASK) for k in (1, 2, 3)]
    assert outs == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def raw_draw(seed, trial, step):
    """The raw 64-bit value for one (seed, trial, step) coordinate."""
    return prng.draw_indices(seed, trial, 1, 1 << 64, start=step)[0]


def test_draw_is_pure_function_of_key():
    assert raw_draw(42, 0, 0) == raw_draw(42, 0, 0)
    seen = set()
    for trial in range(20):
        for step in range(20):
            seen.add(raw_draw(42, trial, step))
    # 400 64-bit draws should not collide
    assert len(seen) == 400


def test_different_seeds_differ():
    a = [raw_draw(1, 0, s) for s in range(16)]
    b = [raw_draw(2, 0, s) for s in range(16)]
    assert a != b


def test_draw_indices_prefix_property():
    # the first k draws never depend on how many more will be taken
    full = prng.draw_indices(99, 7, 50, 5)
    for k in (1, 10, 49):
        assert prng.draw_indices(99, 7, k, 5) == full[:k]


def test_draw_indices_start_offset():
    full = prng.draw_indices(3, 11, 30, 7)
    tail = prng.draw_indices(3, 11, 20, 7, start=10)
    assert tail == full[10:]


def test_draw_indices_range():
    for bound in (1, 2, 5, 13):
        vals = prng.draw_indices(0, 0, 200, bound)
        assert all(0 <= v < bound for v in vals)
    assert prng.draw_indices(0, 0, 50, 1) == [0] * 50


def test_block_matches_scalar_rows():
    seed, trial0 = 2024, 5
    for bound, dtype in ((5, np.uint8), (256, np.uint8), (265, np.uint16), (65536, np.uint16)):
        block = prng.draw_block(seed, np.arange(trial0, trial0 + 8), 33, bound)
        assert block.shape == (8, 33)
        assert block.dtype == dtype
        for t in range(8):
            row = prng.draw_indices(seed, trial0 + t, 33, bound)
            assert list(block[t]) == row


# (seed, trial0, ntrials, nsteps, bound): blocks of several tiles with a
# ragged last tile, rows longer than a tile, empty blocks, every dtype edge
# of the bound, the largest seed and a far-out trial
BLOCKS = [
    (2024, 5, 70, 1000, 3),
    (2024, 5, 3, 70000, 257),
    (2024, 5, 0, 10, 5),
    (2024, 5, 10, 0, 5),
    *((7, 1, 40, 50, bound) for bound in (1, 3, 255, 256, 257, 65536)),
    (2**64 - 1, 3, 40, 50, 256),
    (11, 2**40 + 3, 40, 50, 65536),
]


@pytest.mark.parametrize("seed,trial0,ntrials,nsteps,bound", BLOCKS)
def test_tiled_block_matches_scalar_rows(seed, trial0, ntrials, nsteps, bound):
    block = prng.draw_block(seed, np.arange(trial0, trial0 + ntrials), nsteps, bound)
    assert block.shape == (ntrials, nsteps)
    assert block.dtype == (np.uint8 if bound <= 256 else np.uint16)
    for t in range(ntrials):
        assert block[t].tolist() == prng.draw_indices(seed, trial0 + t, nsteps, bound)


# unsorted trials with a repeat and a far-out one; bounds from 1 past the
# uint16 edge to past 2^64, on both sides of the int64/object edge 2^63
TRIALS = [9, 0, 3, 2**40 + 3, 3, 17]


@pytest.mark.parametrize("bound", [1, 5, 65537, 2**61 - 1, 2**63, 2**63 + 1, 2**64 + 2])
@pytest.mark.parametrize("start", [0, 18])
def test_draw_rows_match_scalar_rows(bound, start):
    rows = prng.draw_block(2024, np.array(TRIALS), 9, bound, start=start)
    assert rows.shape == (len(TRIALS), 9)
    assert rows.dtype == (np.uint8 if bound <= 2**8 else np.uint16 if bound <= 2**16
                          else np.int64 if bound <= 2**63 else object)
    for row, t in zip(rows, TRIALS):
        assert row.tolist() == prng.draw_indices(2024, t, 9, bound, start=start)
    if rows.dtype == object:
        assert {type(x) for x in rows.ravel()} == {int}


def test_draw_rows_take_the_largest_seed_and_no_trials():
    rows = prng.draw_block(2**64 - 1, [5, 1], 4, 7, start=3)
    assert rows.tolist() == [prng.draw_indices(2**64 - 1, t, 4, 7, start=3) for t in (5, 1)]
    assert prng.draw_block(1, np.arange(0), 4, 7).shape == (0, 4)
    with pytest.raises(DomainError):
        prng.draw_block(0, [0], 1, 0)


def test_block_peak_memory_is_near_its_output():
    # one 4096 x 1024 chunk of a walk to n = 1024 is 4 MiB of uint8
    tracemalloc.start()
    try:
        block = prng.draw_block(3, np.arange(4096), 1024, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * block.nbytes


def test_block_bound_validation():
    # every bound >= 1 draws (a table wider than 65536 walks on int64
    # draws, see test_walker.py); only a bound below 1 is refused
    with pytest.raises(DomainError, match="draw bound 0 is not positive"):
        prng.draw_block(0, [0], 1, 0)


def test_rough_uniformity():
    # 5000 draws on [0,5): each index close to 1000
    vals = prng.draw_indices(123, 0, 5000, 5)
    counts = [0] * 5
    for v in vals:
        counts[v] += 1
    for c in counts:
        assert abs(c - 1000) < 150  # ~5 sigma


def test_trial_streams_look_independent():
    # identical step sequences across neighboring trials would be fatal
    rows = [tuple(prng.draw_indices(0, t, 40, 5)) for t in range(50)]
    assert len(set(rows)) == 50
