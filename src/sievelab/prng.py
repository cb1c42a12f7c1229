"""Counter-based pseudorandom draws keyed by (master seed, trial, step).

Every draw is a pure function of its key, so trials are reproducible under
any execution order and a walk prefix never depends on how many further
steps will be taken. The mixer is the standard splitmix64 finalizer; the
same stream is exposed scalar (draw_indices, Python ints) and vectorized
(draw_block, one numpy array of any trials), and the two are tested to
agree bit for bit.

draw_block mixes its block a tile at a time, and on_cores spreads its
row tiles, and walker's abelian histogram tiles, over the CPUs this
process may run on (os.sched_getaffinity, or os.cpu_count where that is
missing), at most two: one stripe of tiles per CPU, the caller running
the first and a module thread pool the rest. There is no setting. Each
tile is written by exactly one stripe, so no draw depends on the worker
count. Only these tile loops leave the calling thread: verdicts, oracle
and quotient calls and the matrix block products stay on it.
"""

import os
import threading

import numpy as np

from .errors import DomainError

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK
    return z ^ (z >> 31)


def trial_key(seed: int, trial: int) -> int:
    """Per-trial stream key; injective in trial for a fixed seed."""
    return mix64((seed + (trial + 1) * _GAMMA) & _MASK)


def draw_indices(seed: int, trial: int, n: int, bound: int, start: int = 0) -> list:
    """n draws uniform on [0, bound), for steps start..start+n-1."""
    key = trial_key(seed, trial)
    out = []
    for s in range(start, start + n):
        out.append(mix64((key + (s + 1) * _GAMMA) & _MASK) % bound)
    return out


def _mix64_np(z):
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MUL1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MUL2)
    return z ^ (z >> np.uint64(31))


# uint64 values per scratch tile of a stripe: a pair of them is 1 MiB,
# inside a 2 MiB L2. Alone 2^15 and 2^16 mix as fast; on two threads
# 2^16 is faster, since every numpy call of a tile hands the interpreter
# lock over. Over all stripes a scratch array holds at most _SCRATCH
# values, so a block's scratch does not grow with the stripe count
_TILE = 1 << 16
_SCRATCH = 1 << 17
_ROUNDS = ((np.uint64(30), np.uint64(_MUL1)), (np.uint64(27), np.uint64(_MUL2)))
# stripes of one on_cores call: one per CPU the process may run on, but
# at most two, the count the speed-up was measured at
_CORES = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
_POOL = None  # the thread pool of on_cores, made on first use
_POOL_LOCK = threading.Lock()


def _drop_pool():
    """Forget the pool in a forked child, which has none of its threads."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def on_cores(work, count: int) -> None:
    """Run work(lo, hi) over tiles 0..count-1, in one stripe [lo, hi) of
    consecutive tiles per worker (_CORES); stripe sizes differ by at most
    one tile.

    The caller runs stripe 0 and a module ThreadPoolExecutor the rest,
    and on_cores returns once every stripe has ended, raising the
    exception of the first stripe that raised. Under count 2 or on one
    CPU, work(0, count) runs inline and no pool is made. Each stripe must
    write only its own tiles, and must not call on_cores: a stripe never
    waits on the pool, so the pool cannot deadlock. numpy releases the
    interpreter lock inside its loops, so stripes of array work run at
    once.
    """
    global _POOL
    stripes = min(count, _CORES)
    if stripes < 2:
        work(0, count)
        return
    with _POOL_LOCK:
        if _POOL is None:
            # imported on first use: concurrent.futures imports logging,
            # about 5 ms of every start-up
            from concurrent.futures import ThreadPoolExecutor
            _POOL = ThreadPoolExecutor(_CORES - 1, thread_name_prefix="sievelab-tiles")
        pool = _POOL
    edges = [count * s // stripes for s in range(stripes + 1)]
    futures = [pool.submit(work, lo, hi) for lo, hi in zip(edges[1:-1], edges[2:])]
    try:
        work(0, edges[1])
    finally:
        for f in futures:
            f.exception()  # waits for the stripe, whatever it raised
    for f in futures:
        f.result()


def draw_block(seed: int, trials, nsteps: int, bound: int, start: int = 0):
    """(len(trials), nsteps) array of draws in [0, bound) for any bound >= 1.

    Row i equals draw_indices(seed, trials[i], nsteps, bound, start), for
    any array of trial ids. The dtype is the narrowest that holds a draw:
    uint8 for bound <= 256, uint16 up to 65536, int64 up to 2^63 and
    object (Python ints) past that. The block is mixed a tile of at most
    _TILE draws at a time, in place in two uint64 scratch tiles sized to
    the block, one pair per stripe of on_cores (at most _SCRATCH values
    an array over all stripes), so no uint64 array of the whole block is
    ever made; x % bound is taken as x - (x // bound) * bound, since
    numpy divides a uint64 array by a scalar without a hardware divide
    per element. The stripes of on_cores share the row tiles.
    """
    if bound < 1:
        raise DomainError(f"draw bound {bound} is not positive")
    trials = np.asarray(trials, dtype=np.uint64)
    out = np.empty((len(trials), nsteps), dtype=np.uint8 if bound <= 1 << 8 else np.uint16
                   if bound <= 1 << 16 else np.int64 if bound <= 1 << 63 else object)
    keys = _mix64_np(np.uint64(seed & _MASK) + (trials + np.uint64(1)) * np.uint64(_GAMMA))
    steps = (np.arange(start, start + nsteps, dtype=np.uint64) + np.uint64(1)) * np.uint64(_GAMMA)
    size = min(_TILE, _SCRATCH // _CORES)
    width = max(1, min(nsteps, size))
    height = max(1, min(len(trials), size // width))
    b = np.uint64(bound) if bound <= _MASK else None  # draws below 2^64 need no reduction

    def stripe(lo, hi):
        zbuf, ybuf = np.empty(height * width, np.uint64), np.empty(height * width, np.uint64)
        for r0 in range(lo * height, hi * height, height):
            for c0 in range(0, nsteps, width):
                dst = out[r0:r0 + height, c0:c0 + width]
                z = zbuf[:dst.size].reshape(dst.shape)
                y = ybuf[:dst.size].reshape(dst.shape)
                np.add(keys[r0:r0 + height, None], steps[None, c0:c0 + width], out=z)
                for shift, mul in _ROUNDS:  # _mix64_np, in place
                    np.bitwise_xor(z, np.right_shift(z, shift, out=y), out=z)
                    np.multiply(z, mul, out=z)
                np.bitwise_xor(z, np.right_shift(z, np.uint64(31), out=y), out=z)
                if b is not None:
                    np.subtract(z, np.multiply(np.floor_divide(z, b, out=y), b, out=y), out=z)
                np.copyto(dst, z, casting="unsafe")

    on_cores(stripe, -(-len(trials) // height))
    return out
