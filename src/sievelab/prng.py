"""Counter-based pseudorandom draws keyed by (master seed, trial, step).

Every draw is a pure function of its key, so trials are reproducible under
any execution order and a walk prefix never depends on how many further
steps will be taken. The mixer is the standard splitmix64 finalizer; the
same stream is exposed scalar (draw_indices, Python ints) and vectorized
(draw_block, one numpy array of any trials), and the two are tested to
agree bit for bit.
"""

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


_TILE = 1 << 15  # uint64 values per scratch tile: 256 KiB, inside a 2 MiB L2
_ROUNDS = ((np.uint64(30), np.uint64(_MUL1)), (np.uint64(27), np.uint64(_MUL2)))


def draw_block(seed: int, trials, nsteps: int, bound: int, start: int = 0):
    """(len(trials), nsteps) array of draws in [0, bound) for any bound >= 1.

    Row i equals draw_indices(seed, trials[i], nsteps, bound, start), for
    any array of trial ids. The dtype is the narrowest that holds a draw:
    uint8 for bound <= 256, uint16 up to 65536, int64 up to 2^63 and
    object (Python ints) past that. The block is mixed a tile of at most
    _TILE draws at a time, in place in two uint64 scratch tiles sized to
    the block, so no uint64 array of the whole block is ever made; x %
    bound is taken as x - (x // bound) * bound, since numpy divides a
    uint64 array by a scalar without a hardware divide per element.
    """
    if bound < 1:
        raise DomainError(f"draw bound {bound} is not positive")
    trials = np.asarray(trials, dtype=np.uint64)
    out = np.empty((len(trials), nsteps), dtype=np.uint8 if bound <= 1 << 8 else np.uint16
                   if bound <= 1 << 16 else np.int64 if bound <= 1 << 63 else object)
    keys = _mix64_np(np.uint64(seed & _MASK) + (trials + np.uint64(1)) * np.uint64(_GAMMA))
    steps = (np.arange(start, start + nsteps, dtype=np.uint64) + np.uint64(1)) * np.uint64(_GAMMA)
    width = max(1, min(nsteps, _TILE))
    height = max(1, min(len(trials), _TILE // width))
    zbuf, ybuf = np.empty(height * width, np.uint64), np.empty(height * width, np.uint64)
    b = np.uint64(bound) if bound <= _MASK else None  # draws below 2^64 need no reduction
    for r0 in range(0, len(trials), height):
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
    return out
