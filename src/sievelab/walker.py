"""The uniform random walk on Cay(Gamma, A) and its exact small-n law.

Walk states are exact: big-integer matrix entries or exponent vectors.
Monte Carlo estimation runs one kernel for every multiset: trials are
batched into int64 lanes that step by the draw table alone and continue
in Python ints before they could overflow. Exact distributions are
integer path counts with implicit denominator |A|^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import prng
from .errors import BudgetExceeded, DomainError, UndecidedMembership
from .matgroup import AbelianElement, GeneratorMultiset, GroupElement, z_generators

EXACT_BUDGET = 5_000_000  # most distinct states an exact convolution step may hold


@dataclass(frozen=True)
class WalkConfig:
    """Parameters of one Monte Carlo walk experiment."""

    generators: GeneratorMultiset
    n: int
    m: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.n < 0 or self.m < 1:
            raise DomainError("need n >= 0, m >= 1")


def run_walk(config: WalkConfig, trial_index: int) -> List[GroupElement]:
    """Trajectory omega_0..omega_n, deterministic in (seed, trial_index)."""
    if trial_index >= config.m:
        raise DomainError("trial_index must be < m")
    table = config.generators.draw_table()
    draws = prng.draw_indices(config.seed, trial_index, config.n, len(table))
    state = config.generators.identity_element()
    traj = [state]
    for d in draws:
        g = table[d]
        if not g.is_identity():
            state = state * g
        traj.append(state)
    return traj


# ----- exact distributions -----

def convolve_counts(identity, step_pairs, n: int, compose: Callable,
                    on_snapshot: Optional[Callable] = None) -> Dict:
    """Integer path counts of the walk law after each of n steps.

    step_pairs is a sequence of (element, multiplicity). on_snapshot(k,
    counts) fires after step k when given (counts must not be mutated).
    Raises BudgetExceeded as soon as a step passes EXACT_BUDGET states.
    """
    if n < 0:
        raise DomainError(f"walk length n = {n} must be nonnegative")
    counts = {identity: 1}
    if on_snapshot:
        on_snapshot(0, counts)
    for k in range(1, n + 1):
        nxt: Dict = {}
        for state, c in counts.items():
            for g, mult in step_pairs:
                t = compose(state, g)
                nxt[t] = nxt.get(t, 0) + c * mult
            if len(nxt) > EXACT_BUDGET:
                raise BudgetExceeded(f"distinct states {len(nxt)} exceed budget {EXACT_BUDGET}")
        counts = nxt
        if on_snapshot:
            on_snapshot(k, counts)
    return counts


@dataclass(frozen=True)
class WalkDistribution:
    """Exact law of omega_n: path counts over |A|^n."""

    counts: Tuple[Tuple[GroupElement, int], ...]
    a_size: int
    n: int

    def to_json_obj(self):
        total = self.a_size ** self.n
        return [
            {"element": e.to_json_obj(), "probability": f"{c}/{total}"}
            for e, c in self.counts
        ]


def exact_distribution(A: GeneratorMultiset, n: int) -> WalkDistribution:
    """Exact convolution of n uniform steps from A."""
    identity = A.identity_element()
    counts = convolve_counts(identity, A.pairs, n, lambda a, b: a * b)
    return WalkDistribution(tuple(counts.items()), A.size, n)


def hit_probability_exact(A: GeneratorMultiset, n: int, oracle) -> Fraction:
    """P(omega_n in Z) as an exact rational; errors on UNKNOWN verdicts.

    The walk on the integers with steps {0, +1, -1} takes the dense line
    scan, any other multiset the convolution; either way global_verdict
    decides every reachable element.
    """
    if dict(A.pairs) == dict(z_generators().pairs):
        for line in _z_line_counts(n):
            pass  # keep the counts after n steps
        counts = [(AbelianElement((x,)), c) for x, c in enumerate(line, -n)]
    else:
        counts = exact_distribution(A, n).counts
    hit = 0
    for e, c in counts:
        v = oracle.global_verdict(e)
        if v.status == "UNKNOWN":
            raise UndecidedMembership(f"oracle undecided on {e}: {v.reason}")
        if v.status == "IN":
            hit += c
    return Fraction(hit, A.size ** n)


def _z_line_counts(nmax: int):
    """Path counts of the walk on Z with steps {0, +1, -1}: after k steps,
    for k = 0..nmax, the list of counts at positions -k..k."""
    if nmax < 0:
        raise DomainError(f"walk length n = {nmax} must be nonnegative")
    counts = [1]
    yield counts
    for _ in range(nmax):
        # position x after k steps sums positions x-1, x, x+1 after k-1
        pad = [0, 0, *counts, 0, 0]
        counts = [a + b + c for a, b, c in zip(pad, pad[1:], pad[2:])]
        yield counts


def exact_origin_scan_z(grid: Sequence[int]) -> Dict[int, Fraction]:
    """P(omega_n = 0) for Gamma = Z, A = {0,+1,-1}, at each grid n.

    Dense line convolution with integer counts; one pass to max(grid).
    """
    grid = set(grid)
    if min(grid, default=0) < 0:
        raise DomainError(f"walk length n = {min(grid)} must be nonnegative")
    return {k: Fraction(counts[k], 3 ** k)
            for k, counts in enumerate(_z_line_counts(max(grid, default=0))) if k in grid}


# ----- Monte Carlo -----

@dataclass(frozen=True)
class MCEstimate:
    """One Monte Carlo row: hits and UNKNOWNs over m trials at length n."""

    n: int
    trials: int
    hits: int
    unknown: int

    @property
    def estimate(self) -> float:
        return self.hits / self.trials

    @property
    def halfwidth(self) -> float:
        p = self.estimate
        return 1.96 * math.sqrt(p * (1.0 - p) / self.trials)

    @property
    def unknown_rate(self) -> float:
        return self.unknown / self.trials


_CHUNK = 1 << 14
_LIMIT = 1 << 62


def _sweep_lanes(A, oracle, grid, m, seed):
    """Hits and UNKNOWNs per n of the sorted grid, up to _CHUNK trials at once.

    Each trial is one lane, and steps come from A.draw_table() alone.
    Matrix lanes take one batched product per step, abelian lanes one
    gathered sum per checkpoint segment. Lanes are exact: a lane steps in
    int64 while max|entry| x (largest column abs-sum of a generator), or
    max|coord| + segment x max|increment|, stays below 2^62, which bounds
    every partial sum of the step; past that it continues in Python ints
    and the other lanes stay in int64. At each checkpoint an oracle with
    hit_raw_batch decides each non-empty group of lanes, int64 or Python
    ints, in one call; any other oracle gets one hit_raw call per lane.
    """
    table = A.draw_table()
    gens = np.array([g.flat() for g in table], dtype=object)
    abelian = isinstance(table[0], AbelianElement)
    if abelian:
        gens = gens.T  # gens[r][d] is coordinate r of step d
        growth = int(abs(gens).max())
        start = np.zeros((1, len(gens)), dtype=np.int64)
    else:
        dim = table[0].dimension
        gens = gens.reshape(-1, dim, dim)
        growth = int(abs(gens).sum(axis=1).max())  # largest column abs-sum
        start = np.eye(dim, dtype=np.int64)[None]
    fast = gens.astype(np.int64) if growth < _LIMIT else None
    hits, unknown = dict.fromkeys(grid, 0), dict.fromkeys(grid, 0)
    batch = getattr(oracle, "hit_raw_batch", None)
    chunk = max(1, min(_CHUNK, (1 << 22) // grid[-1]))
    for t0 in range(0, m, chunk):
        cnt = min(chunk, m - t0)
        draws = prng.draw_block(seed, t0, cnt, grid[-1], len(table))
        # (trial ids, states) of the int64 lanes, then of the Python-int lanes
        lanes = [(slice(None), np.repeat(start, cnt, axis=0)),
                 (np.arange(0), np.repeat(start, 0, axis=0).astype(object))]
        big, k = int(start.max()), 0  # big bounds max|entry| of int64 lanes
        for cp in grid:
            for s in ([k] if abelian else range(k, cp)):
                cap = _LIMIT - 1 - (cp - k) * growth if abelian else (_LIMIT - 1) // growth
                if big > cap:
                    (ids, st), (bids, bst) = lanes
                    big = int(abs(st).max(initial=0))
                if big > cap:  # move the lanes past cap, and only those
                    out = abs(st).reshape(-1, start.size).max(axis=1) > cap
                    ids = np.arange(cnt)[ids]
                    lanes = [(ids[~out], st[~out]),
                             (np.concatenate([bids, ids[out]]),
                              np.concatenate([bst, st[out].astype(object)]))]
                    big = int(abs(st[~out]).max(initial=0))
                cols = slice(k, cp) if abelian else s
                lanes = [(ids, _advance(st, g, draws[ids, cols], abelian))
                         for (ids, st), g in zip(lanes, (fast, gens))]
                big = big + (cp - k) * growth if abelian else big * growth
            k = cp
            for ids, st in lanes:
                flat = st.reshape(-1, start.size)
                if batch is None:
                    verdicts = list(map(oracle.hit_raw, flat.tolist()))
                    unknown[cp] += verdicts.count(None)
                    hits[cp] += sum(map(bool, verdicts))
                elif len(flat):
                    hits[cp] += int(np.count_nonzero(batch(tuple(flat.T))))
    return hits, unknown


def _advance(st, gens, draws, abelian):
    """Lanes after one matrix step, or one abelian segment, of their draws."""
    if not len(st):
        return st
    if abelian:
        return st + np.stack([c[draws].sum(axis=1) for c in gens], axis=1)
    return st @ gens[draws]


def mc_sweep(A: GeneratorMultiset, oracle, grid: Sequence[int], m: int,
             seed: int) -> List[MCEstimate]:
    """Monte Carlo estimates of P(omega_n in Z) at every n in grid.

    One pass over trials with checkpoints: identical to a sweep per n,
    because draws are counter-based.
    """
    if not grid or min(grid) < 1 or m < 1:
        raise DomainError("grid must be non-empty with n >= 1 and m >= 1")
    grid = sorted(set(grid))
    hits, unknown = _sweep_lanes(A, oracle, grid, m, seed)
    return [MCEstimate(n=n, trials=m, hits=hits[n], unknown=unknown[n]) for n in grid]

