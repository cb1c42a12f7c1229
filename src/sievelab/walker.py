"""The uniform random walk on Cay(Gamma, A) and its exact small-n law.

Walk states are exact: big-integer matrix entries or exponent vectors.
Monte Carlo estimation runs one kernel for every multiset: trials are
batched into int64 lanes that step by the draw table alone and continue
in Python ints before they could overflow. Matrix lanes take one batched
product per block of up to K draws, from a table of the k-fold products
of the draw table; abelian lanes move once per checkpoint segment, by
their histogram of draw values times the step table, lanes (seg + |A|
rank) work per segment. The exact law of omega_n is an array of flat
states with integer path counts (implicit denominator |A|^n), in order
of first reach. One pass over the walk lengths gives
it at every length of a grid: each step multiplies every state by every
generator, packs each product into one exact int64 key, and merges equal
keys by a sort. States are int64 while that is exact and Python ints
past it. Both the lanes and the exact states are decided by the oracle's
one Monte Carlo test. On a finite quotient the law is one count array
over the element indices, and a step is one gather by the index
permutations of the generators and one dot product with their
multiplicities. The torus parity law and the line law on Z are closed
forms: a character sum mod 2, and trinomial coefficients by recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence

import numpy as np

from . import prng
from .errors import BudgetExceeded, DomainError, UndecidedMembership
from .matgroup import (
    AbelianElement,
    GeneratorMultiset,
    GroupElement,
    z_generators,
)
from .thinsets import TorusSquaresOracle, halfwidth

EXACT_BUDGET = 5_000_000  # most distinct states one step of an exact law may hold
_LIMIT = 1 << 62  # int64 walk states step exactly while their bound stays below this


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
    if not 0 <= trial_index < config.m:
        raise DomainError(f"trial_index {trial_index} outside [0, m = {config.m})")
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

def convolve_counts(perms, mults, start: int, grid: Sequence[int]) -> Dict[int, np.ndarray]:
    """Integer path counts of a walk on a quotient's element indices, one
    array over |A|^n per n of the grid, from the index start; the
    deviation sweep of spectra uses it.

    perms and mults are the steps of walk_permutations, whose multiset is
    symmetric, so the count of y after a step sums the counts of y g, and
    a step is counts = mults @ counts[perms]. Counts are int64 while
    |A|^n < 2^63, then Python ints.
    """
    grid = law_grid(grid)
    a_size = int(mults.sum())
    counts = np.zeros(perms.shape[1], dtype=np.int64)
    counts[start] = 1
    out, done = {}, 0
    for n in grid:
        for k in range(done + 1, n + 1):
            if counts.dtype != object and a_size ** k >= 1 << 63:
                counts = counts.astype(object)
            counts = mults @ counts[perms]
        out[n], done = counts, n
    return out


def law_grid(grid: Sequence[int]) -> List[int]:
    """The walk lengths of grid sorted, without repeats; each must be >= 0."""
    grid = sorted(set(grid))
    if grid and grid[0] < 0:
        raise DomainError(f"walk length n = {grid[0]} must be nonnegative")
    return grid


def exact_laws(A: GeneratorMultiset, grid: Sequence[int]):
    """Yield (n, rows, counts) at each n of the sorted grid, in one pass:
    the states omega_n reaches, as flat rows in order of first reach, and
    their path counts over |A|^n.

    Rows are int64 while a step is exact in int64 (_int64_cap) and
    continue as Python ints past that. Counts are int64 while |A|^n <
    2^63, then Python ints.
    """
    grid = law_grid(grid)
    gens, fast, growth, abelian = _step_table(A.support)
    cap = _int64_cap(growth, abelian, 1)
    mults = np.array([m for _, m in A.pairs], dtype=np.int64)
    rows = np.array([A.identity_element().flat()], dtype=np.int64)
    counts = np.ones(1, dtype=np.int64)
    done = 0
    for n in grid:
        for k in range(done + 1, n + 1):
            if rows.dtype != object and int(abs(rows).max()) > cap:
                rows = rows.astype(object)
            if counts.dtype != object and A.size ** k >= 1 << 63:
                counts = counts.astype(object)
            step = gens if rows.dtype == object else fast
            rows, counts = _law_step(rows, counts, step, mults, abelian)
        done = n
        yield n, rows, counts


def _step_table(steps):
    """(gens, fast, growth, abelian) of a sequence of steps: the flat
    steps as an object array, (k, rank) or (k, d, d); its int64 twin, or
    None where a step passes int64; the growth bound, max|coord| of a
    step or the largest column abs-sum of a matrix; and whether the steps
    are abelian."""
    abelian = isinstance(steps[0], AbelianElement)
    gens = np.array([g.flat() for g in steps], dtype=object)
    if abelian:
        growth = int(abs(gens).max())
    else:
        dim = steps[0].dimension
        gens = gens.reshape(-1, dim, dim)
        growth = int(abs(gens).sum(axis=1).max())  # largest column abs-sum
    return gens, (gens.astype(np.int64) if growth < _LIMIT else None), growth, abelian


def _int64_cap(growth, abelian, seg):
    """The largest max|entry| of int64 states that may take seg more
    steps in int64: every partial sum of a step, max|coord| + seg x
    growth or max|entry| x growth, then stays below 2^62."""
    return _LIMIT - 1 - seg * growth if abelian else (_LIMIT - 1) // growth


def _law_step(rows, counts, gens, mults, abelian):
    """The law one step on: each row times each generator, equal products
    merged, the merged rows in order of first reach.

    Row i times generator j is reached as (i, j), the order in which a
    convolution meets it, and has index i|A| + j here. The products are
    formed one coordinate at a time into one exact int64 key each, so at
    most one coordinate of all |rows| x |A| products is held at once; a
    merged row is formed again from its first reach.
    """
    size = len(gens)
    keys = _row_keys(_product_columns(rows, gens, abelian), len(rows) * size)
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    del keys
    if len(starts) > EXACT_BUDGET:
        raise BudgetExceeded(f"distinct states {len(starts)} exceed budget {EXACT_BUDGET}")
    weights = counts[order // size]
    weights *= mults[order % size]
    sums = np.add.reduceat(weights, starts)
    del weights
    reach = np.minimum.reduceat(order, starts)
    del order
    by_reach = np.argsort(reach)
    src, gen = np.divmod(reach[by_reach], size)
    out = np.empty((len(src), rows.shape[1]), dtype=rows.dtype)
    for j, g in enumerate(gens):
        sel = np.flatnonzero(gen == j)
        part = rows[src[sel]]
        out[sel] = part + g if abelian else (part.reshape(-1, *g.shape) @ g).reshape(part.shape)
    return out, sums[by_reach]


def _product_columns(rows, gens, abelian):
    """Each coordinate of every product rows[i] * gens[j], one array at a
    time, the product at index i|A| + j."""
    if abelian:
        for f in range(rows.shape[1]):
            yield np.add.outer(rows[:, f], gens[:, f]).ravel()
        return
    dim = gens.shape[1]
    mats = rows.reshape(-1, dim, dim)
    for r in range(dim):
        for c in range(dim):
            yield (mats[:, r, :] @ gens[:, :, c].T).ravel()


def _row_keys(columns, size):
    """One int64 per row, equal exactly where the rows are equal; the rows
    come as their columns, int64 or Python ints.

    Each column is packed in mixed radix by its range. Where the key so
    far times that range would pass 2^63, the key is first replaced by
    its rank among the distinct keys, and then the column by its rank
    among its distinct values, so that no key ever wraps.
    """
    key, span = np.zeros(size, dtype=np.int64), 1
    for col in columns:
        low = col.min()
        width = int(col.max()) - int(low) + 1
        if span * width > 1 << 63:
            _, key = np.unique(key, return_inverse=True)
            span = int(key.max()) + 1
        if span * width > 1 << 63:
            _, col = np.unique(col, return_inverse=True)
            low, width = 0, int(col.max()) + 1
        key *= width
        key += (col - low).astype(np.int64, copy=False)
        span *= width
    return key


def hit_probabilities_exact(A: GeneratorMultiset, grid: Sequence[int],
                            oracle) -> Dict[int, Fraction]:
    """P(omega_n in Z) as an exact rational at each n of grid, in one pass.

    The squares of a torus oracle take the parity law (_parity_laws), whose
    states are the digit rows of (Z/2)^rank. The walk on the integers with
    steps {0, +1, -1} takes the line law (_z_line_laws), any other
    multiset the rows of exact_laws. Either way the oracle's one Monte
    Carlo test decides every reachable state, and a state it leaves
    undecided raises UndecidedMembership.
    """
    if isinstance(oracle, TorusSquaresOracle):
        laws = _parity_laws(A, oracle.rank, grid)
    elif dict(A.pairs) == dict(z_generators().pairs):
        laws = _z_line_laws(grid)
    else:
        laws = exact_laws(A, grid)
    out = {}
    for n, rows, counts in laws:
        hit, undecided = _hit_mask(oracle, rows)
        if undecided:
            raise UndecidedMembership(
                f"oracle undecided on {undecided} of the {len(rows)} states at n = {n}")
        out[n] = Fraction(int(counts[hit].sum()), A.size ** n)
    return out


def _parity_laws(A: GeneratorMultiset, rank: int, grid: Sequence[int]):
    """The law of omega_n mod 2 at each n of the sorted grid: every digit
    row y of (Z/2)^rank, first digit most significant, and its path count
    count_n(y) = 2^-rank sum_u (-1)^(u.y) lambda_u^n over the characters
    u, lambda_u = sum_g m_g (-1)^(u.g): one Walsh-Hadamard product of
    Python ints, divided exactly. Raises DomainError unless every step
    is an exponent vector of that rank."""
    if any(getattr(g, "rank", None) != rank for g in A.support):
        raise DomainError(f"the parity law needs exponent vectors of rank {rank}")
    rows = (np.arange(1 << rank)[:, None] >> np.arange(rank - 1, -1, -1)) & 1
    parity = np.array([g.exponents for g in A.support], dtype=object) % 2
    lam = (1 - 2 * (rows @ parity.T % 2)) @ np.array([m for _, m in A.pairs], dtype=object)
    hadamard = (1 - 2 * (rows @ rows.T % 2)).astype(object)  # (-1)^(u.y)
    for n in law_grid(grid):
        yield n, rows, (hadamard @ lam ** n) >> rank


def _z_line_laws(grid: Sequence[int]):
    """exact_laws of the walk on Z with steps {0, +1, -1} at each n of the
    sorted grid: positions -n..n in order, counts as Python ints. The
    count at k - n is the coefficient a_k of (1 + x + x^2)^n, from
    (k + 1) a_{k+1} = (n - k) a_k + (2n - k + 1) a_{k-1}, an exact
    division; the law is symmetric, so k runs to n and the rest mirrors."""
    for n in law_grid(grid):
        half, prev = [1], 0
        for k in range(n):
            half.append(((n - k) * half[-1] + (2 * n - k + 1) * prev) // (k + 1))
            prev = half[-2]
        yield n, np.arange(-n, n + 1).reshape(-1, 1), np.array(half + half[-2::-1], dtype=object)


def exact_origin_scan_z(grid: Sequence[int]) -> Dict[int, Fraction]:
    """P(omega_n = 0) for Gamma = Z, A = {0,+1,-1}, at each grid n: the
    middle count of the line law _z_line_laws.
    """
    return {n: Fraction(int(counts[n]), 3 ** n) for n, _, counts in _z_line_laws(grid)}


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
        return halfwidth(self.hits, self.trials)

    @property
    def unknown_rate(self) -> float:
        return self.unknown / self.trials


_CHUNK = 1 << 14
_KEYS = 1 << 16  # most draw keys, and most histogram bins, in one abelian tile
_SPAN = 1 << 10  # most products in one block table: K is the largest k with |A|^k <= this


def _sweep_lanes(A, oracle, grid, m, seed):
    """Hits and UNKNOWNs per n of the sorted grid, up to _CHUNK trials at once.

    Each trial is one lane, and steps come from A.draw_table() alone.
    Matrix lanes step a block of up to K draws at a time (_block_tables):
    one Horner index of the block's draw columns, one gather from the
    table of k-fold products and one batched product, and no block
    crosses a checkpoint. Abelian lanes take one histogram step per
    checkpoint segment (_advance). Lanes are exact: a lane steps in int64
    while its max|entry| is within _int64_cap of the block's growth bound,
    which bounds every partial sum of the step; past that it continues in
    Python ints, which take the block's object table, and the other lanes
    stay in int64. At each checkpoint the oracle decides each non-empty
    group of lanes, int64 or Python ints (_hit_mask).
    """
    table = A.draw_table()
    gens, fast, growth, abelian = _step_table(table)
    tables = [(gens, fast, growth)] if abelian else _block_tables(gens, fast, growth)
    start = np.array(A.identity_element().flat(), dtype=np.int64).reshape(1, *gens.shape[1:])
    hits, unknown = dict.fromkeys(grid, 0), dict.fromkeys(grid, 0)
    chunk = max(1, min(_CHUNK, (1 << 22) // grid[-1]))
    for t0 in range(0, m, chunk):
        cnt = min(chunk, m - t0)
        draws = prng.draw_block(seed, np.arange(t0, t0 + cnt), grid[-1], len(table))
        # (trial ids, states) of the int64 lanes, then of the Python-int lanes
        lanes = [(slice(None), np.repeat(start, cnt, axis=0)),
                 (np.arange(0), np.repeat(start, 0, axis=0).astype(object))]
        big, k = int(start.max()), 0  # big bounds max|entry| of int64 lanes
        for cp in grid:
            for b0 in ([k] if abelian else range(k, cp, len(tables))):
                b1 = cp if abelian else min(b0 + len(tables), cp)
                objs, ints, grow = tables[0 if abelian else b1 - b0 - 1]
                cap = _int64_cap(grow, abelian, b1 - b0)
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
                cols = draws[:, b0:b1] if abelian else _block_index(draws[:, b0:b1], len(table))
                lanes = [(ids, _advance(st, g, cols[ids], abelian))
                         for (ids, st), g in zip(lanes, (ints, objs))]
                big = big + (b1 - b0) * grow if abelian else big * grow
            k = cp
            for ids, st in lanes:
                hit, undecided = _hit_mask(oracle, st.reshape(-1, start.size))
                hits[cp] += int(np.count_nonzero(hit))
                unknown[cp] += undecided
    return hits, unknown


def _block_tables(gens, fast, growth):
    """[(objs, ints, growth)] for k = 1..K: the k-fold right products
    g_d1 ... g_dk of the (|A|, d, d) step table, in the walk's order, at
    index d1 |A|^(k-1) + ... + dk (_block_index); as exact objects, their
    int64 twin and their growth bound, the largest column abs-sum of a
    product. K is the largest k with |A|^k <= _SPAN (|A| = 1 counts as
    2), cut where a table would lose its int64 twin."""
    tables = [(gens, fast, growth)]
    while fast is not None and max(len(gens), 2) ** (len(tables) + 1) <= _SPAN:
        prods = (tables[-1][0][:, None] @ gens).reshape(-1, *gens.shape[1:])
        growth = int(abs(prods).sum(axis=1).max())
        if growth >= _LIMIT:
            break
        tables.append((prods, prods.astype(np.int64), growth))
    return tables


def _block_index(draws, size):
    """The index d1 size^(k-1) + ... + dk of each row of a (lanes, k) block
    of draws into the table of k-fold products, by Horner's rule."""
    if draws.shape[1] == 1:
        return draws[:, 0]
    idx = draws[:, 0].astype(np.intp)
    for c in range(1, draws.shape[1]):
        idx *= size
        idx += draws[:, c]
    return idx


def _hit_mask(oracle, flat):
    """(hit, undecided) for the rows of flat, int64 or Python ints, by the
    oracle's one Monte Carlo test: hit_raw_batch on the columns in one
    call where the oracle has it, else one hit_raw per row, each row a
    tuple of Python ints equal to g.flat(). hit is a bool array;
    undecided counts the rows where hit_raw gave None, which are not
    hits."""
    if not len(flat):
        return np.zeros(0, dtype=bool), 0
    batch = getattr(oracle, "hit_raw_batch", None)
    if batch is not None:
        return np.asarray(batch(tuple(flat.T)), dtype=bool), 0
    # a chunk of rows at a time, handed over as column lists zipped into
    # row tuples: Python-int rows cost far more memory than the array
    verdicts = []
    for i in range(0, len(flat), _CHUNK):
        verdicts += map(oracle.hit_raw, zip(*flat[i:i + _CHUNK].T.tolist()))
    return np.array(verdicts, dtype=bool), verdicts.count(None)


def _advance(st, gens, draws, abelian):
    """Lanes after one matrix block, or one abelian segment, of their draws.

    A matrix block is one batched product by the block products gathered
    at draws, each lane's index into the block table (_block_index). An
    abelian segment adds to each lane sum_d N_d step_d, where N_d counts
    the draws d of its segment: a tile of lanes at a time takes one
    bincount of the keys lane|A| + draw, and the counts times the
    (|A|, rank) step table. That is lanes (seg + |A| rank) work per
    segment, against lanes seg rank gathers of each draw. A tile holds at most _KEYS keys and _KEYS bins;
    a segment longer than _KEYS is counted a tile of columns at a time.
    No count exceeds seg, so the caller's int64 guard bounds every partial
    sum, and Python-int lanes take the int64 counts @ the object table.
    """
    if not len(st):
        return st
    if not abelian:
        return st @ gens.take(draws, axis=0)
    size, seg = gens.shape[0], draws.shape[1]
    width = min(seg, _KEYS)
    rows = max(1, _KEYS // max(width, size))
    offsets = np.arange(0, rows * size, size)[:, None]
    out = np.empty_like(st)
    for r0 in range(0, len(st), rows):
        part = draws[r0:r0 + rows]
        bins = len(part) * size
        counts = sum(np.bincount((part[:, c0:c0 + width] + offsets[:len(part)]).ravel(),
                                 minlength=bins) for c0 in range(0, seg, width))
        out[r0:r0 + rows] = st[r0:r0 + rows] + counts.reshape(len(part), size) @ gens
    return out


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

