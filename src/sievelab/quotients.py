"""Finite quotients of the ambient group and closures of generator images.

A matrix quotient is SL_dim(Z/p) for a prime p, or the direct product
over a pair of distinct primes; an abelian quotient is (Z/q)^rank with
componentwise addition. Either way an element is its digit tuple: for
a matrix quotient the flat row-major entries of each prime's block,
block after block, for an abelian one the exponents. Enumeration hands
out all elements at once as an array of those digit rows, and integer
codes number them in sorted order.

Element sets are built without a closure: SL_dim(F_p) is solved from
det = 1 (_sl_codes), and (Z/q)^rank is every digit tuple.
Closures of generator images (bfs_closure) grow an abelian subgroup by
cosets and run a batched BFS in a matrix quotient.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    BudgetExceeded,
    CompositeModulus,
    DomainError,
    EnumerationUnavailable,
    MissingIdentity,
    NotSymmetric,
)
from .matgroup import AbelianElement, GeneratorMultiset, MatrixElement

ENUM_BUDGET = 10_000_000  # most elements an enumeration or closure may hold
_SLICE_ROWS = 1 << 17  # most products or codes a closure or _sl_codes forms in one batch

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases 2..41: exact below psi_13 =
    3317044064679887385961981, the least strong pseudoprime to them all
    (Sorenson and Webster, Math. Comp. 2017). DomainError from there up."""
    if n >= 3317044064679887385961981:
        raise DomainError(f"{n} is past the range where the primality test is exact")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def group_order(dimension: int, modulus: int) -> int:
    """|SL_dim(Z/p)| = p^(d(d-1)/2) * prod_{k=2}^{d} (p^k - 1)."""
    if not is_prime(modulus):
        raise CompositeModulus(f"modulus {modulus} is not prime")
    if dimension < 2:
        raise DomainError("dimension must be at least 2")
    p = modulus
    order = p ** (dimension * (dimension - 1) // 2)
    for k in range(2, dimension + 1):
        order *= p ** k - 1
    return order


def prime_schedule(t: int, min_norm: int) -> Tuple[int, ...]:
    """The t smallest primes >= min_norm, in increasing order."""
    if t < 1 or min_norm < 2:
        raise DomainError("need t >= 1 and min_norm >= 2")
    primes: List[int] = []
    p = min_norm
    while len(primes) < t:
        if is_prime(p):
            primes.append(p)
        p += 1
    return tuple(primes)


class _Coded:
    """Integer codes of quotient elements.

    An element's code reads its digit tuple in the mixed radix of the
    digits' moduli, first digit most significant, so sorted codes follow
    sorted element order. Codes are int64 while the code space stays
    below 2^62 (so no sum or product of digits reaches 2^63) and Python
    ints past it.
    """

    @cached_property
    def _basis(self):
        """(radix, place): each digit's modulus and place value."""
        radix = self._radices()
        place = [math.prod(radix[k + 1:]) for k in range(len(radix))]
        dtype = np.int64 if radix[0] * place[0] <= 2 ** 62 else object
        return np.array(radix, dtype=dtype), np.array(place, dtype=dtype)

    @property
    def dtype(self):
        """The dtype of codes and digit rows: int64, or object past 2^62."""
        return self._basis[1].dtype

    def encode(self, digits) -> np.ndarray:
        """Codes of the rows of a digit array or list of digit tuples."""
        return np.asarray(digits, dtype=self.dtype) @ self._basis[1]

    def decode(self, codes: np.ndarray) -> np.ndarray:
        radix, place = self._basis
        return codes[:, None] // place % radix

    @cached_property
    def _kept_codes(self) -> np.ndarray:
        codes = self._codes()
        codes.flags.writeable = False
        return codes

    def element_codes(self) -> np.ndarray:
        """Sorted codes of all elements, read-only and computed once per
        quotient; raises when the order exceeds ENUM_BUDGET."""
        total = self.order()
        if total > ENUM_BUDGET:
            raise EnumerationUnavailable(
                f"order {total} of quotient {self.label} exceeds budget {ENUM_BUDGET}")
        return self._kept_codes

    def enumerate_elements(self, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        """The elements start..stop-1 of the sorted order, all of them by
        default, one digit row each; raises when the order exceeds
        ENUM_BUDGET."""
        return self.decode(self.element_codes()[start:stop])

    def index(self, x) -> int:
        """The index of the element x among the sorted codes."""
        return int(np.searchsorted(self.element_codes(), self.encode([x]))[0])


@dataclass(frozen=True)
class MatrixQuotient(_Coded):
    """SL_dim over one prime, or the direct product over a pair."""

    dimension: int
    moduli: Tuple[int, ...]

    def __post_init__(self):
        if self.dimension < 2:
            raise DomainError("dimension must be at least 2")
        if not 1 <= len(self.moduli) <= 2:
            raise DomainError("moduli must be one prime or a pair")
        if len(set(self.moduli)) != len(self.moduli):
            raise DomainError("pair moduli must be distinct")
        for p in self.moduli:
            if not is_prime(p):
                raise CompositeModulus(f"modulus {p} is not prime")

    @property
    def label(self) -> str:
        return "x".join(str(p) for p in self.moduli)

    def order(self) -> int:
        total = 1
        for p in self.moduli:
            total *= group_order(self.dimension, p)
        return total

    def identity(self) -> Tuple[int, ...]:
        d = self.dimension
        return tuple(int(i == j) for _ in self.moduli for i in range(d) for j in range(d))

    def reduce(self, g: MatrixElement) -> Tuple[int, ...]:
        dim = getattr(g, "dimension", None)
        if dim != self.dimension:
            raise DomainError(f"element dimension {dim} != quotient dimension {self.dimension}")
        flat = g.flat()
        return tuple(e % p for p in self.moduli for e in flat)

    def multiply(self, x, y):
        """x*y block by block; the reference the batched routes are tested against."""
        d = self.dimension
        idx = range(d)
        return tuple(
            sum(x[k + i * d + t] * y[k + t * d + j] for t in idx) % p
            for k, p in zip(range(0, len(x), d * d), self.moduli) for i in idx for j in idx)

    def _radices(self) -> Tuple[int, ...]:
        return tuple(p for p in self.moduli for _ in range(self.dimension ** 2))

    def multiply_digits(self, digits: np.ndarray, ys) -> np.ndarray:
        """Digit rows of x*y for every row x of digits and every element
        y in ys, x-major, in one batch."""
        d, b = self.dimension, len(self.moduli)
        g = np.asarray(ys, dtype=digits.dtype).reshape(1, -1, b, d, d)
        mods = np.array(self.moduli, dtype=digits.dtype).reshape(b, 1, 1)
        return (digits.reshape(-1, 1, b, d, d) @ g % mods).reshape(-1, digits.shape[1])

    def _codes(self) -> np.ndarray:
        # a pair's codes are c0 * p1^(d^2) + c1
        d = self.dimension
        first, *rest = self.moduli
        codes = _sl_codes(d, first).astype(self.dtype, copy=False)
        for p in rest:
            codes = (codes[:, None] * p ** (d * d) + _sl_codes(d, p)).ravel()
        return codes


@dataclass(frozen=True)
class AbelianQuotient(_Coded):
    """(Z/modulus)^rank with componentwise addition."""

    rank: int
    modulus: int

    def __post_init__(self):
        if self.rank < 1 or self.modulus < 2:
            raise DomainError("need rank >= 1 and modulus >= 2")

    @property
    def label(self) -> str:
        return f"{self.modulus}^{self.rank}"

    def order(self) -> int:
        return self.modulus ** self.rank

    def identity(self) -> Tuple[int, ...]:
        return (0,) * self.rank

    def reduce(self, g: AbelianElement) -> Tuple[int, ...]:
        rank = getattr(g, "rank", None)
        if rank != self.rank:
            raise DomainError(f"element rank {rank} != quotient rank {self.rank}")
        return tuple(e % self.modulus for e in g.exponents)

    def multiply(self, x, y):
        """x+y componentwise; the reference the batched routes are tested against."""
        m = self.modulus
        return tuple((a + b) % m for a, b in zip(x, y))

    def _radices(self) -> Tuple[int, ...]:
        return (self.modulus,) * self.rank

    def multiply_digits(self, digits: np.ndarray, ys) -> np.ndarray:
        ys = np.asarray(ys, dtype=digits.dtype)
        return ((digits[:, None] + ys) % self.modulus).reshape(-1, self.rank)

    def _codes(self) -> np.ndarray:
        return np.arange(self.order(), dtype=np.int64)


def cofactors(bottom, dim: int, p: int) -> List:
    """The cofactors c_0..c_{dim-1} mod p of the first-row entries of
    dim x dim matrices, one array each with values in (-p, p), read off
    their bottom dim - 1 rows: bottom holds those rows flat and
    row-major, one matrix per row, entries in [0, p) as int64 or Python
    ints. det = sum_j first_row[j] * c_j mod p. Laplace expansion from
    the bottom row up keeps the minors on the last rows per set of
    columns, each reduced mod p, so no sum passes dim * p^2."""
    d = dim
    minors = {(j,): bottom[:, (d - 2) * d + j] for j in range(d)}
    for r in range(d - 3, -1, -1):
        nxt = {}
        for cols in itertools.combinations(range(d), d - 1 - r):
            total = 0
            for k, j in enumerate(cols):
                term = bottom[:, r * d + j] * minors[cols[:k] + cols[k + 1:]]
                total = total - term if k % 2 else total + term
            nxt[cols] = total % p
        minors = nxt
    minors = [minors[tuple(k for k in range(d) if k != j)] for j in range(d)]
    return [-m if j % 2 else m for j, m in enumerate(minors)]


def _sl_codes(d: int, p: int) -> np.ndarray:
    """Sorted codes of SL_d(F_p), solved from det = 1.

    Each choice of the bottom d - 1 rows whose first-row cofactor vector
    c is nonzero takes the p^(d-1) first rows r with c . r = 1: the
    coordinates other than the first j with c_j != 0 run freely, and r_j
    is solved with an inverse of c_j from one table. Bottom rows go in
    batches of at most _SLICE_ROWS elements, and a batch's codes are
    summed from the bottom rows' code, the free coordinates' share and
    r_j's, so no array of every digit of a batch is held. Codes are
    int64: the code space p^(d^2) is under 2p times the group order, so
    within ENUM_BUDGET it stays far below 2^62.
    """
    place = p ** np.arange(d * d - 1, -1, -1)  # of each digit, first row first
    low, free = p ** ((d - 1) * d), p ** (d - 1)
    grid = np.arange(free)[:, None] // p ** np.arange(d - 2, -1, -1) % p  # the free tuples
    others = np.array([[k for k in range(d) if k != j] for j in range(d)])
    free_codes = place[others] @ grid.T  # per pivot j, the free coordinates' share
    inverse = np.array([pow(a, -1, p) if a else 0 for a in range(p)])
    out = np.empty(group_order(d, p), dtype=np.int64)
    done, batch = 0, max(1, _SLICE_ROWS // free)
    for start in range(0, low, batch):
        bottom = np.arange(start, min(start + batch, low))
        c = np.stack(cofactors(bottom[:, None] // place[d:] % p, d, p), axis=1) % p
        keep = c.any(axis=1)
        c, bottom = c[keep], bottom[keep]
        j = np.argmax(c != 0, axis=1)
        pivot = inverse[c[np.arange(len(c)), j]]
        solved = (1 - np.take_along_axis(c, others[j], axis=1) @ grid.T) % p * pivot[:, None] % p
        codes = solved * place[j, None] + free_codes[j] + bottom[:, None]
        out[done:done + codes.size] = codes.ravel()
        done += codes.size
    out.sort()
    return out


def _distinct(codes: np.ndarray) -> np.ndarray:
    """The distinct codes, sorted."""
    codes = np.sort(codes)
    keep = np.ones(codes.size, dtype=bool)
    keep[1:] = codes[1:] != codes[:-1]
    return codes[keep]


def _closure_codes(quotient, gens, budget: int) -> np.ndarray:
    """Sorted codes of the closure of the identity under right
    multiplication by gens, elements closed under inverses.

    Level by level: each level is multiplied by every generator in
    batches of at most _SLICE_ROWS products, so the memory a level takes
    stays in proportion to the codes it finds. As gens is symmetric, the
    neighbours of level k lie in levels k-1, k and k+1, so new elements
    are checked against the last two levels only. Raises BudgetExceeded
    as soon as the closure would pass budget elements.
    """
    frontier = quotient.encode([quotient.identity()])
    gens = np.array(gens, dtype=frontier.dtype)
    rows = max(1, _SLICE_ROWS // len(gens))
    levels, last, total = [frontier], frontier, 1
    while frontier.size:
        new = []
        for i in range(0, frontier.size, rows):
            cand = _distinct(quotient.encode(
                quotient.multiply_digits(quotient.decode(frontier[i:i + rows]), gens)))
            for old in (last, frontier):
                cand = cand[old[np.minimum(np.searchsorted(old, cand), old.size - 1)] != cand]
            new.append(cand)
        last, frontier = frontier, new[0] if len(new) == 1 else _distinct(np.concatenate(new))
        total += frontier.size
        if total > budget:
            raise BudgetExceeded(f"closure in {quotient.label} exceeded budget {budget}")
        levels.append(frontier)
    return np.sort(np.concatenate(levels))


def _coset_closure_codes(quotient, gens, budget: int) -> np.ndarray:
    """Sorted codes of the subgroup gens generate in an abelian quotient,
    grown one generator at a time: H + <g> is the union of the cosets
    H + k g for k below n, the first k >= 1 with k g in H.

    n is looked for among k < 2, 4, 8, ..., never past budget // |H|, so
    BudgetExceeded is raised before a union of more than budget elements
    is formed. The union's codes are summed one coordinate at a time.
    Multiples k g are formed in Python ints where k times the modulus
    could pass 2^62; codes keep the quotient's dtype.
    """
    m = quotient.modulus
    place = quotient._basis[1]
    codes = quotient.encode([quotient.identity()])
    for g in gens:
        cap, size, n = budget // codes.size, 1, 0
        while not n:
            if size > cap:
                raise BudgetExceeded(f"closure in {quotient.label} exceeded budget {budget}")
            size = min(2 * size, cap + 1)
            k = np.arange(size, dtype=np.int64 if size * m <= 2 ** 62 else object)
            steps = (k[:, None] * np.array(g, dtype=k.dtype) % m).astype(codes.dtype)
            mult = quotient.encode(steps[1:])
            found = np.isin(mult, codes)
            n = int(np.argmax(found)) + 1 if found.any() else 0
        digits = quotient.decode(codes)
        codes = np.sort(sum((digits[:, i] + steps[:n, i, None]) % m * place[i]
                            for i in range(quotient.rank)).ravel())
    return codes


@dataclass(frozen=True)
class ClosureReport:
    """Closure of reduced generators inside a finite quotient."""

    quotient_label: str
    generator_tag: str
    size: int
    order: int

    @property
    def surjective(self) -> bool:
        return self.size == self.order

    def to_json_obj(self):
        return {
            "quotient": self.quotient_label,
            "generators": self.generator_tag,
            "closure_size": self.size,
            "group_order": self.order,
            "surjective": self.surjective,
        }


def bfs_closure(A: GeneratorMultiset, quotient) -> ClosureReport:
    """Subgroup generated by the image of A: in a finite quotient the
    reachable set under right multiplication by A and its inverses. An
    abelian quotient grows it by cosets, a matrix quotient by a BFS."""
    gens = dict.fromkeys(quotient.reduce(h)
                         for g in A.support for h in (g, g.inverse()))
    closure = _coset_closure_codes if isinstance(quotient, AbelianQuotient) else _closure_codes
    codes = closure(quotient, list(gens), ENUM_BUDGET)
    return ClosureReport(quotient.label, A.tag, codes.size, quotient.order())


def walk_permutations(A: GeneratorMultiset, quotient):
    """The steps of a quotient walk as permutations of its element indices.

    The elements of A are reduced into the quotient, where repeated
    images merge in order of first appearance. Returns (codes, perms,
    mults): the sorted element codes, one intp row per distinct step g
    holding the index permutation of x -> x g, and the int64
    multiplicities of the steps, which sum to |A|. The walk operator is
    then P v = mults @ v[perms] / |A|. Raises MissingIdentity without the
    identity, and NotSymmetric unless each step's inverse has its
    multiplicity.
    """
    merged: Dict = {}
    for g, m in A.pairs:
        r = quotient.reduce(g)
        merged[r] = merged.get(r, 0) + m
    if quotient.identity() not in merged:
        raise MissingIdentity("reduced multiset must contain the identity")
    codes = quotient.element_codes()
    digits = quotient.decode(codes)
    perms = np.empty((len(merged), codes.size), dtype=np.intp)
    for perm, g in zip(perms, merged):
        perm[:] = np.searchsorted(codes, quotient.encode(quotient.multiply_digits(digits, [g])))
    mults = np.array(list(merged.values()), dtype=np.int64)
    # x -> x g sends the identity e to g, and g^-1 to e
    e = quotient.index(quotient.identity())
    weight = dict(zip(perms[:, e].tolist(), mults.tolist()))
    if any(weight.get(int(np.flatnonzero(perm == e)[0])) != m for perm, m in zip(perms, mults)):
        raise NotSymmetric("reduced multiset is not symmetric")
    return codes, perms, mults


def quotient_for(A: GeneratorMultiset, moduli: Sequence[int]):
    """The finite quotient of A's ambient group: SL_dim over one prime or
    a pair for matrices, (Z/modulus)^rank over one modulus for exponent
    vectors."""
    first = A.support[0]
    if isinstance(first, MatrixElement):
        return MatrixQuotient(first.dimension, tuple(moduli))
    if len(moduli) != 1:
        raise DomainError("pair moduli apply to matrix groups only")
    return AbelianQuotient(first.rank, moduli[0])
