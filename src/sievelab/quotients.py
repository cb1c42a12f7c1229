"""Finite quotients of the ambient group and closures of generator images.

A matrix quotient is SL_dim(Z/p) for a prime p, or the direct product
over a pair of distinct primes; an abelian quotient is (Z/q)^rank with
componentwise addition. Either way an element is its digit tuple: for
a matrix quotient the flat row-major entries of each prime's block,
block after block, for an abelian one the exponents. Enumeration hands
out all elements at once as an array of those digit rows, and integer
codes number them in sorted order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import (
    BudgetExceeded,
    CompositeModulus,
    DomainError,
    EnumerationIncomplete,
    EnumerationUnavailable,
    MissingIdentity,
    NotSymmetric,
)
from .matgroup import (
    AbelianElement,
    GeneratorMultiset,
    MatrixElement,
    elementary_generators,
)

ENUM_BUDGET = 10_000_000  # most elements an enumeration or closure may hold
_SLICE_ROWS = 1 << 17  # most products a closure computes in one batch

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

    def enumerate_elements(self) -> np.ndarray:
        """All elements in sorted order, one digit row each; raises when
        the order exceeds ENUM_BUDGET."""
        return self.decode(self.element_codes())

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
        # per prime, the closure of the elementary generators, checked
        # against the group order; a pair's codes are c0 * p1^(d^2) + c1
        d = self.dimension
        codes = np.zeros(1, dtype=self.dtype)
        for p in self.moduli:
            single = MatrixQuotient(d, (p,))
            gens = [single.reduce(g) for g in elementary_generators(d).support]
            want = group_order(d, p)
            block = _closure_codes(single, gens, want)
            if block.size != want:
                raise EnumerationIncomplete(
                    f"elementary generators reach {block.size} of {want} elements of "
                    f"SL_{d}(F_{p})")
            codes = (codes[:, None] * p ** (d * d) + block.astype(codes.dtype)).ravel()
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


@dataclass(frozen=True)
class ClosureReport:
    """BFS closure of reduced generators inside a finite quotient."""

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
    reachable set under right multiplication by A and its inverses."""
    gens = dict.fromkeys(quotient.reduce(h)
                         for g in A.support for h in (g, g.inverse()))
    codes = _closure_codes(quotient, list(gens), ENUM_BUDGET)
    return ClosureReport(quotient.label, A.tag, codes.size, quotient.order())


def walk_permutations(A: GeneratorMultiset, quotient):
    """The steps of a quotient walk as permutations of its element indices.

    The elements of A are reduced into the quotient, where repeated
    images merge in order of first appearance. Returns (codes, |A|,
    maps): the sorted element codes, and per distinct step g the index
    permutation of x -> x g with g's multiplicity. Raises MissingIdentity
    without the identity, and NotSymmetric unless each step's inverse has
    its multiplicity.
    """
    merged: Dict = {}
    for g, m in A.pairs:
        r = quotient.reduce(g)
        merged[r] = merged.get(r, 0) + m
    if quotient.identity() not in merged:
        raise MissingIdentity("reduced multiset must contain the identity")
    codes = quotient.element_codes()
    digits = quotient.decode(codes)
    maps = [(np.searchsorted(codes, quotient.encode(quotient.multiply_digits(digits, [g]))), m)
            for g, m in merged.items()]
    # x -> x g sends the identity e to g, and g^-1 to e
    e = quotient.index(quotient.identity())
    weight = {int(perm[e]): m for perm, m in maps}
    if any(weight.get(int(np.flatnonzero(perm == e)[0])) != m for perm, m in maps):
        raise NotSymmetric("reduced multiset is not symmetric")
    return codes, sum(merged.values()), maps


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
