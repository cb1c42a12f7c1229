"""Exact arithmetic for the ambient groups.

Two element kinds: integer matrices with determinant 1 (the SL_n walks)
and integer exponent vectors (the additive demo Z and the rank-2
multiplicative lattice). Everything is immutable and arbitrary
precision; no rounding ever occurs. The characteristic-polynomial
oracles read chi off the entries themselves (thinsets).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple, Union

from .errors import (
    DimensionMismatch,
    DomainError,
    MissingIdentity,
    NotSymmetric,
    SievelabError,
)

Entries = Tuple[Tuple[int, ...], ...]


def echelon(rows):
    """Fraction-free (Bareiss) row echelon form of an integer matrix.

    Returns (m, pivots, sign): the echelon rows, the column of each pivot
    (zero columns are skipped) and (-1)^(row swaps). Every division is
    exact: after the swaps, row k right of its pivot holds minors on rows
    0..k and the first k+1 pivot columns, the pivot itself among them.
    """
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots, sign, prev = [], 1, 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        if m[r][c] == 0:
            for i in range(r + 1, nrows):
                if m[i][c] != 0:
                    m[r], m[i], sign = m[i], m[r], -sign
                    break
            else:
                continue
        pivot, row_r = m[r][c], m[r]
        for row in m[r + 1:]:
            f, row[c] = row[c], 0
            for j in range(c + 1, ncols):
                row[j] = (row[j] * pivot - f * row_r[j]) // prev
        prev = pivot
        pivots.append(c)
    return m, pivots, sign


def det(rows) -> int:
    """Exact determinant of a nonempty square integer matrix given by its rows."""
    m, pivots, sign = echelon(rows)
    return sign * m[-1][-1] if len(pivots) == len(m) else 0


def kernel_vector(flat: Sequence[int], dim: int, eigenvalue: int) -> Tuple[int, ...]:
    """Primitive integer vector v with (g - eigenvalue*I) v = 0, g given
    flat and row-major, its first nonzero entry positive. Raises
    DomainError when eigenvalue is not an eigenvalue of g.

    Back-substitution on the echelon form of g - eigenvalue*I: the first
    free column is set to the pivot left of it (1 at column 0), which
    keeps each division exact by Cramer's rule, and the others to 0.
    """
    a = [[flat[i * dim + j] - eigenvalue * (i == j) for j in range(dim)] for i in range(dim)]
    m, pivots, _ = echelon(a)
    if len(pivots) == dim:
        raise DomainError(f"{eigenvalue} is not an eigenvalue of g: the kernel is trivial")
    # columns before the first free one are all pivot columns
    free = next(c for c in range(dim) if c not in pivots)
    v = [0] * dim
    v[free] = m[free - 1][free - 1] if free else 1
    for k in reversed(range(free)):
        v[k] = -sum(m[k][j] * v[j] for j in range(k + 1, free + 1)) // m[k][k]
    g = math.gcd(*v) * (1 if next(x for x in v if x) > 0 else -1)
    v = tuple(x // g for x in v)
    if any(sum(a[i][j] * v[j] for j in range(dim)) for i in range(dim)):
        raise SievelabError(f"{list(v)} is not in the kernel of g - {eigenvalue} I")
    return v


@dataclass(frozen=True)
class MatrixElement:
    """Square integer matrix with determinant exactly 1."""

    entries: Entries

    def __post_init__(self):
        self._check_shape()
        if det(self.entries) != 1:
            raise DomainError("determinant must equal 1")

    def _check_shape(self):
        n = len(self.entries)
        if n == 0 or any(len(r) != n for r in self.entries):
            raise DimensionMismatch("entries must form a square matrix")

    @classmethod
    def _det_one(cls, entries: Entries) -> "MatrixElement":
        """An element whose determinant is 1 by construction, a product
        or an inverse of elements: det(ab) = det(a) det(b). Only the
        shape is checked."""
        g = object.__new__(cls)
        object.__setattr__(g, "entries", entries)
        g._check_shape()
        return g

    @property
    def dimension(self) -> int:
        return len(self.entries)

    @classmethod
    def identity(cls, n: int) -> "MatrixElement":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def is_identity(self) -> bool:
        return all(x == (i == j) for i, row in enumerate(self.entries) for j, x in enumerate(row))

    def __mul__(self, other: "MatrixElement") -> "MatrixElement":
        return compose(self, other)

    def inverse(self) -> "MatrixElement":
        """Exact inverse by back-substitution on the echelon form [U | R] of
        [g | I]: U g^-1 = R with U upper triangular, its diagonal nonzero as
        det g = 1, and every division is exact as g^-1 is integral."""
        n = self.dimension
        m, _, _ = echelon([list(row) + [int(i == j) for j in range(n)]
                           for i, row in enumerate(self.entries)])
        x = [()] * n
        for k in reversed(range(n)):
            x[k] = tuple((m[k][n + c] - sum(m[k][j] * x[j][c] for j in range(k + 1, n)))
                         // m[k][k] for c in range(n))
        return MatrixElement._det_one(tuple(x))

    def flat(self) -> Tuple[int, ...]:
        return tuple(x for row in self.entries for x in row)

    def to_json_obj(self):
        return [str(x) for x in self.flat()]


@dataclass(frozen=True)
class AbelianElement:
    """Exponent vector in Z^r; the group law is component-wise addition."""

    exponents: Tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.exponents)

    @classmethod
    def identity(cls, rank: int) -> "AbelianElement":
        return cls((0,) * rank)

    def is_identity(self) -> bool:
        return all(x == 0 for x in self.exponents)

    def __mul__(self, other: "AbelianElement") -> "AbelianElement":
        return compose(self, other)

    def inverse(self) -> "AbelianElement":
        return AbelianElement(tuple(-x for x in self.exponents))

    def flat(self) -> Tuple[int, ...]:
        return self.exponents

    def to_json_obj(self):
        return [str(x) for x in self.exponents]


GroupElement = Union[MatrixElement, AbelianElement]


def compose(a: GroupElement, b: GroupElement) -> GroupElement:
    """Group law: exact matrix product, or exponent addition."""
    if isinstance(a, AbelianElement) and isinstance(b, AbelianElement):
        if a.rank != b.rank:
            raise DimensionMismatch(f"ranks differ: {a.rank} vs {b.rank}")
        return AbelianElement(tuple(x + y for x, y in zip(a.exponents, b.exponents)))
    if isinstance(a, MatrixElement) and isinstance(b, MatrixElement):
        n = a.dimension
        if n != b.dimension:
            raise DimensionMismatch(f"dimensions differ: {n} vs {b.dimension}")
        bt = tuple(zip(*b.entries))  # columns of b
        return MatrixElement._det_one(tuple(
            tuple(sum(ra[k] * cb[k] for k in range(n)) for cb in bt)
            for ra in a.entries
        ))
    raise DimensionMismatch("cannot compose elements of different kinds")


@dataclass(frozen=True)
class GeneratorMultiset:
    """Symmetric generator multiset containing the identity.

    pairs holds (element, multiplicity); size counts with multiplicity.
    tag is a stable name for the built-in families. It is only a label,
    written to JSON and closure reports; no computation reads it.
    """

    pairs: Tuple[Tuple[GroupElement, int], ...]
    tag: str = ""

    @property
    def size(self) -> int:
        return sum(m for _, m in self.pairs)

    @property
    def support(self) -> Tuple[GroupElement, ...]:
        return tuple(g for g, _ in self.pairs)

    def draw_table(self) -> Tuple[GroupElement, ...]:
        """Expansion with multiplicity; a uniform index draw picks a step."""
        out = []
        for g, m in self.pairs:
            out.extend([g] * m)
        return tuple(out)

    def identity_element(self) -> GroupElement:
        g = self.pairs[0][0]
        if isinstance(g, AbelianElement):
            return AbelianElement.identity(g.rank)
        return MatrixElement.identity(g.dimension)


def validate_generators(raw: Iterable[GroupElement], tag: str = "") -> GeneratorMultiset:
    """Check symmetry and identity presence; collate multiplicities.

    raw is a multiset given as an iterable with repetition.
    """
    counts: dict = {}
    order = []
    for g in raw:
        if g not in counts:
            counts[g] = 0
            order.append(g)
        counts[g] += 1
    if not order:
        raise DomainError("empty generator multiset")
    if not any(g.is_identity() for g in order):
        raise MissingIdentity("generator multiset must contain the identity")
    for g in order:
        inv = g.inverse()
        if counts.get(inv, 0) != counts[g]:
            raise NotSymmetric(f"multiplicity of an element differs from its inverse: {g}")
    return GeneratorMultiset(tuple((g, counts[g]) for g in order), tag=tag)


# ----- built-in generator families -----

def sl2_st_generators() -> GeneratorMultiset:
    """{I, S, S^-1, T, T^-1} with S = [[0,1],[-1,0]], T = [[1,1],[0,1]]."""
    I = MatrixElement.identity(2)
    S = MatrixElement(((0, 1), (-1, 0)))
    T = MatrixElement(((1, 1), (0, 1)))
    return validate_generators([I, S, S.inverse(), T, T.inverse()], tag="sl2_st")


def elementary_generators(n: int) -> GeneratorMultiset:
    """Identity plus all elementary matrices E_ij(+-1), i != j."""
    if n < 2:
        raise DomainError("need n >= 2")
    gens = [MatrixElement.identity(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for c in (1, -1):
                rows = [[1 if r == s else 0 for s in range(n)] for r in range(n)]
                rows[i][j] = c
                gens.append(MatrixElement(tuple(tuple(r) for r in rows)))
    return validate_generators(gens, tag=f"sl{n}_elementary")


def z_generators() -> GeneratorMultiset:
    """Gamma = Z with steps {0, +1, -1}."""
    return validate_generators(
        [AbelianElement((0,)), AbelianElement((1,)), AbelianElement((-1,))],
        tag="z_steps",
    )


def torus_generators() -> GeneratorMultiset:
    """Exponent lattice of <2,3> in Q*: rank 2, steps {0, +-e1, +-e2}."""
    return validate_generators(
        [
            AbelianElement((0, 0)),
            AbelianElement((1, 0)),
            AbelianElement((-1, 0)),
            AbelianElement((0, 1)),
            AbelianElement((0, -1)),
        ],
        tag="torus_steps",
    )
