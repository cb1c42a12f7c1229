"""Membership oracles for the concrete thin sets the walks are sieved against.

Four kinds: non-generic Galois group, rational fixed flag (eigenvalue
+-1 with a rational eigenvector; on SL_2 and SL_3 also the set of
reducible characteristic polynomials), closed subvarieties cut out by
entry polynomials, and the squares in a rank-2 multiplicative lattice.
The two characteristic-polynomial kinds cover SL_2 and SL_3.

Every oracle answers three ways:
  * global_verdict(g): exact IN/OUT over the ambient group, with a
    checkable certificate. Every set is decided over Z, so there is no
    third answer.
  * residual_mask(digits, quotient): a mod-p test on a whole array of
    quotient elements, one digit row each, whose residual set contains
    the reduction of the global set (never excludes a genuine member).
    The characteristic-polynomial oracles test chi(+-1) mod p, or Euler's
    criterion on the discriminant mod p.
  * exactly one Monte Carlo test: hit_raw(flat), the global test on one
    raw flat state, a sequence of Python ints in the order of g.flat()
    (the walker hands over tuples), giving a bool, or
    hit_raw_batch(coords), the same test on one array per coordinate,
    int64 or Python ints, giving one bool per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from . import prng
from .errors import ArityMismatch, DegreeUnsupported, DimensionMismatch, DomainError
from .matgroup import AbelianElement, MatrixElement, kernel_vector
from .quotients import AbelianQuotient, MatrixQuotient, cofactors

IN = "IN"
OUT = "OUT"


def is_perfect_square(n: int) -> bool:
    """Exact integer test; never touches floats."""
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


@dataclass(frozen=True)
class OracleVerdict:
    """IN or OUT, with a witness."""

    status: str
    certificate: dict

    def __post_init__(self):
        if self.status not in (IN, OUT):
            raise DomainError(f"bad verdict status {self.status!r}")

    def to_json_obj(self):
        return {"status": self.status, "certificate": self.certificate}


def _sl3_ts(f):
    """(t, s) of chi = X^3 - tX^2 + sX - 1 on SL_3, s the sum of the
    principal 2x2 minors; f is a flat row or the columns of a digit array."""
    t = f[0] + f[4] + f[8]
    s = f[0] * f[4] - f[1] * f[3] + f[0] * f[8] - f[2] * f[6] + f[4] * f[8] - f[5] * f[7]
    return t, s


def _chi_pm1(f, dim: int):
    """(chi(1), chi(-1)) on SL_dim, dim 2 or 3: (2 - t, 2 + t), or
    (s - t, -s - t - 2); f is a flat row or the columns of a digit array."""
    if dim == 2:
        t = f[0] + f[3]
        return 2 - t, 2 + t
    t, s = _sl3_ts(f)
    return s - t, -s - t - 2


def _discriminant(flat, dim: int) -> int:
    """disc(chi) of one flat element: t^2 - 4, or 18ts - 4t^3 + t^2 s^2 -
    4s^3 - 27, in Python ints (on SL_3 it passes int64 past entries ~2^10)."""
    if dim == 2:
        t = flat[0] + flat[3]
        return t * t - 4
    t, s = _sl3_ts(flat)
    return 18 * t * s - 4 * t ** 3 + t * t * s * s - 4 * s ** 3 - 27


# ----- oracle classes -----

def _same_kind(x, attr: str, size: int):
    """Refuse an element or quotient whose dimension (a matrix oracle,
    DimensionMismatch) or rank (an abelian one, ArityMismatch) is not the
    oracle's size."""
    if getattr(x, attr, None) != size:
        raise (DimensionMismatch if attr == "dimension" else ArityMismatch)(
            f"{type(x).__name__} of {attr} {getattr(x, attr, None)} "
            f"given to an oracle of {attr} {size}")


class _CharpolyOracle:
    """A thin set of SL_dim(Z), dim 2 or 3, read off the characteristic
    polynomial chi.

    Each set is written once, on chi(1), chi(-1) and disc(chi). A
    subclass gives its decision over Z with certificates from those three
    values (_verdict), and its test on one block mod p as array tests on
    the block's columns (_block_mask).
    """

    # the Galois set also holds the irreducible cubics of square discriminant
    _square_discriminant = False

    def __init__(self, dimension: int):
        if dimension < 2:
            raise DomainError("dimension must be at least 2")
        if dimension > 3:
            raise DegreeUnsupported(
                f"characteristic-polynomial oracles cover dimensions 2 and 3, not {dimension}")
        self.dimension = dimension

    def quotient_for_prime(self, p: int) -> MatrixQuotient:
        return MatrixQuotient(self.dimension, (p,))

    def global_verdict(self, g: MatrixElement) -> OracleVerdict:
        _same_kind(g, "dimension", self.dimension)
        flat = g.flat()
        return self._verdict(flat, *_chi_pm1(flat, self.dimension),
                             _discriminant(flat, self.dimension))

    def residual_mask(self, digits, quotient) -> np.ndarray:
        """Whether each row of digits (quotient elements, block after
        block) passes the test in every block, as the reduction of a
        member does. Digits are in [0, p), as enumerate_elements and
        sample_rows give them. The test reads only chi mod p."""
        _same_kind(quotient, "dimension", self.dimension)
        d = self.dimension
        mask = np.ones(len(digits), dtype=bool)
        for b, p in enumerate(quotient.moduli):
            m = digits[:, b * d * d:(b + 1) * d * d]
            if 3 * p * p >= 1 << 62:
                m = m.astype(object)  # the SL_3 minors would pass int64
            mask &= self._block_mask(m.T, p)
        return mask

    def hit_raw(self, flat):
        if self.dimension == 2:
            # over SL_2(Z) both sets are {trace = +-2}
            t = flat[0] + flat[3]
            return t == 2 or t == -2
        # chi(1) = s - t, chi(-1) = -s - t - 2
        t, s = _sl3_ts(flat)
        if s == t or s == -t - 2:
            return True
        if not self._square_discriminant:
            return False
        # the discriminant of chi and is_perfect_square, inlined: this
        # runs once per Monte Carlo lane and checkpoint
        ts = t * s
        disc = 18 * ts - 4 * t * t * t + ts * ts - 4 * s * s * s - 27
        return disc >= 0 and math.isqrt(disc) ** 2 == disc

    def to_json_obj(self):
        return {"kind": self.kind, "dimension": self.dimension}


class NongenericGaloisOracle(_CharpolyOracle):
    """Thin set {g : Galois group of char poly is not the full S_dim}.

    IN means NON-generic. Degree 2: discriminant a perfect square.
    Degree 3: reducible or square discriminant.
    """

    kind = "NONGENERIC_GALOIS"
    _square_discriminant = True

    def _verdict(self, flat, at_one, at_minus_one, disc) -> OracleVerdict:
        # a root of a monic integer cubic with constant term -1 is +-1
        if self.dimension == 3 and 0 in (at_one, at_minus_one):
            return OracleVerdict(IN, {
                "degeneracy": "reducible",
                "rational_root": 1 if at_one == 0 else -1,
                "witness": "characteristic polynomial has a rational root",
            })
        if not is_perfect_square(disc):
            return OracleVerdict(OUT, {
                "galois_group": f"S{self.dimension}",
                "discriminant": disc,
                "witness": (f"discriminant {disc} is not a perfect square" if self.dimension == 2
                            else "irreducible cubic with non-square discriminant"),
            })
        if self.dimension == 2:
            return OracleVerdict(IN, {
                "square_discriminant": disc,
                "sqrt": math.isqrt(disc),
                "witness": f"discriminant {disc} is a perfect square",
            })
        return OracleVerdict(IN, {
            "degeneracy": "square_discriminant",
            "square_discriminant": disc,
            "witness": f"irreducible with square discriminant {disc}: group A3",
        })

    def _block_mask(self, f, p):
        # the reduction of a member is reducible or of square discriminant.
        # Stickelberger: mod an odd p a squarefree chi has a square
        # discriminant iff its count of irreducible factors has the parity
        # of its degree. So every cubic passes, and a quadratic iff it splits
        if self.dimension == 3 or p == 2:
            return True
        key, inverse = np.unique((f[0] + f[3]) % p, return_inverse=True)
        return np.array([pow((t * t - 4) % p, (p - 1) // 2, p) <= 1
                         for t in key.tolist()])[inverse]


class RationalFixedFlagOracle(_CharpolyOracle):
    """Thin set {g : g fixes a rational line}, i.e. g has an eigenvector
    over Q. The eigenvalue is an integer dividing det(g) = 1, so the test
    is chi(1) = 0 or chi(-1) = 0; det(g -+ I) is (-1)^dim chi(+-1). In
    degree 2 or 3 that is also the set where chi is reducible over Q."""

    kind = "RATIONAL_FIXED_FLAG"

    def _verdict(self, flat, at_one, at_minus_one, disc) -> OracleVerdict:
        for lam, value in ((1, at_one), (-1, at_minus_one)):
            if value == 0:
                v = list(kernel_vector(flat, self.dimension, lam))
                return OracleVerdict(IN, {
                    "eigenvalue": lam,
                    "fixed_vector": v,
                    "witness": (f"g fixes the line through {v}" if lam == 1 else
                                f"g maps the line through {v} to itself (eigenvalue -1)"),
                })
        sign = (-1) ** self.dimension
        return OracleVerdict(OUT, {
            "det_g_minus_identity": sign * at_one,
            "det_g_plus_identity": sign * at_minus_one,
            "witness": "neither +1 nor -1 is an eigenvalue",
        })

    def _block_mask(self, f, p):
        at_one, at_minus_one = _chi_pm1(f, self.dimension)
        return (at_one % p == 0) | (at_minus_one % p == 0)


@dataclass(frozen=True)
class EntryPolynomial:
    """Integer polynomial in the flattened entry coordinates x_0..x_{arity-1}.

    monomials holds (coefficient, exponent tuple) terms; the empty tuple
    is the zero polynomial."""

    arity: int
    monomials: Tuple[Tuple[int, Tuple[int, ...]], ...]

    def __post_init__(self):
        for _, exps in self.monomials:
            if len(exps) != self.arity:
                raise ArityMismatch("monomial exponent tuple has wrong length")

    def evaluate(self, values: Sequence[int]) -> int:
        if len(values) != self.arity:
            raise ArityMismatch(
                f"expected {self.arity} coordinates, got {len(values)}")
        total = 0
        for coeff, exps in self.monomials:
            term = coeff
            for v, e in zip(values, exps):
                if e:
                    term *= v ** e
            total += term
        return total

    def evaluate_batch(self, coords):
        """Values at many points, one array per coordinate. Exact: the
        arrays are taken as Python ints when int64 could overflow."""
        if len(coords) != self.arity:
            raise ArityMismatch(
                f"expected {self.arity} coordinates, got {len(coords)}")
        big = max(int(abs(arr).max(initial=0)) for arr in coords)
        # at big = 0, a coefficient past int64 would still overflow np.full_like
        if sum(abs(c) * max(big, 1) ** sum(e) for c, e in self.monomials) >= 1 << 63:
            coords = [arr.astype(object) for arr in coords]
        total = None
        for coeff, exps in self.monomials:
            term = np.full_like(coords[0], coeff)
            for arr, e in zip(coords, exps):
                for _ in range(e):
                    term = term * arr
            total = term if total is None else total + term
        if total is None:
            return np.zeros_like(coords[0])
        return total

    def __str__(self):
        if not self.monomials:
            return "0"
        parts = []
        for coeff, exps in self.monomials:
            vars_ = "*".join(
                f"x{i}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exps) if e)
            if vars_:
                parts.append(f"{coeff}*{vars_}" if coeff != 1 else vars_)
            else:
                parts.append(str(coeff))
        return " + ".join(parts)

    def to_json_obj(self):
        return {"arity": self.arity,
                "monomials": [[c, list(e)] for c, e in self.monomials]}


def coordinate_polynomial(arity: int, index: int, shift: int = 0) -> EntryPolynomial:
    """x_index - shift."""
    e = [0] * arity
    e[index] = 1
    mons = [(1, tuple(e))]
    if shift:
        mons.append((-shift, tuple([0] * arity)))
    return EntryPolynomial(arity, tuple(mons))


class SubvarietyOracle:
    """Thin set cut out by the simultaneous vanishing of entry polynomials."""

    kind = "SUBVARIETY"

    def __init__(self, polys: Sequence[EntryPolynomial], domain: str = "matrix"):
        polys = tuple(polys)
        if not polys:
            raise DomainError("polynomial list must be non-empty")
        if domain not in ("matrix", "abelian"):
            raise DomainError("domain must be 'matrix' or 'abelian'")
        arities = {q.arity for q in polys}
        if len(arities) != 1:
            raise ArityMismatch("all polynomials must share one arity")
        self.polys = polys
        self.arity = polys[0].arity
        self.domain = domain
        if domain == "matrix":
            d = math.isqrt(self.arity)
            if d * d != self.arity or d < 2:
                raise ArityMismatch(
                    f"arity {self.arity} is not a square of a dimension >= 2")
            self.dimension = d
            self._kind = ("dimension", d)
        else:
            self.dimension = None
            self._kind = ("rank", self.arity)

    def quotient_for_prime(self, p: int):
        if self.domain == "matrix":
            return MatrixQuotient(self.dimension, (p,))
        return AbelianQuotient(self.arity, p)

    def global_verdict(self, g) -> OracleVerdict:
        _same_kind(g, *self._kind)
        values = g.flat() if self.domain == "matrix" else g.exponents
        for i, q in enumerate(self.polys):
            v = q.evaluate(values)
            if v != 0:
                return OracleVerdict(OUT, {
                    "poly_index": i,
                    "poly": str(q),
                    "value": v,
                    "witness": f"polynomial {i} evaluates to {v} != 0",
                })
        return OracleVerdict(IN, {
            "witness": f"all {len(self.polys)} polynomials vanish on the entries",
        })

    def residual_mask(self, digits, quotient) -> np.ndarray:
        _same_kind(quotient, *self._kind)
        moduli = quotient.moduli if self.domain == "matrix" else (quotient.modulus,)
        mask = np.ones(len(digits), dtype=bool)
        for block, p in zip(np.hsplit(digits, len(moduli)), moduli):
            for q in self.polys:
                mask &= q.evaluate_batch(list(block.T)) % p == 0
        return mask

    def hit_raw_batch(self, coords):
        return np.logical_and.reduce([q.evaluate_batch(coords) == 0 for q in self.polys])

    def to_json_obj(self):
        return {"kind": self.kind, "domain": self.domain,
                "polys": [q.to_json_obj() for q in self.polys]}


class TorusSquaresOracle:
    """Squares in the rank-2 multiplicative lattice: all exponents even."""

    kind = "TORUS_SQUARES"

    def __init__(self, rank: int = 2):
        if rank < 1:
            raise DomainError("rank must be at least 1")
        self.rank = rank

    def quotient_for_prime(self, p: int) -> AbelianQuotient:
        return AbelianQuotient(self.rank, p)

    def global_verdict(self, g: AbelianElement) -> OracleVerdict:
        _same_kind(g, "rank", self.rank)
        if all(e % 2 == 0 for e in g.exponents):
            return OracleVerdict(IN, {
                "root_exponents": [e // 2 for e in g.exponents],
                "witness": "all exponents even: the element is a square",
            })
        i = next(i for i, e in enumerate(g.exponents) if e % 2 != 0)
        return OracleVerdict(OUT, {
            "odd_coordinate": i,
            "witness": f"exponent {g.exponents[i]} at coordinate {i} is odd",
        })

    def residual_mask(self, digits, quotient: AbelianQuotient) -> np.ndarray:
        _same_kind(quotient, "rank", self.rank)
        # the image of doubling in Z/q is everything for odd q, evens else
        return np.all(digits % math.gcd(2, quotient.modulus) == 0, axis=1)

    def hit_raw_batch(self, coords):
        return np.logical_and.reduce([arr % 2 == 0 for arr in coords])

    def to_json_obj(self):
        return {"kind": self.kind, "rank": self.rank}


# ----- residual set measurement -----

def halfwidth(hits: int, trials: int) -> float:
    """Half-width of the 95% interval of p = hits/trials: Wald's, or the
    rule of three 3/trials when nothing hit. Every estimate's interval
    comes from here."""
    if not hits:
        return 3.0 / trials
    p = hits / trials
    return 1.96 * math.sqrt(p * (1.0 - p) / trials)


@dataclass(frozen=True)
class ResidualReport:
    """Size and density of an oracle's residual set in one quotient."""

    quotient_label: str
    mode: str
    checked: int
    hits: int
    density: object  # Fraction when enumerated, float when sampled
    halfwidth: Optional[float]

    def to_json_obj(self):
        return {
            "quotient": self.quotient_label,
            "mode": self.mode,
            "checked": self.checked,
            "hits": self.hits,
            "density": str(self.density),
            "halfwidth": self.halfwidth,
        }


def _sample_sl_block(p: int, dim: int, seed: int, samples: int) -> np.ndarray:
    """Uniform elements of SL_dim(F_p) for trials 0..samples-1, one row
    each: the first of up to 64 draws of dim^2 entries with a nonzero
    determinant, first row rescaled by the inverse determinant. The
    determinant is the first row times its cofactors. Entries are Python
    ints where dim * p^2 would pass int64."""
    need = dim * dim
    big = dim * p * p >= 1 << 62
    out = np.empty((samples, need), dtype=object if big else np.int64)
    pending = np.arange(samples)
    for attempt in range(64):
        # uint8 products would wrap: entries are int64, or Python ints if big
        entries = prng.draw_block(seed, pending, need, p, start=attempt * need).astype(out.dtype)
        d = sum(entries[:, j] * c
                for j, c in enumerate(cofactors(entries[:, dim:], dim, p))) % p
        ok = d != 0
        rows = entries[ok]
        keys, inverse = np.unique(d[ok], return_inverse=True)
        inv = np.array([pow(int(k), p - 2, p) for k in keys], dtype=rows.dtype)
        rows[:, :dim] = rows[:, :dim] * inv[inverse, None] % p
        out[pending[ok]] = rows
        pending = pending[~ok]
        if not len(pending):
            return out
    raise DomainError(f"could not sample an invertible matrix mod {p}")


def sample_rows(quotient, seed: int, samples: int) -> np.ndarray:
    """Digit rows of uniform elements of the quotient for trials
    0..samples-1, deterministic in (seed, trial), in the quotient's dtype.
    A matrix quotient draws each block with its own seed."""
    if isinstance(quotient, AbelianQuotient):
        rows = prng.draw_block(seed, np.arange(samples), quotient.rank, quotient.modulus)
    else:
        rows = np.hstack([_sample_sl_block(p, quotient.dimension, seed + 1000003 * bi, samples)
                          for bi, p in enumerate(quotient.moduli)])
    return rows.astype(quotient.dtype)


_RESIDUAL_SLICE = 1 << 17  # most enumerated elements decided in one residual_mask call


def residual(oracle, quotient, mode: str = "enumerate", samples: int = 100_000,
             seed: int = 0) -> ResidualReport:
    """Residual-set size and density, exactly or by uniform sampling. The
    samples are decided in one residual_mask call, the enumerated
    elements a slice of _RESIDUAL_SLICE at a time."""
    if mode not in ("enumerate", "sample"):
        raise DomainError("mode must be 'enumerate' or 'sample'")
    if mode == "sample" and samples < 1:
        raise DomainError("samples must be positive")
    if mode == "enumerate":
        # a slice of the elements at a time: the digit rows of a whole
        # SL_3(F_7) would take hundreds of MiB
        order = quotient.order()
        hits = sum(int(np.count_nonzero(oracle.residual_mask(
            quotient.enumerate_elements(i, i + _RESIDUAL_SLICE), quotient)))
            for i in range(0, order, _RESIDUAL_SLICE))
        return ResidualReport(quotient.label, mode, order, hits, Fraction(hits, order), None)
    rows = sample_rows(quotient, seed, samples)
    hits = int(np.count_nonzero(oracle.residual_mask(rows, quotient)))
    return ResidualReport(quotient.label, mode, samples, hits, hits / samples,
                          halfwidth(hits, samples))
