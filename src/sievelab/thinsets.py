"""Membership oracles for the concrete thin sets the walks are sieved against.

Six kinds: reducible characteristic polynomial, non-generic Galois group,
rational fixed flag (eigenvalue +-1 with a rational eigenvector), proper
k-th powers, closed subvarieties cut out by entry polynomials, and the
squares in a rank-2 multiplicative lattice.

Every oracle answers three ways:
  * global_verdict(g): exact IN/OUT over the ambient group where
    decidable, with a checkable certificate; UNKNOWN carries a reason.
  * residual_mask(digits, quotient): a mod-p test on a whole array of
    quotient elements, one digit row each, whose residual set contains
    the reduction of the global set (never excludes a genuine member).
    The characteristic-polynomial oracles decide once per class of chi
    mod p.
  * hit_raw(state): the global test on a raw flat state, for the Monte
    Carlo inner loop; None where undecided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import gfpoly, prng, quotients
from .errors import (
    ArityMismatch,
    DegreeUnsupported,
    DomainError,
    InseparableResidue,
)
from .matgroup import (
    AbelianElement,
    GeneratorMultiset,
    MatrixElement,
    charpoly_coefficients,
    discriminant,
    _det_bareiss,
)
from .quotients import (
    AbelianQuotient,
    MatrixQuotient,
    is_prime,
    prime_schedule,
    quotient_for,
)

IN = "IN"
OUT = "OUT"
UNKNOWN = "UNKNOWN"


def is_perfect_square(n: int) -> bool:
    """Exact integer test; never touches floats."""
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


@dataclass(frozen=True)
class OracleVerdict:
    """IN/OUT with a witness, or UNKNOWN with the reason."""

    status: str
    certificate: Optional[dict] = None
    reason: str = ""

    def __post_init__(self):
        if self.status not in (IN, OUT, UNKNOWN):
            raise DomainError(f"bad verdict status {self.status!r}")
        if self.status != UNKNOWN and self.certificate is None:
            raise DomainError("IN/OUT verdicts require a certificate")

    def to_json_obj(self):
        out = {"status": self.status}
        if self.certificate is not None:
            out["certificate"] = self.certificate
        if self.reason:
            out["reason"] = self.reason
        return out


# ----- small exact linear algebra helpers -----

def _synthetic_division(coeffs: Sequence[int], root: int) -> Tuple[int, ...]:
    """Divide a monic polynomial (constant first) by (X - root) exactly."""
    desc = list(reversed(coeffs))
    out = [desc[0]]
    for c in desc[1:-1]:
        out.append(c + root * out[-1])
    rem = desc[-1] + root * out[-1]
    assert rem == 0, "root did not divide"
    return tuple(reversed(out))


def _kernel_vector(flat: Sequence[int], dim: int, eigenvalue: int) -> Tuple[int, ...]:
    """Primitive integer vector v with (g - eigenvalue*I) v = 0.

    Gaussian elimination over exact rationals; the caller guarantees the
    kernel is nontrivial (the shifted determinant vanishes).
    """
    rows = [
        [Fraction(flat[i * dim + j] - (eigenvalue if i == j else 0))
         for j in range(dim)]
        for i in range(dim)
    ]
    piv_cols = []
    r = 0
    for c in range(dim):
        pr = None
        for i in range(r, dim):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(dim):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        piv_cols.append(c)
        r += 1
    free = [c for c in range(dim) if c not in piv_cols]
    assert free, "kernel is trivial"
    fc = free[0]
    v = [Fraction(0)] * dim
    v[fc] = Fraction(1)
    for i, c in enumerate(piv_cols):
        v[c] = -rows[i][fc]
    den = 1
    for x in v:
        den = den * x.denominator // math.gcd(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = 0
    for x in ints:
        g = math.gcd(g, x)
    ints = [x // g for x in ints]
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    check = [
        sum((flat[i * dim + j] - (eigenvalue if i == j else 0)) * ints[j]
            for j in range(dim))
        for i in range(dim)
    ]
    assert all(x == 0 for x in check)
    return tuple(ints)


def _at_pm1(coeffs: Sequence[int]) -> Tuple[int, int]:
    """(chi(1), chi(-1)) for chi given constant term first."""
    return sum(coeffs), sum(coeffs[::2]) - sum(coeffs[1::2])


def _cycle_pattern_mod(coeffs: Sequence[int], p: int):
    """Factor degrees of a monic integer polynomial mod p; the pattern is
    the cycle type of Frobenius when the reduction is squarefree."""
    f = gfpoly.from_int_coeffs(coeffs, p)
    if not gfpoly.is_squarefree(f, p):
        raise InseparableResidue(f"not squarefree mod {p}")
    return gfpoly.degree_pattern(f, p)


_WITNESS_PRIMES = prime_schedule(25, 2)


def _reducible_quartic_factor(coeffs: Sequence[int]) -> Optional[dict]:
    """Certificate of a monic quadratic factor pair of a rootless monic
    quartic with constant term 1, or None.

    X^4+aX^3+bX^2+cX+1 = (X^2+pX+q)(X^2+rX+s) forces qs = 1, so
    q = s = 1 (needs c = a) or q = s = -1 (needs c = -a); in either case
    p and r are the integer roots of y^2 - ay + (b -+ 2). Linear factors
    are excluded beforehand, so this search is complete over Z.
    """
    one, c, b, a, lead = coeffs
    assert lead == 1 and one == 1
    for q, need in ((1, c == a), (-1, c == -a)):
        if not need:
            continue
        disc = a * a - 4 * (b - 2 * q)
        if not is_perfect_square(disc):
            continue
        r = math.isqrt(disc)
        if (a + r) % 2 != 0:
            continue
        return {"quadratic_factor": [q, (a + r) // 2, 1],
                "cofactor": [q, (a - r) // 2, 1],
                "witness": "product of two monic integer quadratics"}
    return None


def _rational_factor(coeffs: Sequence[int]) -> Optional[dict]:
    """Certificate of a factor over Z that a complete search finds, or None.

    The rational roots of a monic integer polynomial with constant term
    +-1 are +-1; a quartic without them may split into two quadratics.
    """
    for r, value in zip((1, -1), _at_pm1(coeffs)):
        if value == 0:
            return {"rational_root": r,
                    "cofactor": list(_synthetic_division(coeffs, r)),
                    "witness": f"(X - ({r})) divides the characteristic polynomial"}
    if len(coeffs) == 5:
        return _reducible_quartic_factor(coeffs)
    return None


def _jordan_witnesses(coeffs, n):
    half_primes = [q for q in range(n // 2 + 1, n) if is_prime(q)]
    need_odd = n % 2 == 1  # an n-cycle is an even permutation then
    found: Dict[str, list] = {}
    for p in _WITNESS_PRIMES:
        try:
            pat = _cycle_pattern_mod(coeffs, p)
        except InseparableResidue:
            continue
        if "n_cycle" not in found and pat == [n]:
            found["n_cycle"] = [p, pat]
        if "p_cycle" not in found:
            big = [c for c in pat if c > 1]
            if len(big) == 1 and big[0] in half_primes:
                found["p_cycle"] = [p, pat]
        if need_odd and "odd_pattern" not in found:
            if (n - len(pat)) % 2 == 1:
                found["odd_pattern"] = [p, pat]
        if "n_cycle" in found and "p_cycle" in found and (
                not need_odd or "odd_pattern" in found):
            return found
    return None


def _sl3_ts(f):
    """(t, s) of chi = X^3 - tX^2 + sX - 1 on SL_3, s the sum of the
    principal 2x2 minors; f is a flat row or the columns of a digit array."""
    t = f[0] + f[4] + f[8]
    s = f[0] * f[4] - f[1] * f[3] + f[0] * f[8] - f[2] * f[6] + f[4] * f[8] - f[5] * f[7]
    return t, s


# ----- oracle classes -----

class _CharpolyOracle:
    """A thin set of SL_dim(Z) read off the characteristic polynomial chi.

    The base computes chi once per element and holds everything the sets
    share; a subclass gives only its decision over Z with certificates
    (_verdict_from_coeffs) and its test on one block mod p
    (_block_contains).
    """

    # the Galois set also holds the irreducible cubics of square discriminant
    _square_discriminant = False

    def __init__(self, dimension: int):
        if dimension < 2:
            raise DomainError("dimension must be at least 2")
        self.dimension = dimension

    def quotient_for_prime(self, p: int) -> MatrixQuotient:
        return MatrixQuotient(self.dimension, (p,))

    def global_verdict(self, g: MatrixElement) -> OracleVerdict:
        flat = g.flat()
        return self._verdict_from_coeffs(charpoly_coefficients(flat, g.dimension), flat)

    def residual_mask(self, digits, quotient) -> np.ndarray:
        """Whether each row of digits (quotient elements, block after
        block) passes the test in every block, as the reduction of a
        member does. The test reads only chi mod p, so each block sorts
        its rows into classes of chi mod p and decides once per class."""
        d = quotient.dimension
        mask = np.ones(len(digits), dtype=bool)
        for b, p in enumerate(quotient.moduli):
            m = digits[:, b * d * d:(b + 1) * d * d] % p
            if 3 * p * p >= 1 << 62:
                m = m.astype(object)  # the SL_3 minors would pass int64
            if d == 2:
                key, inverse = np.unique((m[:, 0] + m[:, 3]) % p, return_inverse=True)
                polys = [(1, -t, 1) for t in key.tolist()]
            elif d == 3:
                t, s = _sl3_ts(m.T)
                key, inverse = np.unique(t % p * p + s % p, return_inverse=True)
                polys = [(-1, k % p, -(k // p), 1) for k in key.tolist()]
            else:  # one key per row: its coefficients mod p
                key, inverse = np.unique(np.fromiter(
                    (tuple(c % p for c in charpoly_coefficients(row, d)) for row in m.tolist()),
                    dtype=object, count=len(m)), return_inverse=True)
                polys = key.tolist()
            mask &= np.array([self._block_contains(c, p) for c in polys], dtype=bool)[inverse]
        return mask

    def hit_raw(self, flat):
        d = self.dimension
        if d == 2:
            # over SL_2(Z) each of the three sets is {trace = +-2}
            t = flat[0] + flat[3]
            return t == 2 or t == -2
        if d == 3:
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
        v = self._verdict_from_coeffs(charpoly_coefficients(flat, d), flat)
        return None if v.status == UNKNOWN else v.status == IN

    def to_json_obj(self):
        return {"kind": self.kind, "dimension": self.dimension}


class ReducibleCharpolyOracle(_CharpolyOracle):
    """Thin set {g : char poly of g factors nontrivially over Q}."""

    kind = "REDUCIBLE_CHARPOLY"

    def _verdict_from_coeffs(self, coeffs, flat=None) -> OracleVerdict:
        deg = len(coeffs) - 1
        factor = _rational_factor(coeffs)
        if factor is not None:
            return OracleVerdict(IN, factor)
        if deg == 2:
            disc = discriminant(coeffs)
            return OracleVerdict(OUT, {
                "discriminant": disc,
                "witness": f"no rational root; discriminant {disc} is not a square",
            })
        if deg == 3:
            return OracleVerdict(OUT, {
                "witness": "monic cubic with constant term -1 and no root at +-1",
            })
        if deg == 4:
            return OracleVerdict(OUT, {
                "witness": "no root at +-1 and no monic quadratic factor pair",
            })
        for p in _WITNESS_PRIMES:
            f = gfpoly.from_int_coeffs(coeffs, p)
            if gfpoly.is_irreducible(f, p):
                return OracleVerdict(OUT, {
                    "irreducible_mod": p,
                    "witness": f"irreducible mod {p}, hence irreducible over Q",
                })
        return OracleVerdict(
            UNKNOWN, reason=f"degree {deg} > 4 and no mod-p irreducibility witness")

    def _block_contains(self, coeffs, p) -> bool:
        return not gfpoly.is_irreducible(gfpoly.from_int_coeffs(coeffs, p), p)


class NongenericGaloisOracle(_CharpolyOracle):
    """Thin set {g : Galois group of char poly is not the full S_dim}.

    IN means NON-generic. Degree 2: discriminant a perfect square.
    Degree 3: reducible or square discriminant. Degree 4 and up:
    reducibility gives IN; genericity is certified by factor patterns
    mod sampled primes (an n-cycle, a p-cycle for a prime p > n/2
    fixing the rest, and for odd n an odd pattern), else UNKNOWN.
    """

    kind = "NONGENERIC_GALOIS"
    _square_discriminant = True

    def _verdict_from_coeffs(self, coeffs, flat=None) -> OracleVerdict:
        deg = len(coeffs) - 1
        if deg == 2:
            disc = discriminant(coeffs)
            if is_perfect_square(disc):
                return OracleVerdict(IN, {
                    "square_discriminant": disc,
                    "sqrt": math.isqrt(disc),
                    "witness": f"discriminant {disc} is a perfect square",
                })
            return OracleVerdict(OUT, {
                "galois_group": "S2",
                "discriminant": disc,
                "witness": f"discriminant {disc} is not a perfect square",
            })
        factor = _rational_factor(coeffs)
        if deg == 3:
            if factor is not None:
                return OracleVerdict(IN, {
                    "degeneracy": "reducible",
                    "rational_root": factor["rational_root"],
                    "witness": "characteristic polynomial has a rational root",
                })
            disc = discriminant(coeffs)
            if is_perfect_square(disc):
                return OracleVerdict(IN, {
                    "degeneracy": "square_discriminant",
                    "square_discriminant": disc,
                    "witness": f"irreducible with square discriminant {disc}: group A3",
                })
            return OracleVerdict(OUT, {
                "galois_group": "S3",
                "discriminant": disc,
                "witness": "irreducible cubic with non-square discriminant",
            })
        if factor is not None:
            return OracleVerdict(IN, {
                "degeneracy": "reducible",
                "witness": "reducible characteristic polynomial: group not transitive",
            })
        witnesses = _jordan_witnesses(coeffs, deg)
        if witnesses is not None:
            return OracleVerdict(OUT, {
                "galois_group": f"S{deg}",
                "witness_patterns": witnesses,
                "witness": "factor patterns mod witnessing primes generate S_n",
            })
        return OracleVerdict(
            UNKNOWN,
            reason=f"no full witness set among primes up to {_WITNESS_PRIMES[-1]}")

    def residual_mask(self, digits, quotient) -> np.ndarray:
        if quotient.dimension > 3:
            raise DegreeUnsupported("residual test implemented for dimensions 2 and 3")
        return super().residual_mask(digits, quotient)

    def _block_contains(self, coeffs, p) -> bool:
        if not gfpoly.is_irreducible(gfpoly.from_int_coeffs(coeffs, p), p):
            return True
        # squares persist under reduction; Euler criterion, 0 counts
        return p == 2 or pow(discriminant(coeffs) % p, (p - 1) // 2, p) <= 1


class RationalFixedFlagOracle(_CharpolyOracle):
    """Thin set {g : g fixes a rational line}, i.e. g has an eigenvector
    over Q. The eigenvalue is an integer dividing det(g) = 1, so the test
    is chi(1) = 0 or chi(-1) = 0, any dimension; det(g -+ I) is
    (-1)^dim chi(+-1)."""

    kind = "RATIONAL_FIXED_FLAG"

    def _verdict_from_coeffs(self, coeffs, flat=None) -> OracleVerdict:
        dim = len(coeffs) - 1
        at_one, at_minus_one = _at_pm1(coeffs)
        for lam, value in ((1, at_one), (-1, at_minus_one)):
            if value == 0:
                v = list(_kernel_vector(flat, dim, lam))
                return OracleVerdict(IN, {
                    "eigenvalue": lam,
                    "fixed_vector": v,
                    "witness": (f"g fixes the line through {v}" if lam == 1 else
                                f"g maps the line through {v} to itself (eigenvalue -1)"),
                })
        sign = (-1) ** dim
        return OracleVerdict(OUT, {
            "det_g_minus_identity": sign * at_one,
            "det_g_plus_identity": sign * at_minus_one,
            "witness": "neither +1 nor -1 is an eigenvalue",
        })

    def _block_contains(self, coeffs, p) -> bool:
        at_one, at_minus_one = _at_pm1(coeffs)
        return at_one % p == 0 or at_minus_one % p == 0


# explicit roots are searched in the ball of this radius, up to this size
_BALL_DEPTH = 3
_BALL_BUDGET = 20_000


class ProperPowerOracle:
    """Thin set {g : g = h^k for some h in the ambient group}.

    Exact both ways on abelian elements. On matrices: IN by a bounded
    ball search for an explicit root, OUT by a non-power certificate in
    some scheduled finite quotient, UNKNOWN otherwise. A scheduled
    quotient whose order exceeds the enumeration budget is skipped.
    """

    kind_base = "PROPER_POWER"

    def __init__(self, k: int, generators: Optional[GeneratorMultiset] = None,
                 schedule: Optional[Tuple[int, ...]] = None):
        if k < 2:
            raise DomainError("k must be at least 2")
        self.k = k
        self.generators = generators
        self.schedule = schedule if schedule is not None else prime_schedule(3, 2)
        self._power_sets: Dict[Tuple[int, Tuple[int, ...]], np.ndarray] = {}

    @property
    def kind(self) -> str:
        return f"{self.kind_base}({self.k})"

    def quotient_for_prime(self, p: int):
        if self.generators is None:
            raise DomainError("proper_power needs generators to build quotients")
        return quotient_for(self.generators, (p,))

    def _ball(self):
        assert self.generators is not None
        ident = self.generators.identity_element()
        seen = {ident}
        frontier = [ident]
        for _ in range(_BALL_DEPTH):
            nxt = []
            for x in frontier:
                for h in self.generators.support:
                    y = x * h
                    if y not in seen:
                        if len(seen) >= _BALL_BUDGET:
                            return seen
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return seen

    def _power_codes(self, quotient: MatrixQuotient) -> np.ndarray:
        """Sorted codes of the k-th powers in a matrix quotient, all taken at
        once by square-and-multiply; kept per (dimension, moduli), as labels repeat."""
        key = (quotient.dimension, quotient.moduli)
        if key not in self._power_sets:
            d, b = quotient.dimension, len(quotient.moduli)
            x = quotient.enumerate_elements().reshape(-1, b, d, d)
            mods = np.array(quotient.moduli, dtype=x.dtype).reshape(b, 1, 1)
            y, e = np.broadcast_to(np.eye(d, dtype=x.dtype), x.shape), self.k
            while e:
                if e & 1:
                    y = y @ x % mods
                x, e = x @ x % mods, e >> 1
            self._power_sets[key] = quotients._distinct(quotient.encode(y.reshape(len(y), -1)))
        return self._power_sets[key]

    def global_verdict(self, g) -> OracleVerdict:
        k = self.k
        if isinstance(g, AbelianElement):
            if all(e % k == 0 for e in g.exponents):
                root = tuple(e // k for e in g.exponents)
                return OracleVerdict(IN, {
                    "root_exponents": list(root),
                    "witness": f"exponents are all multiples of {k}",
                })
            i = next(i for i, e in enumerate(g.exponents) if e % k != 0)
            return OracleVerdict(OUT, {
                "coordinate": i,
                "value": g.exponents[i],
                "witness": f"exponent {g.exponents[i]} is not a multiple of {k}",
            })
        if g.is_identity():
            return OracleVerdict(IN, {
                "root": g.to_json_obj(),
                "witness": "identity is its own k-th root",
            })
        if self.generators is not None:
            for h in self._ball():
                acc = h
                for _ in range(k - 1):
                    acc = acc * h
                if acc == g:
                    return OracleVerdict(IN, {
                        "root": h.to_json_obj(),
                        "witness": f"explicit {k}-th root found in a generator ball",
                    })
        skipped = []
        for p in self.schedule:
            quotient = MatrixQuotient(g.dimension, (p,))
            if quotient.order() > quotients.ENUM_BUDGET:
                skipped.append(str(p))
            elif not self.residual_mask(np.array([quotient.reduce(g)]), quotient)[0]:
                return OracleVerdict(OUT, {
                    "non_power_mod": p,
                    "witness": f"reduction mod {p} is not a {k}-th power there",
                })
        if skipped:
            return OracleVerdict(
                UNKNOWN,
                reason=f"no root in the search ball, every other scheduled reduction is a "
                       f"{k}-th power, and SL_{g.dimension} mod {', '.join(skipped)} exceeds the "
                       f"enumeration budget")
        return OracleVerdict(
            UNKNOWN,
            reason=f"no root in the search ball and every scheduled quotient "
                   f"reduction is a {k}-th power")

    def residual_mask(self, digits, quotient) -> np.ndarray:
        if isinstance(quotient, AbelianQuotient):
            # the k-th multiples in Z/q are the multiples of gcd(k, q)
            return np.all(digits % math.gcd(self.k, quotient.modulus) == 0, axis=1)
        return np.isin(quotient.encode(digits), self._power_codes(quotient))

    def hit_raw(self, state):
        if self.generators is not None and isinstance(
                self.generators.support[0], AbelianElement):
            return all(e % self.k == 0 for e in state)
        return None  # matrix state: no cheap global decision

    def to_json_obj(self):
        return {"kind": self.kind, "k": self.k,
                "schedule": list(self.schedule)}


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

    def evaluate(self, values: Sequence[int], modulus: Optional[int] = None) -> int:
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
        return total % modulus if modulus is not None else total

    def evaluate_batch(self, coords):
        """Values at many points, one array per coordinate. Exact: the
        arrays are taken as Python ints when int64 could overflow."""
        if len(coords) != self.arity:
            raise ArityMismatch(
                f"expected {self.arity} coordinates, got {len(coords)}")
        big = max(int(abs(arr).max(initial=0)) for arr in coords)
        if sum(abs(c) * big ** sum(e) for c, e in self.monomials) >= 1 << 63:
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


def trace_polynomial(dimension: int, shift: int = 0) -> EntryPolynomial:
    """trace - shift, in the dim^2 matrix entry coordinates."""
    arity = dimension * dimension
    unit = [0] * arity
    mons = []
    for i in range(dimension):
        e = list(unit)
        e[i * dimension + i] = 1
        mons.append((1, tuple(e)))
    if shift:
        mons.append((-shift, tuple(unit)))
    return EntryPolynomial(arity, tuple(mons))


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
        else:
            self.dimension = None

    def quotient_for_prime(self, p: int):
        if self.domain == "matrix":
            return MatrixQuotient(self.dimension, (p,))
        return AbelianQuotient(self.arity, p)

    def _values(self, g):
        if isinstance(g, MatrixElement):
            values = g.flat()
        elif isinstance(g, AbelianElement):
            values = g.exponents
        else:
            values = tuple(g)
        if len(values) != self.arity:
            raise ArityMismatch(
                f"element has {len(values)} coordinates, oracle wants {self.arity}")
        return values

    def global_verdict(self, g) -> OracleVerdict:
        values = self._values(g)
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
        moduli = (quotient.modulus,) if isinstance(quotient, AbelianQuotient) else quotient.moduli
        mask = np.ones(len(digits), dtype=bool)
        for block, p in zip(np.hsplit(digits, len(moduli)), moduli):
            for q in self.polys:
                mask &= q.evaluate_batch(list(block.T)) % p == 0
        return mask

    def hit_raw(self, state):
        return all(q.evaluate(state) == 0 for q in self.polys)

    def hit_raw_batch(self, coords):
        out = None
        for q in self.polys:
            z = q.evaluate_batch(coords) == 0
            out = z if out is None else (out & z)
        return out

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
        if g.rank != self.rank:
            raise ArityMismatch(f"element rank {g.rank} != oracle rank {self.rank}")
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
        # the image of doubling in Z/q is everything for odd q, evens else
        return np.all(digits % math.gcd(2, quotient.modulus) == 0, axis=1)

    def hit_raw(self, state):
        return all(e % 2 == 0 for e in state)

    def hit_raw_batch(self, coords):
        out = None
        for arr in coords:
            z = arr % 2 == 0
            out = z if out is None else (out & z)
        return out

    def to_json_obj(self):
        return {"kind": self.kind, "rank": self.rank}


# ----- residual set measurement -----

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


def _sample_matrix_block(p: int, dim: int, seed: int, trial: int) -> Tuple[int, ...]:
    """Uniform element of SL_dim(F_p): uniform invertible matrix, first
    row rescaled by the inverse determinant."""
    need = dim * dim
    for attempt in range(64):
        entries = tuple(prng.draw_indices(seed, trial, need, p, start=attempt * need))
        rows = [[entries[i * dim + j] for j in range(dim)] for i in range(dim)]
        det = _det_bareiss(rows) % p
        if det == 0:
            continue
        inv = pow(det, p - 2, p)
        return tuple((x * inv) % p for x in entries[:dim]) + entries[dim:]
    raise DomainError(f"could not sample an invertible matrix mod {p}")


def sample_element(quotient, seed: int, trial: int):
    """One uniform element of the quotient, deterministic in (seed, trial)."""
    if isinstance(quotient, AbelianQuotient):
        return tuple(prng.draw_indices(seed, trial, quotient.rank, quotient.modulus))
    # separate counter lanes per block via the seed
    return tuple(e for bi, p in enumerate(quotient.moduli)
                 for e in _sample_matrix_block(p, quotient.dimension, seed + 1000003 * bi, trial))


def residual(oracle, quotient, mode: str = "enumerate", samples: int = 100_000,
             seed: int = 0) -> ResidualReport:
    """Residual-set size and density, exactly or by uniform sampling, with
    every element decided in one residual_mask call."""
    if mode not in ("enumerate", "sample"):
        raise DomainError("mode must be 'enumerate' or 'sample'")
    if mode == "sample" and samples < 1:
        raise DomainError("samples must be positive")
    rows = (quotient.enumerate_elements() if mode == "enumerate" else
            np.array([sample_element(quotient, seed, trial) for trial in range(samples)],
                     dtype=quotient.dtype))
    hits = int(np.count_nonzero(oracle.residual_mask(rows, quotient)))
    if mode == "enumerate":
        return ResidualReport(quotient.label, mode, len(rows), hits,
                              Fraction(hits, len(rows)), None)
    est = hits / samples
    # rule of three when no sample hits, as for all-miss Monte Carlo rows
    hw = 1.96 * math.sqrt(est * (1.0 - est) / samples) if hits else 3.0 / samples
    return ResidualReport(quotient.label, mode, samples, hits, est, hw)
