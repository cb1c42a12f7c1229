"""Independent brute-force oracles for cross-checking, sympy-backed."""

import math
from fractions import Fraction

import numpy as np
from sympy import Matrix, Poly, Symbol
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p

from sievelab import prng, sieve, walker
from sievelab.errors import DomainError
from sievelab.matgroup import MatrixElement, det
from sievelab.quotients import AbelianQuotient
from sievelab.thinsets import EntryPolynomial

_X = Symbol("x")

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113,
                 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
                 191, 193, 197, 199, 211, 223, 227, 229]


def to_poly(coeffs):
    """constant-first integer coefficients -> sympy Poly."""
    return Poly(sum(int(c) * _X ** i for i, c in enumerate(coeffs)), _X)


def brute_reducible(coeffs):
    """Factors nontrivially over Q (monic integer input)."""
    poly = to_poly(coeffs)
    factors = poly.factor_list()[1]
    if len(factors) != 1:
        return True
    base, mult = factors[0]
    return mult != 1 or base.degree() != poly.degree()


def brute_irreducible_witness_mod_p(coeffs):
    """First prime among 50 where the reduction is irreducible, else None."""
    for p in _SMALL_PRIMES:
        rev = [c % p for c in reversed(coeffs)]
        while rev and rev[0] == 0:
            rev.pop(0)
        if len(rev) != len(coeffs):
            continue  # degree dropped: cannot witness
        if gf_irreducible_p([ZZ(c) for c in rev], p, ZZ):
            return p
    return None


def brute_charpoly(g):
    """Constant-first coefficients of det(x*I - g) by sympy."""
    return tuple(int(c) for c in reversed(Matrix(g.entries).charpoly(_X).all_coeffs()))


def brute_residual_block(kind, block, p):
    """Whether one block of a quotient element, its dim*dim entries mod p
    row-major, passes the residual test of the characteristic-polynomial
    oracle of this kind: the reference for residual_mask, written from
    chi(x) = det(xI - g) alone.

    The fixed-flag set asks for a zero of chi at x = 1 or -1. The Galois
    set asks for chi reducible mod p, that is a zero at some x of F_p
    (sympy's irreducibility test on sympy's chi where p is too large to
    try every x), or else for p = 2, or for a square discriminant mod p,
    0 counted. The discriminant is the determinant of the Hankel matrix of
    the power sums tr(g^(i+j)), the square of the roots' Vandermonde."""
    dim = math.isqrt(len(block))
    rows = [[int(x) for x in block[i * dim:(i + 1) * dim]] for i in range(dim)]

    def chi(x):
        return det([[x * (i == j) - rows[i][j] for j in range(dim)] for i in range(dim)]) % p

    if kind == "RATIONAL_FIXED_FLAG":
        return chi(1) == 0 or chi(-1) == 0
    if p < 1000:
        reducible = any(chi(x) == 0 for x in range(p))
    else:
        coeffs = Matrix(rows).charpoly(_X).all_coeffs()
        reducible = not gf_irreducible_p([ZZ(int(c) % p) for c in coeffs], p, ZZ)
    if reducible or p == 2:
        return True
    power, sums = [[int(i == j) for j in range(dim)] for i in range(dim)], []
    for _ in range(2 * dim - 1):
        sums.append(sum(power[i][i] for i in range(dim)))
        power = [[sum(power[i][k] * rows[k][j] for k in range(dim)) for j in range(dim)]
                 for i in range(dim)]
    disc = det([[sums[i + j] for j in range(dim)] for i in range(dim)])
    return pow(disc % p, (p - 1) // 2, p) <= 1


def check_charpoly_certificate(kind, g, verdict):
    """Assert that the verdict of the characteristic-polynomial oracle of
    this kind on g proves itself. Every value is rebuilt by sympy from the
    entries of g, with no package code: chi = det(xI - g), its
    discriminant and factorization, and det(g -+ I)."""
    m = Matrix(g.entries)
    dim = m.rows
    chi = m.charpoly(_X)
    disc = int(chi.discriminant())
    irreducible = not brute_reducible(tuple(int(c) for c in reversed(chi.all_coeffs())))
    cert = verdict.certificate
    if kind == "RATIONAL_FIXED_FLAG" and verdict.status == "IN":
        lam, v = cert["eigenvalue"], Matrix(cert["fixed_vector"])
        assert lam in (1, -1) and any(v) and math.gcd(*v) == 1
        assert m * v == lam * v
    elif kind == "RATIONAL_FIXED_FLAG":
        assert verdict.status == "OUT"
        assert cert["det_g_minus_identity"] == (m - Matrix.eye(dim)).det() != 0
        assert cert["det_g_plus_identity"] == (m + Matrix.eye(dim)).det() != 0
    elif "rational_root" in cert:
        assert verdict.status == "IN" and chi.eval(cert["rational_root"]) == 0
    elif "square_discriminant" in cert:
        assert verdict.status == "IN" and cert["square_discriminant"] == disc >= 0
        assert math.isqrt(disc) ** 2 == disc
        if "sqrt" in cert:
            assert cert["sqrt"] ** 2 == disc
    else:
        assert verdict.status == "OUT" and cert["galois_group"] == f"S{dim}"
        assert cert["discriminant"] == disc and irreducible
        assert disc < 0 or math.isqrt(disc) ** 2 != disc


def from_json_entries(arr):
    """The matrix whose to_json_obj() is arr: flat row-major entries as strings."""
    vals = [int(x) for x in arr]
    n = math.isqrt(len(vals))
    return MatrixElement(tuple(tuple(vals[i * n:(i + 1) * n]) for i in range(n)))


def brute_disc_is_square(coeffs):
    disc = int(to_poly(coeffs).discriminant())
    return disc >= 0 and math.isqrt(disc) ** 2 == disc


def brute_nongeneric(coeffs):
    """Degrees 2-3: Galois group smaller than the full symmetric group."""
    deg = len(coeffs) - 1
    assert deg in (2, 3)
    if brute_reducible(coeffs):
        return True
    return brute_disc_is_square(coeffs)


def walk_elements(generators, count, seed, length):
    """Endpoints of independent walks of the given length; deterministic in seed."""
    table = generators.draw_table()
    out = []
    for trial in range(count):
        g = generators.identity_element()
        for idx in prng.draw_indices(seed, trial, length, len(table)):
            step = table[idx]
            if not step.is_identity():
                g = g * step
        out.append(g)
    return out


def elements(quotient):
    """Every element of the quotient, as a digit tuple, in sorted order."""
    return [tuple(row) for row in quotient.enumerate_elements().tolist()]


def residual_contains(oracle, x, quotient):
    """Whether the quotient element x lies in the oracle's residual set,
    asked through residual_mask as a one-row digit array."""
    return bool(oracle.residual_mask(np.array([x]), quotient)[0])


def dict_laws(generators, nmax):
    """The law of omega_n for n = 0..nmax by a dict convolution of group
    elements: the reference for the rows of walker.exact_laws. Yields
    [(element, path count)] in order of first reach, as a convolution
    meets the states: source state by source state, each times every
    generator in the order of generators.pairs."""
    counts = {generators.identity_element(): 1}
    yield list(counts.items())
    for _ in range(nmax):
        nxt = {}
        for g, c in counts.items():
            for h, mult in generators.pairs:
                t = g * h
                nxt[t] = nxt.get(t, 0) + c * mult
        counts = nxt
        yield list(counts.items())


def line_scan_laws(grid):
    """The law of the walk on Z with steps {0, +1, -1} at each n of the
    sorted grid by a line scan to max(grid), one step at a time: the
    reference for walker._z_line_laws. Positions -n..n in order, counts as
    Python ints; the law is symmetric, so the scan holds positions 0..n."""
    half, done = [1], 0
    for n in walker.law_grid(grid):
        for _ in range(done, n):
            # position x after k steps sums positions x-1, x, x+1 after
            # k-1, and position -1 has the count of 1
            pad = [half[1] if len(half) > 1 else 0, *half, 0, 0]
            half = [a + b + c for a, b, c in zip(pad, pad[1:], pad[2:])]
        done = n
        yield n, np.arange(-n, n + 1).reshape(-1, 1), np.array(half[:0:-1] + half, dtype=object)


def exact_law(A, n):
    """P(omega_n = g) from the rows of walker.exact_laws, keyed by g.flat()."""
    (_, rows, counts), = walker.exact_laws(A, [n])
    return {tuple(r): Fraction(c, A.size ** n) for r, c in zip(rows.tolist(), counts.tolist())}


def _sample_matrix_block(p, dim, seed, trial):
    """Uniform element of SL_dim(F_p): uniform invertible matrix, first
    row rescaled by the inverse determinant."""
    need = dim * dim
    for attempt in range(64):
        entries = tuple(prng.draw_indices(seed, trial, need, p, start=attempt * need))
        d = det([entries[i * dim:(i + 1) * dim] for i in range(dim)]) % p
        if d == 0:
            continue
        inv = pow(d, p - 2, p)
        return tuple((x * inv) % p for x in entries[:dim]) + entries[dim:]
    raise DomainError(f"could not sample an invertible matrix mod {p}")


def sample_element(quotient, seed, trial):
    """One uniform element of the quotient, deterministic in (seed, trial),
    drawn one trial at a time: the reference for thinsets.sample_rows."""
    if isinstance(quotient, AbelianQuotient):
        return tuple(prng.draw_indices(seed, trial, quotient.rank, quotient.modulus))
    # separate counter lanes per block via the seed
    return tuple(e for bi, p in enumerate(quotient.moduli)
                 for e in _sample_matrix_block(p, quotient.dimension, seed + 1000003 * bi, trial))


def trace_polynomial(dimension, shift=0):
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


def pairwise_delta(a_size, C, D, t, n):
    """The pairwise-correlation term 3 C^3 t^{3D} (1 - 1/(|A| C^4 t^{4D}))^n."""
    C = Fraction(C)
    if a_size < 1 or D < 1 or t < 1 or n < 0:
        raise DomainError("need a_size >= 1, D >= 1, t >= 1, n >= 0")
    denom = a_size * C ** 4 * t ** (4 * D)
    if denom < 1:
        raise DomainError("|A| C^4 t^{4D} must be at least 1")
    return 3 * C ** 3 * t ** (3 * D) * (1 - 1 / denom) ** n


def intersection_bound(a_size, C, D, alpha, t, n):
    """The full chain at one (t, n): sieve.chebyshev_bound with the
    pairwise delta and beta = alpha/2, the reference for
    sieve.sieve_threshold_and_bound. Exact; not clamped."""
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise DomainError("alpha must lie strictly between 0 and 1")
    return sieve.chebyshev_bound(alpha / 2, pairwise_delta(a_size, C, D, t, n), t)
