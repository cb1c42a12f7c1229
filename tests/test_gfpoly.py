from sympy import GF, Poly, Symbol
from sympy.polys.galoistools import gf_factor_sqf, gf_gcd, gf_irreducible_p, gf_mul
from sympy.polys.domains import ZZ

from sievelab import gfpoly, prng

X = Symbol("x")


def to_sympy(f):
    # gfpoly is constant-first; galoistools wants leading-first
    return [ZZ(c) for c in reversed(f)]


def random_poly(seed, trial, deg, p):
    coeffs = prng.draw_indices(seed, trial, deg, p)
    return gfpoly.trim(coeffs + [1])  # monic of degree deg


def test_arithmetic_against_sympy():
    p = 7
    for trial in range(30):
        f = random_poly(1, 2 * trial, 4, p)
        g = random_poly(1, 2 * trial + 1, 3, p)
        ours = gfpoly.mul(f, g, p)
        theirs = gf_mul(to_sympy(f), to_sympy(g), p, ZZ)
        assert to_sympy(ours) == theirs


def test_divmod_identity():
    p = 11
    for trial in range(30):
        f = random_poly(2, 2 * trial, 6, p)
        g = random_poly(2, 2 * trial + 1, 3, p)
        q, r = gfpoly.divmod_poly(f, g, p)
        assert gfpoly.degree(r) < gfpoly.degree(g) or not r
        assert gfpoly.sub(f, gfpoly.mul(q, g, p), p) == r


def test_gcd_against_sympy():
    p = 5
    for trial in range(30):
        f = random_poly(3, 2 * trial, 5, p)
        g = random_poly(3, 2 * trial + 1, 4, p)
        ours = gfpoly.gcd(f, g, p)
        theirs = gf_gcd(to_sympy(f), to_sympy(g), p, ZZ)
        assert to_sympy(ours) == theirs


def test_powmod_fermat():
    # X^p == X mod (X^p - X); also a^p == a for linear a
    p = 13
    m = [0, (-1) % p] + [0] * (p - 2) + [1]  # X^p - X
    assert gfpoly.powmod([0, 1], p, m, p) == [0, 1]


def test_irreducible_against_sympy():
    for p in (2, 3, 5, 7):
        for deg in (2, 3, 4):
            agree = 0
            for trial in range(40):
                f = random_poly(10 * p + deg, trial, deg, p)
                ours = gfpoly.is_irreducible(f, p)
                theirs = bool(gf_irreducible_p(to_sympy(f), p, ZZ))
                # ours is conservative on non-squarefree input: it says False,
                # which matches (a square factor is never irreducible)
                assert ours == theirs
                agree += 1
            assert agree == 40


def test_known_irreducibles():
    # X^2 + 1 mod 3 irreducible; mod 5 it splits (2^2 = -1)
    assert gfpoly.is_irreducible([1, 0, 1], 3)
    assert not gfpoly.is_irreducible([1, 0, 1], 5)
    # X^2 - X - 1 mod 5: 5 ramifies... disc = 5 == 0, double root 3
    assert not gfpoly.is_squarefree([(-1) % 5, (-1) % 5, 1], 5)
    # X^3 - X - 1 irreducible mod 2 and 3; mod 5 it has the root 2
    for p in (2, 3):
        assert gfpoly.is_irreducible([(-1) % p, (-1) % p, 0, 1], p)
    assert not gfpoly.is_irreducible([4, 4, 0, 1], 5)


def test_degree_pattern_against_sympy_factorization():
    for p in (3, 5, 7, 11):
        for deg in (3, 4, 5):
            for trial in range(25):
                f = random_poly(100 * p + deg, trial, deg, p)
                if not gfpoly.is_squarefree(f, p):
                    continue
                ours = gfpoly.degree_pattern(f, p)
                _, factors = gf_factor_sqf(to_sympy(f), p, ZZ)
                theirs = sorted(len(fac) - 1 for fac in factors)
                assert ours == theirs, (f, p, ours, theirs)


def test_degree_pattern_examples():
    # X^3 - 1 = (X-1)(X^2+X+1) mod 5: pattern [1, 2]
    assert gfpoly.degree_pattern([4, 0, 0, 1], 5) == [1, 2]
    # mod 7 it splits completely (7 = 1 mod 3): [1, 1, 1]
    assert gfpoly.degree_pattern([6, 0, 0, 1], 7) == [1, 1, 1]


def test_from_int_coeffs():
    assert gfpoly.from_int_coeffs([1, -2, 1], 3) == [1, 1, 1]
    assert gfpoly.from_int_coeffs([3, 6], 3) == []
