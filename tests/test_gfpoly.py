import pytest
from sympy.polys.galoistools import gf_irreducible_p
from sympy.polys.domains import ZZ

from sievelab import gfpoly, prng
from sievelab.errors import DegreeUnsupported

PRIMES = (2, 3, 5, 7, 11, 13)


def to_sympy(f):
    # gfpoly is constant-first; galoistools wants leading-first
    return [ZZ(c) for c in reversed(f)]


def random_poly(seed, trial, deg, p):
    coeffs = prng.draw_indices(seed, trial, deg, p)
    return gfpoly.trim(coeffs + [1])  # monic of degree deg


def test_irreducible_against_sympy():
    for p in PRIMES:
        for deg in (1, 2, 3):
            for trial in range(40):
                f = random_poly(10 * p + deg, trial, deg, p)
                assert gfpoly.is_irreducible(f, p) == bool(gf_irreducible_p(to_sympy(f), p, ZZ))


def test_known_irreducibles():
    # X^2 + 1 mod 3 irreducible; mod 5 it splits (2^2 = -1)
    assert gfpoly.is_irreducible([1, 0, 1], 3)
    assert not gfpoly.is_irreducible([1, 0, 1], 5)
    # X^2 - X - 1 mod 5 is (X - 3)^2: a double root
    assert not gfpoly.is_irreducible([(-1) % 5, (-1) % 5, 1], 5)
    # X^3 - X - 1 irreducible mod 2 and 3; mod 5 it has the root 2
    for p in (2, 3):
        assert gfpoly.is_irreducible([(-1) % p, (-1) % p, 0, 1], p)
    assert not gfpoly.is_irreducible([4, 4, 0, 1], 5)
    # X^2 + X + 1 has no root mod 2, and X + 1 is irreducible everywhere
    assert gfpoly.is_irreducible([1, 1, 1], 2)
    assert gfpoly.is_irreducible([1, 1], 2)


def test_irreducible_refuses_degree_four():
    # X^4 + X^2 + 1 = (X^2 + X + 1)^2 mod 2 has no root, yet is reducible
    with pytest.raises(DegreeUnsupported):
        gfpoly.is_irreducible([1, 0, 1, 0, 1], 2)


def test_from_int_coeffs():
    assert gfpoly.from_int_coeffs([1, -2, 1], 3) == [1, 1, 1]
    assert gfpoly.from_int_coeffs([3, 6], 3) == []
