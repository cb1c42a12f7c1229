"""Sieve bounds: exact substitutions, plan selection, soundness legs."""

import math
from fractions import Fraction

import pytest

from helpers import exact_law, intersection_bound, pairwise_delta
from sievelab import sieve
from sievelab.errors import DomainError
from sievelab.matgroup import z_generators


# ----- chebyshev bound: exact substitutions -----

def test_chebyshev_substitutions():
    assert sieve.chebyshev_bound(Fraction(1, 2), 0, 4) == Fraction(1, 2)
    assert sieve.chebyshev_bound(1, 0, 10) == Fraction(1, 10)
    assert sieve.chebyshev_bound(Fraction(1, 2), Fraction(1, 8), 8) == Fraction(3, 4)


def test_chebyshev_is_exact_rational():
    out = sieve.chebyshev_bound(Fraction(1, 3), Fraction(1, 7), 5)
    assert isinstance(out, Fraction)
    assert out == (Fraction(1, 7) + Fraction(1, 15)) * 9


def test_chebyshev_validation():
    with pytest.raises(DomainError):
        sieve.chebyshev_bound(0, 0, 4)
    with pytest.raises(DomainError):
        sieve.chebyshev_bound(-1, 0, 4)
    with pytest.raises(DomainError):
        sieve.chebyshev_bound(Fraction(1, 2), -1, 4)
    with pytest.raises(DomainError):
        sieve.chebyshev_bound(Fraction(1, 2), 0, 0)
    with pytest.raises(DomainError):
        sieve.chebyshev_bound(Fraction(3, 2), 0, 4)  # beta > 1


# ----- threshold and bound: exact substitutions -----

def test_threshold_substitution_61440():
    b = sieve.sieve_threshold_and_bound(3, 1, 2, Fraction(1, 2), 2)
    assert b.n_min == 61440
    assert b.bound == 1  # 3/(alpha t) = 3, clamped
    assert b.regime == "polynomial"
    assert b.t == 2


def test_threshold_bound_one_fifth():
    b = sieve.sieve_threshold_and_bound(3, 1, 2, Fraction(1, 2), 30)
    assert b.bound == Fraction(1, 5)


def test_threshold_alpha_near_one():
    b = sieve.sieve_threshold_and_bound(3, 1, 2, Fraction(999, 1000), 300)
    assert b.bound == Fraction(3 * 1000, 999 * 300)
    assert abs(float(b.bound) - 0.01) < 1e-4


def test_threshold_exactness_and_json():
    b = sieve.sieve_threshold_and_bound(5, Fraction(3, 2), 1, Fraction(1, 3), 4)
    assert isinstance(b.n_min, Fraction)
    assert isinstance(b.bound, Fraction)
    assert b.n_min == 10 * 5 * Fraction(3, 2) ** 5 * 4 ** 5 * 3
    assert b.regime == "polynomial"
    assert Fraction(str(b.n_min)) == b.n_min  # the CLI's JSON form is exact


def test_threshold_validation():
    with pytest.raises(DomainError):
        sieve.sieve_threshold_and_bound(3, 1, 2, Fraction(3, 2), 2)
    with pytest.raises(DomainError):
        sieve.sieve_threshold_and_bound(3, 1, 2, 0, 2)
    with pytest.raises(DomainError):
        sieve.sieve_threshold_and_bound(3, 0, 2, Fraction(1, 2), 2)
    with pytest.raises(DomainError):
        sieve.sieve_threshold_and_bound(0, 1, 2, Fraction(1, 2), 2)
    with pytest.raises(DomainError):
        sieve.sieve_threshold_and_bound(3, 1, 2, Fraction(1, 2), 0)
    with pytest.raises(DomainError):
        sieve.sieve_threshold_and_bound(3, 1, Fraction(1, 2), Fraction(1, 2), 2)


# ----- the pairwise delta and the full chain -----

def test_pairwise_delta_values():
    # n = 0: delta = 3 C^3 t^{3D}
    assert pairwise_delta(3, 1, 1, 2, 0) == 24
    d = pairwise_delta(3, 1, 1, 2, 10)
    assert d == 24 * Fraction(47, 48) ** 10
    assert isinstance(d, Fraction)


def test_pairwise_delta_validation():
    with pytest.raises(DomainError):
        pairwise_delta(0, 1, 1, 2, 5)
    with pytest.raises(DomainError):
        pairwise_delta(3, Fraction(1, 10), 1, 1, 5)  # |A| C^4 < 1


def test_intersection_bound_honest_points():
    # at n = n_min the unclamped chain lands under 3/(alpha t), exactly
    for a, C, D, t, alpha in ((1, 1, 1, 2, Fraction(1, 2)),
                              (3, 1, 2, 2, Fraction(1, 2))):
        n_min = sieve.sieve_threshold_and_bound(a, C, D, alpha, t).n_min
        chain = intersection_bound(a, C, D, alpha, t, int(n_min))
        assert isinstance(chain, Fraction)
        assert chain <= 3 / (alpha * t)


def test_intersection_bound_decreases_in_n():
    vals = [intersection_bound(3, 1, 1, Fraction(1, 2), 2, n)
            for n in (0, 50, 100, 400)]
    assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))


# ----- plan_for_n -----

def test_plan_for_n_example():
    b = sieve.plan_for_n(10 ** 12, 5, Fraction(3, 2), 2, Fraction(1, 2))
    assert b.t == 8
    assert b.bound == Fraction(3, 4)
    assert 10 ** 12 >= b.n_min


def test_plan_for_n_small_n_falls_back_to_t1():
    b = sieve.plan_for_n(1, 3, 1, 2, Fraction(1, 2))
    assert b.t == 1
    assert b.bound == 1  # min(1, 3/alpha) = min(1, 6)


def test_plan_for_n_threshold_holds_above_t2_point():
    # once n >= 10 a C^5 / alpha, the selected t always satisfies n >= n_min
    for a, C, D, alpha in ((3, 1, 1, Fraction(1, 2)),
                           (5, Fraction(3, 2), 2, Fraction(1, 3)),
                           (13, 2, 3, Fraction(2, 3))):
        start = math.ceil(10 * a * Fraction(C) ** 5 / alpha)
        n = start
        while n <= 10 ** 12:
            b = sieve.plan_for_n(n, a, C, D, alpha)
            assert n >= b.n_min
            n *= 7
    with pytest.raises(DomainError):
        sieve.plan_for_n(0, 3, 1, 1, Fraction(1, 2))


def test_plan_for_n_monotone_in_n():
    prev = None
    for k in range(24):
        b = sieve.plan_for_n(2 ** k * 60, 3, 1, 1, Fraction(1, 2))
        if prev is not None:
            assert b.bound <= prev
        prev = b.bound


def test_plan_for_n_polynomial_rate():
    # bound^{5D} * n <= (6/alpha)^{5D} * 10 a C^5 / alpha, exactly
    a, C, D, alpha = 3, Fraction(3, 2), 2, Fraction(1, 2)
    K = (6 / alpha) ** (5 * D) * 10 * a * C ** 5 / alpha
    n = math.ceil(10 * a * C ** 5 / alpha)
    while n <= 10 ** 12:
        b = sieve.plan_for_n(n, a, C, D, alpha)
        assert Fraction(b.bound) ** (5 * D) * n <= K
        n *= 3


# ----- single-prime bound -----

def test_single_prime_bound_values():
    assert sieve.single_prime_bound(24, 0, 7, pi_star=0.5) == 0.0
    assert sieve.single_prime_bound(24, 1, 7, pi_star=0.5) == 1.0
    val = sieve.single_prime_bound(24, 0.25, 200, pi_star=0.9)
    assert val > 0.25
    assert abs(val - 0.25) < 1e-7


def test_single_prime_bound_formula():
    from sievelab.spectra import mixing_rate

    rate = float(mixing_rate(24, 5))
    val = sieve.single_prime_bound(24, 0.25, 3, pi_star=rate)
    expect = 0.25 + 0.25 * 24 * math.sqrt(24) * rate ** 3
    assert abs(val - min(1.0, expect)) < 1e-12


def test_single_prime_bound_validation():
    with pytest.raises(DomainError):
        sieve.single_prime_bound(24, 1.5, 7, pi_star=0.5)
    with pytest.raises(DomainError):
        sieve.single_prime_bound(24, 0.5, -1, pi_star=0.5)
    with pytest.raises(DomainError):
        sieve.single_prime_bound(24, 0.5, 7, pi_star=1.5)


# ----- soundness legs -----

def _parity_probability(n):
    """P(omega_n is even) for the lazy +-1 walk on Z, closed form.

    E[(-1)^{omega_n}] = (-1/3)^n since each step multiplies the sign by
    -1 with probability 2/3.
    """
    return Fraction(1, 2) + Fraction(-1, 3) ** n / 2


def test_parity_closed_form_matches_convolution():
    A = z_generators()
    for n in range(0, 13):
        even = sum(p for (x,), p in exact_law(A, n).items() if x % 2 == 0)
        assert even == _parity_probability(n)


def test_soundness_parity_leg_at_threshold():
    # honest unit-scale plan: Gamma = Z, A = {0,+1,-1}, one quotient Z/2,
    # thin set = even integers with residual density 1/2, alpha = 1/2
    a, C, D, alpha, t = 3, 2, 1, Fraction(1, 2), 1
    b = sieve.sieve_threshold_and_bound(a, C, D, alpha, t)
    assert b.n_min == 1920
    n = math.ceil(b.n_min)
    p_hit = _parity_probability(n)
    assert p_hit <= b.bound  # bound clamps to 1 at t = 1
    assert p_hit <= 3 / (alpha * t)  # and the unclamped form holds too
    # the exact chain at the same point stays under the lemma value
    chain = intersection_bound(a, C, D, alpha, t, n)
    assert chain <= 3 / (alpha * t)


def test_soundness_origin_leg_small_n():
    # thin set {0} in Z: density 1/p in Z/p, worst at p = 2 -> alpha = 1/2;
    # every exact small-n probability sits under the clamped bound
    from sievelab.walker import exact_origin_scan_z

    scan = exact_origin_scan_z(list(range(1, 11)))
    b = sieve.sieve_threshold_and_bound(3, 2, 1, Fraction(1, 2), 1)
    for n in range(1, 11):
        assert scan[n] <= b.bound


def test_soundness_unclamped_chain_at_small_honest_point():
    # a = 1, C = 1, D = 1, t = 2, alpha = 1/2: n_min = 640, chain <= 3
    b = sieve.sieve_threshold_and_bound(1, 1, 1, Fraction(1, 2), 2)
    assert b.n_min == 640
    chain = intersection_bound(1, 1, 1, Fraction(1, 2), 2, 640)
    assert chain <= 3
    # and it keeps shrinking toward the floor 2/(alpha t) = beta/t / beta^2
    chain2 = intersection_bound(1, 1, 1, Fraction(1, 2), 2, 6400)
    assert chain2 < chain
    assert chain2 > 2 / (Fraction(1, 2) * 2)
