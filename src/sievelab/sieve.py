"""Explicit sieve bounds for P(walk hits a thin set).

The chain: a Chebyshev-type bound on the intersection of t near-pairwise-
independent events, fed with the mixing estimate on each finite quotient,
gives the polynomial-regime threshold and bound

    n >= 10 |A| C^5 t^{5D} / alpha   =>   P(omega_n in Z) <= 3/(alpha t),

with delta = 3 C^3 t^{3D} (1 - 1/(|A| C^4 t^{4D}))^n and beta = alpha/2
inside. Everything here is exact rational arithmetic (Fractions in,
Fractions out); floats only appear in the single-prime convenience form,
a reporting surface. The pairwise term and the whole chain at one (t, n)
live in tests/helpers.py, as the reference the threshold tests check
this module's threshold and bound against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import DomainError

Rational = Union[int, Fraction]


def _frac(x, name: str) -> Fraction:
    try:
        return Fraction(x)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{name} must be a rational number, got {x!r}")


def _check_int_exponent(D) -> int:
    d = _frac(D, "D")
    if d.denominator != 1 or d < 1:
        raise DomainError("growth exponent D must be a positive integer")
    return int(d)


@dataclass(frozen=True)
class SieveBound:
    """A threshold n_min and the bound valid for n >= n_min."""

    n_min: Fraction
    bound: Fraction
    regime: str
    t: int


def chebyshev_bound(beta: Rational, delta: Rational, t: int) -> Fraction:
    """(delta + beta/t) / beta^2, the t-event intersection bound."""
    beta = _frac(beta, "beta")
    delta = _frac(delta, "delta")
    if not 0 < beta <= 1:
        raise DomainError("beta must lie in (0, 1]")
    if delta < 0:
        raise DomainError("delta must be nonnegative")
    if t < 1:
        raise DomainError("t must be at least 1")
    return (delta + beta / t) / beta ** 2


def sieve_threshold_and_bound(a_size: int, C: Rational, D: int,
                              alpha: Rational, t: int) -> SieveBound:
    """Threshold n_min = 10|A|C^5 t^{5D}/alpha and bound 3/(alpha t)."""
    C = _frac(C, "C")
    alpha = _frac(alpha, "alpha")
    D = _check_int_exponent(D)
    if not 0 < alpha < 1:
        raise DomainError("alpha must lie strictly between 0 and 1")
    if t < 1 or a_size < 1:
        raise DomainError("need t >= 1 and a_size >= 1")
    if C <= 0:
        raise DomainError("C must be positive")
    n_min = 10 * a_size * C ** 5 * t ** (5 * D) / alpha
    bound = min(Fraction(1), 3 / (alpha * t))
    return SieveBound(n_min=n_min, bound=bound, regime="polynomial", t=t)


def _floor_root(x: Fraction, k: int) -> int:
    """Largest integer r >= 0 with r^k <= x."""
    if x < 1:
        return 0
    hi = 1
    while Fraction(hi) ** k <= x:
        hi *= 2
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if Fraction(mid) ** k <= x:
            lo = mid
        else:
            hi = mid
    return lo


def plan_for_n(n: int, a_size: int, C: Rational, D: int,
               alpha: Rational) -> SieveBound:
    """Pick t ~ n^{1/(5D)} so the threshold holds at this n, and return
    the resulting bound. For n below the t = 2 threshold, t = 1.

    n_min(t) = n_min(1) t^{5D}, so t is the floor of (n / n_min(1))^{1/(5D)};
    the t = 1 plan also checks every input before anything divides by it."""
    if n < 1:
        raise DomainError("n must be at least 1")
    base = sieve_threshold_and_bound(a_size, C, D, alpha, 1)
    t = max(1, _floor_root(n / base.n_min, 5 * _check_int_exponent(D)))
    return sieve_threshold_and_bound(a_size, C, D, alpha, t)


def single_prime_bound(order: int, residual_density, n: int, pi_star: float) -> float:
    """P(omega_n in Z) <= density + count * sqrt(order) * pi_star^n, with
    count = density*order and pi_star a measured contraction rate.
    Clamped to [0, 1]."""
    d = float(residual_density)
    if not 0 <= d <= 1:
        raise DomainError("residual_density must lie in [0, 1]")
    if n < 0:
        raise DomainError("n must be nonnegative")
    if not 0 <= pi_star <= 1:
        raise DomainError("pi_star must lie in [0, 1]")
    val = d + (d * order) * math.sqrt(order) * pi_star ** n
    return min(1.0, max(0.0, val))
