"""Explicit sieve bounds for P(walk hits a thin set).

The chain: a Chebyshev-type bound on the intersection of t near-pairwise-
independent events, fed with the mixing estimate on each finite quotient,
gives the polynomial-regime threshold and bound

    n >= 10 |A| C^5 t^{5D} / alpha   =>   P(omega_n in Z) <= 3/(alpha t),

with delta = 3 C^3 t^{3D} (1 - 1/(|A| C^4 t^{4D}))^n and beta = alpha/2
inside. Everything here is exact rational arithmetic (Fractions in,
Fractions out); floats only appear in the single-prime convenience form,
a reporting surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Tuple, Union

from .errors import DomainError
from .spectra import mixing_rate
from .thinsets import residual

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
    inputs: dict = field(default_factory=dict)

    @property
    def bound_float(self) -> float:
        return float(self.bound)

    def to_json_obj(self):
        return {
            "n_min": str(self.n_min),
            "bound": str(self.bound),
            "bound_float": self.bound_float,
            "regime": self.regime,
            "t": self.t,
            "inputs": {k: str(v) for k, v in self.inputs.items()},
        }


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


def pairwise_delta(a_size: int, C: Rational, D: int, t: int, n: int) -> Fraction:
    """The pairwise-correlation term 3 C^3 t^{3D} (1 - 1/(|A| C^4 t^{4D}))^n."""
    C = _frac(C, "C")
    D = _check_int_exponent(D)
    if a_size < 1 or t < 1 or n < 0:
        raise DomainError("need a_size >= 1, t >= 1, n >= 0")
    denom = a_size * C ** 4 * t ** (4 * D)
    if denom < 1:
        raise DomainError("|A| C^4 t^{4D} must be at least 1")
    rate = 1 - 1 / denom
    return 3 * C ** 3 * t ** (3 * D) * rate ** n


def intersection_bound(a_size: int, C: Rational, D: int, alpha: Rational,
                       t: int, n: int) -> Fraction:
    """The full chain at one (t, n): chebyshev with the pairwise delta and
    beta = alpha/2. Exact; not clamped."""
    alpha = _frac(alpha, "alpha")
    if not 0 < alpha < 1:
        raise DomainError("alpha must lie strictly between 0 and 1")
    delta = pairwise_delta(a_size, C, D, t, n)
    return chebyshev_bound(alpha / 2, delta, t)


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
    return SieveBound(n_min=n_min, bound=bound, regime="polynomial", t=t,
                      inputs={"a_size": a_size, "C": C, "D": D, "alpha": alpha})


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
    t = max(1, _floor_root(n / base.n_min, 5 * base.inputs["D"]))
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


def single_prime_bound_exact(order: int, residual_density: Rational,
                             a_size: int, n: int) -> Fraction:
    """Exact rational form of single_prime_bound at the worst-case
    mixing_rate: sqrt(order) is rounded up to an integer, which only
    weakens (never breaks) the bound."""
    d = _frac(residual_density, "residual_density")
    if not 0 <= d <= 1:
        raise DomainError("residual_density must lie in [0, 1]")
    if n < 0:
        raise DomainError("n must be nonnegative")
    s = math.isqrt(order)
    if s * s < order:
        s += 1
    val = d + d * order * s * mixing_rate(order, a_size) ** n
    return min(Fraction(1), val)


@dataclass(frozen=True)
class AlphaEstimate:
    """alpha = 1 - worst residual density across the schedule."""

    alpha: object  # Fraction (enumerate) or float (sample)
    mode: str
    densities: Tuple[Tuple[int, object], ...]  # (prime, density) pairs

    def to_json_obj(self):
        return {
            "alpha": str(self.alpha),
            "mode": self.mode,
            "densities": {str(p): str(d) for p, d in self.densities},
        }


def estimate_alpha(oracle, schedule: Sequence[int], mode: str = "enumerate",
                   samples: int = 100_000, seed: int = 0) -> AlphaEstimate:
    """Worst-case residual density over the schedule, turned into alpha.

    Sampling mode widens each density by its Wald half-width. That keeps
    alpha on the small (safe) side only where samples * density is large;
    near samples * density = 10 the upper end covers about 93% of the
    time, not 97.5%. ROADMAP item 5 replaces the widening with
    Clopper-Pearson bounds.
    """
    densities = []
    worst = None
    for p in schedule:
        q = oracle.quotient_for_prime(p)
        rep = residual(oracle, q, mode=mode, samples=samples, seed=seed)
        d = rep.density
        if mode == "sample":
            d = min(1.0, d + rep.halfwidth)
        densities.append((p, d))
        if worst is None or d > worst:
            worst = d
    if worst is None:
        raise DomainError("the prime schedule is empty")
    alpha = 1 - worst
    return AlphaEstimate(alpha=alpha, mode=mode, densities=tuple(densities))
