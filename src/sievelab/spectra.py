"""Spectral gaps of finite quotient walks and the resulting mixing bounds.

The walk operator P acts on functions on the quotient group by
(Pv)(x) = sum_g (mult_g/|A|) v(x g). A symmetric multiset makes P
self-adjoint, so its spectrum is real: 1 = lambda_1 >= lambda_2 >= ...
pi_1 is lambda_2, pi_min the bottom eigenvalue, pi_star the largest
modulus away from the top eigenvector.

Small quotients get a dense symmetric eigensolver; past the threshold
a deflated power iteration on (I+P)/2 and (I-P)/2 extracts the two
extremes with a residual: the 2-norm ||Pv - theta v|| of each Rayleigh
pair, which bounds |lambda - theta| for some eigenvalue lambda of P.
Consumers add the residual before comparing against thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import ConvergenceFailure, DomainError, MissingIdentity, NotSymmetric
from .matgroup import GeneratorMultiset
from .quotients import MatrixQuotient
from .walker import convolve_counts

DENSE_THRESHOLD = 4000
_POWER_TOL = 1e-9
_POWER_MAX_ITER = 200_000


@dataclass(frozen=True)
class AdjacencySpectrum:
    """Extreme eigenvalues of one quotient walk operator."""

    quotient_label: str
    order: int
    a_size: int
    pi_1: float
    pi_min: float
    method: str
    residual: float

    @property
    def pi_star(self) -> float:
        return max(abs(self.pi_1), abs(self.pi_min))

    def to_json_obj(self):
        return {
            "modulus": self.quotient_label,
            "order": self.order,
            "a_size": self.a_size,
            "pi_1": self.pi_1,
            "pi_min": self.pi_min,
            "pi_star": self.pi_star,
            "method": self.method,
            "residual": self.residual,
        }


def _reduced_pairs(source, quotient) -> List[Tuple[object, int]]:
    """Reduce a multiset into the quotient, merging collisions."""
    if isinstance(source, GeneratorMultiset):
        raw = [(quotient.reduce(g), m) for g, m in source.pairs]
    else:
        raw = [(g, int(m)) for g, m in source]
    merged: Dict = {}
    for r, m in raw:
        if not quotient.contains(r):
            raise DomainError(f"multiset element {r} is not in the quotient {quotient.label}")
        merged[r] = merged.get(r, 0) + m
    pairs = list(merged.items())
    ident = quotient.identity()
    if not any(r == ident for r, _ in pairs):
        raise MissingIdentity("reduced multiset must contain the identity")
    # symmetry: every block must pair with an inverse of equal weight
    for r, m in pairs:
        inv = None
        for s, _ in pairs:
            if quotient.multiply(r, s) == ident:
                inv = s
                break
        if inv is None or merged[inv] != m:
            raise NotSymmetric("reduced multiset is not symmetric")
    return pairs


def _neighbor_maps(quotient, budget):
    """Order of the quotient, and g -> the index permutation of x -> x g
    over its sorted element codes, for g in the quotient group."""
    codes = quotient.element_codes(budget)
    digits = quotient.decode(codes)

    def perm(g):
        return np.searchsorted(
            codes, quotient.encode(quotient.multiply_digits(digits, [quotient.digits(g)])))
    return len(codes), perm


def _minus_identity(quotient):
    """-I reduced into a matrix quotient where it is not I (even dimension,
    every modulus odd); None otherwise."""
    if (not isinstance(quotient, MatrixQuotient) or quotient.dimension % 2
            or not all(p % 2 for p in quotient.moduli)):
        return None
    d = quotient.dimension
    return tuple(tuple((p - 1) * (i == j) for i in range(d) for j in range(d))
                 for p in quotient.moduli)


def _dense_spectrum(maps, neg=None) -> np.ndarray:
    """All eigenvalues of P = sum of its (permutation, weight) maps, ascending.

    neg, when given, permutes x -> -x; -I is central, so P commutes with
    it and splits on even and odd functions into P+- [x, y] = P[x, y] +-
    P[x, -y] over one x of each pair {x, -x}: two blocks of order |G|/2
    whose spectra together are P's. Without neg the one block is P.
    """
    ell = maps[0][0].size
    neg = np.arange(ell) if neg is None else neg
    rep = np.arange(ell) <= neg
    rows = np.flatnonzero(rep)
    slot = np.empty(ell, dtype=np.int64)
    slot[rows] = slot[neg[rows]] = np.arange(rows.size)
    signs = [np.ones(ell)] + ([] if rep.all() else [np.where(rep, 1.0, -1.0)])
    eig = []
    for sign in signs:
        block = np.zeros((rows.size, rows.size))
        for perm, w in maps:
            t = perm[rows]
            block[np.arange(rows.size), slot[t]] += w * sign[t]
        eig.append(np.linalg.eigvalsh(block))
    return np.sort(np.concatenate(eig))


def _power_top(matvec, dim: int, deflate: np.ndarray):
    """Largest eigenvalue of a PSD-shifted operator, u-deflated.

    Returns (rayleigh, residual): residual is the 2-norm ||Av - rayleigh
    v|| for the last unit vector v, which bounds the distance from
    rayleigh to an eigenvalue of a self-adjoint A.
    """
    rng = np.random.default_rng(987654321)
    v = rng.standard_normal(dim)
    v -= (deflate @ v) * deflate
    nrm = np.linalg.norm(v)
    if nrm == 0:
        raise ConvergenceFailure("degenerate start vector")
    v /= nrm
    mu = 0.0
    for _ in range(_POWER_MAX_ITER):
        w = matvec(v)
        w -= (deflate @ w) * deflate
        mu = float(v @ w)
        res = float(np.linalg.norm(w - mu * v))
        if res <= _POWER_TOL:
            return mu, res
        nrm = np.linalg.norm(w)
        if nrm == 0:
            return 0.0, 0.0
        v = w / nrm
    raise ConvergenceFailure(
        f"power iteration residual {res:.3e} after {_POWER_MAX_ITER} iterations")


def second_eigenvalue(source, quotient, dense_threshold: int = DENSE_THRESHOLD,
                      budget: int = 10_000_000) -> AdjacencySpectrum:
    """pi_1, pi_min, pi_star of the walk operator on the quotient.

    source is a GeneratorMultiset (reduced here) or pre-reduced
    (element, multiplicity) pairs. A dense spectrum is exact up to
    rounding (residual 0.0); an iterative one reports a residual that
    bounds the distance of pi_1 and of pi_min to eigenvalues of P.
    """
    pairs = _reduced_pairs(source, quotient)
    ell, perm = _neighbor_maps(quotient, budget)
    a_size = sum(m for _, m in pairs)
    maps = [(perm(g), m / a_size) for g, m in pairs]
    if ell < 2:
        raise DomainError("quotient must have at least 2 elements")
    if ell <= dense_threshold:
        minus = _minus_identity(quotient)
        eig = _dense_spectrum(maps, None if minus is None else perm(minus))
        return AdjacencySpectrum(quotient.label, ell, a_size,
                                 pi_1=float(eig[-2]), pi_min=float(eig[0]),
                                 method="dense", residual=0.0)

    def matvec_p(v):
        out = np.zeros_like(v)
        for idx, w in maps:
            out += w * v[idx]
        return out

    u = np.full(ell, 1.0 / np.sqrt(ell))
    mu_plus, res_plus = _power_top(lambda v: 0.5 * (v + matvec_p(v)), ell, u)
    mu_minus, res_minus = _power_top(lambda v: 0.5 * (v - matvec_p(v)), ell, u)
    pi_1 = 2.0 * mu_plus - 1.0
    pi_min = 1.0 - 2.0 * mu_minus
    residual = 2.0 * max(res_plus, res_minus)
    return AdjacencySpectrum(quotient.label, ell, a_size,
                             pi_1=pi_1, pi_min=pi_min,
                             method="iterative", residual=residual)


def expander_certify(source, quotient, eps: float,
                     dense_threshold: int = DENSE_THRESHOLD) -> bool:
    """Whether pi_1 <= 1 - eps, conservatively (residual counts against)."""
    if not 0 < eps < 1:
        raise DomainError("eps must be in (0, 1)")
    spec = second_eigenvalue(source, quotient, dense_threshold)
    return spec.pi_1 + spec.residual <= 1.0 - eps


# ----- mixing bounds -----

def mixing_rate(order: int, a_size: int) -> Fraction:
    """Worst-case contraction rate 1 - 1/(|A| |G|^2) of the quotient walk."""
    if order < 1 or a_size < 1:
        raise DomainError("order and a_size must be positive")
    return 1 - Fraction(1, a_size * order * order)


def mixing_bound(order: int, a_size: int, n: int, rate: float = None) -> float:
    """sqrt(|G|) * rate^n, bounding max_g |P(omega_n = g) - 1/|G||.

    rate defaults to the worst-case mixing_rate; pass a measured
    pi_star (plus its residual) for the sharp version.
    """
    r = float(mixing_rate(order, a_size)) if rate is None else rate
    if not 0 <= r <= 1:
        raise DomainError("rate must be in [0, 1]")
    return order ** 0.5 * r ** n


def mixing_bound_squared(order: int, a_size: int, n: int) -> Fraction:
    """Exact square |G| * rate^(2n) of the worst-case mixing bound.

    Comparing dev^2 <= this avoids the irrational sqrt(|G|).
    """
    return order * mixing_rate(order, a_size) ** (2 * n)


def exact_deviation_sweep(source, quotient, grid: Sequence[int],
                          budget: int = 10_000_000) -> Dict[int, Fraction]:
    """max_g |P(omega_n = g) - 1/|G|| exactly, for each n in the grid.

    Convolves integer path counts on the quotient; requires the walk to
    reach the whole group eventually but is correct regardless.
    """
    pairs = _reduced_pairs(source, quotient)
    a_size = sum(m for _, m in pairs)
    ell = quotient.order()
    grid = sorted(set(grid))
    if not grid or grid[0] < 0:
        raise DomainError("grid must be non-empty with n >= 0")
    out: Dict[int, Fraction] = {}

    def snap(k, counts):
        if k in out_keys:
            total = a_size ** k
            worst = max(
                abs(Fraction(c, total) - Fraction(1, ell)) for c in counts.values())
            # elements never reached deviate by exactly 1/ell
            if len(counts) < ell:
                worst = max(worst, Fraction(1, ell))
            out[k] = worst

    out_keys = set(grid)
    # states recur on a finite quotient: each (state, step) product once
    convolve_counts(quotient.identity(), pairs, grid[-1], cache(quotient.multiply),
                    budget, on_snapshot=snap)
    return out


def spectrum_csv(spectra: Sequence[AdjacencySpectrum]) -> str:
    """CSV table of spectra, one row per quotient."""
    lines = ["modulus,order,a_size,pi_1,pi_min,pi_star,method,residual"]
    for s in spectra:
        lines.append(
            f"{s.quotient_label},{s.order},{s.a_size},{s.pi_1!r},"
            f"{s.pi_min!r},{s.pi_star!r},{s.method},{s.residual!r}")
    return "\n".join(lines) + "\n"
