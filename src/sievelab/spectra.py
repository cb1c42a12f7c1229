"""Spectral gaps of finite quotient walks and the resulting mixing bounds.

The walk operator P acts on functions on the quotient group by
(Pv)(x) = sum_g (mult_g/|A|) v(x g). A symmetric multiset makes P
self-adjoint, so its spectrum is real: 1 = lambda_1 >= lambda_2 >= ...
pi_1 is lambda_2, pi_min the bottom eigenvalue, pi_star the largest
modulus away from the top eigenvector.

Small quotients get a dense route: P commutes with left translations,
so it splits over the characters of a cyclic subgroup <h> into Hermitian
blocks of order |G|/ord(h), each solved by a dense eigensolver. Past
DENSE_THRESHOLD a deflated power iteration on (I+P)/2 and (I-P)/2
extracts the two extremes with a residual: the 2-norm ||Pv - theta v||
of each Rayleigh pair, which bounds |lambda - theta| for some eigenvalue
lambda of P.
Consumers add the residual before comparing against thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Sequence

import numpy as np

from .errors import ConvergenceFailure, DomainError, MissingIdentity, NotSymmetric
from .matgroup import GeneratorMultiset
from .quotients import AbelianQuotient
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
            "quotient": self.quotient_label,
            "order": self.order,
            "a_size": self.a_size,
            "pi_1": self.pi_1,
            "pi_min": self.pi_min,
            "pi_star": self.pi_star,
            "method": self.method,
            "residual": self.residual,
        }


def walk_permutations(A: GeneratorMultiset, quotient):
    """The steps of a quotient walk as permutations of its element indices.

    The elements of A are reduced into the quotient, where repeated
    images merge in order of first appearance. Returns (codes, |A|,
    maps): the sorted element codes, and per distinct step g the index
    permutation of x -> x g with g's multiplicity. Raises MissingIdentity
    without the identity, and NotSymmetric unless each step's inverse has
    its multiplicity.
    """
    merged: Dict = {}
    for g, m in A.pairs:
        r = quotient.reduce(g)
        merged[r] = merged.get(r, 0) + m
    if quotient.identity() not in merged:
        raise MissingIdentity("reduced multiset must contain the identity")
    codes = quotient.element_codes()
    digits = quotient.decode(codes)
    maps = [(np.searchsorted(codes, quotient.encode(quotient.multiply_digits(digits, [g]))), m)
            for g, m in merged.items()]
    # x -> x g sends the identity e to g, and g^-1 to e
    e = _index(quotient, codes, quotient.identity())
    weight = {int(perm[e]): m for perm, m in maps}
    if any(weight.get(int(np.flatnonzero(perm == e)[0])) != m for perm, m in maps):
        raise NotSymmetric("reduced multiset is not symmetric")
    return codes, sum(merged.values()), maps


def _index(quotient, codes, x) -> int:
    """The index of the element x among the sorted codes."""
    return int(np.searchsorted(codes, quotient.encode([x]))[0])


def _cyclic_translation(quotient, codes):
    """(h, L): the element h whose left translations split the dense
    route, and the index permutation L of x -> h x over the sorted codes.

    h is c E_1d(1) in each prime's block of a matrix quotient, with c = -1
    when d is even and p odd (so <h> holds -I) and c = 1 otherwise; it is
    e_1 in an abelian quotient, where left and right translation agree.
    """
    if isinstance(quotient, AbelianQuotient):
        h = (1,) + (0,) * (quotient.rank - 1)
    else:
        d = quotient.dimension
        h = tuple((p - 1 if d % 2 == 0 and p % 2 else 1) * (i == j or (i, j) == (0, d - 1))
                  for p in quotient.moduli for i in range(d) for j in range(d))
    hx = quotient.multiply_digits(np.array([h], dtype=quotient.dtype), quotient.decode(codes))
    return h, np.searchsorted(codes, quotient.encode(hx))


def _dense_spectrum(maps, left) -> np.ndarray:
    """All eigenvalues of P = sum of its (permutation, weight) maps, ascending.

    left permutes x -> h x for an h of order r. P moves by right
    multiplication, so it commutes with left translations and splits over
    the characters of <h>. Write x = h^a(x) r_c(x), with r_c the least
    index of the coset <h>x; with omega = e^(2 pi i/r), block k is the
    Hermitian B_k[i, c(r_i g)] += w_g omega^(k a(r_i g)) of order |G|/r.
    B_(r-k) = conj(B_k) has the same spectrum, so blocks 0..r//2 are
    solved and the others counted twice.
    """
    ell = left.size
    best, shift = np.arange(ell), np.zeros(ell, dtype=np.int64)
    # cur is x -> h^r x; h acts freely, so every orbit has ord(h) elements
    cur, r = left, 1
    while cur[0] != 0:
        lower = cur < best
        best[lower], shift[lower] = cur[lower], r
        cur, r = left[cur], r + 1
    rows = np.flatnonzero(best == np.arange(ell))
    coset = np.searchsorted(rows, best)
    ks = np.arange(r // 2 + 1)
    # x = h^(-shift(x)) r_c(x), so a(x) = -shift(x) mod r
    phase = np.exp(-2j * np.pi * np.arange(r) / r)
    blocks = np.zeros((ks.size, rows.size, rows.size), dtype=complex)
    for perm, w in maps:
        t = perm[rows]
        blocks[:, np.arange(rows.size), coset[t]] += w * phase[np.outer(ks, shift[t]) % r]
    copies = np.where((ks == 0) | (2 * ks == r), 1, 2)
    return np.sort(np.repeat(np.linalg.eigvalsh(blocks), copies, axis=0).ravel())


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


def second_eigenvalue(A: GeneratorMultiset, quotient) -> AdjacencySpectrum:
    """pi_1, pi_min, pi_star of the walk operator of A on the quotient.

    A dense spectrum is exact up to rounding (residual 0.0); an iterative
    one reports a residual that bounds the distance of pi_1 and of pi_min
    to eigenvalues of P.
    """
    codes, a_size, maps = walk_permutations(A, quotient)
    ell = len(codes)
    maps = [(perm, m / a_size) for perm, m in maps]
    if ell < 2:
        raise DomainError("quotient must have at least 2 elements")
    if ell <= DENSE_THRESHOLD:
        eig = _dense_spectrum(maps, _cyclic_translation(quotient, codes)[1])
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


def expander_certify(A: GeneratorMultiset, quotient, eps: float) -> bool:
    """Whether pi_1 <= 1 - eps, conservatively (residual counts against)."""
    if not 0 < eps < 1:
        raise DomainError("eps must be in (0, 1)")
    spec = second_eigenvalue(A, quotient)
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


def exact_deviation_sweep(A: GeneratorMultiset, quotient,
                          grid: Sequence[int]) -> Dict[int, Fraction]:
    """max_g |P(omega_n = g) - 1/|G|| exactly, for each n in the grid.

    Convolves integer path counts over the element indices of the
    quotient, stepping by walk_permutations; requires the walk to reach
    the whole group eventually but is correct regardless.
    """
    grid = sorted(set(grid))
    if not grid or grid[0] < 0:
        raise DomainError("grid must be non-empty with n >= 0")
    codes, a_size, maps = walk_permutations(A, quotient)
    ell = len(codes)
    out_keys = set(grid)
    out: Dict[int, Fraction] = {}

    def snap(k, counts):
        if k in out_keys:
            # |c/total - 1/ell| = |c ell - total| / (total ell); elements
            # never reached (count 0) deviate by total / (total ell)
            total = a_size ** k
            worst = max(abs(c * ell - total) for c in counts.values())
            if len(counts) < ell:
                worst = max(worst, total)
            out[k] = Fraction(worst, total * ell)

    steps = [(perm.tolist(), m) for perm, m in maps]
    convolve_counts(_index(quotient, codes, quotient.identity()), steps, grid[-1],
                    lambda x, perm: perm[x], on_snapshot=snap)
    return out


def spectrum_csv(spectra: Sequence[AdjacencySpectrum]) -> str:
    """CSV table of spectra, one row per quotient."""
    lines = ["modulus,order,a_size,pi_1,pi_min,pi_star,method,residual"]
    for s in spectra:
        lines.append(
            f"{s.quotient_label},{s.order},{s.a_size},{s.pi_1!r},"
            f"{s.pi_min!r},{s.pi_star!r},{s.method},{s.residual!r}")
    return "\n".join(lines) + "\n"
