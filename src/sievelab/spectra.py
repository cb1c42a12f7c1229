"""Spectral gaps of finite quotient walks and the resulting mixing bounds.

The walk operator P acts on functions on the quotient group by
(Pv)(x) = sum_g (mult_g/|A|) v(x g). A symmetric multiset makes P
self-adjoint, so its spectrum is real: 1 = lambda_1 >= lambda_2 >= ...
pi_1 is lambda_2, pi_min the bottom eigenvalue, pi_star the largest
modulus away from the top eigenvector.

An abelian quotient (Z/q)^rank is diagonal in its characters (Diaconis,
Group Representations in Probability and Statistics, 1988, ch. 3): its
spectrum is sum_g w_g cos(2 pi <u, g>/q), one value per element u.

Only matrix quotients reach what follows. Small ones get a dense
route: P acts on the right, so it commutes with every left translation
L_n, (L_n v)(x) = v(n x), and splits over the characters of a cyclic
subgroup <h> into Hermitian blocks of order |G|/ord(h). An n of the
normaliser of <h>, n h n^-1 = h^a, carries the block of character k
onto the block of k a through L_n, and complex conjugation carries it
onto the block of -k, so the blocks of one orbit share a spectrum: one
block per orbit goes to a dense eigensolver. Past DENSE_THRESHOLD one
Lanczos run on P, deflated by the constant vector, extracts both
extremes with a residual: the 2-norm ||Py - theta y|| of each Ritz pair
plus a rounding floor, which bounds |lambda - theta| for some
eigenvalue lambda of P.
Consumers add the residual before comparing against thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Sequence

import numpy as np

from .errors import ConvergenceFailure, DomainError
from .matgroup import GeneratorMultiset
from .quotients import AbelianQuotient, walk_permutations
from .walker import convolve_counts

DENSE_THRESHOLD = 4000
_LANCZOS_TOL = 1e-9
_KRYLOV_BYTES = 1 << 28


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


def _cyclic_translation(quotient, codes):
    """(h, L, units) of a matrix quotient: the element h whose left
    translations split the dense route, the index permutation L of
    x -> h x over the sorted codes, and the units a with n h n^-1 = h^a
    for elements n of the normaliser of <h>.

    h is c E_1d(1) in each prime's block, with c = -1 when d is even and
    p odd (so <h> holds -I) and c = 1 otherwise. Each odd prime's block
    gives one n: diag(x, x^-1, 1, ..., 1) there, x a generator of F_p^x,
    and the identity in the other blocks; a is the index of n h n^-1
    among the powers of h. p = 2 gives no unit.
    """
    d = quotient.dimension
    h = tuple((p - 1 if d % 2 == 0 and p % 2 else 1) * (i == j or (i, j) == (0, d - 1))
              for p in quotient.moduli for i in range(d) for j in range(d))
    one = quotient.identity()
    powers = [one]
    while (nxt := quotient.multiply(powers[-1], h)) != one:
        powers.append(nxt)
    units = []
    for b, p in enumerate(quotient.moduli):
        if p == 2:
            continue
        x = next(x for x in range(2, p) if all(pow(x, k, p) != 1 for k in range(1, p - 1)))
        at, x_inv = b * d * d, pow(x, -1, p)
        n, n_inv = list(one), list(one)
        n[at], n[at + d + 1] = x, x_inv
        n_inv[at], n_inv[at + d + 1] = x_inv, x
        units.append(powers.index(quotient.multiply(quotient.multiply(n, h), n_inv)))
    hx = quotient.multiply_digits(np.array([h], dtype=quotient.dtype), quotient.decode(codes))
    return h, np.searchsorted(codes, quotient.encode(hx)), tuple(units)


def _character_spectrum(quotient, codes, perms, weights) -> np.ndarray:
    """sum_g w_g cos(2 pi <u, g>/q) for every u of (Z/q)^rank, ascending; g
    is the image of the identity under its permutation, <u, g> < rank q^2."""
    q, u = quotient.modulus, quotient.decode(codes)
    eig = np.zeros(codes.size)
    for g, w in zip(u[perms[:, quotient.index(quotient.identity())]], weights):
        eig += w * np.cos(2 * np.pi * (u @ g % q) / q)
    return np.sort(eig)


def _dense_spectrum(perms, weights, left, units) -> np.ndarray:
    """All eigenvalues of P v = weights @ v[perms], ascending.

    left permutes x -> h x for an h of order r. P moves by right
    multiplication, (Pv)(x) = sum_g w_g v(x g), and so commutes with every
    left translation (L_n v)(x) = v(n x): both sides send v to
    x -> sum_g w_g v(n x g). So P splits over the characters of <h>. Write
    x = h^a(x) r_c(x), with r_c the least index of the coset <h>x; with
    omega = e^(2 pi i/r), block k is the Hermitian
    B_k[i, c(r_i g)] += w_g omega^(k a(r_i g)) of order |G|/r, P on the
    functions with v(h x) = omega^k v(x). An n with n h n^-1 = h^m, m in
    units, maps that space onto the one of k m by L_n, which commutes
    with P, and complex conjugation maps it onto the one of -k; so blocks
    whose k share an orbit of the group generated by -1 and units have
    one spectrum. One block per orbit is solved, and its eigenvalues are
    counted once per member.
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
    # the group generated by -1 and units, and its orbits on Z/r, each
    # keyed by its least member
    group = {1}
    while not (grown := {g * a % r for g in group for a in (-1,) + units}) <= group:
        group |= grown
    orbits = {min(o): len(o) for o in ({k * g % r for g in group} for k in range(r))}
    ks = np.array(list(orbits))
    # x = h^(-shift(x)) r_c(x), so a(x) = -shift(x) mod r
    phase = np.exp(-2j * np.pi * np.arange(r) / r)
    blocks = np.zeros((ks.size, rows.size, rows.size), dtype=complex)
    for perm, w in zip(perms, weights):
        t = perm[rows]
        blocks[:, np.arange(rows.size), coset[t]] += w * phase[np.outer(ks, shift[t]) % r]
    return np.sort(np.repeat(np.linalg.eigvalsh(blocks), list(orbits.values()), axis=0).ravel())


def _lanczos_extremes(perms, weights):
    """Top and bottom eigenpairs of P v = weights @ v[perms] on the
    complement of the constant vector u.

    One Lanczos run with full reorthogonalisation (Lanczos, J. Res. NBS
    45, 1950; Parlett, The Symmetric Eigenvalue Problem, 1980) from a
    seeded start vector. Every 8 steps the tridiagonal T is solved;
    the run stops once both end estimates |beta_k s_k| are below
    _LANCZOS_TOL, or the Krylov space is exhausted (beta near 0). Returns
    [(theta, y, residual)] for the top and the bottom Ritz pair: y a
    unit vector, residual the explicit 2-norm ||P y - theta y|| plus a
    floor for the rounding in evaluating it, so it bounds |lambda -
    theta| for some eigenvalue lambda of P. The basis is one array of at
    most _KRYLOV_BYTES whose rows are written, and so committed to
    memory, one step at a time; ConvergenceFailure if the budget is
    reached first.
    """
    # an entry of P y - theta y sums len(weights) + 1 products; P is
    # nonnegative with ||P|| = 1, so the rounding of the vector is below
    # 2 (len(weights) + 1) eps in norm, which this floor covers
    floor = 4 * len(weights) * float(np.finfo(float).eps)
    dim = perms.shape[1]
    u = np.full(dim, 1.0 / np.sqrt(dim))
    steps = min(dim - 1, _KRYLOV_BYTES // (8 * dim))
    if steps < 1:
        raise ConvergenceFailure(
            f"Krylov budget of {_KRYLOV_BYTES} bytes holds no vector of order {dim}")
    basis = np.empty((steps, dim))
    w = np.random.default_rng(987654321).standard_normal(dim)
    for _ in range(2):
        w -= (u @ w) * u
    b = float(np.linalg.norm(w))
    alpha, beta = [], []
    for k in range(steps):
        v, done = basis[k], basis[:k + 1]
        np.divide(w, b, out=v)
        w = weights @ v[perms]
        alpha.append(v @ w)
        # two Gram-Schmidt passes against u and the basis: the second
        # restores what rounding in the first left
        for _ in range(2):
            w -= (u @ w) * u
            w -= done.T @ (done @ w)
        b = float(np.linalg.norm(w))
        beta.append(b)
        if (k + 1) % 8 == 0 or k + 1 == steps or b <= _LANCZOS_TOL:
            theta, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta[:-1], 1)
                                      + np.diag(beta[:-1], -1))
            estimate = b * float(np.max(np.abs(s[-1, [-1, 0]])))
            if estimate <= _LANCZOS_TOL:
                pairs = []
                for j in (-1, 0):
                    y = done.T @ s[:, j]
                    y /= np.linalg.norm(y)
                    pairs.append((float(theta[j]), y, float(
                        np.linalg.norm(weights @ y[perms] - theta[j] * y)) + floor))
                if max(res for _, _, res in pairs) <= _LANCZOS_TOL:
                    return pairs
        if b == 0:
            break
    raise ConvergenceFailure(
        f"Lanczos residual estimate {estimate:.3e} after {k + 1} steps "
        f"(Krylov budget {_KRYLOV_BYTES} bytes, order {dim})")


def second_eigenvalue(A: GeneratorMultiset, quotient) -> AdjacencySpectrum:
    """pi_1, pi_min, pi_star of the walk operator of A on the quotient.

    Characters (abelian) and dense blocks (matrix, up to DENSE_THRESHOLD)
    are exact up to rounding (method "dense", residual 0.0); Lanczos on a
    larger matrix quotient reports a residual that bounds the distance
    of pi_1 and of pi_min to eigenvalues of P, and raises
    ConvergenceFailure if its Krylov basis outgrows _KRYLOV_BYTES first.
    """
    codes, perms, mults = walk_permutations(A, quotient)
    ell, a_size = len(codes), int(mults.sum())
    weights = mults / a_size
    if ell < 2:
        raise DomainError("quotient must have at least 2 elements")
    if isinstance(quotient, AbelianQuotient):
        eig = _character_spectrum(quotient, codes, perms, weights)
    elif ell <= DENSE_THRESHOLD:
        _, left, units = _cyclic_translation(quotient, codes)
        eig = _dense_spectrum(perms, weights, left, units)
    else:
        (pi_1, _, res_1), (pi_min, _, res_min) = _lanczos_extremes(perms, weights)
        return AdjacencySpectrum(quotient.label, ell, a_size,
                                 pi_1=pi_1, pi_min=pi_min,
                                 method="iterative", residual=max(res_1, res_min))
    return AdjacencySpectrum(quotient.label, ell, a_size,
                             pi_1=float(eig[-2]), pi_min=float(eig[0]),
                             method="dense", residual=0.0)


# ----- mixing bounds -----

def mixing_rate(order: int, a_size: int) -> Fraction:
    """Worst-case contraction rate 1 - 1/(|A| |G|^2) of the quotient walk."""
    if order < 1 or a_size < 1:
        raise DomainError("order and a_size must be positive")
    return 1 - Fraction(1, a_size * order * order)


def mixing_bound_squared(order: int, a_size: int, n: int) -> Fraction:
    """Exact square |G| * rate^(2n) of the worst-case mixing bound.

    Comparing dev^2 <= this avoids the irrational sqrt(|G|).
    """
    return order * mixing_rate(order, a_size) ** (2 * n)


def exact_deviation_sweep(A: GeneratorMultiset, quotient,
                          grid: Sequence[int]) -> Dict[int, Fraction]:
    """max_g |P(omega_n = g) - 1/|G|| exactly, for each n in the grid.

    Steps integer path counts over the element indices of the quotient
    by convolve_counts; elements not yet reached have count 0.
    """
    if not grid or min(grid) < 0:
        raise DomainError("grid must be non-empty with n >= 0")
    codes, perms, mults = walk_permutations(A, quotient)
    ell, a_size = len(codes), int(mults.sum())
    out: Dict[int, Fraction] = {}
    for n, c in convolve_counts(perms, mults, quotient.index(quotient.identity()), grid).items():
        # |c/total - 1/ell| = |c ell - total| / (total ell), largest at the
        # largest or the smallest count
        total = a_size ** n
        worst = max(int(c.max()) * ell - total, total - int(c.min()) * ell)
        out[n] = Fraction(worst, total * ell)
    return out


def spectrum_csv(spectra: Sequence[AdjacencySpectrum]) -> str:
    """CSV table of spectra, one row per quotient."""
    lines = ["modulus,order,a_size,pi_1,pi_min,pi_star,method,residual"]
    for s in spectra:
        lines.append(
            f"{s.quotient_label},{s.order},{s.a_size},{s.pi_1!r},"
            f"{s.pi_min!r},{s.pi_star!r},{s.method},{s.residual!r}")
    return "\n".join(lines) + "\n"
