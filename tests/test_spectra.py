from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import eigh

from helpers import elements, exact_law
from sievelab import lab, spectra
from sievelab.errors import ConvergenceFailure, MissingIdentity, NotSymmetric
from sievelab.matgroup import (
    AbelianElement,
    GeneratorMultiset,
    elementary_generators,
    sl2_st_generators,
    torus_generators,
    z_generators,
)
from sievelab.quotients import AbelianQuotient, MatrixQuotient
from sievelab.spectra import (
    exact_deviation_sweep,
    mixing_bound_squared,
    mixing_rate,
    second_eigenvalue,
    spectrum_csv,
)
from sievelab.walker import hit_probabilities_exact


def scipy_extremes(A, q):
    """Independent dense route: raw enumeration, explicit P, scipy eigh."""
    els = elements(q)
    idx = {e: i for i, e in enumerate(els)}
    ell = len(els)
    P = np.zeros((ell, ell))
    for g, mult in A.pairs:
        r = q.reduce(g)
        for i, x in enumerate(els):
            P[i, idx[q.multiply(x, r)]] += mult / A.size
    w = eigh(P, eigvals_only=True)
    return float(w[-2]), float(w[0])


def test_two_point_quotient():
    # Z walk mod 2: stay 1/3, flip 2/3; spectrum {1, -1/3}
    s = second_eigenvalue(z_generators(), AbelianQuotient(1, 2))
    assert abs(s.pi_1 - (-1 / 3)) < 1e-12
    assert abs(s.pi_min - (-1 / 3)) < 1e-12
    assert abs(s.pi_star - 1 / 3) < 1e-12
    assert s.order == 2
    assert s.a_size == 3
    assert s.method == "dense"
    assert s.residual == 0.0


def test_cycle_quotient_circulant():
    # Z walk mod 6: eigenvalues (1 + 2cos(2 pi k/6))/3
    s = second_eigenvalue(z_generators(), AbelianQuotient(1, 6))
    assert abs(s.pi_1 - 2 / 3) < 1e-12
    assert abs(s.pi_min - (-1 / 3)) < 1e-12


def test_dense_matches_scipy():
    A = sl2_st_generators()
    for p in (3, 5, 7):
        q = MatrixQuotient(2, (p,))
        s = second_eigenvalue(A, q)
        sp1, spmin = scipy_extremes(A, q)
        assert abs(s.pi_1 - sp1) < 1e-9
        assert abs(s.pi_min - spmin) < 1e-9


def test_frozen_st_family_values():
    # measured once with two independent dense eigensolvers agreeing
    expected = {
        3: 0.7123105625617663,
        5: 0.9398630391527462,
        7: 0.949518996735926,
        11: 0.9646549809537548,
        13: 0.9693541910599255,
    }
    A = sl2_st_generators()
    for p, want in expected.items():
        s = second_eigenvalue(A, MatrixQuotient(2, (p,)))
        assert abs(s.pi_1 - want) < 1e-9, (p, s.pi_1)


def test_frozen_elementary_family_values():
    E = elementary_generators(2)
    expected = {3: 0.746410, 5: 0.847214, 7: 0.882843, 11: 0.923607, 13: 0.935026}
    for p, want in expected.items():
        s = second_eigenvalue(E, MatrixQuotient(2, (p,)))
        assert abs(s.pi_1 - want) < 1e-5


def test_iterative_agrees_with_dense(monkeypatch):
    A = sl2_st_generators()
    q = MatrixQuotient(2, (7,))
    dense = second_eigenvalue(A, q)
    monkeypatch.setattr(spectra, "DENSE_THRESHOLD", 1)
    iterative = second_eigenvalue(A, q)
    assert iterative.method == "iterative"
    assert abs(iterative.pi_1 - dense.pi_1) <= 1e-6 + iterative.residual
    assert abs(iterative.pi_min - dense.pi_min) <= 1e-6 + iterative.residual


def test_pair_quotient_spectrum():
    # functions on one factor pull back to P-invariant subspaces of the
    # pair walk, so each factor spectrum embeds: pi_1(pair) >= both
    # factors, pi_min(pair) <= both. The diagonal action genuinely mixes
    # slower than either factor alone here.
    A = sl2_st_generators()
    s3 = second_eigenvalue(A, MatrixQuotient(2, (3,)))
    s5 = second_eigenvalue(A, MatrixQuotient(2, (5,)))
    pair = second_eigenvalue(A, MatrixQuotient(2, (3, 5)))
    assert pair.pi_1 >= max(s3.pi_1, s5.pi_1) - 1e-9
    assert pair.pi_min <= min(s3.pi_min, s5.pi_min) + 1e-9
    assert pair.pi_1 < 1.0  # closure is all of the product, walk connected
    assert abs(pair.pi_1 - 0.9768953080102957) < 1e-9  # frozen measurement


def test_reduced_pairs_validation():
    # a directly built multiset skips validate_generators' checks, so the
    # reduced steps are checked again
    q = AbelianQuotient(1, 5)
    x = [AbelianElement((k,)) for k in range(5)]
    try:
        second_eigenvalue(GeneratorMultiset(pairs=((x[1], 1), (x[4], 1))), q)  # no identity
        assert False
    except MissingIdentity:
        pass
    try:
        second_eigenvalue(GeneratorMultiset(pairs=((x[0], 1), (x[1], 1))), q)  # 1 without -1
        assert False
    except NotSymmetric:
        pass


def test_mixing_rate_exact():
    assert mixing_rate(2, 3) == 1 - Fraction(1, 12)
    assert mixing_rate(24, 5) == 1 - Fraction(1, 5 * 24 * 24)


def test_mixing_bound_example():
    # Z mod 2 at n=4: exact P(omega_4 = 0) = 41/81, dev = 1/162
    q = AbelianQuotient(1, 2)
    mass0 = sum(p for x, p in exact_law(z_generators(), 4).items()
                if q.reduce(AbelianElement(x)) == (0,))
    assert mass0 == Fraction(41, 81)
    dev = abs(mass0 - Fraction(1, 2))
    assert dev == Fraction(1, 162)
    assert dev ** 2 <= mixing_bound_squared(2, 3, 4)


def test_exact_deviation_below_mixing_bound():
    # soundness of the universal-rate bound, exact arithmetic throughout
    cases = [
        (z_generators(), AbelianQuotient(1, 2)),
        (z_generators(), AbelianQuotient(1, 6)),
        (sl2_st_generators(), MatrixQuotient(2, (3,))),
    ]
    grid = list(range(1, 31))
    for A, q in cases:
        devs = exact_deviation_sweep(A, q, grid)
        for n in grid:
            assert devs[n] ** 2 <= mixing_bound_squared(q.order(), A.size, n), (
                q.label, n)


def test_exact_deviation_sharper_with_measured_rate():
    # with the measured pi_star the bound still holds on Z/6 (normal walk)
    A = z_generators()
    q = AbelianQuotient(1, 6)
    s = second_eigenvalue(A, q)
    devs = exact_deviation_sweep(A, q, [5, 10, 20])
    for n, dev in devs.items():
        assert float(dev) <= 6 ** 0.5 * (s.pi_star + 1e-12) ** n


def test_deviation_counts_unreached_elements():
    # after 1 step the SL_2(F_3) walk has reached only 5 of 24 elements,
    # so the deviation is exactly 1 - ... no: max over group of |P - 1/24|
    devs = exact_deviation_sweep(sl2_st_generators(), MatrixQuotient(2, (3,)), [1])
    # reached elements have mass 1/5 > 1/24; unreached deviate by 1/24
    assert devs[1] == Fraction(1, 5) - Fraction(1, 24)


def test_spectrum_csv_format():
    s = second_eigenvalue(z_generators(), AbelianQuotient(1, 2))
    text = spectrum_csv([s])
    lines = text.strip().split("\n")
    assert lines[0] == "modulus,order,a_size,pi_1,pi_min,pi_star,method,residual"
    cells = lines[1].split(",")
    assert cells[0] == "2^1" and cells[1] == "2" and cells[2] == "3"
    assert cells[6] == "dense"
    # repr round-trip: parsing the cell recovers the float exactly
    assert float(cells[3]) == s.pi_1


def test_iterative_spectrum_csv_cells_are_plain_numbers():
    # the residual of an iterative spectrum is a Python float, so its CSV
    # cell is a number and not np.float64(...)
    s = second_eigenvalue(lab.get_scenario("sl2_trace").generators, MatrixQuotient(2, (17,)))
    assert s.method == "iterative" and type(s.residual) is float
    cells = spectrum_csv([s]).strip().split("\n")[1].split(",")
    assert [int(c) for c in cells[:3]] == [17, 4896, 5] and cells[6] == "iterative"
    assert [float(c) for c in cells[3:6] + cells[7:]] == [s.pi_1, s.pi_min, s.pi_star, s.residual]


@pytest.mark.parametrize("quotient,A", [
    (MatrixQuotient(2, (5,)), sl2_st_generators()),
    (MatrixQuotient(2, (3, 5)), elementary_generators(2)),
    (MatrixQuotient(3, (2,)), elementary_generators(3)),
    (AbelianQuotient(2, 5), torus_generators()),
])
def test_neighbor_permutations_match_multiply(quotient, A):
    els = elements(quotient)
    codes, perms, mults = spectra.walk_permutations(A, quotient)
    ell = len(codes)
    assert ell == len(els) == quotient.order()
    merged = {}
    for g, m in A.pairs:
        merged[quotient.reduce(g)] = merged.get(quotient.reduce(g), 0) + m
    assert mults.sum() == A.size and mults.tolist() == list(merged.values())
    assert perms.shape == (len(merged), ell)
    assert perms.dtype == np.intp and mults.dtype == np.int64
    for g, idx in zip(merged, perms):
        assert sorted(idx) == list(range(ell))
        assert all(els[j] == quotient.multiply(x, g) for x, j in zip(els, idx))
    if isinstance(quotient, MatrixQuotient):
        h, left, _ = spectra._cyclic_translation(quotient, codes)
        assert sorted(left) == list(range(ell))
        assert all(els[j] == quotient.multiply(h, x) for x, j in zip(els, left))


BLOCK_CASES = (
    [(MatrixQuotient(2, m), A) for m in ((2,), (3,), (5,), (7,), (11,), (13,), (2, 3), (3, 5))
     for A in (sl2_st_generators(), elementary_generators(2))]
    + [(MatrixQuotient(3, (2,)), elementary_generators(3))])


@pytest.mark.parametrize("quotient,A", BLOCK_CASES,
                         ids=[f"{q.label}-{A.tag}" for q, A in BLOCK_CASES])
def test_block_spectrum_equals_dense_eigvalsh(quotient, A):
    codes, perms, mults = spectra.walk_permutations(A, quotient)
    _, left, units = spectra._cyclic_translation(quotient, codes)
    blocks = spectra._dense_spectrum(perms, mults / mults.sum(), left, units)
    want = np.linalg.eigvalsh(_walk_matrix(quotient, A))
    assert blocks.shape == want.shape
    assert np.max(np.abs(blocks - want)) <= 1e-12


CHARACTER_CASES = ([(AbelianQuotient(1, q), z_generators()) for q in (2, 3, 6, 9, 101)]
                   + [(AbelianQuotient(2, q), torus_generators()) for q in (2, 3, 5, 7)])


@pytest.mark.parametrize("quotient,A", CHARACTER_CASES,
                         ids=[f"{q.label}-{A.tag}" for q, A in CHARACTER_CASES])
def test_character_spectrum_equals_dense_eigvalsh(quotient, A):
    codes, perms, mults = spectra.walk_permutations(A, quotient)
    chars = spectra._character_spectrum(quotient, codes, perms, mults / mults.sum())
    want = np.linalg.eigvalsh(_walk_matrix(quotient, A))
    assert chars.shape == want.shape
    assert np.max(np.abs(chars - want)) <= 1e-12
    s = second_eigenvalue(A, quotient)
    assert (s.pi_1, s.pi_min, s.method, s.residual) == (chars[-2], chars[0], "dense", 0.0)


def test_large_abelian_quotients_take_their_characters(monkeypatch):
    # with every matrix quotient past the threshold and no room for a
    # Krylov vector, only the character route can answer
    monkeypatch.setattr(spectra, "DENSE_THRESHOLD", 1)
    monkeypatch.setattr(spectra, "_KRYLOV_BYTES", 0)
    q = 10007
    z = second_eigenvalue(z_generators(), AbelianQuotient(1, q))
    assert abs(z.pi_1 - (1 + 2 * np.cos(2 * np.pi / q)) / 3) <= 1e-12
    assert abs(z.pi_min - (1 + 2 * np.cos(2 * np.pi * (q // 2) / q)) / 3) <= 1e-12
    q = 211
    torus = second_eigenvalue(torus_generators(), AbelianQuotient(2, q))
    assert abs(torus.pi_1 - (3 + 2 * np.cos(2 * np.pi / q)) / 5) <= 1e-12
    for s in (z, torus):
        assert s.method == "dense" and s.residual == 0.0


@pytest.mark.parametrize("moduli,r,order", [((13,), 26, 84), ((3, 5), 30, 96),
                                            ((2,), 2, 3), ((2, 3), 6, 24)])
def test_dense_route_splits_by_the_order_of_h(moduli, r, order, monkeypatch):
    # h = -E12(1) has order 2p for odd p, E12(1) order 2 for p = 2, and a
    # pair takes the lcm; one block of order |G|/r per normaliser orbit of
    # characters reaches eigvalsh
    orbits = {(13,): 6, (3, 5): 12, (2,): 2, (2, 3): 4}[moduli]
    q = MatrixQuotient(2, moduli)
    codes = q.element_codes()
    h, left, _ = spectra._cyclic_translation(q, codes)
    assert h == tuple(e for p in moduli
                      for e in ((1, 1, 0, 1) if p == 2 else (p - 1, p - 1, 0, p - 1)))
    cur, steps = left, 1
    while not np.array_equal(cur, np.arange(codes.size)):
        cur, steps = left[cur], steps + 1
    assert steps == r and codes.size == r * order
    shapes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
    assert second_eigenvalue(sl2_st_generators(), q).method == "dense"
    assert shapes == [(orbits, order, order)]


def _character_blocks(perms, weights, left):
    """Every block B_0 .. B_(r-1) of P over the characters of <h>, built
    one by one as the dense route built them before it solved one block
    per orbit."""
    ell = left.size
    best, shift = np.arange(ell), np.zeros(ell, dtype=np.int64)
    cur, r = left, 1
    while cur[0] != 0:
        lower = cur < best
        best[lower], shift[lower] = cur[lower], r
        cur, r = left[cur], r + 1
    rows = np.flatnonzero(best == np.arange(ell))
    coset = np.searchsorted(rows, best)
    phase = np.exp(-2j * np.pi * np.arange(r) / r)
    blocks = np.zeros((r, rows.size, rows.size), dtype=complex)
    for perm, w in zip(perms, weights):
        t = perm[rows]
        for k in range(r):
            blocks[k, np.arange(rows.size), coset[t]] += w * phase[k * shift[t] % r]
    return blocks


@pytest.mark.parametrize("moduli,orbits", [((5,), 6), ((13,), 6), ((7,), 4), ((11,), 4),
                                           ((2, 7), 4), ((3, 5), 12), ((2,), 2)])
def test_blocks_in_one_orbit_share_a_spectrum(moduli, orbits):
    # 6 orbits for p = 1 mod 4, where -1 is a square mod p, and 4 for
    # p = 3 mod 4, where it is not
    q = MatrixQuotient(2, moduli)
    codes, perms, mults = spectra.walk_permutations(sl2_st_generators(), q)
    _, left, units = spectra._cyclic_translation(q, codes)
    blocks = _character_blocks(perms, mults / mults.sum(), left)
    r = len(blocks)
    rep = {}
    for k in range(r):
        if k not in rep:
            frontier = [k]
            while frontier:
                j = frontier.pop()
                rep.setdefault(j, k)
                frontier += [j * a % r for a in (-1,) + units if j * a % r not in rep]
    eig = np.linalg.eigvalsh(blocks)
    for k in range(r):
        assert np.max(np.abs(eig[k] - eig[rep[k]])) <= 1e-12
    assert len(set(rep.values())) == orbits


@pytest.mark.parametrize("quotient,A", [
    (MatrixQuotient(2, (5,)), sl2_st_generators()),
    (MatrixQuotient(2, (7,)), elementary_generators(2)),
    (MatrixQuotient(3, (2,)), elementary_generators(3)),
    (AbelianQuotient(1, 9), z_generators()),
])
def test_iterative_residual_is_a_two_norm_bound(quotient, A, monkeypatch):
    # an abelian quotient takes its characters, so Lanczos is checked on
    # the circulant by a direct call
    monkeypatch.setattr(spectra, "DENSE_THRESHOLD", 1)
    P = _walk_matrix(quotient, A)
    eig = np.linalg.eigvalsh(P)
    # each end reports the explicit 2-norm of the residual vector of the
    # Ritz pair it returns, plus a floor for the rounding in evaluating it
    _, perms, mults = spectra.walk_permutations(A, quotient)
    pairs = spectra._lanczos_extremes(perms, mults / mults.sum())
    if isinstance(quotient, MatrixQuotient):
        it = second_eigenvalue(A, quotient)
        assert it.method == "iterative"
        assert np.min(np.abs(eig - it.pi_1)) <= it.residual
        assert np.min(np.abs(eig - it.pi_min)) <= it.residual
        assert [theta for theta, _, _ in pairs] == [it.pi_1, it.pi_min]
        assert max(res for _, _, res in pairs) == it.residual
    for theta, y, res in pairs:
        assert abs(np.linalg.norm(y) - 1.0) <= 1e-12
        assert np.min(np.abs(eig - theta)) <= res
        assert res >= np.linalg.norm(P @ y - theta * y)
        assert res <= spectra._LANCZOS_TOL


def test_iterative_st_mod_17_agrees_with_dense_blocks(monkeypatch):
    # order 4896 is past DENSE_THRESHOLD; the dense route splits it into
    # blocks of order 144
    A, q = sl2_st_generators(), MatrixQuotient(2, (17,))
    it = second_eigenvalue(A, q)
    assert it.method == "iterative" and it.order == 4896
    monkeypatch.setattr(spectra, "DENSE_THRESHOLD", 5000)
    dense = second_eigenvalue(A, q)
    assert dense.method == "dense"
    assert abs(it.pi_1 - dense.pi_1) <= 1e-9
    assert abs(it.pi_min - dense.pi_min) <= 1e-9


@pytest.mark.parametrize("vectors", [0, 1, 5, 24])
def test_krylov_budget_exhausted_raises_convergence_failure(vectors, monkeypatch):
    q = MatrixQuotient(2, (7,))
    monkeypatch.setattr(spectra, "DENSE_THRESHOLD", 1)
    monkeypatch.setattr(spectra, "_KRYLOV_BYTES", 8 * q.order() * vectors)
    with pytest.raises(ConvergenceFailure):
        second_eigenvalue(sl2_st_generators(), q)


def _walk_matrix(quotient, A):
    codes, perms, mults = spectra.walk_permutations(A, quotient)
    P = np.zeros((len(codes), len(codes)))
    for perm, m in zip(perms, mults):
        P[np.arange(len(codes)), perm] += m / mults.sum()
    return P


def brute_force_counts(A, q, n_max):
    """Path counts after 0..n_max steps, by dict convolution through q.multiply."""
    steps = {}
    for g, m in A.pairs:
        steps[q.reduce(g)] = steps.get(q.reduce(g), 0) + m
    laws = [{q.identity(): 1}]
    for _ in range(n_max):
        nxt = {}
        for x, c in laws[-1].items():
            for g, m in steps.items():
                y = q.multiply(x, g)
                nxt[y] = nxt.get(y, 0) + c * m
        laws.append(nxt)
    return laws


# counts leave int64 once |A|^n >= 2^63 (n = 40, 28, 18 for |A| = 3, 5,
# 13), and the largest count is past int64 once |A|^n >= |G| 2^63, where
# each grid ends; sl2_3x5 stops early, its brute force costs seconds
@pytest.mark.parametrize("A,q,n_max", [
    (sl2_st_generators(), MatrixQuotient(2, (3,)), 30),
    (sl2_st_generators(), MatrixQuotient(2, (3, 5)), 10),
    (elementary_generators(3), MatrixQuotient(3, (2,)), 20),
    (z_generators(), AbelianQuotient(1, 6), 42),
    (torus_generators(), AbelianQuotient(2, 5), 30),
], ids=["sl2_3", "sl2_3x5", "sl3_2", "z_6", "torus_5"])
def test_deviation_sweep_equals_brute_force_convolution(A, q, n_max):
    ell, grid = q.order(), range(n_max + 1)
    want = {}
    for n, counts in enumerate(brute_force_counts(A, q, n_max)):
        devs = [abs(Fraction(c, A.size ** n) - Fraction(1, ell)) for c in counts.values()]
        want[n] = max(devs + [Fraction(1, ell)] * (len(counts) < ell))
    assert exact_deviation_sweep(A, q, grid) == want


def test_torus_law_equals_brute_force_convolution():
    scenario = lab.get_scenario("torus_squares")
    A, q = scenario.generators, AbelianQuotient(scenario.oracle.rank, 2)
    # 5^28 >= 4 x 2^63: at n = 28 the counts are past int64
    laws = brute_force_counts(A, q, 28)
    got = hit_probabilities_exact(A, range(len(laws)), scenario.oracle)
    for n, counts in enumerate(laws):
        want = Fraction(counts.get(q.identity(), 0), A.size ** n)
        assert got[n] == lab.exact_probability(scenario, n) == want
