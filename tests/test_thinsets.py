"""Thin-set oracles: exact verdicts, certificates, residual densities."""

import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import primerange
from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dup_discriminant
from sympy.polys.galoistools import gf_irreducible_p

from helpers import (
    brute_charpoly,
    brute_disc_is_square,
    brute_nongeneric,
    brute_reducible,
    brute_residual_block,
    check_charpoly_certificate,
    elements,
    residual_contains,
    sample_element,
    to_poly,
    trace_polynomial,
    walk_elements,
)
import sievelab
from sievelab import prng
from sievelab.errors import ArityMismatch, DegreeUnsupported, DimensionMismatch, DomainError
from sievelab.matgroup import (
    AbelianElement,
    MatrixElement,
    elementary_generators,
    kernel_vector,
    sl2_st_generators,
)
from sievelab.quotients import AbelianQuotient, MatrixQuotient
from sievelab.thinsets import (
    IN,
    OUT,
    UNKNOWN,
    EntryPolynomial,
    NongenericGaloisOracle,
    OracleVerdict,
    RationalFixedFlagOracle,
    SubvarietyOracle,
    TorusSquaresOracle,
    coordinate_polynomial,
    residual,
    sample_rows,
)

T = MatrixElement(((1, 1), (0, 1)))
S = MatrixElement(((0, 1), (-1, 0)))
FIB = MatrixElement(((2, 1), (1, 1)))
NEG_I = MatrixElement(((-1, 0), (0, -1)))
CHARPOLY_ORACLES = (NongenericGaloisOracle, RationalFixedFlagOracle)


def companion(coeffs):
    """Companion matrix of a monic integer polynomial, constant first.

    Lands in SL_n(Z) exactly when (-1)^n * constant == 1.
    """
    n = len(coeffs) - 1
    assert coeffs[-1] == 1
    rows = []
    for i in range(n):
        row = [0] * n
        if i > 0:
            row[i - 1] = 1
        row[n - 1] = -coeffs[i]
        rows.append(tuple(row))
    return MatrixElement(tuple(rows))


# ----- companion construction sanity -----

def test_companion_matches_charpoly():
    for coeffs in ((-1, 1, -1, 1), (-1, 1, -3, 1), (1, 1, 0, 0, 1),
                   (-1, -1, 0, 0, 0, 1)):
        g = companion(coeffs)
        assert brute_charpoly(g) == coeffs


# ----- reducible characteristic polynomial: the fixed-flag set over Z -----
# chi is monic of degree 2 or 3 with constant term +-1, so it is reducible
# exactly when +-1 is a root; sympy's factorization is the reference

def test_reducible_trace_three_is_out():
    v = RationalFixedFlagOracle(2).global_verdict(FIB)
    assert v.status == OUT
    assert not brute_reducible(brute_charpoly(FIB))


def test_reducible_negative_identity():
    v = RationalFixedFlagOracle(2).global_verdict(NEG_I)
    assert v.status == IN
    assert v.certificate["eigenvalue"] == -1
    assert brute_reducible(brute_charpoly(NEG_I))


def test_reducible_sl3_companion_root():
    g = companion((-1, 1, -1, 1))  # X^3 - X^2 + X - 1
    assert g.flat() == (0, 0, 1, 1, 0, -1, 0, 1, 1)
    v = RationalFixedFlagOracle(g.dimension).global_verdict(g)
    assert v.status == IN
    assert v.certificate["eigenvalue"] == 1
    assert brute_reducible((-1, 1, -1, 1))


def test_irreducible_cubic_is_out():
    g = companion((-1, 1, -3, 1))  # X^3 - 3X^2 + X - 1, no root at +-1
    v = RationalFixedFlagOracle(g.dimension).global_verdict(g)
    assert v.status == OUT
    assert not brute_reducible((-1, 1, -3, 1))


def test_reducible_residual_contains_blocks():
    oracle = RationalFixedFlagOracle(2)
    q = MatrixQuotient(2, (3, 5))
    assert residual_contains(oracle, q.reduce(T), q)
    # trace 4: chi(1) = -2 and chi(-1) = 6, so the block mod 3 passes
    # and the block mod 5 does not
    g = MatrixElement(((3, 1), (2, 1)))
    q3 = MatrixQuotient(2, (3,))
    assert residual_contains(oracle, q3.reduce(g), q3)
    assert not residual_contains(oracle, q.reduce(g), q)


@pytest.mark.parametrize("cls", CHARPOLY_ORACLES, ids=lambda c: c.kind)
def test_charpoly_oracle_dimension_validation(cls):
    # chi has degree 2 or 3: SL_1 is trivial, and SL_4 and up are refused
    with pytest.raises(DomainError):
        cls(1)
    for dim in (4, 12):
        with pytest.raises(DegreeUnsupported):
            cls(dim)


def test_oracles_refuse_elements_and_quotients_of_another_dimension():
    # the oracle's dimension or rank decides, not the input's
    with pytest.raises(DimensionMismatch):
        RationalFixedFlagOracle(2).global_verdict(MatrixElement.identity(3))
    with pytest.raises(DimensionMismatch):
        residual(RationalFixedFlagOracle(2), MatrixQuotient(3, (3,)))
    with pytest.raises(ArityMismatch):
        residual(TorusSquaresOracle(2), AbelianQuotient(3, 4))


# ----- non-generic Galois group -----

def test_galois_trace_three_generic():
    v = NongenericGaloisOracle(2).global_verdict(FIB)
    assert v.status == OUT
    assert v.certificate["galois_group"] == "S2"
    assert v.certificate["discriminant"] == 5


def test_galois_trace_two_nongeneric():
    v = NongenericGaloisOracle(2).global_verdict(T)
    assert v.status == IN
    assert v.certificate["square_discriminant"] == 0
    assert v.certificate["sqrt"] == 0


def test_galois_cubic_generic():
    g = companion((-1, 1, -3, 1))  # X^3 - 3X^2 + X - 1
    v = NongenericGaloisOracle(g.dimension).global_verdict(g)
    assert v.status == OUT
    assert v.certificate["galois_group"] == "S3"
    assert v.certificate["discriminant"] == -76
    assert int(to_poly((-1, 1, -3, 1)).discriminant()) == -76


def test_galois_cubic_reducible_degenerate():
    g = companion((-1, 1, -1, 1))
    v = NongenericGaloisOracle(g.dimension).global_verdict(g)
    assert v.status == IN
    assert v.certificate["degeneracy"] == "reducible"
    assert v.certificate["rational_root"] == 1


def test_galois_cubic_cyclic_degenerate():
    g = companion((-1, -3, 0, 1))  # X^3 - 3X - 1: disc 81, cyclic cubic
    v = NongenericGaloisOracle(g.dimension).global_verdict(g)
    assert v.status == IN
    assert v.certificate["degeneracy"] == "square_discriminant"
    assert v.certificate["square_discriminant"] == 81
    assert not brute_reducible((-1, -3, 0, 1))
    assert brute_disc_is_square((-1, -3, 0, 1))


# ----- rational fixed flag -----

def test_fixed_flag_shear():
    v = RationalFixedFlagOracle(2).global_verdict(T)
    assert v.status == IN
    assert v.certificate["eigenvalue"] == 1
    assert v.certificate["fixed_vector"] == [1, 0]


def test_fixed_flag_out_with_determinants():
    v = RationalFixedFlagOracle(2).global_verdict(FIB)
    assert v.status == OUT
    assert v.certificate["det_g_minus_identity"] == -1
    assert v.certificate["det_g_plus_identity"] == 5


def test_fixed_flag_negative_identity():
    v = RationalFixedFlagOracle(2).global_verdict(NEG_I)
    assert v.status == IN
    assert v.certificate["eigenvalue"] == -1


def test_fixed_flag_vector_is_eigenvector():
    seen_in = 0
    for g in (walk_elements(sl2_st_generators(), 120, seed=3, length=14)
              + walk_elements(elementary_generators(3), 80, seed=4, length=14)):
        v = RationalFixedFlagOracle(g.dimension).global_verdict(g)
        if v.status != IN:
            continue
        seen_in += 1
        lam = v.certificate["eigenvalue"]
        vec = v.certificate["fixed_vector"]
        d = g.dimension
        flat = g.flat()
        img = [sum(flat[i * d + j] * vec[j] for j in range(d)) for i in range(d)]
        assert img == [lam * x for x in vec]
        assert any(x != 0 for x in vec)
    assert seen_in > 0


def test_fixed_flag_iff_linear_factor():
    # (X -+ 1) divides the characteristic polynomial exactly on IN
    for g in (walk_elements(sl2_st_generators(), 150, seed=5, length=14)
              + walk_elements(elementary_generators(3), 150, seed=6, length=14)):
        poly = to_poly(brute_charpoly(g))
        has_flag = poly.eval(1) == 0 or poly.eval(-1) == 0
        assert (RationalFixedFlagOracle(g.dimension).global_verdict(g).status == IN) == has_flag


def test_kernel_vector_without_the_eigenvalue_raises_domain_error():
    # T has eigenvalue 1 only: g + I has a trivial kernel
    assert kernel_vector(T.flat(), 2, 1) == (1, 0)
    with pytest.raises(DomainError, match="not an eigenvalue"):
        kernel_vector(T.flat(), 2, -1)


# ----- subvariety of entry polynomials -----

def test_subvariety_trace_shift():
    poly = trace_polynomial(2, shift=2)
    v = SubvarietyOracle([poly]).global_verdict(T)
    assert v.status == IN
    w = SubvarietyOracle([poly]).global_verdict(FIB)
    assert w.status == OUT
    assert w.certificate["poly_index"] == 0
    assert w.certificate["value"] == 1


def test_subvariety_zero_polynomial_always_in():
    poly = EntryPolynomial(4, ())
    for g in walk_elements(sl2_st_generators(), 25, seed=9, length=14):
        assert SubvarietyOracle([poly]).global_verdict(g).status == IN


def test_subvariety_coordinate_on_abelian():
    origin = SubvarietyOracle([coordinate_polynomial(1, 0)], domain="abelian")
    assert origin.global_verdict(AbelianElement((0,))).status == IN
    v = origin.global_verdict(AbelianElement((3,)))
    assert v.status == OUT
    assert v.certificate["value"] == 3


def test_subvariety_joint_vanishing():
    oracle = SubvarietyOracle([coordinate_polynomial(2, 0), coordinate_polynomial(2, 1, shift=5)],
                              domain="abelian")
    assert oracle.global_verdict(AbelianElement((0, 5))).status == IN
    assert oracle.global_verdict(AbelianElement((0, 4))).status == OUT


def test_subvariety_validation():
    with pytest.raises(DomainError):
        SubvarietyOracle([])
    with pytest.raises(ArityMismatch):
        SubvarietyOracle([coordinate_polynomial(2, 0), coordinate_polynomial(3, 0)])
    with pytest.raises(ArityMismatch):
        SubvarietyOracle([coordinate_polynomial(3, 0)], domain="matrix")
    with pytest.raises(DomainError):
        SubvarietyOracle([coordinate_polynomial(4, 0)], domain="affine")
    with pytest.raises(ArityMismatch):
        SubvarietyOracle([coordinate_polynomial(2, 0)], domain="abelian").global_verdict(
            AbelianElement((1, 2, 3)))


def test_subvariety_refuses_the_other_domain():
    matrix = SubvarietyOracle([trace_polynomial(2, shift=2)])
    abelian = SubvarietyOracle([coordinate_polynomial(4, 0)], domain="abelian")
    with pytest.raises(DimensionMismatch):
        residual(matrix, AbelianQuotient(4, 3))
    with pytest.raises(DimensionMismatch):
        residual(matrix, MatrixQuotient(3, (2,)))
    with pytest.raises(DimensionMismatch):
        matrix.global_verdict(AbelianElement((1, 0, 0, 1)))
    with pytest.raises(ArityMismatch):
        residual(abelian, MatrixQuotient(2, (3,)))
    with pytest.raises(ArityMismatch):
        abelian.global_verdict(T)


def test_entry_polynomial_evaluate():
    poly = EntryPolynomial(2, ((3, (2, 0)), (-1, (0, 1)), (7, (0, 0))))
    assert poly.evaluate((2, 5)) == 3 * 4 - 5 + 7
    with pytest.raises(ArityMismatch):
        poly.evaluate((1, 2, 3))
    with pytest.raises(ArityMismatch):
        EntryPolynomial(2, ((1, (1, 0, 0)),))


def test_entry_polynomial_json_round_trip():
    poly = trace_polynomial(3, shift=1)
    obj = poly.to_json_obj()
    again = EntryPolynomial(obj["arity"], tuple((c, tuple(e)) for c, e in obj["monomials"]))
    assert again == poly
    assert str(EntryPolynomial(2, ())) == "0"
    assert "x0" in str(coordinate_polynomial(2, 0))


def test_entry_polynomial_batch_matches_scalar():
    import numpy as np

    poly = EntryPolynomial(2, ((2, (1, 1)), (-3, (0, 2)), (1, (0, 0))))
    xs = np.array([0, 1, -2, 5, 11], dtype=np.int64)
    ys = np.array([3, -1, 4, 0, -7], dtype=np.int64)
    batch = poly.evaluate_batch((xs, ys))
    for i in range(len(xs)):
        assert batch[i] == poly.evaluate((int(xs[i]), int(ys[i])))
    # a coefficient past int64 at zero coordinates must not stay on int64
    wide = EntryPolynomial(1, ((2 ** 63, (1,)),))
    zeros = np.zeros(3, np.int64)
    assert wide.evaluate_batch([zeros]).tolist() == [wide.evaluate((0,))] * 3


def test_entry_polynomial_batch_exact_past_int64():
    import numpy as np

    poly = EntryPolynomial(2, ((2, (1, 1)), (-3, (0, 2)), (1, (0, 0))))
    xs = np.array([1 << 40, -(1 << 35), 3], dtype=np.int64)
    ys = np.array([1 << 31, 1 << 33, -(1 << 62)], dtype=np.int64)
    batch = poly.evaluate_batch((xs, ys))
    for i in range(len(xs)):
        assert batch[i] == poly.evaluate((int(xs[i]), int(ys[i])))
    with pytest.raises(ArityMismatch):
        poly.evaluate_batch((xs,))


# ----- torus squares -----

def test_torus_squares_verdicts():
    oracle = TorusSquaresOracle(2)
    v = oracle.global_verdict(AbelianElement((2, 4)))
    assert v.status == IN
    assert v.certificate["root_exponents"] == [1, 2]
    w = oracle.global_verdict(AbelianElement((2, 3)))
    assert w.status == OUT
    assert w.certificate["odd_coordinate"] == 1
    with pytest.raises(ArityMismatch):
        oracle.global_verdict(AbelianElement((1, 2, 3)))
    with pytest.raises(DomainError):
        TorusSquaresOracle(0)


def test_torus_squares_residual_odd_modulus_is_everything():
    oracle = TorusSquaresOracle(2)
    rep = residual(oracle, AbelianQuotient(2, 3))
    assert rep.density == Fraction(1)
    rep2 = residual(oracle, AbelianQuotient(2, 2))
    assert rep2.density == Fraction(1, 4)
    assert rep2.checked == 4 and rep2.hits == 1


# ----- residual densities, enumerated exactly -----

def test_residual_reducible_mod_three():
    # mod 3 the fixed-flag test keeps as many elements as "chi reducible mod 3"
    rep = residual(RationalFixedFlagOracle(2), MatrixQuotient(2, (3,)))
    assert rep.checked == 24
    assert rep.density == Fraction(18, 24)
    assert rep.mode == "enumerate" and rep.halfwidth is None


def test_residual_nongeneric_mod_three():
    rep = residual(NongenericGaloisOracle(2), MatrixQuotient(2, (3,)))
    assert rep.density == Fraction(3, 4)


def test_residual_nongeneric_mod_seven():
    rep = residual(NongenericGaloisOracle(2), MatrixQuotient(2, (7,)))
    assert rep.checked == 336
    assert rep.density == Fraction(5, 8)


def test_residual_trace_subvariety_mod_three():
    oracle = SubvarietyOracle([trace_polynomial(2, shift=2)])
    rep = residual(oracle, MatrixQuotient(2, (3,)))
    assert rep.density == Fraction(9, 24)


def test_residual_zero_polynomial_is_everything():
    oracle = SubvarietyOracle([EntryPolynomial(4, ())])
    rep = residual(oracle, MatrixQuotient(2, (3,)))
    assert rep.density == Fraction(1)


def test_residual_fixed_flag_mod_three():
    rep = residual(RationalFixedFlagOracle(2), MatrixQuotient(2, (3,)))
    assert rep.density == Fraction(3, 4)


# |{g in SL_2(F_p) : tr g = t}| = p^2 + p ((t^2 - 4)/p) gives the density of
# the Galois set (t^2 - 4 a square mod p) and of the fixed flag (t = +-2)
SL2_DENSITIES = ((NongenericGaloisOracle, lambda p: Fraction(p + 3, 2 * (p + 1))),
                 (RationalFixedFlagOracle, lambda p: Fraction(2 * p, p * p - 1)))


@pytest.mark.parametrize("oracle_cls,density", SL2_DENSITIES)
def test_sl2_residual_densities_have_closed_forms(oracle_cls, density):
    for p in primerange(3, 60):
        rep = residual(oracle_cls(2), MatrixQuotient(2, (p,)))
        assert rep.checked == p * (p * p - 1)
        assert rep.density == density(p), p
    # over a pair of primes the residual set is the product of the two
    for p, q in ((3, 5), (3, 7), (5, 7)):
        rep = residual(oracle_cls(2), MatrixQuotient(2, (p, q)))
        assert rep.density == density(p) * density(q)


def test_residual_sampling_matches_enumeration():
    oracle = RationalFixedFlagOracle(2)
    q = MatrixQuotient(2, (5,))
    exact = residual(oracle, q)
    assert exact.density == Fraction(5, 12)
    sampled = residual(oracle, q, mode="sample", samples=4000, seed=1)
    assert sampled.mode == "sample"
    assert sampled.checked == 4000
    assert sampled.halfwidth is not None
    assert abs(sampled.density - 5 / 12) <= sampled.halfwidth + 1e-9


def test_residual_sample_without_hits_has_the_rule_of_three_halfwidth():
    # the constant polynomial 1 never vanishes, so no sample hits
    oracle = SubvarietyOracle([EntryPolynomial(1, ((1, (0,)),))], domain="abelian")
    rep = residual(oracle, AbelianQuotient(1, 5), mode="sample", samples=1000)
    assert (rep.hits, rep.density, rep.halfwidth) == (0, 0.0, 3 / 1000)


def test_residual_mode_validation():
    oracle = RationalFixedFlagOracle(2)
    q = MatrixQuotient(2, (3,))
    with pytest.raises(DomainError):
        residual(oracle, q, mode="guess")
    with pytest.raises(DomainError):
        residual(oracle, q, mode="sample", samples=0)


def test_residual_report_json():
    rep = residual(RationalFixedFlagOracle(2), MatrixQuotient(2, (3,)))
    obj = rep.to_json_obj()
    assert obj["quotient"] == "3"
    assert obj["density"] == "3/4"
    assert obj["checked"] == 24


# ----- residual sets decided once per class of chi mod p -----

def blocks(x, quotient):
    """(block, prime) for each prime of a matrix quotient element x."""
    size = quotient.dimension ** 2
    return [(x[b * size:(b + 1) * size], p) for b, p in enumerate(quotient.moduli)]


def per_element_hits(oracle, quotient, elems):
    """The residual test run on every element on its own, block by block,
    by the reference of tests/helpers.py."""
    return sum(all(brute_residual_block(oracle.kind, block, p)
                   for block, p in blocks(x, quotient)) for x in elems)


@pytest.mark.parametrize("cls", CHARPOLY_ORACLES, ids=lambda c: c.kind)
@pytest.mark.parametrize("dim,moduli", [(2, (2,)), (2, (13,)), (3, (2,)), (3, (3,)),
                                        (2, (3, 5))],
                         ids=["sl2_2", "sl2_13", "sl3_2", "sl3_3", "sl2_3x5"])
def test_residual_by_class_equals_the_per_element_test(cls, dim, moduli):
    oracle, q = cls(dim), MatrixQuotient(dim, moduli)
    elems = elements(q)
    want = per_element_hits(oracle, q, elems)
    rep = residual(oracle, q)
    assert (rep.checked, rep.hits, rep.density) == (len(elems), want, Fraction(want, len(elems)))
    sampled = residual(oracle, q, mode="sample", samples=300, seed=4)
    assert sampled.hits == per_element_hits(
        oracle, q, [sample_element(q, 4, t) for t in range(300)])
    # the one-element test is the same route
    assert sum(residual_contains(oracle, x, q) for x in elems[:200]) == per_element_hits(
        oracle, q, elems[:200])


def test_residual_fixed_flag_sl3_mod_five():
    rep = residual(RationalFixedFlagOracle(3), MatrixQuotient(3, (5,)))
    assert rep.checked == 372000
    assert rep.density == Fraction(53, 124)


@pytest.mark.parametrize("cls", CHARPOLY_ORACLES, ids=lambda c: c.kind)
@pytest.mark.parametrize("dim", [2, 3])
def test_residual_class_keys_stay_exact_at_a_large_prime(cls, dim):
    # entries near 2^61 would wrap int64 in the SL_3 minors
    p = 2 ** 61 - 1
    oracle, q = cls(dim), MatrixQuotient(dim, (p,))
    rep = residual(oracle, q, mode="sample", samples=20, seed=2)
    assert rep.hits == per_element_hits(oracle, q, [sample_element(q, 2, t) for t in range(20)])


@pytest.mark.parametrize("dim", [2, 3])
def test_galois_mask_is_reducibility_or_a_square_discriminant(dim):
    # every class of chi mod p, p < 60, by one companion matrix each: t in
    # degree 2, (t, s) in degree 3. The reference is the rule the mask
    # replaced: sympy's irreducibility test, then Euler's criterion on
    # sympy's discriminant, 0 counted, with every chi passing at p = 2
    oracle = NongenericGaloisOracle(dim)
    for p in primerange(2, 60):
        polys = [(1, -t, 1) if dim == 2 else (-1, s, -t, 1)
                 for t, s in itertools.product(range(p), range(p if dim == 3 else 1))]
        rows = np.array([[x % p for x in companion(c).flat()] for c in polys])
        dense = [[ZZ(c) for c in reversed(chi)] for chi in polys]  # leading first
        want = [not gf_irreducible_p([c % p for c in f], p, ZZ) or p == 2
                or pow(int(dup_discriminant(f, ZZ)) % p, (p - 1) // 2, p) <= 1
                for f in dense]
        assert oracle.residual_mask(rows, MatrixQuotient(dim, (p,))).tolist() == want, p


@pytest.mark.parametrize("p", [2, 3])
def test_sl3_galois_residual_is_the_whole_group(p):
    # an irreducible cubic over F_p has a cyclic Galois group, so its
    # discriminant is a square mod p: every element is in the residual set
    assert residual(NongenericGaloisOracle(3), MatrixQuotient(3, (p,))).density == 1


# ----- every oracle kind against a per-element reference -----

def per_element_reference(oracle, quotient):
    """The residual test of one quotient element, written without residual_mask."""
    if isinstance(oracle, TorusSquaresOracle):
        return lambda x: quotient.modulus % 2 == 1 or all(e % 2 == 0 for e in x)
    if isinstance(oracle, SubvarietyOracle) and isinstance(quotient, AbelianQuotient):
        return lambda x: all(q.evaluate(x) % quotient.modulus == 0 for q in oracle.polys)
    if isinstance(oracle, SubvarietyOracle):
        return lambda x: all(q.evaluate(block) % p == 0 for block, p in blocks(x, quotient)
                             for q in oracle.polys)
    return lambda x: all(brute_residual_block(oracle.kind, block, p)
                         for block, p in blocks(x, quotient))


def matrix_oracles(d):
    return [NongenericGaloisOracle(d), RationalFixedFlagOracle(d),
            SubvarietyOracle([trace_polynomial(d, d)])]


ABELIAN_ORACLES = [
    TorusSquaresOracle(2),
    SubvarietyOracle([EntryPolynomial(2, ((1, (2, 0)), (-1, (0, 1))))], domain="abelian"),
]
RESIDUAL_CASES = (
    [(o, MatrixQuotient(2, (13,))) for o in matrix_oracles(2)]
    + [(o, MatrixQuotient(3, (3,))) for o in matrix_oracles(3)]
    + [(o, MatrixQuotient(2, (3, 5))) for o in matrix_oracles(2)]
    + [(o, AbelianQuotient(2, q)) for q in (2, 3, 4) for o in ABELIAN_ORACLES])
# residual hits frozen from the per-element route these masks replaced
FROZEN_RESIDUAL_HITS = {("SUBVARIETY", 2, "13"): 169, ("SUBVARIETY", 3, "3"): 1863}


@pytest.mark.parametrize("oracle,q", RESIDUAL_CASES,
                         ids=[f"{o.kind}-{q.label}-{getattr(q, 'dimension', 'ab')}"
                              for o, q in RESIDUAL_CASES])
def test_residual_equals_the_per_element_reference(oracle, q):
    contains = per_element_reference(oracle, q)
    elems = elements(q)
    want = sum(map(contains, elems))
    rep = residual(oracle, q)
    assert (rep.checked, rep.hits, rep.density) == (len(elems), want, Fraction(want, len(elems)))
    frozen = FROZEN_RESIDUAL_HITS.get((oracle.kind, getattr(q, "dimension", None), q.label))
    assert frozen in (None, rep.hits)
    sampled = residual(oracle, q, mode="sample", samples=300, seed=5)
    assert sampled.hits == sum(contains(sample_element(q, 5, t)) for t in range(300))


def test_sampled_digit_rows_stay_exact_past_int64():
    # draws past 2^63 must reach the mask as exact integers, not as floats
    q = AbelianQuotient(2, 2 ** 64 + 2)
    want = sum(all(e % 2 == 0 for e in sample_element(q, 4, t)) for t in range(200))
    assert 0 < want < 200
    assert residual(TorusSquaresOracle(2), q, mode="sample", samples=200, seed=4).hits == want


# (quotient, samples): redraws on SL_2(F_2) and SL_3(F_2), where most
# trials redraw; a pair; a prime past uint16 draws; object-dtype
# determinants; abelian draws, one of them past int64
SAMPLE_CASES = [
    (MatrixQuotient(2, (2,)), 300),
    (MatrixQuotient(3, (2,)), 300),
    (MatrixQuotient(3, (5,)), 300),
    (MatrixQuotient(2, (3, 5)), 300),
    (MatrixQuotient(2, (65537,)), 200),
    (MatrixQuotient(3, (2 ** 61 - 1,)), 40),
    (AbelianQuotient(1, 5), 300),
    (AbelianQuotient(2, 2 ** 64 + 2), 200),
]


@pytest.mark.parametrize("q,samples", SAMPLE_CASES,
                         ids=[f"{getattr(q, 'dimension', 'ab')}-{q.label}" for q, _ in SAMPLE_CASES])
@pytest.mark.parametrize("seed", [0, 9])
def test_sample_rows_equal_the_scalar_sampler(q, samples, seed):
    want = np.array([sample_element(q, seed, t) for t in range(samples)], dtype=q.dtype)
    got = sample_rows(q, seed, samples)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tolist() == want.tolist()
    assert {type(x) for x in got.ravel()} == {type(x) for x in want.ravel()}


@pytest.mark.parametrize("attempt", [63, 64])
def test_sample_rows_take_up_to_64_draws(monkeypatch, attempt):
    # every draw singular but the one at the given attempt
    # uint8, as draw_block gives below 256
    def draw_block(seed, trials, nsteps, bound, start=0):
        row = [2, 0, 0, 1] if start == attempt * nsteps else [0] * nsteps
        return np.array([row] * len(trials), dtype=np.uint8)

    monkeypatch.setattr(prng, "draw_block", draw_block)
    q = MatrixQuotient(2, (5,))
    if attempt < 64:
        # det 2, inverse 3 mod 5: the first row becomes (1, 0)
        assert sample_rows(q, 0, 3).tolist() == [[1, 0, 0, 1]] * 3
    else:
        with pytest.raises(DomainError, match="invertible matrix mod 5"):
            sample_rows(q, 0, 3)


# ----- global/residual compatibility on walk samples -----

def test_residual_compatibility_matrix_oracles():
    # a global IN lands in the residual set of every prime quotient
    sl2 = walk_elements(sl2_st_generators(), 400, seed=21, length=14)
    sl3 = walk_elements(elementary_generators(3), 200, seed=22, length=10)
    oracles2 = (NongenericGaloisOracle(2), RationalFixedFlagOracle(2),
                SubvarietyOracle([trace_polynomial(2, shift=2)]))
    oracles3 = (NongenericGaloisOracle(3), RationalFixedFlagOracle(3))
    for elems, oracles in ((sl2, oracles2), (sl3, oracles3)):
        for oracle in oracles:
            for p in (3, 5, 7):
                q = oracle.quotient_for_prime(p)
                for g in elems:
                    if oracle.global_verdict(g).status == IN:
                        assert residual_contains(oracle, q.reduce(g), q)


def test_residual_compatibility_abelian_oracles():
    torus = TorusSquaresOracle(2)
    for trial in range(400):
        a, b = prng.draw_indices(77, trial, 2, 41)
        g = AbelianElement((a - 20, b - 20))
        for p in (2, 3, 5):
            q = AbelianQuotient(2, p)
            red = q.reduce(g)
            if torus.global_verdict(g).status == IN:
                assert residual_contains(torus, red, q)


def test_triple_coincidence_on_walks():
    # in SL_2(Z): non-generic Galois == rational fixed flag == trace +-2
    gal = NongenericGaloisOracle(2)
    flag = RationalFixedFlagOracle(2)
    elems = walk_elements(sl2_st_generators(), 10_000, seed=23, length=14)
    for g in elems:
        flat = g.flat()
        hit = flat[0] + flat[3] in (-2, 2)
        assert gal.hit_raw(flat) == hit
        assert flag.hit_raw(flat) == hit
    for g in elems[:300]:
        hit = g.entries[0][0] + g.entries[1][1] in (-2, 2)
        assert (gal.global_verdict(g).status == IN) == hit
        assert (flag.global_verdict(g).status == IN) == hit


def test_brute_force_galois_agreement():
    # sympy factorization + discriminant against the exact verdicts; the
    # fixed-flag oracle decides the reducible set
    for dim, elems in ((2, walk_elements(sl2_st_generators(), 300, seed=31, length=14)),
                       (3, walk_elements(elementary_generators(3), 300, seed=32, length=10))):
        flag = RationalFixedFlagOracle(dim)
        gal = NongenericGaloisOracle(dim)
        for g in elems:
            coeffs = brute_charpoly(g)
            rv = flag.global_verdict(g)
            gv = gal.global_verdict(g)
            assert rv.status in (IN, OUT)
            assert gv.status in (IN, OUT)
            assert (rv.status == IN) == brute_reducible(coeffs)
            assert (gv.status == IN) == brute_nongeneric(coeffs)


@pytest.mark.parametrize("cls", CHARPOLY_ORACLES, ids=lambda c: c.kind)
def test_every_certificate_checks_out_on_walk_endpoints(cls):
    for dim, elems in ((2, walk_elements(sl2_st_generators(), 150, seed=33, length=14)),
                       (3, walk_elements(elementary_generators(3), 150, seed=34, length=10))):
        oracle = cls(dim)
        for g in elems:
            check_charpoly_certificate(oracle.kind, g, oracle.global_verdict(g))


def words(generators, max_size):
    """Products of short words in the support of the generators."""
    return st.lists(st.sampled_from(generators.support), max_size=max_size).map(
        lambda steps: functools.reduce(lambda g, h: g * h, steps, generators.identity_element()))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(g=st.one_of(words(sl2_st_generators(), 16), words(elementary_generators(3), 8)))
def test_every_certificate_checks_out_on_short_words(g):
    for cls in CHARPOLY_ORACLES:
        oracle = cls(g.dimension)
        check_charpoly_certificate(oracle.kind, g, oracle.global_verdict(g))


# ----- hit_raw consistency and metadata -----

def test_hit_raw_matches_global_verdict():
    gal = NongenericGaloisOracle(3)
    flag = RationalFixedFlagOracle(3)
    for g in walk_elements(elementary_generators(3), 150, seed=41, length=10):
        flat = g.flat()
        assert flag.hit_raw(flat) == (flag.global_verdict(g).status == IN)
        assert gal.hit_raw(flat) == (gal.global_verdict(g).status == IN)


def test_every_oracle_has_exactly_one_monte_carlo_test():
    # the lane kernel calls hit_raw_batch where an oracle has one and
    # hit_raw otherwise, so a second test would never run
    oracles = [cls for name, cls in vars(sievelab).items() if name.endswith("Oracle")]
    assert len(oracles) == 4
    for cls in oracles:
        assert hasattr(cls, "hit_raw") != hasattr(cls, "hit_raw_batch"), cls.__name__


@pytest.mark.parametrize("oracle", [
    NongenericGaloisOracle(2),
    RationalFixedFlagOracle(2),
    SubvarietyOracle([trace_polynomial(2, shift=2)]),
], ids=lambda o: o.kind)
def test_pair_residual_density_is_the_crt_product(oracle):
    # an element of SL_2(F_p) x SL_2(F_q) is in the residual set when each
    # block is, so the pair density is the product of the single ones
    for p, q in ((3, 5), (5, 7)):
        pair = residual(oracle, MatrixQuotient(2, (p, q))).density
        single = [residual(oracle, MatrixQuotient(2, (r,))).density for r in (p, q)]
        assert pair == single[0] * single[1]


def test_oracle_kind_strings():
    assert NongenericGaloisOracle(2).kind == "NONGENERIC_GALOIS"
    assert RationalFixedFlagOracle(2).kind == "RATIONAL_FIXED_FLAG"
    assert SubvarietyOracle([EntryPolynomial(4, ())]).kind == "SUBVARIETY"
    assert TorusSquaresOracle(2).kind == "TORUS_SQUARES"


def test_oracle_json_objects():
    objs = [
        NongenericGaloisOracle(3).to_json_obj(),
        RationalFixedFlagOracle(2).to_json_obj(),
        SubvarietyOracle([trace_polynomial(2, shift=2)]).to_json_obj(),
        TorusSquaresOracle(2).to_json_obj(),
    ]
    import json

    for obj in objs:
        assert "kind" in obj
        json.dumps(obj)


def test_verdict_validation():
    with pytest.raises(DomainError):
        OracleVerdict("MAYBE")
    with pytest.raises(DomainError):
        OracleVerdict(IN)  # needs a certificate
    v = OracleVerdict(UNKNOWN, reason="undecided")
    assert v.to_json_obj() == {"status": "UNKNOWN", "reason": "undecided"}

