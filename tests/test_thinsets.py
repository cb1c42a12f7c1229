"""Thin-set oracles: exact verdicts, certificates, residual densities."""

from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    brute_cycle_pattern,
    brute_disc_is_square,
    brute_nongeneric,
    brute_reducible,
    elements,
    from_json_entries,
    residual_contains,
    to_poly,
    walk_elements,
)
from sievelab import prng
from sievelab.errors import ArityMismatch, DegreeUnsupported, DomainError, InseparableResidue
from sievelab.matgroup import (
    AbelianElement,
    MatrixElement,
    charpoly_coefficients,
    elementary_generators,
    sl2_st_generators,
    z_generators,
)
from sievelab.quotients import AbelianQuotient, MatrixQuotient, prime_schedule
from sievelab.thinsets import (
    IN,
    OUT,
    UNKNOWN,
    EntryPolynomial,
    NongenericGaloisOracle,
    OracleVerdict,
    ProperPowerOracle,
    RationalFixedFlagOracle,
    ReducibleCharpolyOracle,
    SubvarietyOracle,
    TorusSquaresOracle,
    coordinate_polynomial,
    residual,
    sample_element,
    trace_polynomial,
)

T = MatrixElement(((1, 1), (0, 1)))
S = MatrixElement(((0, 1), (-1, 0)))
FIB = MatrixElement(((2, 1), (1, 1)))
NEG_I = MatrixElement(((-1, 0), (0, -1)))


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
        assert charpoly_coefficients(g.flat(), g.dimension) == coeffs


# ----- reducible characteristic polynomial -----

def test_reducible_trace_three_is_out():
    v = ReducibleCharpolyOracle(2).global_verdict(FIB)
    assert v.status == OUT
    assert v.certificate["discriminant"] == 5


def test_reducible_trace_two_is_in():
    v = ReducibleCharpolyOracle(2).global_verdict(T)
    assert v.status == IN
    assert v.certificate["rational_root"] == 1
    assert v.certificate["cofactor"] == [-1, 1]


def test_reducible_negative_identity():
    v = ReducibleCharpolyOracle(2).global_verdict(NEG_I)
    assert v.status == IN
    assert v.certificate["rational_root"] == -1


def test_reducible_sl3_companion_root():
    g = companion((-1, 1, -1, 1))  # X^3 - X^2 + X - 1
    assert g.flat() == (0, 0, 1, 1, 0, -1, 0, 1, 1)
    v = ReducibleCharpolyOracle(g.dimension).global_verdict(g)
    assert v.status == IN
    assert v.certificate["rational_root"] == 1


def test_irreducible_cubic_is_out():
    g = companion((-1, 1, -3, 1))  # X^3 - 3X^2 + X - 1, no root at +-1
    v = ReducibleCharpolyOracle(g.dimension).global_verdict(g)
    assert v.status == OUT


def test_reducible_quartic_sweep_matches_sympy():
    # every SL_4 characteristic polynomial shape X^4+aX^3+bX^2+cX+1
    oracle = ReducibleCharpolyOracle(4)
    for a in range(-4, 5):
        for b in range(-4, 5):
            for c in range(-4, 5):
                coeffs = (1, c, b, a, 1)
                v = oracle._verdict_from_coeffs(coeffs)
                assert v.status in (IN, OUT)
                assert (v.status == IN) == brute_reducible(coeffs)


def test_reducible_quartic_certificate_multiplies_back():
    coeffs = (1, 0, 3, 0, 1)  # (X^2+1)(X^2+... ) check via the oracle
    v = ReducibleCharpolyOracle(4)._verdict_from_coeffs(coeffs)
    if v.status == IN and "quadratic_factor" in v.certificate:
        f = to_poly(v.certificate["quadratic_factor"])
        g = to_poly(v.certificate["cofactor"])
        assert (f * g - to_poly(coeffs)).is_zero


def test_reducible_quintic_witness():
    g = companion((-1, -1, 0, 0, 0, 1))  # X^5 - X - 1
    v = ReducibleCharpolyOracle(g.dimension).global_verdict(g)
    assert v.status == OUT
    p = v.certificate["irreducible_mod"]
    assert brute_cycle_pattern((-1, -1, 0, 0, 0, 1), p) == [5]
    assert not brute_reducible((-1, -1, 0, 0, 0, 1))


def test_reducible_quintic_root():
    g = companion((-1, 0, 0, 0, 0, 1))  # X^5 - 1
    v = ReducibleCharpolyOracle(g.dimension).global_verdict(g)
    assert v.status == IN
    assert v.certificate["rational_root"] == 1


def test_reducible_residual_contains_blocks():
    oracle = ReducibleCharpolyOracle(2)
    q = MatrixQuotient(2, (3, 5))
    assert residual_contains(oracle, q.reduce(T), q)
    # trace 3: X^2-3X+1 is irreducible mod 5 (disc 5 = 0 mod 5 -> root!)
    # use trace 4 instead: disc 12; mod 5 disc = 2, a non-residue
    g = MatrixElement(((3, 1), (2, 1)))
    assert not residual_contains(oracle, q.reduce(g), q)


def test_reducible_dimension_validation():
    with pytest.raises(DomainError):
        ReducibleCharpolyOracle(1)


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


def test_galois_quartic_full_group():
    g = companion((1, 1, 0, 0, 1))  # X^4 + X + 1, Galois group S4
    v = NongenericGaloisOracle(g.dimension).global_verdict(g)
    assert v.status == OUT
    assert v.certificate["galois_group"] == "S4"
    pats = v.certificate["witness_patterns"]
    assert "n_cycle" in pats and "p_cycle" in pats
    p, pat = pats["n_cycle"]
    assert brute_cycle_pattern((1, 1, 0, 0, 1), p) == pat == [4]
    p, pat = pats["p_cycle"]
    assert brute_cycle_pattern((1, 1, 0, 0, 1), p) == pat
    assert sorted(c for c in pat if c > 1) == [3]
    grp, _ = to_poly((1, 1, 0, 0, 1)).galois_group()
    assert grp.order() == 24


def test_galois_quartic_cyclic_is_unknown():
    g = companion((1, 1, 1, 1, 1))  # fifth cyclotomic: cyclic C4, not S4
    v = NongenericGaloisOracle(g.dimension).global_verdict(g)
    assert v.status == UNKNOWN
    assert "witness" in v.reason or v.reason
    grp, _ = to_poly((1, 1, 1, 1, 1)).galois_group()
    assert grp.order() == 4


def test_galois_quintic_reducible():
    g = companion((-1, 0, 0, 0, 0, 1))  # X^5 - 1
    v = NongenericGaloisOracle(g.dimension).global_verdict(g)
    assert v.status == IN
    assert v.certificate["degeneracy"] == "reducible"


def test_galois_residual_dimension_cap():
    oracle = NongenericGaloisOracle(4)
    q = MatrixQuotient(4, (3,))
    with pytest.raises(DegreeUnsupported):
        residual_contains(oracle, (1,) + (0,) * 15, q)
    with pytest.raises(DegreeUnsupported):
        residual(oracle, q, mode="sample", samples=5)
    # refused before any element is decided, so also on no elements at all
    with pytest.raises(DegreeUnsupported):
        oracle.residual_mask(np.zeros((0, 16), dtype=np.int64), MatrixQuotient(4, (2,)))


def test_inseparable_residue_raised():
    from sievelab.thinsets import _cycle_pattern_mod
    with pytest.raises(InseparableResidue):
        _cycle_pattern_mod((1, -2, 1), 5)  # (X-1)^2 mod any p


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
        coeffs = charpoly_coefficients(g.flat(), g.dimension)
        poly = to_poly(coeffs)
        has_flag = poly.eval(1) == 0 or poly.eval(-1) == 0
        assert (RationalFixedFlagOracle(g.dimension).global_verdict(g).status == IN) == has_flag


# ----- proper powers -----

def test_proper_power_square_found_in_ball():
    g = T * T  # [[1,2],[0,1]]
    v = ProperPowerOracle(2, generators=sl2_st_generators()).global_verdict(g)
    assert v.status == IN
    root = from_json_entries(v.certificate["root"])
    assert root * root == g


def test_proper_power_identity():
    v = ProperPowerOracle(7).global_verdict(MatrixElement.identity(2))
    assert v.status == IN


def test_proper_power_shear_not_square():
    v = ProperPowerOracle(2).global_verdict(T)
    assert v.status == OUT
    assert v.certificate["non_power_mod"] == 2


def test_proper_power_s_not_square():
    v = ProperPowerOracle(2).global_verdict(S)
    assert v.status == OUT
    assert v.certificate["non_power_mod"] == 2


def test_proper_power_st_not_cube():
    v = ProperPowerOracle(3).global_verdict(S * T)
    assert v.status == OUT
    assert v.certificate["non_power_mod"] == 2


def test_proper_power_unknown_without_generators():
    # -I = S^2 is a square everywhere, but only a ball search can see it
    v = ProperPowerOracle(2).global_verdict(NEG_I)
    assert v.status == UNKNOWN
    v2 = ProperPowerOracle(2, generators=sl2_st_generators()).global_verdict(NEG_I)
    assert v2.status == IN
    root = from_json_entries(v2.certificate["root"])
    assert root * root == NEG_I


def test_proper_power_skips_quotients_past_the_enumeration_budget():
    # the default schedule is (2, 3, 5); SL_4(F_3) has order 12130560, past
    # the enumeration budget, so SL_4 elements are decided mod 2 alone
    oracle = ProperPowerOracle(2)
    e12 = MatrixElement(((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    v = oracle.global_verdict(e12)
    assert v.status == UNKNOWN
    assert "SL_4 mod 3, 5" in v.reason
    jordan = MatrixElement(((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1)))
    w = oracle.global_verdict(jordan)
    assert w.status == OUT and w.certificate["non_power_mod"] == 2


def test_proper_power_abelian_exact():
    v = ProperPowerOracle(2).global_verdict(AbelianElement((2, -4)))
    assert v.status == IN
    assert v.certificate["root_exponents"] == [1, -2]
    w = ProperPowerOracle(2).global_verdict(AbelianElement((1, 0)))
    assert w.status == OUT
    assert w.certificate["coordinate"] == 0
    assert w.certificate["value"] == 1


def test_proper_power_k_validation():
    with pytest.raises(DomainError):
        ProperPowerOracle(1)


def test_proper_power_quotients():
    oracle = ProperPowerOracle(2)
    with pytest.raises(DomainError):
        oracle.quotient_for_prime(3)
    om = ProperPowerOracle(2, generators=sl2_st_generators())
    assert isinstance(om.quotient_for_prime(3), MatrixQuotient)
    oa = ProperPowerOracle(2, generators=z_generators())
    assert isinstance(oa.quotient_for_prime(3), AbelianQuotient)


def test_proper_power_kind_label():
    assert ProperPowerOracle(3).kind == "PROPER_POWER(3)"


def test_proper_power_residual_sets():
    oracle = ProperPowerOracle(2, generators=sl2_st_generators())
    q3 = MatrixQuotient(2, (3,))
    # T = (T^2)^2 mod 3 because T has order 3 there
    assert residual_contains(oracle, q3.reduce(T), q3)
    q2 = MatrixQuotient(2, (2,))
    assert not residual_contains(oracle, q2.reduce(T), q2)
    ab = ProperPowerOracle(2)
    qa3 = AbelianQuotient(2, 3)
    assert residual_contains(ab, (1, 2), qa3)  # gcd(2,3)=1: everything
    qa2 = AbelianQuotient(2, 2)
    assert residual_contains(ab, (0, 0), qa2)
    assert not residual_contains(ab, (1, 0), qa2)


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


def test_entry_polynomial_evaluate():
    poly = EntryPolynomial(2, ((3, (2, 0)), (-1, (0, 1)), (7, (0, 0))))
    assert poly.evaluate((2, 5)) == 3 * 4 - 5 + 7
    assert poly.evaluate((2, 5), modulus=5) == (3 * 4 - 5 + 7) % 5
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
    rep = residual(ReducibleCharpolyOracle(2), MatrixQuotient(2, (3,)))
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


def test_residual_sampling_matches_enumeration():
    oracle = ReducibleCharpolyOracle(2)
    q = MatrixQuotient(2, (5,))
    exact = residual(oracle, q)
    assert exact.density == Fraction(2, 3)
    sampled = residual(oracle, q, mode="sample", samples=4000, seed=1)
    assert sampled.mode == "sample"
    assert sampled.checked == 4000
    assert sampled.halfwidth is not None
    assert abs(sampled.density - 2 / 3) <= sampled.halfwidth + 1e-9


def test_residual_sample_without_hits_has_the_rule_of_three_halfwidth():
    # the constant polynomial 1 never vanishes, so no sample hits
    oracle = SubvarietyOracle([EntryPolynomial(1, ((1, (0,)),))], domain="abelian")
    rep = residual(oracle, AbelianQuotient(1, 5), mode="sample", samples=1000)
    assert (rep.hits, rep.density, rep.halfwidth) == (0, 0.0, 3 / 1000)


def test_residual_mode_validation():
    oracle = ReducibleCharpolyOracle(2)
    q = MatrixQuotient(2, (3,))
    with pytest.raises(DomainError):
        residual(oracle, q, mode="guess")
    with pytest.raises(DomainError):
        residual(oracle, q, mode="sample", samples=0)


def test_residual_report_json():
    rep = residual(ReducibleCharpolyOracle(2), MatrixQuotient(2, (3,)))
    obj = rep.to_json_obj()
    assert obj["quotient"] == "3"
    assert obj["density"] == "3/4"
    assert obj["checked"] == 24


# ----- residual sets decided once per class of chi mod p -----

CHARPOLY_ORACLES = (ReducibleCharpolyOracle, NongenericGaloisOracle, RationalFixedFlagOracle)


def blocks(x, quotient):
    """(block, prime) for each prime of a matrix quotient element x."""
    size = quotient.dimension ** 2
    return [(x[b * size:(b + 1) * size], p) for b, p in enumerate(quotient.moduli)]


def per_element_hits(oracle, quotient, elems):
    """The residual test run on every element on its own: chi of each
    block, then the oracle's test on that block."""
    d = quotient.dimension
    return sum(all(oracle._block_contains(charpoly_coefficients(block, d), p)
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


@pytest.mark.parametrize("cls", [ReducibleCharpolyOracle, RationalFixedFlagOracle],
                         ids=lambda c: c.kind)
def test_residual_past_dimension_three_keys_rows_by_their_coefficients(cls):
    oracle, q = cls(4), MatrixQuotient(4, (2,))
    elems = [sample_element(q, 8, t) for t in range(300)]
    hits = per_element_hits(oracle, q, elems)
    assert 0 < hits < 300
    assert residual(oracle, q, mode="sample", samples=300, seed=8).hits == hits


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


@pytest.mark.parametrize("p", [2, 3])
def test_sl3_galois_residual_is_the_whole_group(p):
    # an irreducible cubic over F_p has a cyclic Galois group, so its
    # discriminant is a square mod p: every element is in the residual set
    assert residual(NongenericGaloisOracle(3), MatrixQuotient(3, (p,))).density == 1


# ----- every oracle kind against a per-element reference -----

def power_set(k, quotient):
    """The k-th powers of the quotient, one element at a time through
    the tuple multiply."""
    powers = set()
    for x in elements(quotient):
        y = quotient.identity()
        for _ in range(k):
            y = quotient.multiply(y, x)
        powers.add(y)
    return powers


def per_element_reference(oracle, quotient):
    """The residual test of one quotient element, written without residual_mask."""
    if isinstance(oracle, TorusSquaresOracle):
        return lambda x: quotient.modulus % 2 == 1 or all(e % 2 == 0 for e in x)
    if isinstance(oracle, ProperPowerOracle):
        return power_set(oracle.k, quotient).__contains__
    if isinstance(oracle, SubvarietyOracle) and isinstance(quotient, AbelianQuotient):
        return lambda x: all(q.evaluate(x, quotient.modulus) == 0 for q in oracle.polys)
    if isinstance(oracle, SubvarietyOracle):
        return lambda x: all(q.evaluate(block, p) == 0 for block, p in blocks(x, quotient)
                             for q in oracle.polys)
    d = quotient.dimension
    return lambda x: all(oracle._block_contains(charpoly_coefficients(block, d), p)
                         for block, p in blocks(x, quotient))


def matrix_oracles(d):
    return [ReducibleCharpolyOracle(d), NongenericGaloisOracle(d), RationalFixedFlagOracle(d),
            ProperPowerOracle(2), ProperPowerOracle(3),
            SubvarietyOracle([trace_polynomial(d, d)])]


ABELIAN_ORACLES = [
    ProperPowerOracle(2), ProperPowerOracle(3), TorusSquaresOracle(2),
    SubvarietyOracle([EntryPolynomial(2, ((1, (2, 0)), (-1, (0, 1))))], domain="abelian"),
]
RESIDUAL_CASES = (
    [(o, MatrixQuotient(2, (13,))) for o in matrix_oracles(2)]
    + [(o, MatrixQuotient(3, (3,))) for o in matrix_oracles(3)]
    + [(o, MatrixQuotient(2, (3, 5))) for o in matrix_oracles(2)]
    + [(o, AbelianQuotient(2, q)) for q in (2, 3, 4) for o in ABELIAN_ORACLES])
# residual hits frozen from the per-element route these masks replaced
FROZEN_RESIDUAL_HITS = {
    ("PROPER_POWER(2)", 2, "13"): 1002, ("PROPER_POWER(2)", 3, "3"): 3276,
    ("SUBVARIETY", 2, "13"): 169, ("SUBVARIETY", 3, "3"): 1863,
}


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
    for oracle in (TorusSquaresOracle(2), ProperPowerOracle(2)):
        assert residual(oracle, q, mode="sample", samples=200, seed=4).hits == want


def test_proper_power_sets_are_kept_per_group_not_per_label():
    # SL_2(F_p) and SL_3(F_p) share the label "p"; E12(2) = E12(1)^2 in both
    oracle = ProperPowerOracle(2, schedule=prime_schedule(2, 2))
    assert oracle.global_verdict(MatrixElement(((1, 2), (0, 1)))).status == UNKNOWN
    e12 = MatrixElement(((1, 2, 0), (0, 1, 0), (0, 0, 1)))
    assert oracle.global_verdict(e12).status == UNKNOWN
    other = ProperPowerOracle(2)
    residual(other, MatrixQuotient(2, (3,)))
    assert residual(other, MatrixQuotient(3, (3,))).hits == 3276


# ----- global/residual compatibility on walk samples -----

def test_residual_compatibility_matrix_oracles():
    # a global IN lands in the residual set of every prime quotient
    sl2 = walk_elements(sl2_st_generators(), 400, seed=21, length=14)
    sl3 = walk_elements(elementary_generators(3), 200, seed=22, length=10)
    oracles2 = (ReducibleCharpolyOracle(2), NongenericGaloisOracle(2),
                RationalFixedFlagOracle(2),
                SubvarietyOracle([trace_polynomial(2, shift=2)]))
    oracles3 = (ReducibleCharpolyOracle(3), NongenericGaloisOracle(3),
                RationalFixedFlagOracle(3))
    for elems, oracles in ((sl2, oracles2), (sl3, oracles3)):
        for oracle in oracles:
            for p in (3, 5, 7):
                q = oracle.quotient_for_prime(p)
                for g in elems:
                    if oracle.global_verdict(g).status == IN:
                        assert residual_contains(oracle, q.reduce(g), q)


def test_residual_compatibility_abelian_oracles():
    torus = TorusSquaresOracle(2)
    power = ProperPowerOracle(3)
    for trial in range(400):
        a, b = prng.draw_indices(77, trial, 2, 41)
        g = AbelianElement((a - 20, b - 20))
        for p in (2, 3, 5):
            q = AbelianQuotient(2, p)
            red = q.reduce(g)
            if torus.global_verdict(g).status == IN:
                assert residual_contains(torus, red, q)
            if power.global_verdict(g).status == IN:
                assert residual_contains(power, red, q)


def test_triple_coincidence_on_walks():
    # in SL_2(Z): reducible charpoly == non-generic Galois == trace +-2,
    # and the rational fixed flag picks out the same set
    red = ReducibleCharpolyOracle(2)
    gal = NongenericGaloisOracle(2)
    flag = RationalFixedFlagOracle(2)
    elems = walk_elements(sl2_st_generators(), 10_000, seed=23, length=14)
    for g in elems:
        flat = g.flat()
        hit = g.trace() in (-2, 2)
        assert red.hit_raw(flat) == hit
        assert gal.hit_raw(flat) == hit
        assert flag.hit_raw(flat) == hit
    for g in elems[:300]:
        hit = g.trace() in (-2, 2)
        assert (red.global_verdict(g).status == IN) == hit
        assert (gal.global_verdict(g).status == IN) == hit
        assert (flag.global_verdict(g).status == IN) == hit


def test_brute_force_galois_agreement():
    # sympy factorization + discriminant against the exact verdicts
    for dim, elems in ((2, walk_elements(sl2_st_generators(), 300, seed=31, length=14)),
                       (3, walk_elements(elementary_generators(3), 300, seed=32, length=10))):
        red = ReducibleCharpolyOracle(dim)
        gal = NongenericGaloisOracle(dim)
        for g in elems:
            coeffs = charpoly_coefficients(g.flat(), dim)
            rv = red.global_verdict(g)
            gv = gal.global_verdict(g)
            assert rv.status in (IN, OUT)
            assert gv.status in (IN, OUT)
            assert (rv.status == IN) == brute_reducible(coeffs)
            assert (gv.status == IN) == brute_nongeneric(coeffs)


def test_quartic_galois_brute_agreement():
    # degree 4: OUT must mean full S4, IN must mean reducible
    seen = {IN: 0, OUT: 0, UNKNOWN: 0}
    for g in walk_elements(elementary_generators(4), 60, seed=33, length=8):
        v = NongenericGaloisOracle(g.dimension).global_verdict(g)
        seen[v.status] += 1
        coeffs = charpoly_coefficients(g.flat(), 4)
        if v.status == OUT:
            grp, _ = to_poly(coeffs).galois_group()
            assert grp.order() == 24
        elif v.status == IN:
            assert brute_reducible(coeffs)
    assert seen[IN] > 0 and seen[OUT] > 0


# ----- hit_raw consistency and metadata -----

def test_hit_raw_matches_global_verdict():
    red = ReducibleCharpolyOracle(3)
    gal = NongenericGaloisOracle(3)
    flag = RationalFixedFlagOracle(3)
    for g in walk_elements(elementary_generators(3), 150, seed=41, length=10):
        flat = g.flat()
        assert red.hit_raw(flat) == (red.global_verdict(g).status == IN)
        assert flag.hit_raw(flat) == (flag.global_verdict(g).status == IN)
        assert gal.hit_raw(flat) == (gal.global_verdict(g).status == IN)
    # past dimension 3 hit_raw takes the coefficient route of global_verdict
    red, flag = ReducibleCharpolyOracle(4), RationalFixedFlagOracle(4)
    seen = set()
    for g in walk_elements(elementary_generators(4), 60, seed=42, length=8):
        flat = list(g.flat())
        for oracle in (red, flag):
            status = oracle.global_verdict(g).status
            seen.add(status)
            assert oracle.hit_raw(flat) == (status == IN)
    assert seen == {IN, OUT}


@pytest.mark.parametrize("oracle", [
    ReducibleCharpolyOracle(2),
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
    assert ReducibleCharpolyOracle(2).kind == "REDUCIBLE_CHARPOLY"
    assert NongenericGaloisOracle(2).kind == "NONGENERIC_GALOIS"
    assert RationalFixedFlagOracle(2).kind == "RATIONAL_FIXED_FLAG"
    assert SubvarietyOracle([EntryPolynomial(4, ())]).kind == "SUBVARIETY"
    assert TorusSquaresOracle(2).kind == "TORUS_SQUARES"


def test_oracle_json_objects():
    objs = [
        ReducibleCharpolyOracle(2).to_json_obj(),
        NongenericGaloisOracle(3).to_json_obj(),
        RationalFixedFlagOracle(2).to_json_obj(),
        ProperPowerOracle(2, generators=sl2_st_generators()).to_json_obj(),
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


def test_proper_power_default_schedule():
    oracle = ProperPowerOracle(2)
    assert oracle.schedule == prime_schedule(3, 2) == (2, 3, 5)
