import math

import numpy as np
import pytest
from sympy import Matrix

from helpers import brute_charpoly, from_json_entries
from sievelab import prng
from sievelab.errors import (
    DimensionMismatch,
    DomainError,
    MissingIdentity,
    NotSymmetric,
)
from sievelab.matgroup import (
    AbelianElement,
    MatrixElement,
    compose,
    det,
    echelon,
    elementary_generators,
    kernel_vector,
    sl2_st_generators,
    torus_generators,
    validate_generators,
    z_generators,
)

S = MatrixElement(((0, 1), (-1, 0)))
T = MatrixElement(((1, 1), (0, 1)))


def random_sl2_word(seed, trial, length=12):
    table = sl2_st_generators().draw_table()
    g = MatrixElement.identity(2)
    for idx in prng.draw_indices(seed, trial, length, len(table)):
        g = g * table[idx]
    return g


def test_det_one_enforced():
    MatrixElement(((1, 0), (0, 1)))
    MatrixElement(((2, 1), (1, 1)))
    try:
        MatrixElement(((2, 0), (0, 1)))
        assert False
    except DomainError:
        pass
    try:
        MatrixElement(((1, 0, 0), (0, 1, 0)))
        assert False
    except DimensionMismatch:
        pass


def test_products_and_inverses_keep_det_one_without_the_check():
    # compose and inverse skip the det = 1 elimination, since det(ab) =
    # det(a) det(b); sympy confirms it on words of every built-in family
    for gens in (sl2_st_generators(), elementary_generators(3), elementary_generators(4)):
        table = gens.draw_table()
        for trial in range(4):
            g = MatrixElement.identity(gens.support[0].dimension)
            for idx in prng.draw_indices(13, trial, 24, len(table)):
                g = g * table[idx]
                assert Matrix(g.entries).det() == 1
            assert Matrix(g.inverse().entries).det() == 1
            assert g.is_identity() == (g == MatrixElement.identity(g.dimension))
    # the constructor called from outside still checks the determinant
    with pytest.raises(DomainError):
        MatrixElement(((2, 0), (0, 1)))
    with pytest.raises(DomainError):
        MatrixElement(((2, 1, 0), (1, 1, 0), (0, 0, 2)))
    with pytest.raises(DimensionMismatch):
        compose(MatrixElement.identity(2), MatrixElement.identity(3))


def test_group_axioms_spotcheck():
    g = MatrixElement(((2, 1), (1, 1)))
    h = S
    k = T
    assert (g * h) * k == g * (h * k)
    assert g * MatrixElement.identity(2) == g
    assert g * g.inverse() == MatrixElement.identity(2)
    assert g.inverse() * g == MatrixElement.identity(2)


def test_inverse_random_words():
    for trial in range(25):
        g = random_sl2_word(7, trial)
        assert g * g.inverse() == MatrixElement.identity(2)


def test_sl3_inverse():
    gens = elementary_generators(3)
    table = gens.draw_table()
    g = MatrixElement.identity(3)
    for idx in prng.draw_indices(5, 0, 15, len(table)):
        g = g * table[idx]
    assert g * g.inverse() == MatrixElement.identity(3)
    assert g.inverse() * g == MatrixElement.identity(3)


def test_char_poly_conjugation_invariant():
    # sympy's chi of g and of h g h^-1, the latter from the exact product
    # and inverse
    for trial in range(20):
        g = random_sl2_word(11, trial)
        h = random_sl2_word(13, trial, length=8)
        assert brute_charpoly(h * g * h.inverse()) == brute_charpoly(g)


def test_abelian_elements():
    a = AbelianElement((2, -1))
    b = AbelianElement((1, 1))
    assert (a * b).exponents == (3, 0)
    assert a.inverse().exponents == (-2, 1)
    assert AbelianElement.identity(2).is_identity()
    assert compose(a, b) == a * b


def test_serialization_round_trip():
    g = random_sl2_word(17, 0)
    assert from_json_entries(g.to_json_obj()) == g
    a = AbelianElement((5, -7))
    assert AbelianElement(tuple(int(x) for x in a.to_json_obj())) == a


def test_validate_generators_errors():
    I = MatrixElement.identity(2)
    try:
        validate_generators([S, S.inverse()])
        assert False
    except MissingIdentity:
        pass
    try:
        validate_generators([I, T])  # T without T^-1
        assert False
    except NotSymmetric:
        pass
    try:
        validate_generators([I, T, T, T.inverse()])  # multiplicity mismatch
        assert False
    except NotSymmetric:
        pass
    try:
        validate_generators([])
        assert False
    except DomainError:
        pass


def test_validate_generators_multiplicity():
    I = MatrixElement.identity(2)
    A = validate_generators([I, I, T, T.inverse()])
    assert A.size == 4
    assert len(A.support) == 3
    assert len(A.draw_table()) == 4


def test_builtin_families():
    st = sl2_st_generators()
    assert st.size == 5
    assert st.tag == "sl2_st"
    assert st.draw_table()[0].is_identity()
    el = elementary_generators(3)
    assert el.size == 13  # identity + 6 positions * 2 signs
    assert el.tag == "sl3_elementary"
    z = z_generators()
    assert z.size == 3 and z.tag == "z_steps"
    t23 = torus_generators()
    assert t23.size == 5 and t23.tag == "torus_steps"
    assert t23.identity_element() == AbelianElement((0, 0))


def test_identity_self_inverse_allows_order_two_elements():
    # -I is its own inverse; symmetry check must accept it once
    negI = MatrixElement(((-1, 0), (0, -1)))
    A = validate_generators([MatrixElement.identity(2), negI])
    assert A.size == 2


def adjugate(rows):
    n = len(rows)

    def det(m):
        if len(m) == 1:
            return m[0][0]
        return sum((-1) ** j * m[0][j] * det([r[:j] + r[j + 1:] for r in m[1:]])
                   for j in range(len(m)))

    return tuple(
        tuple((-1) ** (i + j) * det([list(r[:i] + r[i + 1:])
                                     for k, r in enumerate(rows) if k != j])
              for j in range(n))
        for i in range(n))


def random_word(dim, seed, trial, length):
    table = elementary_generators(dim).draw_table()
    g = MatrixElement.identity(dim)
    for idx in prng.draw_indices(seed, trial, length, len(table)):
        g = g * table[idx]
    return g


def test_inverse_by_elimination_on_random_words():
    for dim in range(2, 9):
        for trial in range(6):
            g = random_word(dim, 31, trial, 10 + 6 * trial)
            assert g.inverse() * g == MatrixElement.identity(dim)
            assert g * g.inverse() == MatrixElement.identity(dim)
            if dim <= 4:
                assert g.inverse().entries == adjugate(g.entries)


def test_inverse_needs_row_swaps():
    # zero pivots in the first and second columns force row exchanges
    g = MatrixElement(((0, 1, 0), (0, 0, 1), (1, 0, 0)))
    assert g.inverse().entries == adjugate(g.entries) == ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    assert (S.inverse() * S).is_identity()


# ----- the fraction-free elimination against sympy -----

def random_integer_matrices(count, seed):
    """Integer matrices of 1-5 rows and 1-6 columns; every third one is
    square and a product through an inner dimension of at most its size,
    so often singular."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        if i % 3 == 0:
            cols = rows
            inner = int(rng.integers(1, rows + 1))
            a = rng.integers(-4, 5, (rows, inner)) @ rng.integers(-4, 5, (inner, cols))
        else:
            a = rng.integers(-9, 10, (rows, cols))
        yield [[int(x) for x in row] for row in a]


def primitive(v):
    """The integer multiple of a rational vector that is primitive with its
    first nonzero entry positive."""
    den = math.lcm(*(x.q for x in v))
    ints = [int(x * den) for x in v]
    g = math.gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


def test_echelon_matches_sympy_rref_and_det():
    kernels = 0
    for a in random_integer_matrices(1500, 2024):
        m, pivots, _ = echelon(a)
        rref, sympy_pivots = Matrix(a).rref()
        assert pivots == list(sympy_pivots)
        rank = len(pivots)
        for k, row in enumerate(m):
            lead = pivots[k] if k < rank else len(row)
            assert all(x == 0 for x in row[:lead]) and (k >= rank or row[lead] != 0)
        if rank:
            assert Matrix(m[:rank]).rref()[0] == rref[:rank, :]
        if len(a) == len(a[0]):
            assert det(a) == Matrix(a).det()
        if len(a) == len(a[0]) and rank < len(a):
            # sympy's first null vector has 1 at the first free column
            assert kernel_vector(sum(a, []), len(a), 0) == primitive(Matrix(a).nullspace()[0])
            kernels += 1
    assert kernels > 250


@pytest.mark.parametrize("dim", [2, 3])
def test_kernel_vector_of_plus_and_minus_identity(dim):
    # g -+ I is zero, so the first column is free; -I is outside SL_3
    # but kernel_vector takes any integer matrix
    I = MatrixElement.identity(dim).flat()
    negI = tuple(-x for x in I)
    e1 = (1,) + (0,) * (dim - 1)
    assert kernel_vector(I, dim, 1) == e1
    assert kernel_vector(negI, dim, -1) == e1
    for flat, lam in ((I, -1), (negI, 1)):
        with pytest.raises(DomainError, match="not an eigenvalue"):
            kernel_vector(flat, dim, lam)


def test_kernel_vector_with_a_two_dimensional_kernel():
    # E_21(1) - I has one nonzero row, found after a row swap; the kernel
    # is spanned by e2 and e3, and the first free column is the second
    g = MatrixElement(((1, 0, 0), (1, 1, 0), (0, 0, 1)))
    assert len((Matrix(3, 3, g.flat()) - Matrix.eye(3)).nullspace()) == 2
    assert kernel_vector(g.flat(), 3, 1) == (0, 1, 0)
