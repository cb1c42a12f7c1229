import os
import subprocess
import sys
import tracemalloc
from collections import deque
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import sievelab
from sievelab import prng, quotients
from sievelab.errors import (
    BudgetExceeded,
    CompositeModulus,
    DomainError,
    EnumerationIncomplete,
    EnumerationUnavailable,
)
from sievelab.matgroup import (
    AbelianElement,
    GeneratorMultiset,
    MatrixElement,
    elementary_generators,
    sl2_st_generators,
    torus_generators,
    validate_generators,
    z_generators,
)
from sievelab.quotients import (
    AbelianQuotient,
    MatrixQuotient,
    bfs_closure,
    group_order,
    is_prime,
    prime_schedule,
    quotient_for,
    walk_permutations,
)


def det_laplace(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * det_laplace(minor)
        total += term if j % 2 == 0 else -term
    return total


def count_sl_bruteforce(dim, p):
    count = 0
    for entries in product(range(p), repeat=dim * dim):
        rows = [list(entries[i * dim:(i + 1) * dim]) for i in range(dim)]
        if det_laplace(rows) % p == 1:
            count += 1
    return count


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(2, 32):
        assert is_prime(n) == (n in primes)
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(561)  # Carmichael number
    assert not is_prime(341550071728321)  # strong pseudoprime to early bases
    assert is_prime(2 ** 61 - 1)


def test_group_order_formula_vs_bruteforce():
    assert group_order(2, 3) == count_sl_bruteforce(2, 3) == 24
    assert group_order(2, 5) == count_sl_bruteforce(2, 5) == 120
    assert group_order(3, 2) == count_sl_bruteforce(3, 2) == 168


def test_group_order_known_values():
    assert group_order(2, 7) == 336
    assert group_order(2, 11) == 1320
    assert group_order(2, 13) == 2184
    assert group_order(2, 17) == 4896
    assert group_order(3, 3) == 5616


def test_group_order_composite_rejected():
    try:
        group_order(2, 9)
        assert False
    except CompositeModulus:
        pass


def test_prime_schedule():
    assert prime_schedule(4, 3) == (3, 5, 7, 11)
    assert prime_schedule(3, 10) == (11, 13, 17)


def test_matrix_quotient_basics():
    q = MatrixQuotient(2, (3,))
    assert q.label == "3"
    assert q.order() == 24
    g = MatrixElement(((1, 1), (0, 1)))
    r = q.reduce(g)
    assert r == (1, 1, 0, 1)
    assert q.multiply(r, q.identity()) == r


def test_reduce_is_homomorphism():
    q = MatrixQuotient(2, (7,))
    table = sl2_st_generators().draw_table()
    for trial in range(30):
        idx = prng.draw_indices(21, trial, 8, len(table))
        a = MatrixElement.identity(2)
        for i in idx[:4]:
            a = a * table[i]
        b = MatrixElement.identity(2)
        for i in idx[4:]:
            b = b * table[i]
        assert q.reduce(a * b) == q.multiply(q.reduce(a), q.reduce(b))


def test_pair_quotient():
    q = MatrixQuotient(2, (3, 5))
    assert q.label == "3x5"
    assert q.order() == 24 * 120
    g = MatrixElement(((1, 4), (0, 1)))
    r = q.reduce(g)
    assert r == (1, 1, 0, 1, 1, 4, 0, 1)


def test_enumerate_elements_counts():
    q3 = MatrixQuotient(2, (3,))
    els = q3.enumerate_elements()
    assert len(els) == 24
    assert len(np.unique(els, axis=0)) == 24
    q5 = MatrixQuotient(2, (5,))
    assert len(q5.enumerate_elements()) == 120
    pair = MatrixQuotient(2, (3, 5))
    assert len(pair.enumerate_elements()) == 2880


def test_enumerate_sl3():
    q = MatrixQuotient(3, (3,))
    els = q.enumerate_elements()
    assert len(els) == 5616


def test_enumeration_budget(monkeypatch):
    q = MatrixQuotient(2, (101,))
    monkeypatch.setattr(quotients, "ENUM_BUDGET", 1000)
    try:
        q.enumerate_elements()
        assert False
    except EnumerationUnavailable:
        pass


def test_abelian_quotient():
    q = AbelianQuotient(2, 5)
    a = AbelianElement((7, -3))
    assert q.reduce(a) == (2, 2)
    assert q.multiply((2, 2), (4, 4)) == (1, 1)
    assert q.order() == 25
    assert len(q.enumerate_elements()) == 25
    assert q.identity() == (0, 0)


def test_bfs_closure_surjective_sl2():
    A = sl2_st_generators()
    rep = bfs_closure(A, MatrixQuotient(2, (3,)))
    assert rep.size == 24
    assert rep.order == 24
    assert rep.surjective
    rep2 = bfs_closure(A, MatrixQuotient(2, (3, 5)))
    assert rep2.size == 2880
    assert rep2.surjective


def test_bfs_closure_sl3():
    A = elementary_generators(3)
    rep = bfs_closure(A, MatrixQuotient(3, (3,)))
    assert rep.size == 5616
    assert rep.surjective


def test_bfs_closure_proper_subgroup():
    # the cyclic subgroup generated by T mod 5 has order 5, not 120
    I = MatrixElement.identity(2)
    T = MatrixElement(((1, 1), (0, 1)))
    from sievelab.matgroup import validate_generators
    A = validate_generators([I, T, T.inverse()])
    rep = bfs_closure(A, MatrixQuotient(2, (5,)))
    assert rep.size == 5
    assert not rep.surjective


def test_bfs_closure_abelian():
    rep = bfs_closure(z_generators(), AbelianQuotient(1, 7))
    assert rep.size == 7
    assert rep.surjective


def test_bfs_closure_budget(monkeypatch):
    A = sl2_st_generators()
    monkeypatch.setattr(quotients, "ENUM_BUDGET", 10)
    try:
        bfs_closure(A, MatrixQuotient(2, (11,)))
        assert False
    except BudgetExceeded:
        pass


def test_no_excluded_primes_for_builtins():
    def excluded(A, primes):
        return [p for p in primes if not bfs_closure(A, quotient_for(A, (p,))).surjective]

    primes = [p for p in range(2, 20) if is_prime(p)]
    assert excluded(sl2_st_generators(), primes) == []
    # SL_3 quotients blow up fast; 2 and 3 are the interesting small cases
    assert excluded(elementary_generators(3), [2, 3]) == []
    # abelian images: the lazy steps generate every (Z/p)^rank
    assert excluded(torus_generators(), [2, 3, 5]) == []


def test_quotient_for_reads_the_group_off_the_generators():
    assert quotient_for(sl2_st_generators(), (3, 5)) == MatrixQuotient(2, (3, 5))
    assert quotient_for(elementary_generators(3), [5]) == MatrixQuotient(3, (5,))
    assert quotient_for(z_generators(), (7,)) == AbelianQuotient(1, 7)
    assert quotient_for(torus_generators(), (7,)) == AbelianQuotient(2, 7)
    with pytest.raises(DomainError):
        quotient_for(torus_generators(), (3, 5))


def closure_by_multiply(quotient, gens):
    """Sorted closure of the identity under right multiplication by gens,
    one element at a time through quotient.multiply."""
    seen = {quotient.identity()}
    queue = deque(seen)
    while queue:
        x = queue.popleft()
        for g in gens:
            y = quotient.multiply(x, g)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return sorted(seen)


@pytest.mark.parametrize("dim,moduli", [(2, (5,)), (2, (13,)), (3, (2,)), (3, (3,)),
                                        (2, (3, 5)), (2, (3, 7))])
def test_code_enumeration_equals_bfs_by_multiply(dim, moduli):
    q = MatrixQuotient(dim, moduli)
    gens = [q.reduce(g) for g in elementary_generators(dim).support]
    want = closure_by_multiply(q, gens)
    els = q.enumerate_elements()
    assert els.tolist() == [list(x) for x in want]
    codes = q.element_codes()
    assert codes.dtype == np.int64 and np.all(codes[1:] > codes[:-1])
    assert np.array_equal(q.decode(codes), els)
    assert np.array_equal(q.encode(want), codes)


def test_element_codes_are_closed_once_and_read_only(monkeypatch):
    calls = []
    closure = quotients._closure_codes
    monkeypatch.setattr(quotients, "_closure_codes", lambda *a: calls.append(a) or closure(*a))
    q = MatrixQuotient(2, (7,))
    q.enumerate_elements()
    walk_permutations(sl2_st_generators(), q)
    assert len(calls) == 1
    codes = q.element_codes()
    with pytest.raises(ValueError):
        codes[0] = 0
    # the budget is still checked on every call
    monkeypatch.setattr(quotients, "ENUM_BUDGET", 335)
    with pytest.raises(EnumerationUnavailable):
        q.element_codes()


def test_abelian_codes_follow_element_order():
    q = AbelianQuotient(3, 4)
    els = q.enumerate_elements()
    want = sorted(product(range(4), repeat=3))
    assert els.tolist() == [list(x) for x in want]
    assert np.array_equal(q.encode(want), np.arange(64))


def _upper_unipotent_only(n):
    T = MatrixElement(((1, 1), (0, 1)))
    return validate_generators([MatrixElement.identity(2), T, T.inverse()])


def test_enumeration_check_raises_typed_error(monkeypatch):
    monkeypatch.setattr(quotients, "elementary_generators", _upper_unipotent_only)
    with pytest.raises(EnumerationIncomplete):
        MatrixQuotient(2, (5,)).enumerate_elements()


def test_enumeration_check_survives_optimized_mode():
    script = (
        "from sievelab import quotients\n"
        "from sievelab.errors import EnumerationIncomplete\n"
        "from sievelab.matgroup import MatrixElement, validate_generators\n"
        "T = MatrixElement(((1, 1), (0, 1)))\n"
        "quotients.elementary_generators = lambda n: validate_generators(\n"
        "    [MatrixElement.identity(2), T, T.inverse()])\n"
        "try:\n"
        "    quotients.MatrixQuotient(2, (5,)).enumerate_elements()\n"
        "except EnumerationIncomplete:\n"
        "    print('typed', __debug__)\n"
    )
    src = str(Path(sievelab.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["typed", "False"]


def test_bfs_closure_budget_boundary(monkeypatch):
    A = sl2_st_generators()
    monkeypatch.setattr(quotients, "ENUM_BUDGET", 120)
    assert bfs_closure(A, MatrixQuotient(2, (5,))).size == 120
    monkeypatch.setattr(quotients, "ENUM_BUDGET", 119)
    with pytest.raises(BudgetExceeded):
        bfs_closure(A, MatrixQuotient(2, (5,)))
    monkeypatch.setattr(quotients, "ENUM_BUDGET", 7)
    assert bfs_closure(z_generators(), AbelianQuotient(1, 7)).size == 7
    monkeypatch.setattr(quotients, "ENUM_BUDGET", 6)
    with pytest.raises(BudgetExceeded):
        bfs_closure(z_generators(), AbelianQuotient(1, 7))


def test_closure_exact_past_int64_codes():
    # p^4 >= 2^63 for p > 55108: codes are Python ints there
    I = MatrixElement.identity(2)
    minus = MatrixElement(((-1, 0), (0, -1)))
    S = MatrixElement(((0, 1), (-1, 0)))
    p = 55109
    assert is_prime(p) and p ** 4 > 2 ** 63
    assert bfs_closure(validate_generators([I, minus]), MatrixQuotient(2, (p,))).size == 2
    four = validate_generators([I, S, S.inverse()])
    assert bfs_closure(four, MatrixQuotient(2, (p,))).size == 4
    assert bfs_closure(four, MatrixQuotient(2, (3, p))).size == 4
    big = 2 ** 61 - 1
    assert bfs_closure(four, MatrixQuotient(2, (big,))).size == 4
    q = MatrixQuotient(2, (p,))
    x = q.reduce(MatrixElement(((2, 3), (1, 2))))
    codes = q.encode([x])
    assert codes.dtype == object and q.dtype == object
    assert tuple(q.decode(codes)[0].tolist()) == x


def _closure(A, q):
    gens = dict.fromkeys(q.reduce(h) for g in A.support for h in (g, g.inverse()))
    return quotients._closure_codes(q, list(gens), quotients.ENUM_BUDGET)


def test_closure_slices_leave_closures_unchanged(monkeypatch):
    cases = [(sl2_st_generators(), MatrixQuotient(2, (3, 5))),
             (elementary_generators(3), MatrixQuotient(3, (3,))),
             (z_generators(), AbelianQuotient(1, 7))]
    whole = [_closure(A, q) for A, q in cases]
    # 1 to 6 rows per batch: 13, 5 and 3 generators
    monkeypatch.setattr(quotients, "_SLICE_ROWS", 20)
    for (A, q), want in zip(cases, whole):
        assert np.array_equal(_closure(A, q), want)
    assert [w.size for w in whole] == [2880, 5616, 7]


def test_closure_memory_stays_bounded_past_the_budget(monkeypatch):
    # multiplying a whole level of SL_3(F_3) x SL_3(F_5) by its 13
    # generators at once peaked at about 1.2 KiB per budget element
    monkeypatch.setattr(quotients, "ENUM_BUDGET", 400_000)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            bfs_closure(elementary_generators(3), MatrixQuotient(3, (3, 5)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 150 * 2 ** 20


def test_closure_long_diameter_and_unsymmetric_generators(monkeypatch):
    # <T> mod p is the unipotent group of order p; its Cayley graph is a
    # p-cycle, so the level-by-level BFS runs (p + 1) / 2 levels
    I = MatrixElement.identity(2)
    T = MatrixElement(((1, 1), (0, 1)))
    p = 101
    sym = validate_generators([I, T, T.inverse()])
    assert bfs_closure(sym, MatrixQuotient(2, (p,))).size == p
    assert bfs_closure(z_generators(), AbelianQuotient(1, 10007)).size == 10007
    # without its inverses, T still generates <T> in a finite quotient
    one_way = GeneratorMultiset(((I, 1), (T, 1)))
    monkeypatch.setattr(quotients, "ENUM_BUDGET", p)
    assert bfs_closure(one_way, MatrixQuotient(2, (p,))).size == p
    monkeypatch.setattr(quotients, "ENUM_BUDGET", 3 * p)
    assert bfs_closure(one_way, MatrixQuotient(2, (3, p))).size == 3 * p
