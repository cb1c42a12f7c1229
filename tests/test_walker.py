from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import dict_laws, exact_law, line_scan_laws
from sievelab import lab, prng, walker
from sievelab.errors import (
    BudgetExceeded,
    DomainError,
    ResourceError,
    UndecidedMembership,
    UnknownRateExceeded,
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
from sievelab.quotients import AbelianQuotient, walk_permutations
from sievelab.thinsets import (
    NongenericGaloisOracle,
    SubvarietyOracle,
    TorusSquaresOracle,
    coordinate_polynomial,
)
from sievelab.walker import (
    MCEstimate,
    WalkConfig,
    exact_laws,
    exact_origin_scan_z,
    hit_probabilities_exact,
    mc_sweep,
    run_walk,
)


class TraceOracle:
    """IN iff trace is +-2; total, so exact comparisons are possible."""

    def global_verdict(self, g):
        class V:
            pass
        v = V()
        v.status = "IN" if g.entries[0][0] + g.entries[1][1] in (-2, 2) else "OUT"
        v.reason = ""
        return v

    def hit_raw(self, flat):
        t = flat[0] + flat[3]
        return t == 2 or t == -2


class OriginOracle:
    def global_verdict(self, g):
        class V:
            pass
        v = V()
        v.status = "IN" if all(e == 0 for e in g.exponents) else "OUT"
        return v

    def hit_raw(self, state):
        return all(e == 0 for e in state)


def trinomial_origin(n):
    """Independent closed form: P(omega_n = 0) on Z with steps {0,+1,-1}."""
    return Fraction(sum(comb(n, k) * comb(n - k, k) for k in range(n // 2 + 1)), 3 ** n)


def test_run_walk_shape_and_determinism():
    cfg = WalkConfig(generators=sl2_st_generators(), n=10, m=3, seed=42)
    t0 = run_walk(cfg, 0)
    assert len(t0) == 11
    assert t0[0].is_identity()
    assert run_walk(cfg, 0) == t0
    assert run_walk(cfg, 1) != t0  # astronomically unlikely to coincide


def test_run_walk_trial_bounds():
    cfg = WalkConfig(generators=z_generators(), n=5, m=2, seed=0)
    run_walk(cfg, 0)
    run_walk(cfg, 1)
    for bad in (2, -1):
        with pytest.raises(DomainError):
            run_walk(cfg, bad)


def test_walk_config_validation():
    try:
        WalkConfig(generators=z_generators(), n=-1)
        assert False
    except DomainError:
        pass
    try:
        WalkConfig(generators=z_generators(), n=1, m=0)
        assert False
    except DomainError:
        pass


def test_exact_distribution_sums_to_one():
    for A, nmax in ((z_generators(), 12), (sl2_st_generators(), 5)):
        for n in range(nmax + 1):
            assert sum(exact_law(A, n).values()) == 1


def test_exact_nine_paths():
    # Z walk, n=2: 9 equally likely paths, 3 end at the origin
    d = exact_law(z_generators(), 2)
    assert d[(0,)] == Fraction(1, 3)
    assert d[(2,)] == Fraction(1, 9)
    assert d.get((5,), 0) == 0


def test_exact_symmetry_z():
    d = exact_law(z_generators(), 9)
    for k in range(10):
        assert d[(k,)] == d[(-k,)]


def test_exact_origin_scan_matches_trinomial_and_convolution():
    grid = [0, 1, 2, 3, 5, 8, 13, 21]
    scan = exact_origin_scan_z(grid)
    for n in grid:
        assert scan[n] == trinomial_origin(n)
        assert scan[n] == exact_law(z_generators(), n)[(0,)]


def test_line_law_equals_line_scan():
    # every row and count of the coefficient recurrence against the scan,
    # at every n <= 64 and on the doubling grid 16..1024
    for grid in (range(65), [16 << k for k in range(7)]):
        got, want = list(walker._z_line_laws(grid)), list(line_scan_laws(grid))
        assert [n for n, *_ in got] == [n for n, *_ in want] == list(grid)
        for (n, rows, counts), (_, ref_rows, ref_counts) in zip(got, want):
            assert rows.tolist() == ref_rows.tolist(), n
            assert counts.tolist() == ref_counts.tolist(), n
            assert all(type(c) is int for c in counts.tolist())


def test_exact_laws_refuse_negative_n():
    from sievelab import cli

    assert cli.main(["walk", "--scenario", "z_origin", "--n", "-1", "--exact"]) == 2
    for name in ("z_origin", "torus_squares", "sl2_trace"):
        with pytest.raises(DomainError):
            lab.exact_probability(lab.get_scenario(name), -1)
    with pytest.raises(DomainError):
        exact_origin_scan_z([-1, 3])


def test_exact_budget(monkeypatch):
    monkeypatch.setattr(walker, "EXACT_BUDGET", 100)
    try:
        exact_law(sl2_st_generators(), 12)
        assert False
    except BudgetExceeded:
        pass


# ----- the rows law against a dict convolution -----

def assert_law_equals_dict_reference(A, nmax, grid=None):
    """exact_laws gives the reference's states, counts and order of first
    reach, at every n of the grid (default 0..nmax)."""
    reference = list(dict_laws(A, nmax))
    grid = range(nmax + 1) if grid is None else grid
    seen = []
    for n, rows, counts in exact_laws(A, grid):
        want = reference[n]
        assert len(rows) == len(counts) == len(want), n
        assert rows.tolist() == [list(e.flat()) for e, _ in want], n
        assert counts.tolist() == [c for _, c in want], n
        assert all(type(x) is int for x in rows.ravel().tolist() + counts.tolist())
        seen.append(n)
    assert seen == sorted(set(grid))


@pytest.mark.parametrize("name", lab.list_scenarios())
def test_rows_law_equals_dict_convolution_on_every_scenario(name):
    scenario = lab.get_scenario(name)
    nmax = 4 if name == "sl3_galois" else 6
    assert_law_equals_dict_reference(scenario.generators, nmax)
    # every scenario's exact probability: the oracle's global verdict on
    # the reference law, for the torus too, whose exact law is its parity law
    laws = dict_laws(scenario.generators, nmax)
    got = hit_probabilities_exact(scenario.generators, range(nmax + 1), scenario.oracle)
    for n, law in enumerate(laws):
        hits = sum(c for e, c in law if scenario.oracle.global_verdict(e).status == "IN")
        assert got[n] == Fraction(hits, scenario.generators.size ** n), n


@pytest.mark.parametrize("name", lab.list_scenarios())
def test_grid_pass_equals_per_n_calls(name):
    scenario = lab.get_scenario(name)
    A, oracle = scenario.generators, scenario.oracle
    grid = (5, 1, 3, 3, 2) if name == "sl3_galois" else (7, 1, 4, 2, 12, 4)
    got = hit_probabilities_exact(A, grid, oracle)
    assert list(got) == sorted(set(grid))
    assert got == {n: lab.exact_probability(scenario, n) for n in grid}
    table = lab.run_experiment(scenario, grid, m=1, seed=0, mode="exact")
    assert [(r.n, r.estimate) for r in table.rows] == [(n, float(p)) for n, p in got.items()]
    assert hit_probabilities_exact(A, [], oracle) == {}


def test_torus_squares_take_the_parity_law(monkeypatch):
    # the rows of the torus walk pass 200 states within ten steps; its
    # parity law has four, at any n
    monkeypatch.setattr(walker, "EXACT_BUDGET", 200)
    got = hit_probabilities_exact(torus_generators(), [64, 2048], TorusSquaresOracle(2))
    assert got == {n: (1 + 2 * Fraction(1, 5) ** n + Fraction(-3, 5) ** n) / 4
                   for n in (64, 2048)}
    # a torus oracle on matrix generators, or on exponent vectors of
    # another rank, is a configuration error
    for A, rank in ((sl2_st_generators(), 2), (torus_generators(), 3), (z_generators(), 2)):
        with pytest.raises(DomainError):
            hit_probabilities_exact(A, [3], TorusSquaresOracle(rank))


def test_torus_squares_parity_law_at_large_n():
    n = 10 ** 5
    assert hit_probabilities_exact(torus_generators(), [n], TorusSquaresOracle(2)) == {
        n: (1 + 2 * Fraction(1, 5) ** n + Fraction(-3, 5) ** n) / 4}


def sl2_with_translation(k):
    """{I, S, S^-1, T_k, T_k^-1}, T_k = [[1, k], [0, 1]]."""
    S = MatrixElement(((0, 1), (-1, 0)))
    T = MatrixElement(((1, k), (0, 1)))
    return validate_generators([MatrixElement.identity(2), S, S.inverse(), T, T.inverse()])


@pytest.mark.parametrize("k", [1 << 30, (1 << 61) - 1, 1 << 61, 1 << 70])
def test_rows_law_exact_past_int64_entries(k):
    # entries pass 2^62 within a few steps (at once for 2^70): the rows
    # continue as Python ints, and equal the dict convolution
    A = sl2_with_translation(k)
    assert_law_equals_dict_reference(A, 5)
    *_, (n, rows, counts) = exact_laws(A, [5])
    assert max(abs(x) for x in rows.ravel().tolist()) > 1 << 62 or k == 1 << 30
    big = validate_generators([AbelianElement((x,)) for x in (0, 1 << 62, -(1 << 62), 3, -3)])
    assert_law_equals_dict_reference(big, 5)


def test_rows_law_counts_exact_past_int64():
    # |A|^n passes 2^63 at n = 2: the counts continue as Python ints
    lazy = GeneratorMultiset(((AbelianElement((0,)), 1 << 40), (AbelianElement((1,)), 3),
                              (AbelianElement((-1,)), 3)))
    assert_law_equals_dict_reference(lazy, 4)
    _, _, counts = next(exact_laws(lazy, [4]))
    assert counts.dtype == object and int(counts.sum()) == lazy.size ** 4
    law = list(dict_laws(lazy, 4))[4]
    # the squares take the parity law, the origin the rows: both with
    # Python-int counts
    assert hit_probabilities_exact(lazy, [4], TorusSquaresOracle(1)) == {4: Fraction(
        sum(c for e, c in law if e.exponents[0] % 2 == 0), lazy.size ** 4)}
    origin = SubvarietyOracle([coordinate_polynomial(1, 0)], domain="abelian")
    assert hit_probabilities_exact(lazy, [4], origin) == {4: Fraction(
        sum(c for e, c in law if e.exponents[0] == 0), lazy.size ** 4)}


def test_row_keys_are_exact_where_mixed_radix_would_wrap():
    # columns whose ranges multiply past 2^63 are ranked first, and
    # Python-int columns beyond int64 too: equal keys exactly on equal rows
    rng = np.random.default_rng(5)
    small = rng.integers(-3, 3, size=(400, 3))
    wide = small * np.array([1 << 40, 1 << 41, 1 << 60]) + rng.integers(0, 2, size=(400, 3))
    huge = wide.astype(object) * (1 << 30)
    for rows in (small, wide, huge):
        keys = walker._row_keys(list(rows.T), len(rows))
        assert keys.dtype == np.int64
        tuples = [tuple(r) for r in rows.tolist()]
        for i in range(0, 400, 7):
            for j in range(400):
                assert (keys[i] == keys[j]) == (tuples[i] == tuples[j])


def test_exact_laws_budget_counts_distinct_states(monkeypatch):
    # S/T has 5, 16, 36, 68 distinct states after steps 1 to 4
    monkeypatch.setattr(walker, "EXACT_BUDGET", 36)
    *_, (_, rows, _) = exact_laws(sl2_st_generators(), [3])
    assert len(rows) == 36
    with pytest.raises(BudgetExceeded):
        next(exact_laws(sl2_st_generators(), [4]))
    assert issubclass(BudgetExceeded, ResourceError)


def test_hit_probability_exact_sl2_trace_frozen():
    assert hit_probabilities_exact(sl2_st_generators(), [2, 4, 6, 8], TraceOracle()) == {
        2: Fraction(13, 25), 4: Fraction(329, 625), 6: Fraction(7869, 15625),
        8: Fraction(185873, 390625)}


def test_hit_probability_exact_undecided():
    # the exact laws decide by the oracle's one Monte Carlo test
    class Undecided:
        def hit_raw(self, flat):
            return None

    try:
        hit_probabilities_exact(z_generators(), [2], Undecided())
        assert False
    except UndecidedMembership:
        pass


def test_mc_estimate_properties():
    e = MCEstimate(n=4, trials=100, hits=25, unknown=5)
    assert e.estimate == 0.25
    assert abs(e.halfwidth - 1.96 * (0.25 * 0.75 / 100) ** 0.5) < 1e-15
    assert e.unknown_rate == 0.05
    full = MCEstimate(n=1, trials=10, hits=10, unknown=0)
    assert full.estimate == 1.0 and full.halfwidth == 0.0
    assert MCEstimate(n=1, trials=20, hits=0, unknown=0).halfwidth == 3 / 20


def test_mc_matches_exact_z():
    # m = 40000: exact 1/3 at n=2; 3 half-widths is a >= 99.7% event
    est = mc_sweep(z_generators(), OriginOracle(), [2], 40000, seed=5)[0]
    assert abs(est.estimate - 1 / 3) <= 3 * est.halfwidth


def test_mc_matches_exact_sl2():
    A = sl2_st_generators()
    oracle = TraceOracle()
    for n, exact in ((2, Fraction(13, 25)), (6, Fraction(7869, 15625))):
        est = mc_sweep(A, oracle, [n], 40000, seed=9)[0]
        assert abs(est.estimate - float(exact)) <= 3 * est.halfwidth


def test_sweep_equals_per_n_calls():
    # counter-based draws: one pass with checkpoints must reproduce
    # per-n estimates bit for bit
    A = sl2_st_generators()
    oracle = TraceOracle()
    grid = [2, 5, 9]
    swept = mc_sweep(A, oracle, grid, 500, seed=31)
    for est in swept:
        single = mc_sweep(A, oracle, [est.n], 500, seed=31)[0]
        assert est.hits == single.hits
        assert est.unknown == single.unknown


def test_sweep_duplicate_grid_entries_collapse():
    A = z_generators()
    oracle = OriginOracle()
    once = mc_sweep(A, oracle, [4], 300, seed=3)
    doubled = mc_sweep(A, oracle, [4, 4], 300, seed=3)
    assert len(doubled) == 1
    assert doubled[0].hits == once[0].hits


def test_specialized_kernel_matches_generic():
    # the tag is only a label: the lane kernel reads its steps from the
    # draw table, so the same pairs under a blank tag agree exactly
    st = sl2_st_generators()
    generic = GeneratorMultiset(st.pairs, tag="")
    oracle = TraceOracle()
    grid = [3, 7]
    a = mc_sweep(st, oracle, grid, 400, seed=17)
    b = mc_sweep(generic, oracle, grid, 400, seed=17)
    for x, y in zip(a, b):
        assert (x.n, x.hits, x.unknown) == (y.n, y.hits, y.unknown)


def test_abelian_batch_matches_scalar():
    # OriginOracle has no hit_raw_batch, so its lanes get one hit_raw per
    # trial at each checkpoint; an oracle with batch must agree exactly
    import numpy as np

    class BatchOrigin(OriginOracle):
        def hit_raw_batch(self, coords):
            acc = np.ones_like(coords[0], dtype=bool)
            for c in coords:
                acc &= (c == 0)
            return acc

    grid = [2, 6, 11]
    scalar = mc_sweep(z_generators(), OriginOracle(), grid, 2000, seed=8)
    batched = mc_sweep(z_generators(), BatchOrigin(), grid, 2000, seed=8)
    for x, y in zip(scalar, batched):
        assert (x.n, x.hits) == (y.n, y.hits)


def test_unknown_counting_and_cap(monkeypatch):
    class Flaky:
        kind = "FLAKY"

        def hit_raw(self, state):
            if state[0] % 3 == 0 and state[0] != 0:
                return None
            return state[0] == 0

        def global_verdict(self, g):
            raise AssertionError("not used here")

    ests = mc_sweep(z_generators(), Flaky(), [6], 500, seed=2)
    assert ests[0].unknown > 0
    # run_experiment refuses a row whose UNKNOWN share passes lab.UNKNOWN_CAP
    flaky = lab.Scenario(name="flaky", group="z_additive", generators=z_generators(),
                         oracle=Flaky(), regime="polynomial", description="")
    assert lab.run_experiment(flaky, [6], 500, 2).rows[0].unknown == ests[0].unknown
    monkeypatch.setattr(lab, "UNKNOWN_CAP", 0.0)
    with pytest.raises(UnknownRateExceeded, match="at n=6 above cap 0.0"):
        lab.run_experiment(flaky, [6], 500, 2)


def test_mc_grid_validation():
    try:
        mc_sweep(z_generators(), OriginOracle(), [], 10, seed=0)
        assert False
    except DomainError:
        pass
    try:
        mc_sweep(z_generators(), OriginOracle(), [0, 2], 10, seed=0)
        assert False
    except DomainError:
        pass


def test_identity_multiplicity_lazy_walk():
    # doubling the identity multiplicity halves movement: at n=1,
    # P(origin) = 2/4 for {0,0,+1,-1}
    A = validate_generators(
        [AbelianElement((0,)), AbelianElement((0,)),
         AbelianElement((1,)), AbelianElement((-1,))])
    assert exact_law(A, 1)[(0,)] == Fraction(1, 2)


# ----- the lane kernel against the exact path -----

def reference_counts(A, oracle, grid, m, seed):
    """Hits and UNKNOWNs per n from run_walk plus global_verdict."""
    config = WalkConfig(generators=A, n=max(grid), m=m, seed=seed)
    hits = [0] * len(grid)
    unknown = [0] * len(grid)
    for t in range(m):
        path = run_walk(config, t)
        for i, n in enumerate(grid):
            status = oracle.global_verdict(path[n]).status
            hits[i] += status == "IN"
            unknown[i] += status == "UNKNOWN"
    return tuple(hits), tuple(unknown)


def swept_counts(A, oracle, grid, m, seed):
    ests = mc_sweep(A, oracle, grid, m, seed)
    assert [e.n for e in ests] == sorted(set(grid))
    return tuple(e.hits for e in ests), tuple(e.unknown for e in ests)


def _st_reversed():
    return GeneratorMultiset(tuple(reversed(sl2_st_generators().pairs)), tag="sl2_st")


def _st_mistagged():
    return GeneratorMultiset(sl2_st_generators().pairs, tag="sl2_elementary")


def _cases():
    """(name, generators, oracle) for every built-in scenario, the
    elementary SL_2 walk, and S/T multisets whose tag does not describe
    their draw table."""
    scenarios = [lab.get_scenario(name) for name in lab.list_scenarios()]
    out = [(s.name, s.generators, s.oracle) for s in scenarios]
    trace = NongenericGaloisOracle(2)
    out += [("sl2_elementary", elementary_generators(2), trace),
            ("st_reversed_tagged_st", _st_reversed(), trace),
            ("st_tagged_elementary", _st_mistagged(), trace)]
    return out


CASES = {name: (A, oracle) for name, A, oracle in _cases()}
PROPERTY_GRIDS = {"sl3_galois": ((2, 5, 12), 40)}


@pytest.mark.parametrize("seed", [4, 77])
@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_equals_run_walk_verdicts(name, seed):
    A, oracle = CASES[name]
    grid, m = PROPERTY_GRIDS.get(name, ((1, 3, 8, 21), 150))
    assert swept_counts(A, oracle, grid, m, seed) == reference_counts(A, oracle, grid, m, seed)


# mc_sweep on every built-in multiset, frozen from the four-kernel walker
# this kernel replaced: (hits per n, UNKNOWNs per n)
FROZEN_GRIDS = {"sl2": ((1, 2, 4, 8, 16, 32), 2000), "sl3": ((5, 10, 20, 40), 300),
                "z_additive": ((1, 4, 16, 64, 256), 2000),
                "torus_23": ((1, 4, 16, 64, 256), 2000),
                # for d = 2 this oracle is sl2_trace's, so its rows walk further:
                # 48 of 300 lanes pass 2^61 by n = 1000 and 206 by n = 1300
                "sl2_fixed_flag": ((2, 8, 700, 1000, 1300), 300)}
FROZEN = {
    ("sl2_trace", 11): ((1197, 1017, 1062, 952, 758, 538), (0,) * 6),
    ("sl2_trace", 2029): ((1207, 1036, 1082, 968, 783, 549), (0,) * 6),
    ("sl3_galois", 11): ((243, 142, 76, 22), (0,) * 4),
    ("sl3_galois", 2029): ((239, 146, 65, 17), (0,) * 4),
    ("z_origin", 11): ((630, 467, 225, 138, 58), (0,) * 5),
    ("z_origin", 2029): ((681, 492, 212, 144, 57), (0,) * 5),
    ("torus_squares", 11): ((381, 566, 500, 478, 508), (0,) * 5),
    ("torus_squares", 2029): ((411, 557, 521, 528, 524), (0,) * 5),
    ("sl2_fixed_flag", 11): ((159, 157, 0, 0, 0), (0,) * 5),
    ("sl2_fixed_flag", 2029): ((159, 149, 0, 0, 0), (0,) * 5),
    ("sl2_elementary", 11): ((2000, 1332, 979, 715, 495, 219), (0,) * 6),
    ("sl2_elementary", 2029): ((2000, 1362, 1021, 704, 495, 213), (0,) * 6),
}


@pytest.mark.parametrize("name,seed", sorted(FROZEN))
def test_sweep_frozen_builtin_counts(name, seed):
    A, oracle = CASES[name]
    group = "sl2" if name == "sl2_elementary" else lab.get_scenario(name).group
    grid, m = FROZEN_GRIDS.get(name) or FROZEN_GRIDS[group]
    assert swept_counts(A, oracle, grid, m, seed) == FROZEN[(name, seed)]


def test_sweep_ignores_tag_reordered_st():
    # the S/T pairs in reverse order under the tag "sl2_st" once walked the
    # tag's step rules, not the draw table: 1034 hits instead of 997
    oracle = NongenericGaloisOracle(2)
    got = swept_counts(_st_reversed(), oracle, [6], 2000, 1)
    assert got == ((997,), (0,))
    assert got == reference_counts(_st_reversed(), oracle, [6], 2000, 1)


def test_sweep_ignores_tag_mislabelled_st():
    # the S/T pairs under the tag "sl2_elementary" once walked the
    # elementary group: 8150 hits instead of 10202
    oracle = NongenericGaloisOracle(2)
    plain = GeneratorMultiset(sl2_st_generators().pairs)
    assert swept_counts(_st_mistagged(), oracle, [6], 20000, 1) == ((10202,), (0,))
    assert swept_counts(plain, oracle, [6], 20000, 1) == ((10202,), (0,))


# ----- overflow boundary: lanes leave int64 before they could wrap -----

class CornerSignOracle:
    """IN iff the (0, 0) entry is positive: wrapping past 2^63 flips it."""

    def global_verdict(self, g):
        class V:
            pass
        v = V()
        v.status = "IN" if g.entries[0][0] > 0 else "OUT"
        return v

    def hit_raw(self, flat):
        return flat[0] > 0


class FarOracle:
    """IN iff the coordinate exceeds 2^61; 8 * 2^60 wraps to -2^63."""

    def global_verdict(self, g):
        class V:
            pass
        v = V()
        v.status = "IN" if g.exponents[0] > 1 << 61 else "OUT"
        return v

    def hit_raw(self, state):
        return state[0] > 1 << 61


class BatchFarOracle(FarOracle):
    def hit_raw_batch(self, coords):
        return coords[0] > 1 << 61


def _big_elementary():
    c = 1 << 20
    return validate_generators([
        MatrixElement(((1, 0), (0, 1))),
        MatrixElement(((1, c), (0, 1))), MatrixElement(((1, -c), (0, 1))),
        MatrixElement(((1, 0), (c, 1))), MatrixElement(((1, 0), (-c, 1))),
    ])


def test_matrix_lanes_exact_past_int64():
    A = _big_elementary()
    grid = list(range(1, 9))
    m = 300
    config = WalkConfig(generators=A, n=8, m=m, seed=6)
    biggest = max(max(map(abs, run_walk(config, t)[8].flat())) for t in range(m))
    assert biggest >= 1 << 63  # the grid runs past int64
    for oracle in (CornerSignOracle(), NongenericGaloisOracle(2),
                   SubvarietyOracle([coordinate_polynomial(4, 1)])):
        want = reference_counts(A, oracle, grid, m, 6)
        assert swept_counts(A, oracle, grid, m, 6) == want
        # one segment of eight steps, in blocks of three products of
        # growth up to about 2^60
        assert swept_counts(A, oracle, [8], m, 6) == (want[0][-1:], want[1][-1:])


@pytest.mark.parametrize("cores", [1, 3])
def test_abelian_lanes_exact_past_int64(monkeypatch, cores):
    # steps +-2^60 pass the guard's 2^62 within four steps; steps +-3*2^60
    # pass 2^63 within three, where int64 lanes would wrap. Tiles of at
    # most 16 keys split the 500 lanes into many tiles, which the stripes
    # of 3 workers share, Python-int lanes included
    monkeypatch.setattr(walker, "_KEYS", 16)
    monkeypatch.setattr(prng, "_CORES", cores)
    for step, seed, past in ((1 << 60, 12, 1 << 62), (3 << 60, 13, 1 << 63)):
        A = validate_generators([AbelianElement((0,)), AbelianElement((step,)),
                                 AbelianElement((-step,))])
        grid = list(range(1, 9))
        m = 500
        config = WalkConfig(generators=A, n=8, m=m, seed=seed)
        assert max(abs(run_walk(config, t)[8].exponents[0]) for t in range(m)) >= past
        for oracle in (FarOracle(), BatchFarOracle(), OriginOracle()):
            want = reference_counts(A, oracle, grid, m, seed)
            assert swept_counts(A, oracle, grid, m, seed) == want
            # one segment of eight steps, past the guard before its checkpoint
            assert swept_counts(A, oracle, [8], m, seed) == (want[0][-1:], want[1][-1:])


def test_long_walk_splits_lanes_exactly():
    # S/T lanes pass 2^61 one by one from about n = 700 on, so by n = 1300
    # the chunk holds int64 lanes and Python-int lanes at once
    A = sl2_st_generators()
    grid = [700, 1000, 1300]
    m = 60
    config = WalkConfig(generators=A, n=grid[-1], m=m, seed=11)
    paths = [run_walk(config, t) for t in range(m)]
    tops = [max(map(abs, path[-1].flat())) for path in paths]
    assert min(tops) < 1 << 61 <= max(tops)
    for oracle in (CornerSignOracle(), NongenericGaloisOracle(2),
                   SubvarietyOracle([coordinate_polynomial(4, 1)])):
        want = tuple(tuple(sum(oracle.global_verdict(path[n]).status == status
                               for path in paths) for n in grid)
                     for status in ("IN", "UNKNOWN"))
        assert swept_counts(A, oracle, grid, m, 11) == want


def test_lanes_exact_with_generators_beyond_int64():
    c = 1 << 70
    A = validate_generators([
        MatrixElement(((1, 0), (0, 1))),
        MatrixElement(((1, c), (0, 1))), MatrixElement(((1, -c), (0, 1))),
        MatrixElement(((1, 0), (c, 1))), MatrixElement(((1, 0), (-c, 1))),
    ])
    B = validate_generators([AbelianElement((0, 0)), AbelianElement((c, 1)),
                             AbelianElement((-c, -1))])
    # the torus oracle's batch test runs on the Python-int lanes of B
    for gens, oracle in ((A, CornerSignOracle()), (A, NongenericGaloisOracle(2)),
                         (B, OriginOracle()), (B, TorusSquaresOracle(2))):
        grid = [1, 2, 5]
        assert swept_counts(gens, oracle, grid, 60, 3) == reference_counts(gens, oracle, grid, 60, 3)


def test_sweep_more_than_256_generators():
    # elementary_generators(12) has 265 elements: uint16 draws
    A = elementary_generators(12)
    assert len(A.draw_table()) == 265
    grid = [1, 3, 6]
    oracle = CornerSignOracle()
    assert swept_counts(A, oracle, grid, 12, 5) == reference_counts(A, oracle, grid, 12, 5)


def test_sweep_draw_table_wider_than_65536():
    # +-1 with multiplicity 2^15 each and the identity: 65537 draw values,
    # past uint16, so the lanes step by int64 draws
    A = GeneratorMultiset(((AbelianElement((0,)), 1), (AbelianElement((1,)), 1 << 15),
                           (AbelianElement((-1,)), 1 << 15)))
    assert len(A.draw_table()) == 65537
    grid = [1, 2, 5]
    for oracle in (OriginOracle(), TorusSquaresOracle(1)):
        assert swept_counts(A, oracle, grid, 40, 6) == reference_counts(A, oracle, grid, 40, 6)


# ----- matrix lanes step a block of draws at a time -----

def _elementary(dim, i, j, c):
    rows = [[int(r == s) for s in range(dim)] for r in range(dim)]
    rows[i][j] = c
    return MatrixElement(tuple(map(tuple, rows)))


def _wide_st():
    """I and S, S^-1 with multiplicity 16 each: |A| = 33, so K = 1."""
    S = MatrixElement(((0, 1), (-1, 0)))
    return validate_generators([MatrixElement.identity(2)] + [S, S.inverse()] * 16)


@st.composite
def symmetric_matrix_tables(draw):
    """A symmetric multiset of SL_2(Z) or SL_3(Z): the identity with
    multiplicity 1-3 and up to three products of two elementary matrices,
    each with its inverse, multiplicities 1-12, in any order."""
    dim = draw(st.sampled_from([2, 3]))
    pairs = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)).filter(
        lambda ij: ij[0] != ij[1])
    raw = [MatrixElement.identity(dim)] * draw(st.integers(1, 3))
    for _ in range(draw(st.integers(0, 3))):
        (i, j), (k, l) = draw(pairs), draw(pairs)
        g = (_elementary(dim, i, j, draw(st.integers(-2, 2)))
             * _elementary(dim, k, l, draw(st.integers(-2, 2))))
        raw += [g, g.inverse()] * draw(st.integers(1, 12))
    return validate_generators(draw(st.permutations(raw)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(A=symmetric_matrix_tables(),
       grid=st.lists(st.integers(1, 15), min_size=1, max_size=5),
       seed=st.integers(0, 1000))
@example(A=validate_generators([MatrixElement.identity(3)]), grid=[5, 2], seed=1)
@example(A=_wide_st(), grid=[3, 7], seed=2)
@example(A=sl2_st_generators(), grid=[9, 2, 15], seed=3)
def test_block_steps_equal_run_walk_verdicts(A, grid, seed):
    # a repeated checkpoint, and a segment of one step past the last
    grid = grid + [grid[0], max(grid) + 1]
    dim = A.pairs[0][0].dimension
    for oracle in (CornerSignOracle(), NongenericGaloisOracle(dim)):
        assert swept_counts(A, oracle, grid, 20, seed) == reference_counts(
            A, oracle, sorted(set(grid)), 20, seed)


def _tables(A):
    gens, fast, growth, _ = walker._step_table(A.draw_table())
    return walker._block_tables(gens, fast, growth)


def test_block_tables_follow_run_walk():
    # K is the largest k with |A|^k <= 2^10; an identity-only table
    # counts as |A| = 2. U's products have row abs-sums above their
    # column abs-sums
    U = _elementary(3, 0, 1, 2) * _elementary(3, 0, 2, 1)
    cases = ((sl2_st_generators(), 4), (elementary_generators(2), 4),
             (elementary_generators(3), 2), (_wide_st(), 1),
             (validate_generators([MatrixElement.identity(2)]), 10),
             (validate_generators([MatrixElement.identity(3), U, U.inverse()]), 6))
    for A, K in cases:
        tables = _tables(A)
        assert len(tables) == K
        table = A.draw_table()
        for k, (objs, ints, growth) in enumerate(tables, 1):
            assert len(objs) == len(table) ** k
            cols = []
            for i, flat in enumerate(objs.reshape(len(objs), -1).tolist()):
                digits = [i // len(table) ** e % len(table) for e in range(k - 1, -1, -1)]
                g = table[digits[0]]
                for d in digits[1:]:
                    g = g * table[d]
                assert tuple(flat) == g.flat() == tuple(ints[i].ravel().tolist())
                cols += [sum(abs(row[c]) for row in g.entries) for c in range(g.dimension)]
            assert growth == max(cols)
        # the Horner index of a walk's first k draws picks omega_k of run_walk
        config = WalkConfig(generators=A, n=K, m=3, seed=8)
        for t in range(3):
            path = run_walk(config, t)
            draws = prng.draw_block(8, np.arange(t, t + 1), K, len(table))
            for k in range(1, K + 1):
                objs = tables[k - 1][0]
                idx = int(walker._block_index(draws[:, :k], len(table))[0])
                assert tuple(objs[idx].ravel().tolist()) == path[k].flat()


def test_lanes_leave_int64_inside_a_block_segment(monkeypatch):
    # with a limit of 2^6 the guard moves lanes to Python ints block by
    # block inside one checkpoint segment, while K stays above 1
    monkeypatch.setattr(walker, "_LIMIT", 1 << 6)
    groups, hit_mask = [], walker._hit_mask

    def spy(oracle, flat):
        groups.append((flat.dtype == object, len(flat)))
        # the guard's invariant: int64 lanes stay below the limit
        assert flat.dtype == object or abs(flat).max(initial=0) < walker._LIMIT
        return hit_mask(oracle, flat)

    monkeypatch.setattr(walker, "_hit_mask", spy)
    for A, K, grid in ((sl2_st_generators(), 4, [41]), (elementary_generators(3), 2, [25])):
        assert len(_tables(A)) == K
        dim = A.pairs[0][0].dimension
        for oracle in (CornerSignOracle(), NongenericGaloisOracle(dim)):
            groups.clear()
            assert swept_counts(A, oracle, grid, 60, 5) == reference_counts(A, oracle, grid, 60, 5)
            sizes = dict(groups)
            assert sizes[False] > 0 and sizes[True] > 0  # both kinds of lane at the checkpoint


class CountingOracle:
    """Records every row that hit_raw receives."""

    def __init__(self):
        self.rows = []

    def hit_raw(self, flat):
        self.rows.append(flat)
        return flat[0] > 0


def test_hit_mask_hands_each_row_over_once():
    config = WalkConfig(generators=elementary_generators(3), n=6, m=40, seed=1)
    ends = [run_walk(config, t)[6] for t in range(40)]
    huge = MatrixElement(((1, 1 << 70), (0, 1)))
    for elems, dtype in ((ends, np.int64), (ends, object), ([huge, huge.inverse()] * 3, object)):
        flat = np.array([g.flat() for g in elems], dtype=dtype)
        oracle = CountingOracle()
        hit, undecided = walker._hit_mask(oracle, flat)
        assert len(oracle.rows) == len(elems) and undecided == 0
        for row, g in zip(oracle.rows, elems):
            assert tuple(row) == g.flat()
            assert all(type(x) is int for x in row)
        assert hit.tolist() == [g.flat()[0] > 0 for g in elems]


# ----- abelian segments step by per-lane histograms of draw values -----

@st.composite
def symmetric_abelian_tables(draw):
    """A symmetric abelian multiset of rank 1-3 with steps in [-3, 3],
    multiplicities 1-3, and its elements in any order, so that the
    identity may sit anywhere in the draw table."""
    rank = draw(st.integers(1, 3))
    coords = st.tuples(*[st.integers(-3, 3)] * rank)
    steps = draw(st.lists(coords.filter(any), max_size=5,
                          unique_by=lambda v: max(v, tuple(-x for x in v))))
    pairs = [((0,) * rank, draw(st.integers(1, 3)))]
    for v in steps:
        mult = draw(st.integers(1, 3))
        pairs += [(v, mult), (tuple(-x for x in v), mult)]
    pairs = draw(st.permutations(pairs))
    return validate_generators([AbelianElement(v) for v, mult in pairs for _ in range(mult)])


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(A=symmetric_abelian_tables(),
       grid=st.lists(st.integers(1, 12), min_size=1, max_size=6),
       seed=st.integers(0, 1000))
def test_histogram_step_equals_run_walk_verdicts(A, grid, seed):
    # a repeated checkpoint, and a segment of one step past the last
    grid = grid + [grid[0], max(grid) + 1]
    rank = A.pairs[0][0].rank
    for oracle in (OriginOracle(), TorusSquaresOracle(rank)):
        assert swept_counts(A, oracle, grid, 30, seed) == reference_counts(
            A, oracle, sorted(set(grid)), 30, seed)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(A=symmetric_abelian_tables())
def test_parity_law_equals_quotient_convolution(A):
    # the character sums against the step-by-step law on (Z/2)^rank
    rank = A.pairs[0][0].rank
    q = AbelianQuotient(rank, 2)
    codes, perms, mults = walk_permutations(A, q)
    grid = range(13)
    want = walker.convolve_counts(perms, mults, q.index(q.identity()), grid)
    got = list(walker._parity_laws(A, rank, grid))
    assert [n for n, *_ in got] == list(grid)
    for n, rows, counts in got:
        assert rows.tolist() == q.decode(codes).tolist()
        assert counts.tolist() == want[n].tolist(), n


def _wide_torus():
    """265 steps of rank 2: the identity and +-(a, b), 1 <= a <= 12, 0 <= b <= 10."""
    vecs = [(a, b) for a in range(1, 13) for b in range(11)]
    return validate_generators([AbelianElement((0, 0))] + [AbelianElement(v) for v in vecs]
                               + [AbelianElement((-a, -b)) for a, b in vecs])


def _spy_bincount(monkeypatch):
    """Record (keys, bins) of every bincount call."""
    calls, bincount = [], np.bincount

    def spy(keys, minlength=0):
        calls.append((len(keys), max(minlength, int(keys.max(initial=-1)) + 1)))
        return bincount(keys, minlength=minlength)

    monkeypatch.setattr(np, "bincount", spy)
    return calls


def test_histogram_step_with_uint16_draws(monkeypatch):
    # 265 draw values: uint16 draws, and tiles of 2^16 // 265 = 247 lanes,
    # bounded by |A| rather than by the segment
    A = _wide_torus()
    assert len(A.draw_table()) == 265
    grid, m = [1, 2, 3, 6], 300
    calls = _spy_bincount(monkeypatch)
    for oracle in (OriginOracle(), TorusSquaresOracle(2)):
        assert swept_counts(A, oracle, grid, m, 9) == reference_counts(A, oracle, grid, m, 9)
    assert max(bins for _, bins in calls) == 247 * 265 <= 1 << 16
    assert max(keys for keys, _ in calls) <= 1 << 16


@pytest.mark.parametrize("cores", [1, 3])
def test_histogram_tiles_split_lanes_and_long_segments(monkeypatch, cores):
    # with tiles of at most 16 keys, a segment of 21 steps is counted in
    # two tiles of columns, and segments of 1 and 5 steps take three lanes
    # a tile; the hits do not depend on how many workers share the tiles
    monkeypatch.setattr(walker, "_KEYS", 16)
    monkeypatch.setattr(prng, "_CORES", cores)
    calls = _spy_bincount(monkeypatch)
    A = torus_generators()
    grid, m = [5, 26, 27, 40], 50
    for oracle in (OriginOracle(), TorusSquaresOracle(2)):
        assert swept_counts(A, oracle, grid, m, 2) == reference_counts(A, oracle, grid, m, 2)
    assert max(keys for keys, _ in calls) == 16
    assert max(bins for _, bins in calls) == 15
