"""Scenario registry, experiment driver, decay classification."""

import dataclasses
import math
from fractions import Fraction

import pytest

from helpers import exact_law
from sievelab import lab, walker
from sievelab.errors import DomainError, InsufficientData
from sievelab.matgroup import (
    AbelianElement,
    elementary_generators,
    sl2_st_generators,
    validate_generators,
    z_generators,
)
from sievelab.thinsets import (
    EntryPolynomial,
    NongenericGaloisOracle,
    RationalFixedFlagOracle,
    SubvarietyOracle,
    TorusSquaresOracle,
    coordinate_polynomial,
)


def make_rows(pairs, scenario="synthetic", trials=1000, regime="exponential"):
    rows = []
    for n, p in pairs:
        hits = round(p * trials)
        rows.append(lab.ExperimentRow(
            scenario=scenario, n=n, trials=trials, hits=hits, unknown=0,
            estimate=p, ci_halfwidth=0.01, theory_bound=None, regime=regime))
    return rows


# ----- scenario registry -----

def test_builtin_scenario_names():
    names = lab.list_scenarios()
    for want in ("sl2_trace", "sl3_galois", "z_origin", "torus_squares",
                 "sl2_fixed_flag"):
        assert want in names


def test_get_scenario_unknown():
    with pytest.raises(DomainError):
        lab.get_scenario("no_such_thing")


def test_describe_sl2_trace():
    obj = lab.get_scenario("sl2_trace").to_json_obj()
    assert obj["schema_version"] == 2
    assert "trace in {-2, 2}" in obj["thin_set"]
    assert obj["regime"] == "exponential"
    assert obj["theory_bound"] == {"kind": "single_prime", "prime": 7}
    assert obj["generators"]["tag"] == "sl2_st"


def test_describe_z_origin():
    obj = lab.get_scenario("z_origin").to_json_obj()
    assert obj["regime"] == "polynomial"
    assert obj["theory_bound"] is None


def test_describe_torus():
    obj = lab.get_scenario("torus_squares").to_json_obj()
    assert obj["regime"] == "non-decaying"
    assert "1/4" in obj["thin_set"]


def test_scenario_validation():
    with pytest.raises(DomainError):
        lab.Scenario(name="bad", group="sl2", generators=sl2_st_generators(),
                     oracle=TorusSquaresOracle(2), regime="exponential",
                     description="torus oracle on a matrix group")
    with pytest.raises(DomainError):
        lab.Scenario(name="bad", group="sl2", generators=sl2_st_generators(),
                     oracle=NongenericGaloisOracle(3), regime="exponential",
                     description="dimension mismatch")
    with pytest.raises(DomainError):
        lab.Scenario(name="bad", group="sl5", generators=sl2_st_generators(),
                     oracle=NongenericGaloisOracle(2), regime="exponential",
                     description="unknown group")
    with pytest.raises(DomainError):
        lab.Scenario(name="bad", group="sl2", generators=sl2_st_generators(),
                     oracle=NongenericGaloisOracle(2), regime="linear",
                     description="unknown regime")


@pytest.mark.parametrize("spec", [("pair", 7), ("single_prime", 9), ("single_prime",),
                                  ("single_prime", "7"), "single_prime"])
def test_scenario_rejects_a_bound_spec_it_cannot_compute(spec):
    # only a single-prime bound at a prime is computed; anything else is
    # refused when the scenario is built, not when its bound is asked for
    with pytest.raises(DomainError, match="bound_spec"):
        lab.Scenario(name="bad", group="sl2", generators=sl2_st_generators(),
                     oracle=NongenericGaloisOracle(2), regime="exponential",
                     description="unknown bound", bound_spec=spec)
    ok = lab.Scenario(name="ok", group="sl2", generators=sl2_st_generators(),
                      oracle=NongenericGaloisOracle(2), regime="exponential",
                      description="bound mod 7", bound_spec=("single_prime", 7))
    assert lab.theory_bound(ok, 10 ** 6) == lab.theory_bound(lab.get_scenario("sl2_trace"), 10 ** 6)


# ----- exact probabilities -----

def test_exact_probability_z_origin():
    s = lab.get_scenario("z_origin")
    assert lab.exact_probability(s, 1) == Fraction(1, 3)
    assert lab.exact_probability(s, 5) == Fraction(17, 81)


def test_exact_probability_torus():
    s = lab.get_scenario("torus_squares")
    assert lab.exact_probability(s, 2) == Fraction(9, 25)


def test_exact_probability_decides_every_reachable_position():
    # the oracle decides, not the scenario: the empty set is never hit
    assert lab.exact_probability(empty_scenario(), 1) == 0
    table = lab.run_experiment(empty_scenario(), (3, 6), m=1, seed=0, mode="exact")
    assert [r.estimate for r in table.rows] == [0.0, 0.0]
    # {x = 1}: the line scan against the convolution of the same steps
    one = SubvarietyOracle([coordinate_polynomial(1, 0, shift=1)], domain="abelian")
    line = lab.Scenario(name="z_one", group="z_additive", generators=z_generators(),
                        oracle=one, regime="polynomial", description="{x = 1}")
    for n in (1, 2, 5):
        assert lab.exact_probability(line, n) == exact_law(z_generators(), n)[(1,)]
    assert lab.exact_probability(line, 5) == Fraction(45, 243)
    # steps {0, +-2} never reach an odd position
    steps = validate_generators([AbelianElement((x,)) for x in (0, 2, -2)])
    even = lab.Scenario(name="z_even", group="z_additive", generators=steps,
                        oracle=one, regime="polynomial", description="{x = 1}")
    assert lab.exact_probability(even, 4) == 0


def test_exact_probability_sl2_trace():
    s = lab.get_scenario("sl2_trace")
    assert lab.exact_probability(s, 2) == Fraction(13, 25)
    assert lab.exact_probability(s, 4) == Fraction(329, 625)


# ----- theory bound -----

def test_theory_bound_not_configured():
    z = lab.get_scenario("z_origin")
    assert lab.theory_bound(z, 100) is None
    t = lab.get_scenario("torus_squares")
    assert lab.theory_bound(t, 100) is None


def test_sl3_galois_reports_no_theory_bound():
    # its residual set is all of SL_3(F_p), so a single-prime bound is 1
    s = lab.get_scenario("sl3_galois")
    assert s.bound_spec is None and lab.theory_bound(s, 80) is None
    obj = lab.get_scenario("sl3_galois").to_json_obj()
    assert obj["theory_bound"] is None and "no theory bound" in obj["thin_set"]


def test_theory_bound_floors_at_density():
    s = lab.get_scenario("sl2_trace")
    # residual density of non-generic traces mod 7 is 5/8
    far = lab.theory_bound(s, 10 ** 6)
    assert abs(far - 5 / 8) < 1e-9
    near = lab.theory_bound(s, 64)
    assert near >= far
    assert lab.theory_bound(s, 32) >= near


def test_theory_bound_is_a_python_float():
    # mod 17 the rate comes from an iterative spectrum; the bound's CSV
    # cell must be a number that fit reads back
    s = dataclasses.replace(lab.get_scenario("sl2_trace"), bound_spec=("single_prime", 17))
    assert type(lab.theory_bound(s, 2048)) is float
    row = lab.run_experiment(s, [2048], 10, 0).rows[0]
    assert float(row.csv_cells()[7]) == row.theory_bound < 1


def test_theory_bound_is_cached(monkeypatch):
    calls = []
    solve = lab.second_eigenvalue
    monkeypatch.setattr(lab, "_BOUND_CACHE", {})
    monkeypatch.setattr(lab, "second_eigenvalue", lambda *a: calls.append(a) or solve(*a))
    s = lab.get_scenario("sl2_trace")
    lab.theory_bound(s, 8)
    lab.theory_bound(s, 256)
    # a subclass clone of the oracle, as a tracing proxy is, shares the entry
    cls = type("Proxy", (type(s.oracle),), {})
    proxy = cls.__new__(cls)
    proxy.__dict__.update(s.oracle.__dict__)
    lab.theory_bound(dataclasses.replace(s, oracle=proxy), 8)
    assert len(calls) == 1


def test_theory_bound_does_not_depend_on_the_scenario_name(monkeypatch):
    monkeypatch.setattr(lab, "_BOUND_CACHE", {})
    flag = dict(group="sl2", generators=elementary_generators(2),
                oracle=RationalFixedFlagOracle(2), regime="exponential",
                description="fixed flag under the elementary walk",
                bound_spec=("single_prime", 7))
    # the built-in's bound is cached first, then a scenario takes its name
    lab.theory_bound(lab.get_scenario("sl2_trace"), 64)
    named = lab.theory_bound(lab.Scenario(name="sl2_trace", **flag), 64)
    fresh = lab.theory_bound(lab.Scenario(name="fresh", **flag), 64)
    assert named == fresh and abs(fresh - 0.90958) < 1e-5


# ----- run_experiment -----

def empty_scenario():
    one = EntryPolynomial(1, ((1, (0,)),))  # constant 1: never vanishes
    return lab.Scenario(
        name="empty_set", group="z_additive", generators=z_generators(),
        oracle=SubvarietyOracle([one], domain="abelian"),
        regime="polynomial", description="empty thin set")


def test_run_experiment_exact_mode():
    table = lab.run_experiment("z_origin", (1, 5, 10), m=1, seed=0, mode="exact")
    assert len(table.rows) == 3
    row = table.rows[0]
    assert row.trials == 0 and row.hits == 0 and row.ci_halfwidth == 0.0
    assert row.estimate == float(Fraction(1, 3))
    assert table.rows[1].estimate == float(Fraction(17, 81))
    assert table.rows[2].estimate == float(Fraction(8953, 59049))


def test_run_experiment_mc_matches_exact():
    table = lab.run_experiment("z_origin", (2, 4, 8), m=20000, seed=5)
    for row in table.rows:
        p = float(lab.exact_probability(lab.get_scenario("z_origin"), row.n))
        assert row.trials == 20000
        assert abs(row.estimate - p) <= 3 * row.ci_halfwidth


def test_run_experiment_deterministic():
    t1 = lab.run_experiment("sl2_trace", (4, 8), m=2000, seed=9)
    t2 = lab.run_experiment("sl2_trace", (4, 8), m=2000, seed=9)
    assert t1.csv() == t2.csv()
    t3 = lab.run_experiment("sl2_trace", (4, 8), m=2000, seed=10)
    assert t3.csv() != t1.csv()


def test_run_experiment_grid_dedupe_and_sort():
    table = lab.run_experiment("z_origin", (8, 2, 2, 8, 4), m=500, seed=1)
    assert [r.n for r in table.rows] == [2, 4, 8]


def test_run_experiment_rule_of_three():
    scenario = empty_scenario()
    table = lab.run_experiment(scenario, (3, 6), m=400, seed=2)
    sweep = walker.mc_sweep(scenario.generators, scenario.oracle, (3, 6), 400, 2)
    for row, est in zip(table.rows, sweep, strict=True):
        assert row.hits == 0
        assert row.estimate == 0.0
        assert row.ci_halfwidth == 3.0 / 400 == est.halfwidth


def test_run_experiment_validation():
    with pytest.raises(DomainError):
        lab.run_experiment("z_origin", (), m=10, seed=0)
    with pytest.raises(DomainError):
        lab.run_experiment("z_origin", (0, 4), m=10, seed=0)
    with pytest.raises(DomainError):
        lab.run_experiment("z_origin", (4,), m=0, seed=0)
    with pytest.raises(DomainError):
        lab.run_experiment("z_origin", (4,), m=10, seed=0, mode="guess")


def test_csv_shape():
    table = lab.run_experiment("z_origin", (2, 4), m=100, seed=0)
    text = table.csv()
    lines = text.splitlines()
    assert lines[0] == lab.CSV_HEADER
    assert len(lines) == 3
    assert text.endswith("\n")
    # z_origin has no theory bound: the column is empty
    assert lines[1].split(",")[7] == ""
    obj = table.to_json_obj()
    assert obj[0]["scenario"] == "z_origin"
    assert obj[0]["theory_bound"] is None


def test_theory_bound_column_present_for_sl2():
    table = lab.run_experiment("sl2_trace", (4,), m=200, seed=1)
    cell = table.rows[0].theory_bound
    assert cell is not None
    assert 0.0 <= cell <= 1.0


# ----- decay fitting -----

def test_fit_decay_recovers_exponential_rate():
    pairs = [(n, math.exp(-n / 7.0)) for n in (4, 8, 16, 32, 64, 128)]
    fit = lab.fit_decay(make_rows(pairs))
    assert fit.model == "exponential"
    assert abs(fit.value - 1 / 7.0) < 0.01 / 7.0
    assert fit.r_squared > 0.999999
    assert fit.r2_exponential >= fit.r2_polynomial
    assert fit.window == (4, 128)


def test_fit_decay_recovers_polynomial_exponent():
    pairs = [(n, n ** -0.5) for n in (16, 32, 64, 128, 256, 512)]
    fit = lab.fit_decay(make_rows(pairs, regime="polynomial"))
    assert fit.model == "polynomial"
    assert abs(fit.value - (-0.5)) < 0.005
    assert fit.r_squared > 0.999999


def test_fit_decay_censors_zero_estimates():
    pairs = [(n, math.exp(-n / 5.0)) for n in (2, 4, 8, 16, 32)]
    rows = make_rows(pairs)
    rows.append(lab.ExperimentRow(
        scenario="synthetic", n=64, trials=1000, hits=0, unknown=0,
        estimate=0.0, ci_halfwidth=0.003, theory_bound=None,
        regime="exponential"))
    fit = lab.fit_decay(rows)
    assert fit.censored == 1
    assert fit.points_used == 5
    assert fit.window == (2, 32)


def test_fit_decay_min_trials_filter():
    pairs = [(n, math.exp(-n / 5.0)) for n in (2, 4, 8, 16)]
    rows = make_rows(pairs, trials=100)
    fit = lab.fit_decay(rows, min_trials=50)
    assert fit.points_used == 4
    with pytest.raises(InsufficientData):
        lab.fit_decay(rows, min_trials=500)


def test_fit_decay_insufficient_points():
    pairs = [(n, 0.5) for n in (2, 4, 8)]
    with pytest.raises(InsufficientData):
        lab.fit_decay(make_rows(pairs))


def test_fit_decay_constant_ties_to_exponential():
    pairs = [(n, 0.25) for n in (2, 4, 8, 16, 32)]
    fit = lab.fit_decay(make_rows(pairs, regime="non-decaying"))
    assert fit.model == "exponential"
    assert abs(fit.value) < 1e-12
    assert fit.r_squared == 1.0


def test_fit_decay_json():
    pairs = [(n, math.exp(-n / 3.0)) for n in (2, 4, 8, 16)]
    obj = lab.fit_decay(make_rows(pairs)).to_json_obj()
    assert obj["model"] == "exponential"
    assert obj["points_used"] == 4


# ----- end-to-end regime separation at unit scale -----

def test_z_origin_exact_fit_is_polynomial():
    table = lab.run_experiment("z_origin", (8, 16, 32, 64, 128, 256),
                               m=1, seed=0, mode="exact")
    fit = lab.fit_decay(table.rows)
    assert fit.model == "polynomial"
    assert -0.7 < fit.value < -0.35
    assert fit.r2_polynomial > fit.r2_exponential


def test_sl2_trace_mc_fit_is_exponential():
    table = lab.run_experiment("sl2_trace", (4, 8, 16, 32, 64), m=20000, seed=1)
    fit = lab.fit_decay(table.rows)
    assert fit.model == "exponential"
    assert fit.value > 0.0
    assert fit.r2_exponential > fit.r2_polynomial


def test_torus_mc_does_not_decay():
    table = lab.run_experiment("torus_squares", (50, 100, 200), m=4000, seed=3)
    ests = [r.estimate for r in table.rows]
    for e in ests:
        assert abs(e - 0.25) < 0.05
