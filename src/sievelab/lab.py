"""Experiment runner: built-in scenarios, Monte Carlo sweeps, decay fits.

A scenario bundles a group, a symmetric generator multiset, a thin-set
oracle, a declared decay regime, and (optionally) a theory-bound recipe.
run_experiment produces one row per walk length; fit_decay classifies
the measured decay as exponential (log P linear in n) or polynomial
(log P linear in log n) by comparing coefficients of determination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import sieve, walker
from .errors import DomainError, InsufficientData
from .matgroup import (
    GeneratorMultiset,
    elementary_generators,
    sl2_st_generators,
    torus_generators,
    z_generators,
)
from .quotients import is_prime, prime_schedule
from .spectra import second_eigenvalue
from .thinsets import (
    NongenericGaloisOracle,
    RationalFixedFlagOracle,
    SubvarietyOracle,
    TorusSquaresOracle,
    coordinate_polynomial,
    residual,
)

SCHEMA_VERSION = 2

REGIMES = ("exponential", "polynomial", "non-decaying")


@dataclass(frozen=True)
class Scenario:
    """One named walk-vs-thin-set experiment setup."""

    name: str
    group: str  # sl2 | sl3 | z_additive | torus_23
    generators: GeneratorMultiset
    oracle: object
    regime: str
    description: str
    schedule: Optional[Tuple[int, ...]] = None
    # ("single_prime", p): density by enumeration mod p plus measured
    # spectral tail; None: no theory bound configured.
    bound_spec: Optional[tuple] = None

    def __post_init__(self):
        if self.group not in ("sl2", "sl3", "z_additive", "torus_23"):
            raise DomainError(f"unknown group spec {self.group!r}")
        if self.regime not in REGIMES:
            raise DomainError(f"unknown regime {self.regime!r}")
        kind = self.oracle.kind
        if kind == "TORUS_SQUARES" and self.group != "torus_23":
            raise DomainError("TORUS_SQUARES oracle requires the torus_23 group")
        if self.group == "torus_23" and kind != "TORUS_SQUARES":
            raise DomainError("torus_23 scenarios use the TORUS_SQUARES oracle")
        dim = getattr(self.oracle, "dimension", None)
        if self.group == "sl2" and dim not in (None, 2):
            raise DomainError("sl2 scenario with a non-2-dimensional oracle")
        if self.group == "sl3" and dim not in (None, 3):
            raise DomainError("sl3 scenario with a non-3-dimensional oracle")
        spec = self.bound_spec
        if spec is not None and not (
                isinstance(spec, tuple) and len(spec) == 2 and spec[0] == "single_prime"
                and isinstance(spec[1], int) and is_prime(spec[1])):
            raise DomainError(f"bound_spec {spec!r} is not ('single_prime', p) with p prime")

    def to_json_obj(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "group": self.group,
            "generators": {
                "tag": self.generators.tag,
                "size": self.generators.size,
                "support_size": len(self.generators.support),
            },
            "oracle": self.oracle.to_json_obj(),
            "thin_set": self.description,
            "regime": self.regime,
            "schedule": list(self.schedule) if self.schedule is not None else None,
            "theory_bound": (
                {"kind": self.bound_spec[0], "prime": self.bound_spec[1]}
                if self.bound_spec is not None else None),
        }


def _builtin_scenarios() -> Dict[str, Scenario]:
    reg: Dict[str, Scenario] = {}

    def add(s: Scenario):
        reg[s.name] = s

    add(Scenario(
        name="sl2_trace",
        group="sl2",
        generators=sl2_st_generators(),
        oracle=NongenericGaloisOracle(2),
        regime="exponential",
        description=("thin set {trace in {-2, 2}} in SL_2: over Z the three "
                     "sets {reducible char poly}, {non-generic Galois group} "
                     "and {trace in {-2, 2}} coincide"),
        schedule=prime_schedule(3, 3),
        bound_spec=("single_prime", 7),
    ))
    add(Scenario(
        name="sl3_galois",
        group="sl3",
        generators=elementary_generators(3),
        oracle=NongenericGaloisOracle(3),
        regime="exponential",
        description=("thin set {Galois group of the characteristic polynomial "
                     "is not S_3} in SL_3: reducible or square discriminant; no "
                     "theory bound, since an irreducible cubic over F_p has a cyclic "
                     "Galois group, so mod every p the residual set is all of SL_3(F_p)"),
        schedule=prime_schedule(3, 3),
        bound_spec=None,
    ))
    add(Scenario(
        name="z_origin",
        group="z_additive",
        generators=z_generators(),
        oracle=SubvarietyOracle([coordinate_polynomial(1, 0)], domain="abelian"),
        regime="polynomial",
        description="thin set {0} in the additive walk on Z with steps {0, +1, -1}",
        schedule=prime_schedule(3, 3),
        bound_spec=None,
    ))
    add(Scenario(
        name="torus_squares",
        group="torus_23",
        generators=torus_generators(),
        oracle=TorusSquaresOracle(2),
        regime="non-decaying",
        description=("squares in the rank-2 multiplicative lattice <2, 3>: "
                     "both exponents even; a finite-index subgroup, so the "
                     "hit probability does not decay (limit 1/4)"),
        schedule=prime_schedule(3, 3),
        bound_spec=None,
    ))
    add(Scenario(
        name="sl2_fixed_flag",
        group="sl2",
        generators=sl2_st_generators(),
        oracle=RationalFixedFlagOracle(2),
        regime="exponential",
        description=("thin set {g fixes a rational line} in SL_2: eigenvalue "
                     "+1 or -1, equivalently trace in {-2, 2}"),
        schedule=prime_schedule(3, 3),
        bound_spec=("single_prime", 7),
    ))
    return reg


_SCENARIOS = _builtin_scenarios()


def list_scenarios() -> List[str]:
    return list(_SCENARIOS.keys())


def get_scenario(name: str) -> Scenario:
    s = _SCENARIOS.get(name)
    if s is None:
        raise DomainError(
            f"unknown scenario {name!r}; known: {', '.join(_SCENARIOS)}")
    return s


# ----- theory bounds -----

_BOUND_CACHE: Dict[tuple, Tuple[int, float, float]] = {}


def _single_prime_inputs(scenario: Scenario, p: int) -> Tuple[int, float, float]:
    """(order, density, rate) for the single-prime bound, cached by what
    it reads: the generators, the oracle's JSON form and p."""
    key = (scenario.generators.pairs, repr(scenario.oracle.to_json_obj()), p)
    hit = _BOUND_CACHE.get(key)
    if hit is not None:
        return hit
    quotient = scenario.oracle.quotient_for_prime(p)
    rep = residual(scenario.oracle, quotient, mode="enumerate")
    spec = second_eigenvalue(scenario.generators, quotient)
    rate = min(1.0, spec.pi_star + spec.residual)
    out = (quotient.order(), float(rep.density), rate)
    _BOUND_CACHE[key] = out
    return out


def theory_bound(scenario: Scenario, n: int) -> Optional[float]:
    if scenario.bound_spec is None:
        return None
    order, density, rate = _single_prime_inputs(scenario, scenario.bound_spec[1])
    return sieve.single_prime_bound(order, density, n, pi_star=rate)


# ----- experiment driver -----

@dataclass(frozen=True)
class ExperimentRow:
    scenario: str
    n: int
    trials: int
    hits: int
    unknown: int
    estimate: float
    ci_halfwidth: float
    theory_bound: Optional[float]
    regime: str

    def csv_cells(self) -> List[str]:
        tb = "" if self.theory_bound is None else repr(self.theory_bound)
        return [self.scenario, str(self.n), str(self.trials), str(self.hits),
                str(self.unknown), repr(self.estimate),
                repr(self.ci_halfwidth), tb, self.regime]

    def to_json_obj(self):
        return {
            "scenario": self.scenario, "n": self.n, "trials": self.trials,
            "hits": self.hits, "unknown": self.unknown,
            "estimate": self.estimate, "ci_halfwidth": self.ci_halfwidth,
            "theory_bound": self.theory_bound, "regime": self.regime,
        }


CSV_HEADER = "scenario,n,trials,hits,unknown,estimate,ci_halfwidth,theory_bound,regime"


@dataclass(frozen=True)
class ExperimentTable:
    rows: Tuple[ExperimentRow, ...]

    def csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(",".join(r.csv_cells()))
        return "\n".join(lines) + "\n"

    def to_json_obj(self):
        return [r.to_json_obj() for r in self.rows]


def exact_probability(scenario: Scenario, n: int) -> Fraction:
    """P(omega_n in Z) exactly, where the scenario admits it."""
    return walker.hit_probabilities_exact(scenario.generators, [n], scenario.oracle)[n]


def run_experiment(scenario_or_name, n_grid: Sequence[int], m: int, seed: int,
                   mode: str = "mc") -> ExperimentTable:
    """One row per n: estimate, half-width, theory bound.

    Deterministic in (scenario, grid, m, seed). The half-width is
    MCEstimate.halfwidth, 3/m on rows without hits. Every oracle decides
    every state, so each row's unknown count is 0.
    """
    scenario = (scenario_or_name if isinstance(scenario_or_name, Scenario)
                else get_scenario(scenario_or_name))
    grid = sorted(set(int(n) for n in n_grid))
    if not grid or grid[0] < 1:
        raise DomainError("grid must be non-empty with n >= 1")
    rows = []
    if mode == "exact":
        exact = walker.hit_probabilities_exact(scenario.generators, grid, scenario.oracle)
        for n, p in exact.items():
            rows.append(ExperimentRow(
                scenario=scenario.name, n=n, trials=0, hits=0, unknown=0,
                estimate=float(p), ci_halfwidth=0.0,
                theory_bound=theory_bound(scenario, n), regime=scenario.regime))
        return ExperimentTable(tuple(rows))
    if mode != "mc":
        raise DomainError("mode must be 'mc' or 'exact'")
    if m < 1:
        raise DomainError("m must be positive")
    estimates = walker.mc_sweep(scenario.generators, scenario.oracle, grid, m, seed)
    for est in estimates:
        rows.append(ExperimentRow(
            scenario=scenario.name, n=est.n, trials=est.trials, hits=est.hits,
            unknown=0, estimate=est.estimate, ci_halfwidth=est.halfwidth,
            theory_bound=theory_bound(scenario, est.n), regime=scenario.regime))
    return ExperimentTable(tuple(rows))


# ----- decay fitting -----

@dataclass(frozen=True)
class DecayFit:
    """Which decay shape the table follows, and how well."""

    model: str  # exponential | polynomial
    value: float  # rate r (P ~ e^{-r n}) or exponent e (P ~ n^e)
    r_squared: float
    r2_exponential: float
    r2_polynomial: float
    window: Tuple[int, int]
    points_used: int
    censored: int

    def to_json_obj(self):
        return {
            "model": self.model, "value": self.value,
            "r_squared": self.r_squared,
            "r2_exponential": self.r2_exponential,
            "r2_polynomial": self.r2_polynomial,
            "window": list(self.window), "points_used": self.points_used,
            "censored": self.censored,
        }


def _least_squares(xs, ys) -> Tuple[float, float, float]:
    """slope, intercept, R^2 of a 1-D least squares line."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    xm = x.mean()
    ym = y.mean()
    sxx = float(((x - xm) ** 2).sum())
    slope = float(((x - xm) * (y - ym)).sum()) / sxx
    intercept = ym - slope * xm
    resid = y - (slope * x + intercept)
    ss_res = float((resid ** 2).sum())
    ss_tot = float(((y - ym) ** 2).sum())
    if ss_tot == 0:
        r2 = 1.0 if ss_res <= 1e-30 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return slope, intercept, r2


def fit_decay(rows: Sequence[ExperimentRow], min_trials: int = 0) -> DecayFit:
    """Classify decay as exponential or polynomial by comparing R^2 of
    log P against n versus log P against log n."""
    usable = [r for r in rows if r.estimate > 0 and r.trials >= min_trials]
    censored = len(rows) - len(usable)
    if len(usable) < 4:
        raise InsufficientData(
            f"need at least 4 usable points, have {len(usable)}")
    ns = [r.n for r in usable]
    log_ns = [math.log(n) for n in ns]
    # distinct log n are distinct floats n too, so neither fit divides by 0
    if len(set(log_ns)) == 1:
        raise InsufficientData(f"need rows at two or more walk lengths, got only n = {ns[0]}")
    logps = [math.log(r.estimate) for r in usable]
    slope_e, _, r2_e = _least_squares(ns, logps)
    slope_p, _, r2_p = _least_squares(log_ns, logps)
    if r2_e >= r2_p:
        return DecayFit(model="exponential", value=-slope_e, r_squared=r2_e,
                        r2_exponential=r2_e, r2_polynomial=r2_p,
                        window=(min(ns), max(ns)), points_used=len(usable),
                        censored=censored)
    return DecayFit(model="polynomial", value=slope_p, r_squared=r2_p,
                    r2_exponential=r2_e, r2_polynomial=r2_p,
                    window=(min(ns), max(ns)), points_used=len(usable),
                    censored=censored)
