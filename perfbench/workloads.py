"""Workloads of the sievelab benchmark: set-up, op lists and output checks.

Every op drives the public sievelab API and returns its output. Each
output is checked; a failed check counts the op as failed. Reference
values marked "frozen" were computed once from the code of the first
benchmarked commit and do not depend on the workload seed.

Importing this module imports sievelab, so the cold set-up timer starts
before this import.
"""

import hashlib
import math
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Callable, Tuple

from sievelab import cli, lab, quotients, spectra, thinsets, walker
from sievelab.matgroup import elementary_generators, sl2_st_generators
from sievelab.quotients import MatrixQuotient, group_order, prime_schedule


class CheckFailed(Exception):
    """An op returned a wrong answer."""


def expect(cond, msg):
    if not cond:
        raise CheckFailed(msg)


# ----- frozen references -----

# lab.exact_probability on sl2_trace; sl2_fixed_flag is the same thin set
# (trace in {-2, 2}) under the same walk
SL2_TRACE_EXACT = {
    1: Fraction(3, 5), 2: Fraction(13, 25), 3: Fraction(3, 5),
    4: Fraction(329, 625), 5: Fraction(1683, 3125), 6: Fraction(7869, 15625),
    7: Fraction(38783, 78125), 8: Fraction(185873, 390625),
}
SL2_ELEMENTARY_EXACT = {4: Fraction(313, 625), 8: Fraction(27909, 78125)}
# lab.theory_bound(scenario, 256) after the set-up fill
THEORY_BOUND_256 = {
    "sl2_trace": 0.6317038667026639,
    "sl2_fixed_flag": 0.2947951377945765,
    "sl2_elementary": 0.6250000000538919,
    "sl3_galois": 1.0,
}
# pi_1 of the walk on SL_dim(F_p), by generator family
PI1 = {
    ("st", 11): 0.9646549809537548, ("st", 13): 0.9693541910599255,
    ("elementary2", 11): 0.9236067977499811, ("elementary2", 13): 0.935026174113331,
    ("elementary3", 3): 0.7916540478560323,
}
# residual hits of NongenericGaloisOracle(dim), enumerated mod p
RESIDUAL_HITS = {(2, 13): 1248, (3, 3): 5616}
# sha256 of repr(sorted(exact_deviation_sweep(S/T, SL_2(F_5), 0..24).items()))
DEVIATION_SHA_MOD5 = "814490264e679ebc6a7e08adb4ab13aee20d37eec75d149b8a6a08d57cc1d81a"
BOUND_ARGS = ["bound", "--a-size", "3", "--C", "0.5", "--D", "1", "--alpha", "0.5",
              "--grid", "geometric:16:1048576"]
BOUND_CSV_SHA = "19011b0027de443c9f8ecad710dab099f3c236a118cbb70901ed726ecbb229f3"


_TRINOMIAL = [1, 1]


def z_origin_exact(n):
    """P(the walk on Z with steps {0, +1, -1} is at 0 after n steps): the
    central trinomial coefficient sum_k C(n, 2k) C(2k, k) over 3^n. The
    coefficients come from their recurrence
    k T(k) = (2k - 1) T(k - 1) + 3 (k - 1) T(k - 2)."""
    while len(_TRINOMIAL) <= n:
        k = len(_TRINOMIAL)
        _TRINOMIAL.append(((2 * k - 1) * _TRINOMIAL[-1] + 3 * (k - 1) * _TRINOMIAL[-2]) // k)
    return Fraction(_TRINOMIAL[n], 3 ** n)


@lru_cache(maxsize=None)
def torus_squares_exact(n):
    """P(both exponents even): the parity walk on (Z/2)^2 has character
    eigenvalues 1, 1/5, 1/5 and -3/5."""
    return (1 + 2 * Fraction(1, 5) ** n + Fraction(-3, 5) ** n) / 4


EXACT_MC = {
    "sl2_trace": SL2_TRACE_EXACT,
    "sl2_fixed_flag": SL2_TRACE_EXACT,
    "sl2_elementary": SL2_ELEMENTARY_EXACT,
}


def mc_reference_probability(scenario, n):
    if scenario == "z_origin":
        return z_origin_exact(n)
    if scenario == "torus_squares":
        return torus_squares_exact(n)
    return EXACT_MC.get(scenario, {}).get(n)


# ----- scenarios and context -----

def build_scenario(name):
    if name != "sl2_elementary":
        return lab.get_scenario(name)
    return lab.Scenario(
        name="sl2_elementary", group="sl2", generators=ELEMENTARY2,
        oracle=thinsets.NongenericGaloisOracle(2), regime="exponential",
        description="thin set {trace in {-2, 2}} in SL_2 under the elementary walk",
        schedule=prime_schedule(3, 3), bound_spec=("single_prime", 7))


class Context:
    """What the set-up built, plus the proxies of a traced run and the
    informational tallies the checks fill in."""

    def __init__(self, scenarios, tracer=None, out_dir=None):
        self.scenarios = scenarios
        self.tracer = tracer
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self._traced = {}
        self.generic = {}  # n -> [generic, trials] pooled over sl3_galois ops
        self.unknown_reasons = Counter()

    def scenario(self, name, traced=False):
        if not traced:
            return self.scenarios[name]
        s = self._traced.get(name)
        if s is None:
            plain = self.scenarios[name]
            s = self._traced[name] = replace(plain, oracle=self.tracer.proxy_oracle(plain.oracle))
        return s

    def quotient(self, q, traced):
        return self.tracer.proxy_quotient(q) if traced else q

    def oracle(self, o, traced):
        return self.tracer.proxy_oracle(o) if traced else o


def setup(workload, tracer=None, out_dir=None):
    """Build the workload's scenarios and fill their theory bounds.

    This is what `sievelab experiment` pays before its first walk.
    """
    names = WORKLOADS[workload].scenarios
    ctx = Context({name: build_scenario(name) for name in names}, tracer, out_dir)
    for name in names:
        lab.theory_bound(ctx.scenario(name, tracer is not None), 1)
    return ctx


def check_setup(ctx):
    """The set-up's fill gives the frozen theory bounds."""
    for name, s in ctx.scenarios.items():
        if s.bound_spec is not None:
            got, want = lab.theory_bound(s, 256), THEORY_BOUND_256[name]
            expect(math.isclose(got, want, rel_tol=1e-6),
                   f"theory_bound({name}, 256) = {got!r}, want {want!r}")


# ----- ops -----

SL2_GRID = (4, 8, 16, 32, 64)
SL3_GRID = (5, 10, 20, 40, 80)
SHORT_GRID = tuple(16 << k for k in range(7))  # 16 .. 1024
LONG_GRID = tuple(64 << k for k in range(7))  # 64 .. 4096
ST = sl2_st_generators()
ELEMENTARY2 = elementary_generators(2)


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable  # (ctx, seed, traced) -> output
    check: Callable  # (ctx, seed, output) -> None; raises CheckFailed


def reference_hits(scenario, grid, trials, seed, reasons=None):
    """Hits and UNKNOWNs per n from run_walk plus global_verdict: the exact
    path the MC kernels must agree with, trial by trial."""
    config = walker.WalkConfig(generators=scenario.generators, n=max(grid),
                               m=trials, seed=seed)
    hits = {n: 0 for n in grid}
    unknown = {n: 0 for n in grid}
    for t in range(trials):
        path = walker.run_walk(config, t)
        for n in grid:
            v = scenario.oracle.global_verdict(path[n])
            if v.status == "IN":
                hits[n] += 1
            elif v.status == "UNKNOWN":
                unknown[n] += 1
                if reasons is not None:
                    reasons[v.reason] += 1
    return hits, unknown


def check_mc_rows(table, scenario, grid, m):
    rows = table.rows
    expect([r.n for r in rows] == list(grid), f"rows at n={[r.n for r in rows]}")
    for r in rows:
        expect(r.scenario == scenario.name and r.trials == m, f"row {r}")
        expect(0 <= r.hits <= m and r.estimate == r.hits / m, f"row {r}")
        if scenario.bound_spec is None:
            expect(r.theory_bound is None, f"unexpected theory bound in {r}")
        else:
            expect(0.0 <= r.theory_bound <= 1.0, f"theory bound out of [0, 1] in {r}")


def check_mc_statistics(table, scenario, m):
    """Estimates lie within 5 half-widths of the exact law where it is
    known. The half-width is the larger of the row's and the one the exact
    probability gives, so an all-miss row is not judged by 3/m alone."""
    for r in table.rows:
        p = mc_reference_probability(scenario.name, r.n)
        if p is None:
            continue
        hw = max(r.ci_halfwidth, 1.96 * math.sqrt(float(p * (1 - p)) / m))
        expect(abs(r.estimate - float(p)) <= 5 * hw,
               f"{scenario.name} n={r.n}: estimate {r.estimate} vs exact {float(p)}"
               f" (half-width {hw})")


def mc_op(scenario, grid, m, prefix):
    """lab.run_experiment(mode="mc") with m trials. The check reruns the
    first `prefix` trials (the same draws, since draws are counter-based)
    and compares them with run_walk plus global_verdict."""
    grid = tuple(grid)

    def run(ctx, seed, traced):
        return lab.run_experiment(ctx.scenario(scenario, traced), grid, m, seed)

    def check(ctx, seed, table):
        s = ctx.scenario(scenario)
        check_mc_rows(table, s, grid, m)
        head = lab.run_experiment(s, grid, prefix, seed)
        hits, unknown = reference_hits(s, grid, prefix, seed, ctx.unknown_reasons)
        got_hits = {r.n: r.hits for r in head.rows}
        got_unknown = {r.n: r.unknown for r in head.rows}
        expect(got_hits == hits and got_unknown == unknown,
               f"{scenario}: first {prefix} trials give hits {got_hits}, "
               f"run_walk + global_verdict give {hits}")
        check_mc_statistics(table, s, m)
        if scenario == "sl3_galois":
            for r in table.rows:
                acc = ctx.generic.setdefault(r.n, [0, 0])
                acc[0] += r.trials - r.hits - r.unknown
                acc[1] += r.trials

    return Op(f"mc:{scenario}:n<={max(grid)}:m={m}", run, check)


def spectrum_op(family, gens, dim, p, method):
    pi_1 = PI1[(family, p)]

    def run(ctx, seed, traced):
        return spectra.second_eigenvalue(gens, ctx.quotient(MatrixQuotient(dim, (p,)), traced))

    def check(ctx, seed, spec):
        expect(spec.method == method, f"{family} mod {p}: method {spec.method}")
        expect(spec.order == group_order(dim, p), f"{family} mod {p}: order {spec.order}")
        expect(abs(spec.pi_1 - pi_1) <= 1e-6, f"{family} mod {p}: pi_1 {spec.pi_1}, want {pi_1}")
        expect(spec.residual <= 1e-6, f"{family} mod {p}: residual {spec.residual}")

    return Op(f"spectrum:{family}:p={p}", run, check)


def residual_op(dim, p):
    oracle = thinsets.NongenericGaloisOracle(dim)
    want = RESIDUAL_HITS[(dim, p)]

    def run(ctx, seed, traced):
        o = ctx.oracle(oracle, traced)
        return thinsets.residual(o, o.quotient_for_prime(p), mode="enumerate")

    def check(ctx, seed, rep):
        order = group_order(dim, p)
        expect(rep.checked == order, f"residual SL_{dim}(F_{p}) checked {rep.checked} != {order}")
        expect(rep.hits == want and rep.density == Fraction(want, order),
               f"residual SL_{dim}(F_{p}) hits {rep.hits}, want {want}")

    return Op(f"residual:sl{dim}:p={p}", run, check)


def residual_sample_op(p, samples):
    """Seeded sample mode on SL_3(F_p). An irreducible cubic over F_p has
    cyclic Galois group, so its discriminant is a square mod p: every
    element lies in the residual set and every sample must hit."""
    oracle = thinsets.NongenericGaloisOracle(3)

    def run(ctx, seed, traced):
        o = ctx.oracle(oracle, traced)
        return thinsets.residual(o, o.quotient_for_prime(p), mode="sample",
                                 samples=samples, seed=seed)

    def check(ctx, seed, rep):
        expect(rep.checked == samples and rep.hits == samples,
               f"sampled residual SL_3(F_{p}): {rep.hits}/{rep.checked} hits, want all")

    return Op(f"residual-sample:sl3:p={p}:n={samples}", run, check)


def closure_op(moduli):
    def run(ctx, seed, traced):
        q = ctx.quotient(MatrixQuotient(2, moduli), traced)
        return quotients.bfs_closure(ST, q)

    def check(ctx, seed, rep):
        order = math.prod(group_order(2, p) for p in moduli)
        expect(rep.size == order and rep.order == order,
               f"closure mod {moduli}: size {rep.size}, group order {order}")

    return Op("closure:st:" + "x".join(map(str, moduli)), run, check)


def deviation_op():
    """exact_deviation_sweep of the S/T walk on SL_2(F_5) for n = 0..24."""
    grid = tuple(range(25))
    order = group_order(2, 5)

    def run(ctx, seed, traced):
        q = ctx.quotient(MatrixQuotient(2, (5,)), traced)
        return spectra.exact_deviation_sweep(ST, q, grid)

    def check(ctx, seed, devs):
        digest = hashlib.sha256(repr(sorted(devs.items())).encode()).hexdigest()
        expect(digest == DEVIATION_SHA_MOD5, f"deviation sweep mod 5: digest {digest}")
        for n in grid[1:]:
            expect(devs[n] ** 2 <= spectra.mixing_bound_squared(order, 5, n),
                   f"deviation mod 5 at n={n} above the mixing bound")

    return Op("deviation:st:p=5", run, check)


def exact_experiment_op(scenario, grid, reference):
    grid = tuple(grid)

    def run(ctx, seed, traced):
        return lab.run_experiment(ctx.scenario(scenario, traced), grid, 0, 0, mode="exact")

    def check(ctx, seed, table):
        expect([r.n for r in table.rows] == list(grid), f"exact {scenario}: rows")
        for r in table.rows:
            want = float(reference(r.n))
            expect(r.estimate == want, f"exact {scenario} n={r.n}: {r.estimate} != {want}")
            expect(r.trials == 0 and r.hits == 0 and r.ci_halfwidth == 0.0, f"row {r}")

    return Op(f"exact:{scenario}:n<={max(grid)}", run, check)


def bound_cli_op():
    """`sievelab bound ... --out <file>` through cli.main; the output is the
    exit code and the CSV's bytes."""
    def run(ctx, seed, traced):
        path = ctx.out_dir / "bound.csv"
        code = cli.main(BOUND_ARGS + ["--out", str(path)])
        return code, path.read_bytes()

    def check(ctx, seed, out):
        code, data = out
        expect(code == 0, f"sievelab bound exited {code}")
        digest = hashlib.sha256(data).hexdigest()
        expect(digest == BOUND_CSV_SHA, f"bound CSV digest {digest}")

    return Op("cli:bound", run, check)


# ----- workloads -----

@dataclass(frozen=True)
class Workload:
    scenarios: Tuple[str, ...]
    ops: Tuple[Op, ...]


def interleave(*groups):
    """One list of all the ops of groups, each group spread evenly over it,
    so that every kind of op is timed all through a run."""
    keyed = [((i + 0.5) / len(g), j, i, op) for j, g in enumerate(groups)
             for i, op in enumerate(g)]
    return tuple(k[-1] for k in sorted(keyed, key=lambda k: k[:3]))


# About 0.1 s each: the block the median of the exact workload lies in.
EXACT_SMALL = (deviation_op(),
               exact_experiment_op("torus_squares", tuple(1 << k for k in range(12)),
                                   torus_squares_exact),
               # seeded samples of 700 rather than one of 2000: about the
               # same work, kept inside this block
               residual_sample_op(5, 700)) * 12
# The dense p=13 spectra, 0.7-0.8 s each: the block its 90th percentile
# lies in.
EXACT_P13 = (spectrum_op("st", ST, 2, 13, "dense"),
             spectrum_op("elementary2", ELEMENTARY2, 2, 13, "dense")) * 3

# Op lists are cycled whole. Their lengths are chosen so that, for any
# number of whole cycles, the nearest-rank median and 90th percentile
# fall inside a block of like-sized ops, never on the boundary between
# two kinds of op, nor on the largest op of a block.
WORKLOADS = {
    "mc_matrix": Workload(
        scenarios=("sl2_trace", "sl2_fixed_flag", "sl2_elementary", "sl3_galois"),
        ops=(
            mc_op("sl2_trace", SL2_GRID, 12000, prefix=16),
            mc_op("sl2_fixed_flag", SL2_GRID, 12000, prefix=16),
            mc_op("sl2_elementary", SL2_GRID, 12000, prefix=16),
            mc_op("sl3_galois", SL3_GRID, 300, prefix=4),
            mc_op("sl3_galois", SL3_GRID, 300, prefix=4),
        ),
    ),
    "mc_abelian": Workload(
        scenarios=("z_origin", "torus_squares"),
        ops=(
            mc_op("z_origin", SHORT_GRID, 6000, prefix=4),
            mc_op("z_origin", LONG_GRID, 1500, prefix=1),
            mc_op("torus_squares", SHORT_GRID, 5000, prefix=4),
            mc_op("torus_squares", LONG_GRID, 1200, prefix=1),
            mc_op("z_origin", SHORT_GRID, 6000, prefix=4),
        ),
    ),
    # 50 ops. Sorted by time they are: the CLI call (a few ms); 35 ops of
    # about 0.1 s; six ops of 0.15-0.5 s; six dense p=13 spectra
    # (0.7-0.8 s); the SL_3(F_3) residual and iterative spectrum (1-2 s).
    # The median is the 25th of them, inside the 0.1 s block, and the 90th
    # percentile the 45th, the third of the six dense p=13 spectra; the
    # kinds of op next to either differ in time by far more than the
    # machine's speed drifts.
    "exact": Workload(
        scenarios=("sl2_trace", "z_origin", "torus_squares"),
        ops=interleave(
            EXACT_SMALL[:35],
            (bound_cli_op(),
             exact_experiment_op("sl2_trace", range(1, 9), SL2_TRACE_EXACT.get),
             residual_op(2, 13),
             spectrum_op("st", ST, 2, 11, "dense"),
             spectrum_op("elementary2", ELEMENTARY2, 2, 11, "dense"),
             closure_op((3, 7)),
             exact_experiment_op("z_origin", SHORT_GRID, z_origin_exact)),
            EXACT_P13,
            (residual_op(3, 3),
             spectrum_op("elementary3", elementary_generators(3), 3, 3, "iterative")),
        ),
    ),
}


def op_seed(workload, seed, index):
    """Per-op seed: a 63-bit hash of (workload, workload seed, op index)."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1
