"""Tests of the benchmark itself: statistics, seeds, output checks, tracing
and the cold set-up timer."""

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run

run.use_checkout_source()

import tracing  # noqa: E402
import workloads  # noqa: E402
from sievelab import lab, thinsets, walker  # noqa: E402

HERE = Path(__file__).resolve().parent

# ops too slow for a unit test; each shares its check with a cheaper op
# of the same kind, which is tested instead
SLOW = {"spectrum:st:p=13", "spectrum:elementary2:p=13", "spectrum:elementary2:p=11",
        "spectrum:elementary3:p=3", "residual:sl3:p=3", "closure:st:3x7",
        "exact:z_origin:n<=1024"}
# every kind of exact op once, the closure on a smaller quotient
CHECKED_OPS = {op.name: op for op in workloads.WORKLOADS["exact"].ops if op.name not in SLOW}
CHECKED_OPS["closure:st:5"] = workloads.closure_op((5,))


@pytest.fixture(scope="module")
def exact_ctx(tmp_path_factory):
    return workloads.setup("exact", out_dir=tmp_path_factory.mktemp("out"))


def test_p90_needs_ten_samples_beyond_it():
    assert run.samples_beyond(100, 90) == 10
    assert run.p90_valid(100)
    assert not run.p90_valid(99)
    assert not run.p90_valid(20)
    values = list(range(1, 101))
    assert run.percentile(values, 90) == 90
    assert run.percentile(values, 50) == 50
    assert run.percentile([3.0], 90) == 3.0


def test_percentiles_stay_inside_one_kind_of_op_for_whole_cycles():
    # with any number of whole cycles, the nearest-rank median and p90
    # fall on the same position of the sorted op list
    for workload, spec in workloads.WORKLOADS.items():
        k = len(spec.ops)
        for pct in (50, 90):
            position = run.percentile(range(k), pct)
            for cycles in range(1, 12):
                samples = [i % k for i in range(k * cycles)]
                assert run.percentile(samples, pct) == position, (workload, pct, cycles)


def test_exact_percentiles_lie_inside_their_blocks():
    ops = workloads.WORKLOADS["exact"].ops
    assert len(ops) == 50
    small = {op.name for op in workloads.EXACT_SMALL}
    p13 = {op.name for op in workloads.EXACT_P13}
    assert sum(op.name in small for op in ops) == 35
    assert sum(op.name in p13 for op in ops) == 6
    # below the median: the CLI call and 24 of the small ops; above the
    # 90th percentile: three dense p=13 spectra and the two SL_3(F_3) ops
    assert run.percentile(range(50), 50) == 24
    assert run.percentile(range(50), 90) == 44


def test_op_seeds_are_deterministic():
    a = [workloads.op_seed("mc_matrix", 7, i) for i in range(50)]
    assert a == [workloads.op_seed("mc_matrix", 7, i) for i in range(50)]
    assert len(set(a)) == 50
    assert all(0 <= s < 2 ** 63 for s in a)
    assert workloads.op_seed("mc_matrix", 8, 0) != a[0]
    assert workloads.op_seed("exact", 7, 0) != a[0]
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import run; run.use_checkout_source();"
         " import workloads; print(workloads.op_seed('mc_matrix', 7, 3))", str(HERE)],
        capture_output=True, text=True, check=True)
    assert int(out.stdout) == a[3]


def test_reference_formulas():
    import math

    for n in range(60):
        paths = sum(math.comb(n, 2 * k) * math.comb(2 * k, k) for k in range(n // 2 + 1))
        assert workloads.z_origin_exact(n) == Fraction(paths, 3 ** n)
    for n in (1, 2, 5, 9):
        assert lab.exact_probability(lab.get_scenario("z_origin"), n) == workloads.z_origin_exact(n)
        assert (lab.exact_probability(lab.get_scenario("torus_squares"), n)
                == workloads.torus_squares_exact(n))


class FlipOneOracle(thinsets.NongenericGaloisOracle):
    """Answers hit_raw wrongly on exactly one matrix."""

    def __init__(self, flat):
        super().__init__(2)
        self.flat = tuple(flat)

    def hit_raw(self, flat):
        out = super().hit_raw(flat)
        return (not out) if tuple(flat) == self.flat else out


def test_mc_check_catches_one_flipped_verdict(tmp_path):
    seed, grid = 12345, (4, 8, 16)
    plain = lab.get_scenario("sl2_trace")
    config = walker.WalkConfig(generators=plain.generators, n=8, m=1, seed=seed)
    target = walker.run_walk(config, 0)[8].flat()
    fake = dataclasses.replace(plain, oracle=FlipOneOracle(target))
    op = workloads.mc_op("sl2_trace", grid, 500, prefix=4)

    good = workloads.Context({"sl2_trace": plain}, out_dir=tmp_path)
    assert run.check_op(op, good, seed, op.run(good, seed, False)) is None
    bad = workloads.Context({"sl2_trace": fake}, out_dir=tmp_path)
    reason = run.check_op(op, bad, seed, op.run(bad, seed, False))
    assert reason is not None and "run_walk" in reason


def test_mc_check_catches_a_biased_estimate(tmp_path):
    ctx = workloads.Context({"sl2_trace": lab.get_scenario("sl2_trace")}, out_dir=tmp_path)
    op = workloads.mc_op("sl2_trace", (4, 8), 4000, prefix=2)
    table = op.run(ctx, 5, False)
    assert run.check_op(op, ctx, 5, table) is None
    row = table.rows[0]
    shift = int(4000 * 6 * row.ci_halfwidth) + 1
    biased = dataclasses.replace(row, hits=row.hits - shift,
                                 estimate=(row.hits - shift) / 4000)
    wrong = dataclasses.replace(table, rows=(biased,) + table.rows[1:])
    assert "estimate" in run.check_op(op, ctx, 5, wrong)
    short = dataclasses.replace(table, rows=table.rows[:1])
    assert run.check_op(op, ctx, 5, short) is not None


def corrupt(out):
    """One wrong answer of the same shape as out."""
    if isinstance(out, lab.ExperimentTable):
        row = out.rows[-1]
        return dataclasses.replace(out, rows=out.rows[:-1] + (
            dataclasses.replace(row, estimate=row.estimate * (1 + 1e-9)),))
    if isinstance(out, dict):
        n = max(out)
        return {**out, n: out[n] + Fraction(1, 10 ** 12)}
    if isinstance(out, tuple):
        code, data = out
        return code, data.replace(b"1", b"2", 1)
    if hasattr(out, "pi_1"):
        return dataclasses.replace(out, pi_1=out.pi_1 + 1e-5)
    if hasattr(out, "hits"):
        return dataclasses.replace(out, hits=out.hits - 1)
    return dataclasses.replace(out, size=out.size - 1)


@pytest.mark.parametrize("name", sorted(CHECKED_OPS))
def test_exact_checks_catch_a_wrong_answer(exact_ctx, name):
    op = CHECKED_OPS[name]
    out = op.run(exact_ctx, 3, False)
    assert run.check_op(op, exact_ctx, 3, out) is None
    assert run.check_op(op, exact_ctx, 3, corrupt(out)) is not None
    if isinstance(out, tuple):
        assert run.check_op(op, exact_ctx, 3, (1, out[1])) is not None


def test_traced_outputs_equal_untraced_and_dispatch_is_kept(tmp_path):
    tracer = tracing.Tracer()
    ctx = workloads.Context(
        {name: lab.get_scenario(name) for name in ("sl2_trace", "torus_squares")},
        tracer=tracer, out_dir=tmp_path)
    torus = ctx.scenario("torus_squares", traced=True).oracle
    galois = ctx.scenario("sl2_trace", traced=True).oracle
    assert hasattr(torus, "hit_raw_batch")
    assert not hasattr(galois, "hit_raw_batch")
    assert ctx.scenario("sl2_trace", traced=True).generators is ctx.scenario("sl2_trace").generators

    ops = [workloads.mc_op("sl2_trace", (4, 8), 300, prefix=2),
           workloads.mc_op("torus_squares", (16, 64), 300, prefix=2),
           workloads.residual_op(2, 13),
           workloads.closure_op((5,)),
           workloads.deviation_op()]
    for op in ops:
        plain = op.run(ctx, 9, False)
        tracer.install()
        try:
            with tracer.span(op.name):
                traced = op.run(ctx, 9, True)
        finally:
            tracer.uninstall()
        assert traced == plain, op.name
    agg = tracer.agg["setup"]  # the phase a fresh tracer books to
    assert agg["walker.mc_sweep"][0] == 2
    assert agg["thinsets.hit_raw"][0] == 300 * 2
    assert agg["thinsets.hit_raw_batch"][3] == 300 * 2
    assert agg["quotients.enumerate"][3] == 2184
    assert agg["quotients.bfs_closure"][3] == 120
    assert agg["walker.exact"][0] == 1
    # self times never exceed the totals, and wrappers are gone again
    assert all(a[2] <= a[1] + 1e-9 for a in agg.values())
    assert not hasattr(walker.mc_sweep, "__wrapped__")


def test_metric_names_match_the_benchmark_definition():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(spec["paths"]) == {HERE.name}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    layers = run.layer_metrics(tracing.Tracer(), 1, 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    assert all(m["unit"] == layers[m["name"]][1] for m in spec["per_layer"])
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)


def test_setup_is_timed_from_a_cold_import():
    out = subprocess.run([sys.executable, str(HERE / "probe.py"), "mc_abelian"],
                         capture_output=True, text=True, check=True, cwd=str(HERE.parent))
    probe = json.loads(out.stdout.strip().splitlines()[-1])
    assert probe["cold"] is True and probe["setup_s"] > 0
    # in a process that already imported sievelab the timer says so
    _, _, cold = run.timed_setup("mc_abelian")
    assert cold is False


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
