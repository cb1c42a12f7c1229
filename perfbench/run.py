"""sievelab benchmark: one command, named workloads, checked outputs.

    python3 perfbench/run.py --workload mc_matrix --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its src/.

Workloads (ops cycle through a fixed list; see workloads.py):
  mc_matrix   lab.run_experiment(mode="mc") on SL_2 with S/T and
              elementary generators and on SL_3: the matrix walk kernels
              plus hit_raw verdicts.
  mc_abelian  lab.run_experiment(mode="mc") on Z and the rank-2 torus with
              walks up to n = 4096: counter-based draws and numpy cumsums.
  exact       verification tooling without MC walks: dense and iterative
              spectra, residual enumeration and sampling, a closure,
              exact-law experiments, a deviation sweep, `sievelab bound`.

Each run is one process, a closed loop with one client: the next op starts
when the previous one has returned. Per-op seeds derive from --seed. Ops
are timed one by one from outside, each output is checked, and whole
cycles of the op list run until --seconds of op time and at least 100 ops
are done, so that the 90th percentile has ten samples beyond it.

--trace 0 prints the end-to-end metrics:
  setup_s       median of SETUP_SAMPLES cold set-ups (this process and
                fresh child processes): import sievelab, build the
                workload's scenarios, fill lab.theory_bound for them.
                The child set-ups run between ops, spread over the timed
                part, so that they see the same drift of the machine's
                speed as the ops do
  ops_per_s     successful ops per second of op time
  op_s_p50      median op wall time; op_s_p90 its 90th percentile
                (nearest rank)
  ok_ratio      1 - fail_ratio; an op fails if it raises or its check fails
  peak_rss_mib  ru_maxrss of this process

--trace 1 runs every op twice, untraced and then traced, requires equal
outputs, and prints the per-layer metrics of one round (the set-up once
plus one cycle of the op list) plus the tracing overhead.

The last stdout line is the result JSON; the line before it is a report
with provenance, sample counts, fail_ratio and informational science
outputs. Reports and span dumps are also written under .bench_out/.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
HERE = Path(__file__).resolve().parent

MIN_OPS = 100
SETUP_SAMPLES = 5
WALL_LIMIT_S = 150.0
WORKLOAD_NAMES = ("mc_matrix", "mc_abelian", "exact")
END_TO_END = ("setup_s", "ops_per_s", "op_s_p50", "op_s_p90", "ok_ratio", "peak_rss_mib")


def use_checkout_source():
    """Import sievelab from this checkout's src/, never from elsewhere."""
    if not (SRC / "sievelab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sievelab package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def timed_setup(workload):
    """(seconds, context, cold) for importing sievelab and setting up.

    cold says whether neither sievelab nor numpy was imported before, so
    that the time includes the whole import.
    """
    t0 = time.perf_counter()
    cold = "sievelab" not in sys.modules and "numpy" not in sys.modules
    import workloads

    ctx = workloads.setup(workload, out_dir=OUT_DIR)
    return time.perf_counter() - t0, ctx, cold


def probe_setup(workload):
    """Set-up seconds measured in a fresh process (see probe.py)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload],
        capture_output=True, text=True, timeout=120, cwd=str(ROOT))
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not out["cold"]:
        raise RuntimeError("set-up probe did not start cold")
    return out["setup_s"]


# ----- statistics -----

def percentile(values, pct):
    """Nearest-rank percentile: the smallest sample with at least pct
    percent of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(1, -(-pct * len(ordered) // 100)) - 1]


def samples_beyond(n, pct):
    """How many of n samples lie beyond the nearest-rank percentile."""
    return n - max(1, -(-pct * n // 100))


def p90_valid(n):
    return samples_beyond(n, 90) >= 10


# ----- provenance -----

def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_revision():
    """HEAD of the repository rooted at ROOT; None in a plain checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10, cwd=str(ROOT))
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_sha256():
    h = hashlib.sha256()
    for path in sorted((SRC / "sievelab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance():
    import numpy
    import sievelab

    return {
        "machine": {
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": _blas_threads(),
            "blas_env": {k: os.environ[k] for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS") if k in os.environ},
        },
        "code": {
            "git_revision": _git_revision(),
            "source_sha256": _source_sha256(),
            "sievelab_version": sievelab.__version__,
        },
    }


# ----- runs -----

def run_op(op, ctx, seed, traced=False):
    """(seconds, output, error) for one op, timed from outside."""
    t0 = time.perf_counter()
    try:
        out = op.run(ctx, seed, traced)
    except Exception as exc:  # a raising op is a failed op, not a crash
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, out, None


def check_op(op, ctx, seed, out):
    """None if the output is right, else the reason."""
    import workloads

    try:
        op.check(ctx, seed, out)
    except workloads.CheckFailed as exc:
        return f"check: {exc}"
    except Exception as exc:  # a check that cannot run fails the op
        return f"check raised {type(exc).__name__}: {exc}"
    return None


def measure(args):
    """End-to-end metrics with tracing off."""
    setup_s, ctx, cold = timed_setup(args.workload)
    import workloads

    if not cold:
        raise RuntimeError("set-up did not start from a cold import")
    workloads.check_setup(ctx)
    setups = [setup_s]

    ops = workloads.WORKLOADS[args.workload].ops
    times, per_op, failures = [], {}, []
    attempted = cycles = 0
    op_time = 0.0
    wall0 = time.perf_counter()
    while True:
        for op in ops:
            seed = workloads.op_seed(args.workload, args.seed, attempted)
            dt, out, err = run_op(op, ctx, seed)
            if err is None:
                err = check_op(op, ctx, seed, out)
            attempted += 1
            op_time += dt
            if err is None:
                times.append(dt)
                per_op.setdefault(op.name, []).append(dt)
            else:
                failures.append(f"{op.name} seed={seed}: {err}")
            if (len(setups) < SETUP_SAMPLES
                    and op_time >= args.seconds * len(setups) / SETUP_SAMPLES):
                setups.append(probe_setup(args.workload))
        cycles += 1
        if op_time >= args.seconds and attempted >= MIN_OPS:
            break
        if time.perf_counter() - wall0 > WALL_LIMIT_S:
            break
    wall = time.perf_counter() - wall0
    while len(setups) < SETUP_SAMPLES:
        setups.append(probe_setup(args.workload))
    ok = len(times)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ok / op_time, "ops/s"),
        "op_s_p50": (percentile(times, 50) if times else op_time, "s"),
        "op_s_p90": (percentile(times, 90) if times else op_time, "s"),
        "ok_ratio": (ok / attempted, "1"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }
    metrics = {name: metrics[name] for name in END_TO_END}
    report = {
        "run": {
            "ops_timed": attempted, "ops_ok": ok, "cycles": cycles,
            "op_time_s": op_time, "wall_s": wall,
            "fail_ratio": {"value": (attempted - ok) / attempted, "unit": "1"},
            "op_s_p50_samples": ok, "op_s_p90_samples": ok,
            "op_s_p90_samples_beyond": samples_beyond(ok, 90) if ok else 0,
            "op_s_p90_valid": p90_valid(ok),
            "setup_samples_s": setups,
            "per_op_median_s": {k: statistics.median(v) for k, v in per_op.items()},
            "failures": failures[:20],
        },
        "science": science(ctx),
    }
    return metrics, report, attempted, attempted - ok


def science(ctx):
    """Informational outputs; no metric, no bound."""
    out = {"unknown_verdicts_by_reason": dict(ctx.unknown_reasons)}
    if ctx.generic:
        out["sl3_generic_fraction"] = {
            str(n): {"value": g / t, "trials": t} for n, (g, t) in sorted(ctx.generic.items())}
    return out


def measure_traced(args):
    """Per-layer metrics: every op untraced, then traced; outputs must match."""
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    with tracer.span("setup"):
        ctx = workloads.setup(args.workload, tracer=tracer, out_dir=OUT_DIR)
    tracer.uninstall()
    tracer.phase = "ops"
    workloads.check_setup(ctx)

    ops = workloads.WORKLOADS[args.workload].ops
    failures = []
    attempted = failed = cycles = 0
    plain_s = traced_s = 0.0
    wall0 = time.perf_counter()
    while True:
        for op in ops:
            seed = workloads.op_seed(args.workload, args.seed, attempted)
            dt0, out0, err = run_op(op, ctx, seed)
            tracer.install()
            try:
                with tracer.span(op.name, op_id=attempted):
                    dt1, out1, err1 = run_op(op, ctx, seed, traced=True)
            finally:
                tracer.uninstall()
            err = err or err1
            if err is None and out0 != out1:
                err = "traced output differs from untraced output"
            if err is None:
                err = check_op(op, ctx, seed, out0)
            attempted += 1
            plain_s += dt0
            traced_s += dt1
            if err is not None:
                failed += 1
                failures.append(f"{op.name} seed={seed}: {err}")
        cycles += 1
        if plain_s + traced_s >= args.seconds or time.perf_counter() - wall0 > WALL_LIMIT_S:
            break

    metrics = layer_metrics(tracer, cycles, traced_s / plain_s)
    report = {
        "run": {
            "ops_timed": attempted, "cycles": cycles, "failures": failures[:20],
            "round": "set-up once plus one cycle of the op list",
            "untraced_ops_per_s": attempted / plain_s,
            "traced_ops_per_s": attempted / traced_s,
        },
        "layer_self_s_per_round": tracer.layer_self_table(cycles),
        "traced_unknown_by_reason": {ph: dict(c) for ph, c in tracer.unknown.items()},
        "science": science(ctx),
    }
    dump_spans(args, tracer)
    return metrics, report, attempted, failed


def _rate(work, seconds):
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(tracer, cycles, overhead):
    """Per-layer counts, self times and rates of one round."""
    def r(*names):
        return tracer.round_total(cycles, *names)

    prng = r("prng.draw_block", "prng.draw_indices")
    mc = r("walker.mc_sweep")
    exact = r("walker.exact")
    verdict = r("thinsets.hit_raw", "thinsets.global_verdict")
    batch = r("thinsets.hit_raw_batch")
    verdicts, verdict_s = verdict[0] + batch[3], verdict[2] + batch[2]
    res = r("thinsets.residual")
    res_s = res[2] + r("thinsets.residual_contains")[2]
    gf = r("gfpoly.is_irreducible")
    enum = r("quotients.enumerate")
    closure = r("quotients.bfs_closure")
    dense = r("spectra.dense")
    it = r("spectra.iterative")
    sv = r("sieve")
    return {
        "prng.draws": (prng[3], "count"),
        "prng.busy_s": (prng[2], "s"),
        "prng.draws_per_s": (_rate(prng[3], prng[2]), "1/s"),
        "walker.mc.steps": (mc[3], "count"),
        "walker.mc.self_s": (mc[2], "s"),
        "walker.mc.steps_per_s": (_rate(mc[3], mc[2]), "1/s"),
        "walker.exact.calls": (exact[0], "count"),
        "walker.exact.self_s": (exact[2], "s"),
        "thinsets.verdicts": (verdicts, "count"),
        "thinsets.verdict_s": (verdict_s, "s"),
        "thinsets.verdicts_per_s": (_rate(verdicts, verdict_s), "1/s"),
        "thinsets.unknown": (tracer.round_unknown(cycles), "count"),
        "thinsets.residual.elements": (res[3], "count"),
        "thinsets.residual.self_s": (res_s, "s"),
        "thinsets.residual.elements_per_s": (_rate(res[3], res_s), "1/s"),
        "gfpoly.calls": (gf[0], "count"),
        "gfpoly.busy_s": (gf[2], "s"),
        "quotients.enumerate.elements": (enum[3], "count"),
        "quotients.enumerate_s": (enum[2], "s"),
        "quotients.enumerate.elements_per_s": (_rate(enum[3], enum[2]), "1/s"),
        "quotients.closure.elements_per_s": (_rate(closure[3], closure[1]), "1/s"),
        "quotients.multiply.calls": (r("quotients.multiply")[0], "count"),
        "spectra.dense.calls": (dense[0], "count"),
        "spectra.dense.self_s": (dense[2], "s"),
        "spectra.iterative.calls": (it[0], "count"),
        "spectra.iterative.self_s": (it[2], "s"),
        "spectra.iterative.self_s_per_kelem": (_rate(it[2], it[3] / 1000.0), "s/kelem"),
        "lab.bound_inputs_s": (r("lab.theory_bound")[1], "s"),
        "lab.run_experiment.self_s": (r("lab.run_experiment")[2], "s"),
        "sieve.calls": (sv[0], "count"),
        "sieve.busy_s": (sv[2], "s"),
        "cli.main_s": (r("cli.main")[1], "s"),
        "trace.overhead": (overhead, "ratio"),
    }


def dump_spans(args, tracer):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump({"spans": tracer.spans, "aggregates": tracer.agg}, fh)


def print_table(title, rows):
    print(title)
    for name, (value, unit) in rows.items():
        print(f"  {name:40s} {value:>16.6g} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description="sievelab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_checkout_source()
    OUT_DIR.mkdir(exist_ok=True)

    metrics, report, attempted, failed = (measure_traced if args.trace else measure)(args)
    report["provenance"] = provenance()
    report["run"].update(workload=args.workload, seed=args.seed,
                         seconds=args.seconds, trace=args.trace)
    if args.trace:
        print("per-layer self time of one round (s):")
        for layer, secs in report["layer_self_s_per_round"].items():
            print(f"  {layer:40s} {secs:>16.6g}")
    print_table("metrics:", metrics)
    (OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
