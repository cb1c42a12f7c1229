"""Command-line interface.

Subcommands: walk, spectrum, closure, residual, bound, experiment, fit,
scenarios. Each returns its CSV or text, or its JSON document as a dict,
and main writes it, the JSON with schema_version and sorted keys.
Exit codes: 0 success, 2 bad configuration or arguments, 3 budget or
convergence failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from typing import List, Optional

from . import lab, sieve, walker
from .errors import ConfigError, DomainError, ResourceError, SievelabError
from .quotients import bfs_closure, is_prime, quotient_for
from .spectra import second_eigenvalue, spectrum_csv
from .thinsets import residual

def parse_grid(text: str) -> List[int]:
    """Either a comma list '4,8,16' or 'geometric:start:stop' meaning
    start, 2*start, 4*start, ... up to stop."""
    text = text.strip()
    if text.startswith("geometric:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise DomainError("geometric grid must be geometric:start:stop")
        try:
            start, stop = int(parts[1]), int(parts[2])
        except ValueError:
            raise DomainError(f"bad geometric grid {text!r}")
        if start < 1 or stop < start:
            raise DomainError("need 1 <= start <= stop")
        grid = []
        n = start
        while n <= stop:
            grid.append(n)
            n *= 2
        return grid
    try:
        grid = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise DomainError(f"bad grid {text!r}")
    if not grid:
        raise DomainError("empty grid")
    return grid


def _emit(text: str, out: Optional[str]):
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write {out}: {exc.strerror}") from None


def _moduli(args):
    return (args.prime,) if args.prime2 is None else (args.prime, args.prime2)


def _cmd_walk(args):
    scenario = lab.get_scenario(args.scenario)
    if args.exact:
        (_, rows, counts), = walker.exact_laws(scenario.generators, [args.n])
        total = scenario.generators.size ** args.n
        return {"scenario": scenario.name, "n": args.n, "mode": "exact",
                "distribution": [{"element": [str(x) for x in row], "probability": f"{c}/{total}"}
                                 for row, c in zip(rows.tolist(), counts.tolist())]}
    config = walker.WalkConfig(generators=scenario.generators, n=args.n,
                               m=args.trials, seed=args.seed)
    trials = []
    for trial in range(args.trials):
        path = walker.run_walk(config, trial)
        trials.append([g.to_json_obj() for g in path])
    return {"scenario": scenario.name, "n": args.n, "seed": args.seed, "trials": trials}


def _cmd_spectrum(args):
    scenario = lab.get_scenario(args.scenario)
    quotient = quotient_for(scenario.generators, _moduli(args))
    spec = second_eigenvalue(scenario.generators, quotient)
    if args.format == "csv":
        return spectrum_csv([spec])
    return {**spec.to_json_obj(), "scenario": scenario.name}


def _cmd_closure(args):
    scenario = lab.get_scenario(args.scenario)
    quotient = quotient_for(scenario.generators, _moduli(args))
    return bfs_closure(scenario.generators, quotient).to_json_obj()


def _cmd_residual(args):
    scenario = lab.get_scenario(args.scenario)
    quotient = scenario.oracle.quotient_for_prime(args.prime)
    report = residual(scenario.oracle, quotient, mode=args.mode,
                      samples=args.trials, seed=args.seed)
    return report.to_json_obj()


def _finite_fraction(text: str, name: str) -> Fraction:
    """The exact rational a number string names ("0.1" is 1/10, not the
    nearest binary float); its float must be finite, as JSON echoes it."""
    try:
        value = Fraction(text)
        float(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise DomainError(f"--{name} must be a rational number in the float range, got {text!r}")
    return value


def _cmd_bound(args):
    grid = parse_grid(args.grid)
    C, alpha = _finite_fraction(args.C, "C"), _finite_fraction(args.alpha, "alpha")
    rows = []
    for n in grid:
        bnd = sieve.plan_for_n(n, args.a_size, C, args.D, alpha)
        rows.append({"n": n, "t": bnd.t, "n_min": str(bnd.n_min),
                     "bound": float(bnd.bound), "regime": bnd.regime})
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "t", "n_min", "bound", "regime"])
        for r in rows:
            writer.writerow([r["n"], r["t"], r["n_min"],
                             repr(r["bound"]), r["regime"]])
        return buf.getvalue()
    return {"a_size": args.a_size, "C": float(C), "D": args.D, "alpha": float(alpha),
            "plans": rows}


def _cmd_experiment(args):
    grid = parse_grid(args.grid)
    table = lab.run_experiment(args.scenario, grid, args.trials, args.seed,
                               mode=args.mode)
    if args.format == "csv":
        return table.csv()
    return {"scenario": args.scenario, "seed": args.seed, "trials": args.trials,
            "rows": table.to_json_obj()}


def _read_rows_csv(path: str) -> List[lab.ExperimentRow]:
    """The rows of an experiment CSV; a file that cannot be read, or a
    row that is not an experiment row, raises DomainError naming it."""
    rows = []
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            for rec in reader:
                tb = rec.get("theory_bound", "")
                row = lab.ExperimentRow(
                    scenario=rec["scenario"], n=int(rec["n"]),
                    trials=int(rec["trials"]), hits=int(rec["hits"]),
                    unknown=int(rec["unknown"]), estimate=float(rec["estimate"]),
                    ci_halfwidth=float(rec["ci_halfwidth"]),
                    theory_bound=(None if tb in ("", None) else float(tb)),
                    regime=rec["regime"])
                if row.n < 1 or not 0 <= row.estimate <= 1:
                    raise ValueError(f"need n >= 1 and 0 <= estimate <= 1, "
                                     f"got n = {row.n}, estimate = {row.estimate}")
                rows.append(row)
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc.strerror}") from None
    except KeyError as exc:
        raise DomainError(f"{path} line {reader.line_num}: no column {exc}") from None
    except (TypeError, ValueError, csv.Error) as exc:
        raise DomainError(f"{path} line {reader.line_num}: {exc}") from None
    if not rows:
        raise DomainError(f"no rows in {path}")
    return rows


def _cmd_fit(args):
    rows = _read_rows_csv(args.input)
    return lab.fit_decay(rows, min_trials=args.min_trials).to_json_obj()


def _cmd_scenarios(args):
    if args.describe is not None:
        return lab.get_scenario(args.describe).to_json_obj()
    if args.format == "json":
        return {"scenarios": [lab.get_scenario(name).to_json_obj()
                              for name in lab.list_scenarios()]}
    lines = []
    for name in lab.list_scenarios():
        s = lab.get_scenario(name)
        lines.append(f"{name}  [{s.regime}]  {s.description}")
    return "\n".join(lines) + "\n"


def _add_common(p, trials_default=None, formats=False):
    """--out, plus --seed and --trials when the command draws samples,
    and --format when it can write CSV as well as JSON."""
    if trials_default is not None:
        p.add_argument("--seed", type=int, default=0, help="64-bit master seed")
        p.add_argument("--trials", type=int, default=trials_default,
                       help="Monte Carlo trial count")
    p.add_argument("--out", default=None, help="write output to this path")
    if formats:
        p.add_argument("--format", choices=("csv", "json"), default="csv")


def _prime_arg(text: str) -> int:
    p = int(text)
    try:
        if is_prime(p):
            return p
    except DomainError as exc:  # argparse reports only its own error types
        raise argparse.ArgumentTypeError(str(exc)) from exc
    raise argparse.ArgumentTypeError(f"{p} is not prime")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="sievelab",
        description="random walks on matrix groups, sieve bounds, thin-set decay")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("walk", help="simulate trajectories or the exact distribution")
    p.add_argument("--scenario", required=True)
    p.add_argument("--n", type=int, required=True, help="walk length")
    p.add_argument("--exact", action="store_true",
                   help="emit the exact n-step distribution instead of samples")
    _add_common(p, trials_default=1)
    p.set_defaults(func=_cmd_walk)

    p = sub.add_parser("spectrum", help="second eigenvalue of a quotient walk")
    p.add_argument("--scenario", required=True)
    p.add_argument("--prime", type=_prime_arg, required=True)
    p.add_argument("--prime2", type=_prime_arg, default=None)
    _add_common(p, formats=True)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("closure", help="subgroup generated in a finite quotient")
    p.add_argument("--scenario", required=True)
    p.add_argument("--prime", type=_prime_arg, required=True)
    p.add_argument("--prime2", type=_prime_arg, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("residual", help="density of the thin set mod p")
    p.add_argument("--scenario", required=True)
    p.add_argument("--prime", type=_prime_arg, required=True)
    p.add_argument("--mode", choices=("enumerate", "sample"), default="enumerate")
    _add_common(p, trials_default=100000)
    p.set_defaults(func=_cmd_residual)

    p = sub.add_parser("bound", help="sieve plans and decay bounds over a grid of n")
    p.add_argument("--a-size", type=int, required=True, dest="a_size")
    p.add_argument("--C", required=True, help="a decimal or p/q, read exactly")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--alpha", required=True, help="a decimal or p/q, read exactly")
    p.add_argument("--grid", default="geometric:16:1048576")
    _add_common(p, formats=True)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("experiment", help="Monte Carlo sweep of a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--grid", default="geometric:4:256",
                   help="comma list or geometric:start:stop")
    p.add_argument("--mode", choices=("mc", "exact"), default="mc")
    _add_common(p, trials_default=10000, formats=True)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("fit", help="fit a decay model to an experiment CSV")
    p.add_argument("--input", required=True, help="CSV from the experiment subcommand")
    p.add_argument("--min-trials", type=int, default=0, dest="min_trials")
    _add_common(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("scenarios", help="list or describe built-in scenarios")
    p.add_argument("--describe", default=None, metavar="NAME")
    _add_common(p, formats=True)
    p.set_defaults(func=_cmd_scenarios)

    return top


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = args.func(args)
        if isinstance(out, dict):
            out = json.dumps({**out, "schema_version": lab.SCHEMA_VERSION},
                             indent=2, sort_keys=True)
        _emit(out, args.out)
        return 0
    except ConfigError as exc:
        print(f"sievelab: config error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"sievelab: resource error: {exc}", file=sys.stderr)
        return 3
    except SievelabError as exc:
        print(f"sievelab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
