"""CLI subcommands, exit codes, grid parsing, output files."""

import json
from fractions import Fraction

import pytest

from sievelab import cli, sieve
from sievelab.errors import DomainError


def run(tmp_path, *argv, name="out.txt"):
    """Invoke the CLI with --out to a temp file; return (rc, text)."""
    out = tmp_path / name
    rc = cli.main(list(argv) + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return rc, text


# ----- grid parsing -----

def test_parse_grid_comma_list():
    assert cli.parse_grid("4,8,16") == [4, 8, 16]
    assert cli.parse_grid(" 2, 3 ,5 ") == [2, 3, 5]


def test_parse_grid_geometric():
    assert cli.parse_grid("geometric:4:64") == [4, 8, 16, 32, 64]
    assert cli.parse_grid("geometric:5:40") == [5, 10, 20, 40]
    assert cli.parse_grid("geometric:7:7") == [7]


def test_parse_grid_errors():
    for bad in ("geometric:4", "geometric:a:8", "geometric:0:8",
                "geometric:8:4", "4,x,16", "", "  "):
        with pytest.raises(DomainError):
            cli.parse_grid(bad)


# ----- scenarios -----

def test_scenarios_plain_listing(tmp_path):
    rc, text = run(tmp_path, "scenarios")
    assert rc == 0
    assert "sl2_trace" in text and "z_origin" in text


def test_scenarios_json_listing(tmp_path):
    rc, text = run(tmp_path, "scenarios", "--format", "json")
    assert rc == 0
    obj = json.loads(text)
    assert obj["schema_version"] == 2
    names = [s["name"] for s in obj["scenarios"]]
    assert "torus_squares" in names


def test_scenarios_describe(tmp_path):
    rc, text = run(tmp_path, "scenarios", "--describe", "sl2_trace")
    assert rc == 0
    obj = json.loads(text)
    assert obj["name"] == "sl2_trace"
    assert obj["theory_bound"]["prime"] == 7


def test_scenarios_describe_unknown_exits_2(tmp_path):
    rc, _ = run(tmp_path, "scenarios", "--describe", "nope")
    assert rc == 2


def test_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.txt"
    assert cli.main(["scenarios", "--out", str(out)]) == 2
    assert f"cannot write {out}" in capsys.readouterr().err


# ----- walk -----

def test_walk_exact_distribution(tmp_path):
    rc, text = run(tmp_path, "walk", "--scenario", "z_origin", "--n", "3",
                   "--exact")
    assert rc == 0
    obj = json.loads(text)
    assert obj["mode"] == "exact"
    total = sum(Fraction(rec["probability"]) for rec in obj["distribution"])
    assert total == 1


def test_walk_trajectories(tmp_path):
    rc, text = run(tmp_path, "walk", "--scenario", "sl2_trace", "--n", "4",
                   "--trials", "3", "--seed", "11")
    assert rc == 0
    obj = json.loads(text)
    assert len(obj["trials"]) == 3
    for path in obj["trials"]:
        assert len(path) == 5  # omega_0 .. omega_4
        assert path[0] == ["1", "0", "0", "1"]


def test_walk_deterministic(tmp_path):
    _, a = run(tmp_path, "walk", "--scenario", "sl2_trace", "--n", "6",
               "--trials", "2", "--seed", "4", name="a.json")
    _, b = run(tmp_path, "walk", "--scenario", "sl2_trace", "--n", "6",
               "--trials", "2", "--seed", "4", name="b.json")
    assert a == b


# ----- spectrum -----

def test_spectrum_csv(tmp_path):
    rc, text = run(tmp_path, "spectrum", "--scenario", "sl2_trace",
                   "--prime", "3")
    assert rc == 0
    lines = text.splitlines()
    assert lines[0] == "modulus,order,a_size,pi_1,pi_min,pi_star,method,residual"
    cells = lines[1].split(",")
    assert cells[0] == "3" and cells[1] == "24" and cells[2] == "5"


def test_spectrum_json_value(tmp_path):
    rc, text = run(tmp_path, "spectrum", "--scenario", "sl2_trace",
                   "--prime", "3", "--format", "json")
    assert rc == 0
    obj = json.loads(text)
    assert abs(obj["pi_1"] - 0.7123105625617663) < 1e-9
    assert obj["order"] == 24


def test_spectrum_json_iterative_route(tmp_path):
    rc, text = run(tmp_path, "spectrum", "--scenario", "sl2_trace",
                   "--prime", "17", "--format", "json")
    assert rc == 0
    obj = json.loads(text)
    assert obj["method"] == "iterative" and obj["order"] == 4896
    assert obj["residual"] <= 1e-9


def test_spectrum_json_large_abelian_quotient(tmp_path):
    # Z/10007 is past DENSE_THRESHOLD; its characters answer at once
    rc, text = run(tmp_path, "spectrum", "--scenario", "z_origin",
                   "--prime", "10007", "--format", "json")
    assert rc == 0
    obj = json.loads(text)
    assert obj["method"] == "dense" and obj["order"] == 10007 and obj["residual"] == 0.0


# each subcommand accepts only the options it reads
BASE_ARGS = {
    "walk": ["--scenario", "z_origin", "--n", "2"],
    "spectrum": ["--scenario", "z_origin", "--prime", "3"],
    "closure": ["--scenario", "z_origin", "--prime", "3"],
    "residual": ["--scenario", "z_origin", "--prime", "3"],
    "bound": ["--a-size", "3", "--C", "1", "--D", "1", "--alpha", "0.5"],
    "fit": ["--input", "rows.csv"],
    "scenarios": [],
}
UNREAD = ([(c, ["--format", "json"]) for c in ("walk", "closure", "residual", "fit")]
          + [(c, [opt, "3"]) for c in ("spectrum", "closure", "bound", "fit", "scenarios")
             for opt in ("--seed", "--trials")])


@pytest.mark.parametrize("command,extra", UNREAD, ids=[f"{c}{e[0]}" for c, e in UNREAD])
def test_unread_options_exit_2(command, extra):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *BASE_ARGS[command], *extra])
    assert exc.value.code == 2


def test_spectrum_rejects_composite_prime(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--scenario", "sl2_trace", "--prime", "9"])
    assert exc.value.code == 2


@pytest.mark.parametrize("prime,message", [
    ("318665857834031151167461", "is not prime"),
    ("3317044064679887385961981", "primality test is exact"),
], ids=["psi_12", "psi_13"])
def test_residual_rejects_the_strong_pseudoprimes(prime, message, capsys):
    # both pass Miller-Rabin to the bases 2..37
    with pytest.raises(SystemExit) as exc:
        cli.main(["residual", "--scenario", "sl2_trace", "--prime", prime])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


# ----- closure -----

def test_closure_single_prime(tmp_path):
    rc, text = run(tmp_path, "closure", "--scenario", "sl2_trace",
                   "--prime", "3")
    assert rc == 0
    obj = json.loads(text)
    assert obj["closure_size"] == 24
    assert obj["group_order"] == 24
    assert obj["surjective"] is True


@pytest.mark.parametrize("command", ["closure", "spectrum"])
def test_pair_modulus_on_an_abelian_scenario_exits_2(tmp_path, capsys, command):
    rc, _ = run(tmp_path, command, "--scenario", "z_origin",
                "--prime", "5", "--prime2", "7")
    assert rc == 2
    assert "pair moduli apply to matrix groups only" in capsys.readouterr().err


def test_equal_pair_moduli_exit_2(tmp_path, capsys):
    rc, _ = run(tmp_path, "spectrum", "--scenario", "sl2_trace",
                "--prime", "5", "--prime2", "5")
    assert rc == 2
    assert "pair moduli must be distinct" in capsys.readouterr().err


def test_closure_pair_modulus(tmp_path):
    rc, text = run(tmp_path, "closure", "--scenario", "sl2_trace",
                   "--prime", "3", "--prime2", "5")
    assert rc == 0
    obj = json.loads(text)
    assert obj["closure_size"] == 2880
    assert obj["quotient"] == "3x5"


# ----- residual -----

def test_residual_enumerate_z(tmp_path):
    rc, text = run(tmp_path, "residual", "--scenario", "z_origin",
                   "--prime", "5")
    assert rc == 0
    obj = json.loads(text)
    assert obj["density"] == "1/5"
    assert obj["mode"] == "enumerate"


def test_residual_enumerate_sl2(tmp_path):
    rc, text = run(tmp_path, "residual", "--scenario", "sl2_trace",
                   "--prime", "3")
    assert rc == 0
    obj = json.loads(text)
    assert obj["density"] == "3/4"
    assert obj["checked"] == 24


def test_residual_sample_mode(tmp_path):
    rc, text = run(tmp_path, "residual", "--scenario", "sl2_trace",
                   "--prime", "5", "--mode", "sample", "--trials", "2000",
                   "--seed", "7")
    assert rc == 0
    obj = json.loads(text)
    assert obj["mode"] == "sample"
    assert obj["checked"] == 2000
    assert obj["halfwidth"] is not None
    assert abs(float(obj["density"]) - 2 / 3) < 3 * obj["halfwidth"] + 1e-9


def test_residual_budget_exit_3(tmp_path):
    # SL_3(F_13) has order ~8.1e8: full enumeration is over budget
    rc, _ = run(tmp_path, "residual", "--scenario", "sl3_galois",
                "--prime", "13")
    assert rc == 3


# ----- bound -----

def test_bound_csv_table(tmp_path):
    rc, text = run(tmp_path, "bound", "--a-size", "3", "--C", "1", "--D", "2",
                   "--alpha", "0.5", "--grid", "geometric:16:4096")
    assert rc == 0
    lines = text.splitlines()
    assert lines[0] == "n,t,n_min,bound,regime"
    bounds = []
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[4] == "polynomial"
        bounds.append(float(cells[3]))
    assert len(bounds) == 9
    assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))


def test_bound_json(tmp_path):
    rc, text = run(tmp_path, "bound", "--a-size", "3", "--C", "1", "--D", "1",
                   "--alpha", "0.5", "--grid", "60,600000", "--format", "json")
    assert rc == 0
    obj = json.loads(text)
    assert obj["plans"][0]["n"] == 60
    assert obj["plans"][1]["t"] > obj["plans"][0]["t"]


@pytest.mark.parametrize("a_size", ["0", "-2"])
def test_bound_nonpositive_a_size_exits_2(tmp_path, a_size):
    rc, _ = run(tmp_path, "bound", "--a-size", a_size, "--C", "1", "--D", "1",
                "--alpha", "0.5")
    assert rc == 2


@pytest.mark.parametrize("C, alpha", [("inf", "0.5"), ("1", "inf"), ("1e400", "0.5")])
def test_bound_infinite_float_exits_2(tmp_path, capsys, C, alpha):
    # --C and --alpha are read exactly; inf is no rational, and 1e400 is one
    # whose float, echoed in the JSON, overflows to inf
    rc, _ = run(tmp_path, "bound", "--a-size", "3", "--C", C, "--D", "1", "--alpha", alpha)
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("C, alpha", [("nan", "0.5"), ("1", "nan"), ("1/0", "0.5"), ("x", "0.5")])
def test_bound_non_rational_exits_2(tmp_path, capsys, C, alpha):
    rc, _ = run(tmp_path, "bound", "--a-size", "3", "--C", C, "--D", "1", "--alpha", alpha)
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_bound_reads_C_and_alpha_exactly(tmp_path):
    # 0.1 is 1/10, not the binary float nearest to it
    want = sieve.plan_for_n(16, 3, Fraction(1, 10), 1, Fraction(1, 2))
    assert want.n_min == Fraction(50421, 5000)
    rc, text = run(tmp_path, "bound", "--a-size", "3", "--C", "0.1", "--D", "1",
                   "--alpha", "0.5", "--grid", "16")
    assert rc == 0
    assert text.splitlines()[1].split(",")[:3] == ["16", str(want.t), "50421/5000"]
    rc, text = run(tmp_path, "bound", "--a-size", "3", "--C", "1/10", "--D", "1",
                   "--alpha", "1/2", "--grid", "16", "--format", "json")
    assert rc == 0
    obj = json.loads(text)
    assert (obj["C"], obj["alpha"]) == (0.1, 0.5)
    assert obj["plans"][0]["n_min"] == "50421/5000"


# ----- experiment and fit round trip -----

def test_experiment_csv_and_fit(tmp_path):
    csv_path = tmp_path / "table.csv"
    rc = cli.main(["experiment", "--scenario", "z_origin",
                   "--grid", "geometric:8:256", "--mode", "exact",
                   "--out", str(csv_path)])
    assert rc == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ("scenario,n,trials,hits,unknown,estimate,"
                        "ci_halfwidth,theory_bound,regime")
    assert len(lines) == 7

    fit_path = tmp_path / "fit.json"
    rc = cli.main(["fit", "--input", str(csv_path), "--out", str(fit_path)])
    assert rc == 0
    obj = json.loads(fit_path.read_text())
    assert obj["model"] == "polynomial"
    assert -0.7 < obj["value"] < -0.35
    assert obj["points_used"] == 6


def test_experiment_mc_deterministic(tmp_path):
    args = ["experiment", "--scenario", "sl2_trace", "--grid", "4,8",
            "--trials", "1500", "--seed", "3"]
    _, a = run(tmp_path, *args, name="a.csv")
    _, b = run(tmp_path, *args, name="b.csv")
    assert a == b


def test_experiment_json_format(tmp_path):
    rc, text = run(tmp_path, "experiment", "--scenario", "torus_squares",
                   "--grid", "10,20", "--trials", "800", "--seed", "2",
                   "--format", "json")
    assert rc == 0
    obj = json.loads(text)
    assert obj["scenario"] == "torus_squares"
    assert len(obj["rows"]) == 2
    assert obj["rows"][0]["regime"] == "non-decaying"


def test_experiment_unknown_scenario_exits_2(tmp_path):
    rc, _ = run(tmp_path, "experiment", "--scenario", "missing",
                "--grid", "4,8")
    assert rc == 2


def test_experiment_bad_grid_exits_2(tmp_path):
    rc, _ = run(tmp_path, "experiment", "--scenario", "z_origin",
                "--grid", "geometric:9:3")
    assert rc == 2


def test_fit_too_few_rows_exits_2(tmp_path):
    csv_path = tmp_path / "short.csv"
    rc = cli.main(["experiment", "--scenario", "z_origin", "--grid", "2,4,6",
                   "--mode", "exact", "--out", str(csv_path)])
    assert rc == 0
    rc = cli.main(["fit", "--input", str(csv_path),
                   "--out", str(tmp_path / "fit.json")])
    assert rc == 2


HEADER = "scenario,n,trials,hits,unknown,estimate,ci_halfwidth,theory_bound,regime\n"


@pytest.mark.parametrize("body,message", [
    ("z_origin,8,100,20,0,0.2,0.1,,polynomial\n" * 4,
     "need rows at two or more walk lengths, got only n = 8"),
    ("", "no rows in {path}"),
], ids=["one_walk_length", "header_only"])
def test_fit_refusals_exit_2(tmp_path, capsys, body, message):
    path = tmp_path / "rows.csv"
    path.write_text(HEADER + body)
    rc = cli.main(["fit", "--input", str(path), "--out", str(tmp_path / "fit.json")])
    assert rc == 2
    assert message.format(path=path) in capsys.readouterr().err


BAD_CSV = {
    "columns": "a,b\n1,2\n",
    "number": ("scenario,n,trials,hits,unknown,estimate,ci_halfwidth,theory_bound,regime\n"
               "z_origin,4,100,20,0,abc,0.1,,polynomial\n"),
    "missing": None,
    # log n and log estimate would fail or give NaN in the fit
    "n_zero": ("scenario,n,trials,hits,unknown,estimate,ci_halfwidth,theory_bound,regime\n"
               "z_origin,0,100,20,0,0.2,0.1,,polynomial\n"),
    "estimate_inf": ("scenario,n,trials,hits,unknown,estimate,ci_halfwidth,theory_bound,regime\n"
                     "z_origin,4,100,20,0,inf,0.1,,polynomial\n"),
}


@pytest.mark.parametrize("case", sorted(BAD_CSV))
def test_fit_bad_input_exits_2(tmp_path, capsys, case):
    path = tmp_path / "rows.csv"
    if BAD_CSV[case] is not None:
        path.write_text(BAD_CSV[case])
    rc = cli.main(["fit", "--input", str(path), "--out", str(tmp_path / "fit.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(path) in err
    assert ("line 2" in err) == (case != "missing")


def test_stdout_fallback(capsys):
    rc = cli.main(["scenarios"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "sl2_trace" in captured.out
