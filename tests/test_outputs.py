"""Golden outputs: the bytes the CLI writes for a fixed matrix of commands.

Each output's sha256 was frozen when the test was written; a change that
keeps the output contract keeps every digest. An output ends in one
newline, and --out writes the bytes that stdout gets. Outputs that pass through
an eigensolver (`spectrum`, and the theory_bound cells of the SL_2
scenarios) are left out, since their float bits may differ between BLAS
builds.
"""

import hashlib

import pytest

from sievelab import cli

MC = ["--trials", "400", "--seed", "7"]
GOLDEN = {
    ("experiment", "--scenario", "z_origin", *MC):
        "ebf4d1a1d2282f8cd3612a869cb2b3d2874128d7b210d349eac827c4ad9b37f4",
    ("experiment", "--scenario", "z_origin", *MC, "--format", "json"):
        "5ffe5a680c722ee1ca0308c515a396fdf807f2b1cda2f47c227b0abecf8bcf28",
    ("experiment", "--scenario", "torus_squares", *MC):
        "9563588060085ac44c4db80a61f1038ae4639fd9ef9c960f1768adad8113801f",
    ("experiment", "--scenario", "torus_squares", *MC, "--format", "json"):
        "378643b20ff99b03847c32896dd94ade579b0981aac4f9f96d73674544ae8c50",
    ("experiment", "--scenario", "sl3_galois", *MC):
        "7595461215e4aeda8e96f3a59aa24da937e19723727342d364d02669618c983b",
    ("experiment", "--scenario", "sl3_galois", *MC, "--format", "json"):
        "d618b676177801e6e42b6754b0f9c8b80d7aa5dcde333823766ad44efef88de0",
    # five walker chunks of at most 1024 lanes, each drawn in eight-row tiles
    ("experiment", "--scenario", "z_origin", "--trials", "5000", "--seed", "11",
     "--grid", "64,4096"):
        "2b96321ac7205b1fafaf7471b311960dd7710c306a137cd24beada6598e01686",
    ("experiment", "--scenario", "z_origin", "--mode", "exact"):
        "aa92108bbb58ca557aff1f14876dec629c9ed04af56f3b62733db05622615737",
    ("experiment", "--scenario", "torus_squares", "--mode", "exact"):
        "b49a5af144a5573f2df492b6cd051f7dfe76e9827bb62e537758e1c412950036",
    ("experiment", "--scenario", "sl3_galois", "--mode", "exact", "--grid", "1,2,3"):
        "5cd1d3e99072fac5ec86efa161f77d38f31fc248b663db221f9fb6aef16173e5",
    ("closure", "--scenario", "sl2_trace", "--prime", "7"):
        "1644277c5f6f7799b99c62169fa5ea387e28a6013d02e7185d4550b4a11e8639",
    ("closure", "--scenario", "sl2_trace", "--prime", "3", "--prime2", "5"):
        "985665e8cf9fe1648211e883cd403c5c5f18e4df438970694e00463f4e078619",
    ("residual", "--scenario", "sl2_trace", "--prime", "7"):
        "d2e4346133586844b7fbc67a93cb6ef3fcf4c5447afbd5c6932f76fa2d9f3416",
    # enumerated fixed flag: 98 of 336 elements have chi(1) or chi(-1) = 0 mod 7
    ("residual", "--scenario", "sl2_fixed_flag", "--prime", "7"):
        "c6d677fc954c28825363a3e6b7fbc1429704486e3e15ee52aff5226b3f188534",
    # enumerated SL_3: every cubic mod p is reducible or of square discriminant
    ("residual", "--scenario", "sl3_galois", "--prime", "3"):
        "eb1d167a7857f23bf9f24a76b47f5e159e9cc3718cff7d27986aeed57ae2d2bd",
    # p = 2: every element passes the Galois test
    ("residual", "--scenario", "sl2_trace", "--prime", "2"):
        "98aa7010ffcd8f581731655d3733fa52b0b7a5695b724d8a8eacf4f13c3784dd",
    ("residual", "--scenario", "sl3_galois", "--prime", "3", "--mode", "sample",
     "--trials", "2000", "--seed", "4"):
        "f49c0cedd5f3f44a985967e329d71391fd05c1e357a4b8a93b3445d9d9db54e1",
    # p = 65537 draws int64 entries, past the uint16 edge of draw_block
    ("residual", "--scenario", "sl2_trace", "--prime", "65537", "--mode", "sample",
     "--trials", "2000"):
        "5dbc0c4667ca5f2eb8cb404fd58eef95e8301dcca26f808011a04765b9a9b7ee",
    # 100,000 samples (the default), 18302 of them hits: a wrong sample shows
    ("residual", "--scenario", "sl2_fixed_flag", "--prime", "11", "--mode", "sample",
     "--seed", "3"):
        "e324bbe4e6b146ddc391487c3d893ee952c8389769ac10cea702f6dc0d7184ed",
    ("scenarios",):
        "eb9e75d24b7409b5e3cee93cfd2c96ec99dd4a83107811944302efd58f371afb",
    ("scenarios", "--format", "json"):
        "ec746ee1380f050ce20b725526b2947e7ff3ce39a7fcff89d594bf496b37c69b",
    ("walk", "--scenario", "sl2_trace", "--n", "4", "--exact"):
        "316e0880c251a5dc9b522babd9c42be84d2615c65ac968599513f971cf743b0b",
    ("walk", "--scenario", "torus_squares", "--n", "3", "--exact"):
        "09d74278acbb2e244a36abe17b214c5cc4d9e5ed39cb917dc19f0fe3b615423b",
    ("walk", "--scenario", "torus_squares", "--n", "5", "--trials", "3", "--seed", "5"):
        "a425476f89ab77af5c602c6b242fed47897da46883b6fe72268b1d70f18eaff7",
    ("bound", "--a-size", "3", "--C", "0.5", "--D", "1", "--alpha", "0.5"):
        "19011b0027de443c9f8ecad710dab099f3c236a118cbb70901ed726ecbb229f3",
    ("bound", "--a-size", "3", "--C", "0.5", "--D", "1", "--alpha", "0.5",
     "--format", "json"):
        "0d7407f9811fb48c739f036de9335d071dea302efc83a20bac4fd177b553b997",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=lambda argv: " ".join(argv))
def test_output_bytes_are_unchanged(argv, tmp_path):
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[argv]


@pytest.mark.parametrize("argv", list(GOLDEN), ids=lambda argv: " ".join(argv))
def test_stdout_and_out_get_the_same_bytes(argv, tmp_path, capsysbinary):
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert cli.main(list(argv)) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()
