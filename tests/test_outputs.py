"""Golden outputs: the bytes the CLI writes for a fixed matrix of commands.

Each output's sha256 was frozen when the test was written; a change that
keeps the output contract keeps every digest. Outputs that pass through
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
        "3391a7ecd5f798dc94606b090484c5fb55bf0446bfe473b19bec03e669d95296",
    ("experiment", "--scenario", "torus_squares", *MC):
        "9563588060085ac44c4db80a61f1038ae4639fd9ef9c960f1768adad8113801f",
    ("experiment", "--scenario", "torus_squares", *MC, "--format", "json"):
        "1de978c863d5fd0c2db5d773f3768be342e0f5542da35002ed03d8008a5812a6",
    ("experiment", "--scenario", "sl3_galois", *MC):
        "7595461215e4aeda8e96f3a59aa24da937e19723727342d364d02669618c983b",
    ("experiment", "--scenario", "sl3_galois", *MC, "--format", "json"):
        "a9e67872d4a4180b65753b9272936da14231bb0c7d49b710d8fd2ff8d016e700",
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
        "5561c6333d1c71be4215bd7632065757c262676b88d0c108e0d7c2878d5dbd04",
    ("closure", "--scenario", "sl2_trace", "--prime", "3", "--prime2", "5"):
        "44134e3a7c3d4ed25768f22951a2579292e885b7234388d2633e08896468bb5c",
    ("residual", "--scenario", "sl2_trace", "--prime", "7"):
        "8327353830a63c0ba36b949b08ea5c9ff751d05096f30bec8a06c216af264300",
    ("residual", "--scenario", "sl3_galois", "--prime", "3", "--mode", "sample",
     "--trials", "2000", "--seed", "4"):
        "1010af49b1db21f2cbffba6fa3ad4c6bf151e2db6eaff3bd7fe0c325dd64c23f",
    # 100,000 samples (the default), 18302 of them hits: a wrong sample shows
    ("residual", "--scenario", "sl2_fixed_flag", "--prime", "11", "--mode", "sample",
     "--seed", "3"):
        "efca8ab77394ea18f686f419652960fe60d2ffa2e1cb478dccc31bb79432c564",
    ("scenarios",):
        "eb9e75d24b7409b5e3cee93cfd2c96ec99dd4a83107811944302efd58f371afb",
    ("scenarios", "--format", "json"):
        "a2bda2a4851afa19f9dd8c76f24e98de7bf9f72bbfa1a450d1bb3d915ece25be",
    ("walk", "--scenario", "sl2_trace", "--n", "4", "--exact"):
        "719aed6a7c509c1776892339f70bb941e4a3997b0a1a2bb88fd37ec324a0e861",
    ("walk", "--scenario", "torus_squares", "--n", "5", "--trials", "3", "--seed", "5"):
        "4a3d4b6585e95a5ed158fbca73b6d95aeea27ed78bfd30b55836dc05d55a63b0",
    ("bound", "--a-size", "3", "--C", "0.5", "--D", "1", "--alpha", "0.5"):
        "19011b0027de443c9f8ecad710dab099f3c236a118cbb70901ed726ecbb229f3",
    ("bound", "--a-size", "3", "--C", "0.5", "--D", "1", "--alpha", "0.5",
     "--format", "json"):
        "a6c6b5603e7ebb02e4653f1aaaad7172621e1264b36fd20af9c97ff94a0451ae",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=lambda argv: " ".join(argv))
def test_output_bytes_are_unchanged(argv, tmp_path):
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[argv]
