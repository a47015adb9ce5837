"""Byte-identity gate: the sha256 of ``verify all`` and of every shipped
scenario report is pinned.

The determinism tests only compare two runs of the same code with each other;
these hashes catch a change that alters any output byte.  A change that means
to alter an output updates the hash here and says why.
"""

import hashlib
import io
import os
from contextlib import redirect_stdout

import pytest

from tdlc_entropy import cli

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")

VERIFY_ALL_SHA256 = "34a85ba9aa6ef3c50e884d2af5dbc5e1a97a06133b67fa5365c7e30c95b9b836"

# report SCENARIO --probe 3 --tidy-probe 4 --resolution 4
REPORT_SHA256 = {
    "finite_s3.json": "7f7c1d54c92fbdc447e2dfd9e88db450724f0655e696b40038c5f2fce49114d4",
    "laurent_z3.json": "8e8ef5415cc7dd8ead1245bd376329a63fc87eaaa058317718686b6ed5f242ec",
    "padic_diag.json": "ba51361adf793f2e780e2dbbdfda5fadcabdb890c95bd91c606d5f8a60606d74",
    "product.json": "acf089e33723a9dafac3d5eb5622ecc493c439aa4134fda020ae81021f45f313",
    "q2_half.json": "ade0e458f64409cfe9f811f01a0bfd35c1c1cf9b567ff71cd7bcf500537d9d9b",
    "shift_z2.json": "1ae1ab6fd81a5a94454d56a3a3dca5ecb1d385784b00e559547bef22fdea68fb",
}


def cli_sha256(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    assert code == cli.EXIT_OK
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def test_every_shipped_scenario_is_pinned():
    assert sorted(f for f in os.listdir(SCENARIOS) if f.endswith(".json")) == sorted(REPORT_SHA256)


@pytest.mark.parametrize("filename", sorted(REPORT_SHA256))
def test_scenario_report_bytes(filename):
    path = os.path.join(SCENARIOS, filename)
    argv = ["report", path, "--probe", "3", "--tidy-probe", "4", "--resolution", "4"]
    assert cli_sha256(argv) == REPORT_SHA256[filename]


def test_verify_all_bytes():
    assert cli_sha256(["verify", "all"]) == VERIFY_ALL_SHA256
