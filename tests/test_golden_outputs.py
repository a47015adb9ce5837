"""Byte-identity gate: the sha256 of ``verify all`` and of every shipped
scenario's reports and cotrajectory table is pinned.

The determinism tests only compare two runs of the same code with each other;
these hashes catch a change that alters any output byte.  A change that means
to alter an output updates the hash here and says why.
"""

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

from tdlc_entropy import cli

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))

VERIFY_ALL_SHA256 = "34a85ba9aa6ef3c50e884d2af5dbc5e1a97a06133b67fa5365c7e30c95b9b836"

SMALL_PROBES = ["--probe", "3", "--tidy-probe", "4", "--resolution", "4"]

# report SCENARIO --probe 3 --tidy-probe 4 --resolution 4
REPORT_SHA256 = {
    "finite_s3.json": "7f7c1d54c92fbdc447e2dfd9e88db450724f0655e696b40038c5f2fce49114d4",
    "laurent_z3.json": "8e8ef5415cc7dd8ead1245bd376329a63fc87eaaa058317718686b6ed5f242ec",
    "padic_diag.json": "ba51361adf793f2e780e2dbbdfda5fadcabdb890c95bd91c606d5f8a60606d74",
    "padic_dim3_three_slopes.json": "d99759dc15276b581e94932695dc2b535701729a2aea0483dd302df527b3ee34",
    "padic_dim4_cotraj.json": "0816388ed7e36b601733f2aad94c37b4795a4205bc86eb9dec39918a21406d02",
    "product.json": "acf089e33723a9dafac3d5eb5622ecc493c439aa4134fda020ae81021f45f313",
    "product_padic3_shift_nstar.json": "b36619cd0e8ef61e84bd38a10eaa6a2a153dcf9f726dadfe6f0a60aa5d290f9a",
    "product_square.json": "4d2e8918c69bf1af227ceaf753f3c0246f7d1c8212c21bb2ea53782b73f69865",
    "q2_half.json": "ade0e458f64409cfe9f811f01a0bfd35c1c1cf9b567ff71cd7bcf500537d9d9b",
    "shift_z2.json": "1ae1ab6fd81a5a94454d56a3a3dca5ecb1d385784b00e559547bef22fdea68fb",
    "shift_z2xz2_k2_periodic.json": "88fb4c00bd3fea687a98e3448a14c2600ee271d699b2d5d271a8e4349c4b0e97",
    "shift_z2xz4_sigma.json": "74ccab8fd818ec9e6914572aea8357854119b46dd7bd3fea2e47a37d230b5359",
}

# report SCENARIO, at the scenario's own probe, tidy_probe and resolution
DEFAULT_REPORT_SHA256 = {
    "finite_s3.json": "6fb534c8dd28f80f3514f9c34bd5dbdb4d89bdf86765bf89453baf22fb0dc194",
    "laurent_z3.json": "4ea0dc06658017f210c00d3e89659831e8ab6211f0650c2a957662f2493b5ba3",
    "padic_diag.json": "a8bdc4b1470fd262555872338648ef58f8c8cad1001fe74b90639ce1fa1c03f8",
    "padic_dim3_three_slopes.json": "f796c5fe34519b75589f2305ff851c16d9e48171653bebc051a1a579c0689e78",
    "padic_dim4_cotraj.json": "bdc9b0952de42f130705a9c20d05b2a3f6d9ba660cd258432ac5adcbbb9359fe",
    "product.json": "b265d39529fdda1fa134524789f2523141614ba2751ebc04cc0bcf60114e1e04",
    "product_padic3_shift_nstar.json": "151b95d10e78b2c7051955f0b185b8957e670de71b7ff415829669a48381eb9c",
    "product_square.json": "e10155018ea4133244477c38e96f5241f99c11b4b855d1097ff15e27e0aa4ef0",
    "q2_half.json": "0301074f1680bf24afd9ae9724ca065ad208fb38a1a33fdedae7fdb6a081ff7d",
    "shift_z2.json": "a9dec3c2ff987c906e09091fc896c4070f338810de2c295a72f36a0447a9bbd3",
    "shift_z2xz2_k2_periodic.json": "1908dccdd0933267403e814b670ad5290755ce452a594b48521e005239c3999d",
    "shift_z2xz4_sigma.json": "bb1247bcabc1624fbb291de2e226cd4150ca6d810d78c586ddc30eb369e3bac0",
}

# cotraj SCENARIO, the standalone cotrajectory table at the base subgroup
COTRAJ_SHA256 = {
    "finite_s3.json": "c1d7b525c3f93ce9e00c63d3e5150535c5b38c6534b3a9bf391f969e70a4ae8c",
    "laurent_z3.json": "11fec87d30da45df3eb98bfe2f35ebaadbbcb15be69d655dd27756cce2a1de92",
    "padic_diag.json": "4313bed493b30e205cf21bd169fcb53e2841276ef896e8d8092f060ab0adfd8f",
    "padic_dim3_three_slopes.json": "9550b3b6fd83e5c3758c9fb6add0542cb58d5a35f64e85c2f90fec935ae6ce3d",
    "padic_dim4_cotraj.json": "a7b0e3c1e20c557c8d231ec7a182f8a6d11bde46a601c241fce0df48480196f2",
    "product.json": "3cb1aebb8705225f8d5d5ba92c1a7adafca57203093c8f982c7c09397f9cd8ff",
    "product_padic3_shift_nstar.json": "4fe432ecfa509d152aecb8f5f5dbee9ef7bfa0a6fc7e73a4376164086f9a44ef",
    "product_square.json": "d3c76bb171c639fc526b1c39e69d9c5ae5935b5368619fdc67a3c58fea108ef0",
    "q2_half.json": "ebeabc827a831c5eb95cd3258553889e58bb8755900215b64f76a161f682612a",
    "shift_z2.json": "37fc4300b3bf3bdfa556bf76891cfebb6f5a966ac013d859dacdd9fc1660b4b7",
    "shift_z2xz2_k2_periodic.json": "3c80c4eba99523d0f065b4243b1c21394a6efc8b44b580f925fe04676afeb5eb",
    "shift_z2xz4_sigma.json": "a14e16ad5326ad20d4fce8c6622eac39359bd334fd4f7d3e651bc291efeb21aa",
}

# tidy SCENARIO --tidy-probe 1, the shortest image chain, on every scenario
# that names subgroups
TIDY_PROBE_1_SHA256 = {
    "finite_s3.json": "bbbe16e4ef242f66b52dddc2368effce0956ee3f06e076b483b40ea6b5b3d30a",
    "padic_diag.json": "1f400199ad2f5485f0c011691fdfccf47ffed4281855a7f597be5ae741838236",
    "padic_dim3_three_slopes.json": "e0cd77bc0ba6f8e7ae0363199cb33fead19952d336b615612b51198c17c1371b",
    "product_square.json": "b909c3ac7e0cbce2ca5fd88efb796fd558026177b93df6fd105208e281a8d2bf",
    "q2_half.json": "85266b2cdfb242f97d72032e068ce72cac8e5723612dbf72574b4c1f82a679ea",
    "shift_z2.json": "f320e145d9656eced3afcc4caa7c2590b35fdfc8a5c8868ce7c23d8f907d57db",
    "shift_z2xz2_k2_periodic.json": "dd4b15f1d059c23e9f6b161d9d8aa4d30835eb1936069ba0a99e726c2932e18b",
    "shift_z2xz4_sigma.json": "d9e819181187544977dedeaa895502b0eb83869def176974b2edb4e1bc311fb7",
}


def cli_sha256(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    assert code == cli.EXIT_OK
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def test_every_shipped_scenario_is_pinned():
    shipped = sorted(f for f in os.listdir(SCENARIOS) if f.endswith(".json"))
    assert (shipped == sorted(REPORT_SHA256) == sorted(DEFAULT_REPORT_SHA256)
            == sorted(COTRAJ_SHA256))
    named = []
    for filename in shipped:
        with open(os.path.join(SCENARIOS, filename), encoding="utf-8") as f:
            if "subgroups" in json.load(f):
                named.append(filename)
    assert named == sorted(TIDY_PROBE_1_SHA256)


@pytest.mark.parametrize("filename, options, digest", [
    *(pytest.param(name, SMALL_PROBES, digest, id=name)
      for name, digest in sorted(REPORT_SHA256.items())),
    *(pytest.param(name, [], digest, id=f"{name}-defaults")
      for name, digest in sorted(DEFAULT_REPORT_SHA256.items())),
])
def test_scenario_report_bytes(filename, options, digest):
    path = os.path.join(SCENARIOS, filename)
    assert cli_sha256(["report", path, *options]) == digest


@pytest.mark.parametrize("filename, digest", sorted(COTRAJ_SHA256.items()))
def test_cotraj_table_bytes(filename, digest):
    path = os.path.join(SCENARIOS, filename)
    assert cli_sha256(["cotraj", path]) == digest


@pytest.mark.parametrize("filename, digest", sorted(TIDY_PROBE_1_SHA256.items()))
def test_tidy_at_the_shortest_chain_bytes(filename, digest):
    path = os.path.join(SCENARIOS, filename)
    assert cli_sha256(["tidy", path, "--tidy-probe", "1"]) == digest


def test_verify_all_bytes():
    assert cli_sha256(["verify", "all"]) == VERIFY_ALL_SHA256


# Runs verify all and the reports with every import of sympy failing, prints
# their sha256 and the sympy modules loaded by the end.
NO_SYMPY = """
import hashlib, io, json, sys
from contextlib import redirect_stdout
sys.modules["sympy"] = None
from tdlc_entropy import cli

def sha256(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(argv) == cli.EXIT_OK, argv
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()

hashes = {"verify all": sha256(["verify", "all"])}
for path in sys.argv[1:]:
    hashes[path] = sha256(["report", path, "--probe", "3", "--tidy-probe", "4", "--resolution", "4"])
assert sys.modules.pop("sympy") is None
print(json.dumps({"sha256": hashes, "sympy": sorted(m for m in sys.modules if m.split(".")[0] == "sympy")}))
"""


def test_outputs_need_no_sympy():
    """The outputs are the pinned ones with sympy unimportable, and no sympy
    module is loaded: sympy is a test dependency only."""
    paths = {os.path.join(SCENARIOS, name): digest for name, digest in REPORT_SHA256.items()}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", NO_SYMPY, *sorted(paths)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["sympy"] == []
    assert out["sha256"] == {"verify all": VERIFY_ALL_SHA256, **paths}
