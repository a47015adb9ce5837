"""Acceptance criteria, one test per criterion, each printing a PASS line.

All equalities are exact (integer / exact-entropy equality, tolerance zero);
the stated wall-clock budgets are asserted.
"""

import io
import time
from contextlib import redirect_stdout
from fractions import Fraction

from tdlc_entropy import cli, dynamics
from tdlc_entropy.backends.catalog import catalog_scenarios
from tdlc_entropy.core import ClosedSubgroupSpec
from tdlc_entropy.dynamics import PASS, SKIPPED
from tdlc_entropy.scenario import build_subgroups, build_system
from tdlc_entropy.verify import (
    suite_cotrajectory,
    suite_indices,
    suite_limit_free,
    suite_monotonicity,
    suite_oracle,
    suite_products,
    suite_scale_link,
)

F = Fraction


def built_catalog():
    out = []
    for data in catalog_scenarios():
        sys = build_system(data)
        out.append((data, sys, build_subgroups(sys, data)))
    return out


def timed(budget_seconds):
    start = time.monotonic()

    def finish(label):
        elapsed = time.monotonic() - start
        assert elapsed < budget_seconds, f"{label}: {elapsed:.2f}s over budget {budget_seconds}s"
        return elapsed

    return finish


def test_criterion_1_limit_free_consistency():
    finish = timed(10.0)
    entries = suite_limit_free()
    count_entry = entries[-1]
    assert count_entry["instances"] >= 40
    assert all(e["status"] == PASS for e in entries)
    elapsed = finish("limit-free")
    print(f"\nACCEPTANCE 1 PASS: limit-free formula agrees on "
          f"{count_entry['instances']} instances ({elapsed:.2f}s)")


def test_criterion_2_addition_theorem():
    finish = timed(5.0)
    systems = {data["name"]: (sys, subs) for data, sys, subs in built_catalog()}

    sys, subs = systems["padic_diag_half_half"]
    v = dynamics.verify_addition_theorem(sys, ClosedSubgroupSpec.verify(sys, subs["Haxis"]), 3)
    assert v.status == PASS
    assert v.details == {"h_total": "log 4", "h_subgroup": "log 2", "h_quotient": "log 2"}

    sys, subs = systems["shift_z4_compact"]
    v = dynamics.verify_addition_theorem(sys, ClosedSubgroupSpec.verify(sys, subs["H2"]), 3)
    assert v.status == PASS
    assert v.details == {"h_total": "log 4", "h_subgroup": "log 2", "h_quotient": "log 2"}

    sys, subs = systems["padic_jordan_half"]
    v = dynamics.verify_addition_theorem(sys, ClosedSubgroupSpec.verify(sys, subs["Haxis"]), 3)
    assert v.status == PASS
    assert v.details == {"h_total": "log 4", "h_subgroup": "log 2", "h_quotient": "log 2"}

    sys, subs = systems["q2_half"]
    v = dynamics.verify_addition_theorem(sys, ClosedSubgroupSpec.verify(sys, subs["H0"]), 3)
    assert v.status == PASS and v.details["h_subgroup"] == "0"
    v = dynamics.verify_addition_theorem(sys, ClosedSubgroupSpec.verify(sys, subs["HG"]), 3)
    assert v.status == PASS and v.details["h_quotient"] == "0"

    elapsed = finish("addition")
    print(f"\nACCEPTANCE 2 PASS: additivity instances exact ({elapsed:.2f}s)")


def test_criterion_3_scale_values():
    finish = timed(5.0)
    checked = 0
    for data, sys, _ in built_catalog():
        name = data["name"]
        expected = None
        if name == "q2_half":
            expected = 2
        elif name in ("laurent_z2", "laurent_z3"):
            expected = int(name[-1])
        elif sys.model.kind == "finite" or (
            sys.model.kind == "shift" and sys.model.tail_mode == "compact"
        ):
            expected = 1  # compact ambient group
        if expected is None:
            continue
        rep = dynamics.scale(sys, probe=4)
        assert rep.value == expected, f"{name}: scale {rep.value} != {expected}"
        assert rep.witness_tidy_above is True, f"{name}: witness not tidy above"
        if rep.witness_tidy_below is not None:
            assert rep.witness_tidy_below is True, f"{name}: witness not tidy below"
        checked += 1
    assert checked >= 9
    elapsed = finish("scale")
    print(f"\nACCEPTANCE 3 PASS: scale values on {checked} systems ({elapsed:.2f}s)")


def test_criterion_4_scale_entropy_link():
    finish = timed(10.0)
    entries = suite_scale_link()
    assert all(e["status"] == PASS for e in entries)
    by_name = {e["name"].split("/", 1)[1]: e for e in entries}
    compact_shift = by_name["shift_z2_compact"]["details"]
    assert compact_shift["scale"] == "1"
    assert compact_shift["nub_trivial"] is False
    assert compact_shift["h_total"] == "log 2"
    assert compact_shift["equality_case"] is False
    for name in ("q2_half", "padic_diag_half_half", "padic_q3_third"):
        det = by_name[name]["details"]
        assert det["nub_trivial"] is True and det["equality_case"] is True
    elapsed = finish("scale-link")
    print(f"\nACCEPTANCE 4 PASS: scale-entropy link on {len(entries)} systems ({elapsed:.2f}s)")


def test_criterion_5_index_lemma_suite():
    finish = timed(60.0)
    entries = suite_indices()
    assert [e["name"].split("/")[1] for e in entries] == ["S3", "D4", "Q8", "Z12", "A4"]
    total = 0
    for e in entries:
        assert e["status"] == PASS
        assert all(v > 0 for v in e["counts"].values())
        assert e["endomorphisms"] > 0
        total += sum(e["counts"].values())
    elapsed = finish("indices")
    print(f"\nACCEPTANCE 5 PASS: {total} index-identity checks, zero violations ({elapsed:.2f}s)")


def test_criterion_6_cotrajectory_identities():
    finish = timed(20.0)
    entries = suite_cotrajectory()
    assert all(e["status"] == PASS for e in entries)
    elapsed = finish("cotrajectory")
    print(f"\nACCEPTANCE 6 PASS: cotrajectory identities at n<=16 on "
          f"{len(entries)} systems ({elapsed:.2f}s)")


def test_criterion_7_product_formula():
    finish = timed(5.0)
    entries = suite_products()
    products = [e for e in entries if e["name"] != "products/diagonal-agreement"]
    assert len(products) >= 5
    assert all(e["status"] == PASS for e in entries)
    elapsed = finish("products")
    print(f"\nACCEPTANCE 7 PASS: product formula on {len(products)} products "
          f"plus diagonal agreement ({elapsed:.2f}s)")


def test_criterion_8_oracle_agreement():
    finish = timed(5.0)
    entries = suite_oracle()
    names = {e["name"].split("/", 1)[1] for e in entries}
    assert {"padic_diag_half_half", "padic_jordan_half", "padic_singular",
            "padic_mixed_2_half"} <= names
    assert all(e["status"] == PASS for e in entries)
    elapsed = finish("oracle")
    print(f"\nACCEPTANCE 8 PASS: Newton polygon oracle on {len(entries)} matrices ({elapsed:.2f}s)")


def test_criterion_9_monotonicity():
    finish = timed(10.0)
    entries = suite_monotonicity()
    assert entries
    assert all(e["status"] in (PASS, SKIPPED) for e in entries)
    restricted = [e for e in entries if "/restrict/" in e["name"] and e["status"] == PASS]
    tables = [e for e in entries if "/quotient-table/" in e["name"] and e["status"] == PASS]
    assert restricted and tables
    elapsed = finish("monotonicity")
    print(f"\nACCEPTANCE 9 PASS: {len(restricted)} restrictions, "
          f"{len(tables)} quotient tables ({elapsed:.2f}s)")


def test_criterion_10_determinism():
    def run_all():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["verify", "all"])
        return code, buf.getvalue()

    code1, out1 = run_all()
    code2, out2 = run_all()
    assert code1 == code2 == cli.EXIT_OK
    assert out1 == out2 and out1
    print(f"\nACCEPTANCE 10 PASS: verify all is byte-identical across runs "
          f"({len(out1)} bytes)")
