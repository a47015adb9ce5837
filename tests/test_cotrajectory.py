import io
import json
import os
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from tdlc_entropy import cli, cotraj, linalg
from tdlc_entropy.backends import padic
from tdlc_entropy.backends.finite import symmetric_group
from tdlc_entropy.backends.padic import PadicModel
from tdlc_entropy.backends.shift import ShiftProfileModel, cyclic_alphabet
from tdlc_entropy.core import TdlcSystem, UnresolvedError
from tdlc_entropy.exact import ExactEntropy, IndexValue
from tdlc_entropy.scenario import build_system, load_scenario_file

F = Fraction

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def q2_half():
    m = PadicModel(2, 1)
    return TdlcSystem(m, m.endo([[F(1, 2)]]), name="q2_half")


def q2_double():
    m = PadicModel(2, 1)
    return TdlcSystem(m, m.endo([[2]]), name="q2_double")


def shift_z2():
    m = ShiftProfileModel(cyclic_alphabet([2]), "compact")
    return TdlcSystem(m, m.endo(1), name="shift_z2")


def shift_z4():
    m = ShiftProfileModel(cyclic_alphabet([4]), "compact")
    return TdlcSystem(m, m.endo(1), name="shift_z4")


def finite_s3():
    m = symmetric_group(3)
    return TdlcSystem(m, m.identity_endo(), name="finite_s3")


def mixed_diag():
    m = PadicModel(2, 2)
    return TdlcSystem(m, m.endo([[2, 0], [0, F(1, 2)]]), name="padic_mixed")


def test_minus_n_examples():
    sys = q2_half()
    u = sys.model.full_lattice()
    assert cotraj.minus_chain(sys, u, 3)[3] == sys.model.lattice([[8]])
    assert cotraj.minus_chain(sys, u, 0)[0] == u

    s = shift_z2()
    u = s.model.base_element(0)
    got = cotraj.minus_chain(s, u, 2)[2]
    triv, full = s.model.alphabet.trivial_id, s.model.alphabet.full_id
    assert got == s.model.make_profile((full,), 0, (triv,) * 3, (full,))


def test_plus_n_examples():
    sys = q2_half()
    u = sys.model.full_lattice()
    assert cotraj.plus_chain(sys, u, 3)[3] == u  # Z_2 is already forward invariant

    d = q2_double()
    u = d.model.full_lattice()
    assert cotraj.plus_chain(d, u, 1)[1] == d.model.lattice([[2]])
    assert cotraj.plus_chain(d, u, 4)[4] == d.model.lattice([[16]])
    assert cotraj.plus_chain(d, u, 0)[0] == u


def test_alpha_sequence_q2_half():
    sys = q2_half()
    u = sys.model.full_lattice()
    table = cotraj.alpha_sequence(sys, u, 8)
    assert [row.c.value for row in table.rows] == [2**n for n in range(9)]
    assert all(row.alpha == IndexValue(2) for row in table.rows if row.alpha is not None)
    assert table.n_star == 0


def test_alpha_sequence_shift():
    s = shift_z2()
    u = s.model.base_element(0)
    table = cotraj.alpha_sequence(s, u, 8)
    assert [row.c.value for row in table.rows[:4]] == [1, 2, 4, 8]
    assert table.n_star == 0
    assert table.stable_alpha == IndexValue(2)

    z4 = shift_z4()
    table4 = cotraj.alpha_sequence(z4, z4.model.base_element(0), 8)
    assert table4.stable_alpha == IndexValue(4)


def test_alpha_sequence_finite_fixpoint():
    sys = finite_s3()
    u = sys.model.full_group()
    table = cotraj.alpha_sequence(sys, u, 8)
    assert table.n_star is not None
    assert table.stable_alpha == IndexValue(1)


def test_plus_group_examples():
    sys = q2_half()
    u = sys.model.full_lattice()
    pg = cotraj.plus_group(sys, u)
    assert pg.handle == u and pg.method == "fixpoint" and pg.steps == 0

    s = shift_z2()
    u = s.model.base_element(0)
    pg = cotraj.plus_group(s, u)
    triv, full = s.model.alphabet.trivial_id, s.model.alphabet.full_id
    assert pg.handle == s.model.make_profile((triv,), 1, (), (full,))
    assert pg.method == "structural"

    f = finite_s3()
    pg = cotraj.plus_group(f, f.model.full_group())
    assert pg.handle == f.model.full_group()


def test_minus_group_examples():
    sys = q2_half()
    assert cotraj.minus_group(sys, sys.model.full_lattice()) == sys.model.trivial_subgroup()
    s = shift_z2()
    u = s.model.base_element(0)
    triv, full = s.model.alphabet.trivial_id, s.model.alphabet.full_id
    assert cotraj.minus_group(s, u) == s.model.make_profile((full,), 0, (), (triv,))
    f = finite_s3()
    assert cotraj.minus_group(f, f.model.full_group()) == f.model.full_group()


def test_htop_local_examples():
    sys = q2_half()
    assert cotraj.htop_local(sys, sys.model.full_lattice()) == ExactEntropy(2)
    s = shift_z2()
    assert cotraj.htop_local(s, s.model.base_element(0)) == ExactEntropy(2)
    f = finite_s3()
    assert cotraj.htop_local(f, f.model.full_group()) == ExactEntropy(1)


def test_htop_limit_equals_local():
    for sysf, unit in [
        (q2_half, lambda s: s.model.full_lattice()),
        (q2_double, lambda s: s.model.full_lattice()),
        (shift_z2, lambda s: s.model.base_element(0)),
        (shift_z4, lambda s: s.model.base_element(1)),
        (mixed_diag, lambda s: s.model.full_lattice()),
        (finite_s3, lambda s: s.model.full_group()),
    ]:
        sys = sysf()
        u = unit(sys)
        assert cotraj.htop_limit_estimate(sys, u, 12) == cotraj.htop_local(sys, u)


def test_tidy_above():
    sys = q2_half()
    assert cotraj.is_tidy_above(sys, sys.model.full_lattice())
    m = mixed_diag()
    assert cotraj.is_tidy_above(m, m.model.full_lattice())
    s = shift_z2()
    assert cotraj.is_tidy_above(s, s.model.base_element(0))
    f = finite_s3()
    assert cotraj.is_tidy_above(f, f.model.full_group())


def test_tidy_above_transform_returns_input_when_tidy():
    sys = q2_half()
    u = sys.model.full_lattice()
    assert cotraj.tidy_above_transform(sys, u) == u


def test_tidy_below():
    sys = q2_half()
    res = cotraj.is_tidy_below(sys, sys.model.full_lattice(), tidy_probe=8)
    assert res.value is True

    s = shift_z2()
    res = cotraj.is_tidy_below(s, s.model.base_element(0), tidy_probe=8)
    assert res.value is False  # union of forward images is dense, not closed

    f = finite_s3()
    res = cotraj.is_tidy_below(f, f.model.full_group(), tidy_probe=8)
    assert res.value is True


def test_is_minimizing():
    sys = q2_half()
    assert cotraj.is_minimizing(sys, sys.model.full_lattice(), 2)
    s = shift_z2()
    assert not cotraj.is_minimizing(s, s.model.base_element(0), 1)
    assert cotraj.is_minimizing(s, s.model.full_group(), 1)


CATALOG = None


def mini_catalog():
    global CATALOG
    if CATALOG is None:
        CATALOG = [
            (q2_half(), lambda s: s.model.full_lattice()),
            (q2_double(), lambda s: s.model.full_lattice()),
            (mixed_diag(), lambda s: s.model.full_lattice()),
            (shift_z2(), lambda s: s.model.base_element(0)),
            (shift_z4(), lambda s: s.model.base_element(0)),
            (finite_s3(), lambda s: s.model.full_group()),
        ]
    return CATALOG


def test_forward_backward_identities_small_probe():
    """U_n = phi^n(U_{-n}) and phi^k(U_{-n}) = U_k n U_{-(n-k)}, plus the
    index exchange [phi(U_n) : U_{n+1}] = [U_{-n} : U_{-n-1}]."""
    nmax = 6
    for sys, pick in mini_catalog():
        u = pick(sys)
        minus = cotraj.minus_chain(sys, u, nmax + 1)
        plus = cotraj.plus_chain(sys, u, nmax + 1)
        for n in range(nmax + 1):
            phin = sys.model.endo_power(sys.endo, n)
            assert sys.model.image(phin, minus[n]) == plus[n]
            for k in range(n + 1):
                phik = sys.model.endo_power(sys.endo, k)
                lhs = sys.model.image(phik, minus[n])
                rhs = sys.model.intersect(plus[k], minus[n - k])
                assert lhs == rhs
        for n in range(nmax):
            lhs = sys.model.index(plus[n + 1], sys.model.image(sys.endo, plus[n]))
            rhs = sys.model.index(minus[n + 1], minus[n])
            assert lhs == rhs


def test_stable_subgroup_below_plus_n():
    """A phi-stable subgroup inside U sits inside every U_n (and U_+)."""
    s = shift_z2()
    u = s.model.full_group()
    h = s.model.full_group()  # the whole group is stable under the shift
    for un in cotraj.plus_chain(s, u, 4):
        assert s.model.contains(un, h)

    f = finite_s3()
    a3 = next(x for x in f.model.all_subgroups() if len(x) == 3)
    u = f.model.full_group()
    for un in cotraj.plus_chain(f, u, 4):
        assert f.model.contains(un, a3)


def test_normalizer_descends_to_plus_n():
    """If H normalizes U and phi(H) = H then H normalizes every U_n."""
    f = finite_s3()
    a3 = next(x for x in f.model.all_subgroups() if len(x) == 3)
    u = f.model.full_group()
    for un in cotraj.plus_chain(f, u, 3):
        norm = f.model.normalizer(un)
        assert f.model.contains(norm, a3)


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` so each call is counted; returns the counter."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_plus_group_is_computed_once_per_system(monkeypatch):
    sys = q2_half()
    calls = count_calls(monkeypatch, sys.model, "plus_group_impl")
    u = sys.model.full_lattice()
    first = cotraj.plus_group(sys, u)
    assert cotraj.plus_group(sys, u) is first
    assert len(calls) == 1


def test_systems_built_from_one_scenario_share_no_entries(monkeypatch):
    data = load_scenario_file(os.path.join(SCENARIOS, "q2_half.json"))
    first, second = build_system(data), build_system(data)
    calls = count_calls(monkeypatch, PadicModel, "plus_group_impl")
    cotraj.plus_group(first, first.model.full_lattice())
    assert second._cache == {}
    cotraj.plus_group(second, second.model.full_lattice())
    assert len(calls) == 2


def test_system_equality_ignores_the_cache():
    sys = q2_half()
    other = TdlcSystem(sys.model, sys.endo, name=sys.name)
    cotraj.plus_group(sys, sys.model.full_lattice())
    assert sys._cache and not other._cache
    assert sys == other and hash(sys) == hash(other)
    assert "_cache" not in repr(sys)


def test_unresolved_is_raised_again_not_cached(monkeypatch):
    # companion matrix of x^2 + x/2 + 3: root valuations +1 and -1, U_+ unresolved
    m = PadicModel(2, 2)
    sys = TdlcSystem(m, m.endo([[0, -3], [1, F(-1, 2)]]), name="mixed_slope")
    calls = count_calls(monkeypatch, m, "plus_group_impl")
    for _ in range(2):
        with pytest.raises(UnresolvedError):
            cotraj.plus_group(sys, m.full_lattice())
    assert len(calls) == 2


def test_report_forward_core_op_counts(monkeypatch):
    """Op-count gate: one report computes each forward core once per key."""
    plus = count_calls(monkeypatch, PadicModel, "plus_group_impl")
    minus = count_calls(monkeypatch, PadicModel, "minus_group_impl")
    path = os.path.join(SCENARIOS, "q2_half.json")
    with redirect_stdout(io.StringIO()):
        code = cli.main(["report", path, "--probe", "3", "--tidy-probe", "4",
                         "--resolution", "4"])
    assert code == cli.EXIT_OK
    assert (len(plus), len(minus)) == (19, 4)


def count_eliminations(monkeypatch):
    """Counters of ``rref`` calls made from ``linalg`` itself and from the
    p-adic backend, and of the p-adic backend's ``zp_column_hnf`` calls."""
    rrefs = count_calls(monkeypatch, linalg, "rref")
    monkeypatch.setattr(padic, "rref", linalg.rref)
    return rrefs, count_calls(monkeypatch, padic, "zp_column_hnf")


def test_linalg_elimination_counts(monkeypatch):
    """Op-count gate: one elimination per constraint conversion, counted as
    (rref, zp_column_hnf).

    With one elimination per solved column the same calls made 11 and 5311
    rrefs; with the cotrajectory table also building the forward chain, the
    report made 2666.  While ``from_constraints`` was a kernel, an integer
    kernel and a solve, they made (4, 1) and (2650, 1072); as the annihilator
    of a canonical handle they trade rrefs for Hermite forms.
    """
    m = PadicModel(2, 2)
    u = m.lattice([[1, 2], [3, 4]])
    v = m.lattice([[2, 0], [1, 1]])
    expected = m.lattice([[2, 0], [0, 2]])
    rrefs, hnfs = count_eliminations(monkeypatch)
    assert m.intersect(u, v) == expected
    assert (len(rrefs), len(hnfs)) == (3, 2)

    del rrefs[:], hnfs[:]
    path = os.path.join(SCENARIOS, "q2_half.json")
    with redirect_stdout(io.StringIO()):
        code = cli.main(["report", path, "--probe", "3", "--tidy-probe", "4",
                         "--resolution", "4"])
    assert code == cli.EXIT_OK
    assert (len(rrefs), len(hnfs)) == (1920, 1828)


@pytest.mark.parametrize("entry, rrefs, hnfs, intersects", [
    pytest.param("1/2", 1920, 1828, 412, id="phi=1/2"),
    pytest.param("2", 594, 739, 141, id="phi=2"),
])
def test_report_op_counts_with_and_without_chain_skip(monkeypatch, tmp_path, entry, rrefs,
                                                      hnfs, intersects):
    """Op-count gate, as (rref, zp_column_hnf, intersect): the q2_half
    report, and the same report for phi = 2, whose forward chains are
    skipped; run to their cap those made 4897 eliminations and 1169
    intersections.  With the forward chain of the cotrajectory table built
    and unread, the two reports made (2666, 416) and (801, 145) rrefs and
    intersections; with ``from_constraints`` a kernel, an integer kernel and
    a solve, (2650, 1072, 412) and (785, 506, 141)."""
    data = load_scenario_file(os.path.join(SCENARIOS, "q2_half.json"))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**data, "matrix": [[entry]]}))
    rref_calls, hnf_calls = count_eliminations(monkeypatch)
    intersect_calls = count_calls(monkeypatch, PadicModel, "intersect")
    with redirect_stdout(io.StringIO()):
        code = cli.main(["report", str(path), "--probe", "3", "--tidy-probe", "4",
                         "--resolution", "4"])
    assert code == cli.EXIT_OK
    assert ((len(rref_calls), len(hnf_calls), len(intersect_calls))
            == (rrefs, hnfs, intersects))


def test_alpha_sequence_takes_no_image_and_no_determinant(monkeypatch):
    """Op-count gate: the cotrajectory table reads only the backward chain,
    and p-adic indices come off the Hermite pivots, not a determinant."""
    sys = q2_half()
    images = count_calls(monkeypatch, PadicModel, "image")
    dets = count_calls(monkeypatch, linalg, "det")
    monkeypatch.setattr(padic, "det", linalg.det)
    table = cotraj.alpha_sequence(sys, sys.model.full_lattice(), 12)
    assert table.stable_alpha == IndexValue(2)
    assert (len(images), len(dets)) == (0, 0)


@pytest.mark.parametrize("make_sys", [q2_half, shift_z2], ids=["padic", "shift"])
def test_image_chain_stops_at_a_stable_forward_core(monkeypatch, make_sys):
    """Op-count gate: on a phi-stable U+ the image chain takes one image, not
    tidy_probe + 1, and pads its indices with 1."""
    sys = make_sys()
    model = sys.model
    u_plus = model.full_group()
    images = count_calls(monkeypatch, type(model), "image")
    res = model.plus_plus_analysis(sys.endo, u_plus, 6)
    assert len(images) == 1
    assert res["closed"] and res["handle"] == u_plus
    assert res["indices"] == [IndexValue(1)] * 7
    assert res["certificate"] == {"method": "image chain stabilized", "steps": 0}


def test_forward_chain_skipped_when_no_fixpoint_exists(monkeypatch):
    """Op-count gate: phi = 2 has no forward lattice fixpoint, so the chain
    takes no step on the outer model."""
    m = PadicModel(2, 1)
    images = count_calls(monkeypatch, m, "image")
    handle, method, steps, cert = m.plus_group_impl(m.endo([[2]]), m.full_lattice())
    assert (handle, method, steps) == (m.trivial_subgroup(), "structural", 1)
    assert "chain_skipped" in cert
    assert len(images) == 0


def test_singular_contracting_map_still_iterates(monkeypatch):
    """A singular phi keeps the forward chain: the skip needs phi invertible."""
    m = PadicModel(2, 2)
    images = count_calls(monkeypatch, m, "image")
    handle, method, steps, cert = m.plus_group_impl(m.endo([[2, 0], [0, 0]]), m.full_lattice())
    assert (handle, method) == (m.trivial_subgroup(), "structural")
    assert "chain_skipped" not in cert
    assert len(images) == padic.CHAIN_STEP_CAP


def test_htop_routes_agree_where_chains_are_skipped():
    """The forward-core and limit routes agree whether or not the chain is skipped."""
    for sysf, skipped in [(q2_half, False), (q2_double, True), (mixed_diag, True)]:
        sys = sysf()
        u = sys.model.full_lattice()
        assert ("chain_skipped" in cotraj.plus_group(sys, u).certificate) == skipped
        assert cotraj.htop_local(sys, u) == cotraj.htop_limit_estimate(sys, u, 12)
