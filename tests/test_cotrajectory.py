import io
import os
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from tdlc_entropy import cli, core, cotraj
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
    assert cotraj.minus_n(sys, u, 3) == sys.model.lattice([[8]])
    assert cotraj.minus_n(sys, u, 0) == u

    s = shift_z2()
    u = s.model.base_element(0)
    got = cotraj.minus_n(s, u, 2)
    triv, full = s.model.alphabet.trivial_id, s.model.alphabet.full_id
    assert got == s.model.make_profile((full,), 0, (triv,) * 3, (full,))


def test_plus_n_examples():
    sys = q2_half()
    u = sys.model.full_lattice()
    assert cotraj.plus_n(sys, u, 3) == u  # Z_2 is already forward invariant

    d = q2_double()
    u = d.model.full_lattice()
    assert cotraj.plus_n(d, u, 1) == d.model.lattice([[2]])
    assert cotraj.plus_n(d, u, 4) == d.model.lattice([[16]])
    assert cotraj.plus_n(d, u, 0) == u


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
    assert cotraj.minus_group(sys, sys.model.full_lattice()) == sys.model.zero_subgroup()
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
    res = cotraj.is_tidy_below(sys, sys.model.full_lattice(), probe=8)
    assert res.value is True and not res.indirect

    s = shift_z2()
    res = cotraj.is_tidy_below(s, s.model.base_element(0), probe=8)
    assert res.value is False  # union of forward images is dense, not closed

    f = finite_s3()
    res = cotraj.is_tidy_below(f, f.model.full_group(), probe=8)
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
            assert core.image(phin, minus[n]) == plus[n]
            for k in range(n + 1):
                phik = sys.model.endo_power(sys.endo, k)
                lhs = core.image(phik, minus[n])
                rhs = core.intersect(plus[k], minus[n - k])
                assert lhs == rhs
        for n in range(nmax):
            lhs = core.index(plus[n + 1], core.image(sys.endo, plus[n]))
            rhs = core.index(minus[n + 1], minus[n])
            assert lhs == rhs


def test_stable_subgroup_below_plus_n():
    """A phi-stable subgroup inside U sits inside every U_n (and U_+)."""
    s = shift_z2()
    u = s.model.full_group()
    h = s.model.full_group()  # the whole group is stable under the shift
    for n in range(5):
        assert s.model.contains(cotraj.plus_n(s, u, n), h)

    f = finite_s3()
    a3 = next(x for x in f.model.all_subgroups() if len(x) == 3)
    u = f.model.full_group()
    for n in range(5):
        assert f.model.contains(cotraj.plus_n(f, u, n), a3)


def test_normalizer_descends_to_plus_n():
    """If H normalizes U and phi(H) = H then H normalizes every U_n."""
    f = finite_s3()
    a3 = next(x for x in f.model.all_subgroups() if len(x) == 3)
    u = f.model.full_group()
    for n in range(4):
        un = cotraj.plus_n(f, u, n)
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
    assert cotraj.plus_group(sys, u, cotraj.DEFAULT_PROBE) is first  # defaults share the entry
    assert len(calls) == 1
    assert cotraj.plus_group(sys, u, 8) == first
    assert len(calls) == 2


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
            cotraj.plus_group(sys, m.full_lattice(), probe=12)
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
