import hashlib
import io
import json
import os
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from tdlc_entropy import cli, cotraj, dynamics, linalg, verify
from tdlc_entropy.backends import padic
from tdlc_entropy.backends.catalog import catalog_scenarios, find_scenario
from tdlc_entropy.backends.finite import symmetric_group
from tdlc_entropy.backends.padic import PadicModel
from tdlc_entropy.backends.product import make_product
from tdlc_entropy.backends.shift import ShiftProfileModel, cyclic_alphabet
from tdlc_entropy.core import InvariantViolation, TdlcSystem, UnresolvedError
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
    assert all(row.alpha == IndexValue(2) for row in table.rows)
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


# (value, closed, index_constant) of is_tidy_below on every catalog system
# and four cross-backend products, at base elements 0-3 and tidy_probe 1, 4
# and 8, pinned when the image chain moved out of the backends
TIDY_BELOW_TABLE_SHA256 = "3a9cec5d3ba9c1ba0aad54f33a1cf19b95bb264e21f6b3524a06871691de01ca"
TIDY_BELOW_PRODUCTS = (("q2_half", "laurent_z3"), ("shift_z2_compact", "laurent_z2"),
                       ("finite_s3", "q2_half"), ("q2_double", "shift_z4_compact"))


def test_tidy_below_table_bytes():
    systems = [build_system(data) for data in catalog_scenarios()]
    systems += [make_product(build_system(find_scenario(a)), build_system(find_scenario(b)))
                for a, b in TIDY_BELOW_PRODUCTS]
    lines = []
    for sys in systems:
        for k in range(4):
            u = sys.model.base_element(k)
            for tidy_probe in (1, 4, 8):
                res = cotraj.is_tidy_below(sys, u, tidy_probe)
                cert = res.certificate
                lines.append(f"{sys.name}|{k}|{tidy_probe}|{res.value}|{cert['closed']}|"
                             f"{cert['index_constant']}")
    assert len(lines) == 288
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == TIDY_BELOW_TABLE_SHA256


def test_tidy_below_product_with_one_stabilized_factor():
    """S3 x Q_2 under (id, 1/2): the finite factor's images are fixed at once,
    the p-adic factor's never are, so the product asks its hook, which reads
    off the finite factor's image chain that it stopped and asks the p-adic
    backend."""
    sys = make_product(finite_s3(), q2_half())
    res = cotraj.is_tidy_below(sys, sys.model.base_element(0), 4)
    assert res.value is True
    assert res.certificate == {
        "closed": True,
        "index_constant": True,
        "factors": [
            {"method": "image chain stabilized"},
            {"method": "unit part frozen, expanding subspace filled",
             "expanding_dim": 1, "cover_power": 1},
        ],
    }


def test_tidy_below_images_a_stopped_factor_once(monkeypatch):
    """Op-count gate, as finite images in (``plus_group``, ``is_tidy_below``)
    on S3 x Q_2 at base element 0 and tidy_probe 8.  The finite factor's
    limit takes one image, and ``plus_group`` reads phi(U_+) off the
    factor's image chain, which takes the chain's one image and finds it
    fixed; ``is_tidy_below`` pads that chain and the product's
    ``plus_plus_closure`` reads that it stopped.  While the product imaged
    each factor at every step of its own chain and its hook imaged the
    finite factor's last once more, the counts were (2, 10)."""
    sys = make_product(finite_s3(), q2_half())
    images = count_calls(monkeypatch, sys.model.factors[0], "image")
    u = sys.model.base_element(0)
    cotraj.plus_group(sys, u)
    before = len(images)
    assert cotraj.is_tidy_below(sys, u, 8).value is True
    assert (before, len(images) - before) == (2, 0)


def test_finite_plus_plus_closure_is_never_reached():
    sys = finite_s3()
    g = sys.model.full_group()
    with pytest.raises(InvariantViolation, match="did not stop at step 0"):
        sys.model.plus_plus_closure(sys.endo, g, g, 4)


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


def test_alpha_sequence_is_one_table_per_system_subgroup_and_length(monkeypatch):
    """Over one catalog, the cotrajectory, limit-free and oracle suites
    certify each table once: the (base(0), ``TABLE_N_MAX``) table that all
    three read included.  Another length builds its own table, and a
    length below 1 is refused before the cache is read."""
    catalog = verify._catalog_systems()
    calls = [count_calls(monkeypatch, sys.model, "alpha_stabilization") for _, sys, _ in catalog]
    verify.suite_cotrajectory(catalog)
    verify.suite_limit_free(catalog)
    verify.suite_oracle(catalog)
    for (data, sys, _), made in zip(catalog, calls):
        keys = [(phi, U, len(alphas) - 1) for phi, U, _, alphas in made]
        assert len(keys) == len(set(keys)), data["name"]
        assert (sys.endo, sys.model.base_element(0), verify.TABLE_N_MAX) in keys, data["name"]
    (_, sys, _), made = next((entry, made) for entry, made in zip(catalog, calls)
                             if entry[0]["name"] == "q2_half")
    u = sys.model.base_element(0)
    cached = cotraj.alpha_sequence(sys, u, verify.TABLE_N_MAX)
    before = len(made)
    other = cotraj.alpha_sequence(sys, u, 8)
    assert len(made) == before + 1 and len(other.rows) == 9
    assert cotraj.alpha_sequence(sys, u, verify.TABLE_N_MAX) is cached
    with pytest.raises(ValueError):
        cotraj.alpha_sequence(sys, u, 0)
    assert ("alpha_sequence", u, 0) not in sys._cache


def literal_minus_chain(sys, U, n):
    """U_0, ..., U_{-n} by a plain loop of the model's preimage and intersect."""
    out = [U]
    for _ in range(n):
        out.append(sys.model.intersect(U, sys.model.preimage(sys.endo, out[-1])))
    return tuple(out)


def literal_image_chain(sys, V, n):
    """V, phi(V), ..., phi^n(V) or up to the first fixed image, by a plain
    loop of the model's image."""
    out = [V]
    for _ in range(n):
        nxt = sys.model.image(sys.endo, out[-1])
        if nxt == out[-1]:
            break
        out.append(nxt)
    return tuple(out)


@pytest.mark.parametrize("name", ["q2_half", "shift_z2_compact", "finite_s3",
                                  "product_q2half_laurent3"])
def test_minus_chain_extends_one_cached_prefix(monkeypatch, name):
    """Asked for 4, 16 and 2 steps, ``minus_chain`` returns the handles of a
    fresh chain, and takes each preimage once.  A product takes none itself:
    each factor model takes its 16, on its factor system."""
    sys = build_system(find_scenario(name))
    u = sys.model.base_element(0)
    own = count_calls(monkeypatch, sys.model, "preimage")
    factors = [count_calls(monkeypatch, m, "preimage") for m in getattr(sys.model, "factors", ())]
    got = [cotraj.minus_chain(sys, u, n) for n in (4, 16, 2)]
    assert (len(own), [len(c) for c in factors]) == ((0, [16, 16]) if factors else (16, []))
    monkeypatch.undo()
    for n, chain in zip((4, 16, 2), got):
        assert type(chain) is tuple
        assert chain == literal_minus_chain(sys, u, n)


# every product the products suite checks (a pair of equal names shares one
# system, as in ``suite_products``) and both catalog products
PRODUCT_CASES = [f"{a}*{b}" for a, b in verify.PRODUCT_PAIRS] + [
    "product_q2half_laurent3", "product_q2half_squared"]


def build_product(case):
    if "*" not in case:
        return build_system(find_scenario(case))
    a, b = case.split("*")
    left = build_system(find_scenario(a))
    return make_product(left, left if a == b else build_system(find_scenario(b)))


@pytest.mark.parametrize("case", PRODUCT_CASES)
def test_product_chains_equal_literal_loops(case):
    """A product's cotrajectory and image chain, read from its factor
    systems and asked for 4, then 16, then 2 steps, equal plain loops of the
    product's own primitives, at base elements 0 and 1; the image chains
    start at U_+."""
    prod = build_product(case)
    for k in range(2):
        u = prod.model.base_element(k)
        u_plus = cotraj.plus_group(prod, u).handle
        for n in (4, 16, 2):
            assert cotraj.minus_chain(prod, u, n) == literal_minus_chain(prod, u, n)
            assert cotraj.image_chain(prod, u_plus, n) == literal_image_chain(prod, u_plus, n)


def test_product_image_chain_pads_a_factor_fixed_at_step_0():
    """S3 x Q_2 under (id, 1/2): the finite factor's image chain is fixed at
    step 0 and the p-adic one is never fixed, so the product pads the finite
    part with its fixed image and its chain does not end."""
    prod = make_product(finite_s3(), q2_half())
    u_plus = cotraj.plus_group(prod, prod.model.base_element(0)).handle
    chain = cotraj.image_chain(prod, u_plus, 8)
    factor_chains = [cotraj.image_chain(s, p, 8) for s, p in zip(prod.model.systems, u_plus.parts)]
    assert [len(c) for c in factor_chains] == [1, 9]
    assert [h.parts for h in chain] == [(u_plus.parts[0], p) for p in factor_chains[1]]
    assert chain == literal_image_chain(prod, u_plus, 8)


def _uncached_product_limit(systems, forward, phi, U):
    """A product limit from the factor hooks themselves, as the product
    model combines them."""
    handles, methods, steps = zip(*(
        (s.model.plus_group_impl if forward else s.model.minus_group_impl)(p, u)[:3]
        for s, p, u in zip(systems, phi.parts, U.parts)))
    method = "fixpoint" if set(methods) == {"fixpoint"} else "structural"
    return handles, method, max(steps)


def _assert_product_limits_match(prod, systems, phi, probe):
    for k in range(probe + 1):
        U = prod.model.base_element(k)
        for forward in (True, False):
            hook = prod.model.plus_group_impl if forward else prod.model.minus_group_impl
            handle, method, steps, _ = hook(phi, U)
            fresh = _uncached_product_limit(systems, forward, phi, U)
            assert (handle.parts, method, steps) == fresh


@pytest.mark.parametrize("a, b", verify.PRODUCT_PAIRS,
                         ids=[f"{a}*{b}" for a, b in verify.PRODUCT_PAIRS])
def test_product_limits_read_the_factor_caches(monkeypatch, a, b):
    """Once ``plus_group`` and ``minus_group`` ran on the factor systems, the
    product's U_+ and U_- call no factor hook and equal what the uncached
    hooks give."""
    systems = [build_system(find_scenario(n)) for n in (a, b)]
    if a == b:
        systems[1] = systems[0]
    prod = make_product(*systems)
    for sys in systems:
        for k in range(4):
            cotraj.plus_group(sys, sys.model.base_element(k))
            cotraj.minus_group(sys, sys.model.base_element(k))
    calls = [count_calls(monkeypatch, sys.model, hook)
             for sys in systems for hook in ("plus_group_impl", "minus_group_impl")]
    for k in range(4):
        U = prod.model.base_element(k)
        prod.model.plus_group_impl(prod.endo, U)
        prod.model.minus_group_impl(prod.endo, U)
    assert all(not c for c in calls)
    monkeypatch.undo()
    _assert_product_limits_match(prod, systems, prod.endo, 3)


def test_product_limits_at_powers_of_phi():
    """The factor cache is keyed by the factor endomorphism, so the limits
    at phi^2 of a product, and those of a product of squares, are the
    uncached factor hooks' even after the limits at phi are cached."""
    systems = [build_system(find_scenario(n)) for n in ("q2_half", "shift_z2_compact")]
    prod = make_product(*systems)
    _assert_product_limits_match(prod, systems, prod.endo, 2)
    square = prod.model.endo_power(prod.endo, 2)
    _assert_product_limits_match(prod, systems, square, 2)
    squares = [TdlcSystem(s.model, s.model.endo_power(s.endo, 2)) for s in systems]
    power_prod = make_product(*squares)
    _assert_product_limits_match(power_prod, squares, power_prod.endo, 2)


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


def test_entropy_builds_each_probed_base_element_once(monkeypatch):
    """Op-count gate: the entropy certificate reads the handles of the probe
    loop instead of building base(k) again for every table entry."""
    sys = q2_half()
    calls = count_calls(monkeypatch, PadicModel, "base_element")
    report = dynamics.topological_entropy(sys, 3)
    assert report.saturated and len(report.table) == 4
    assert [args[1] for args in calls] == [0, 1, 2, 3]


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
    of a canonical handle they trade rrefs for Hermite forms.  While each
    intersection converted both operands to constraints again, they made
    (3, 2) and (1920, 1828); now the operands carry their duals, and the
    forward core is imaged once.  While the entropy certificate built each
    probed base element a second time, the report made (975, 1781); while
    the nub took every candidate's displacement index again, (943, 1725);
    while each tidy-above transform and the cotrajectory table built their
    own backward chain, (927, 1701); while ``_plus_group`` and the tidy-below
    image chain each took phi(U_+), (887, 1621).
    """
    m = PadicModel(2, 2)
    u = m.lattice([[1, 2], [3, 4]])
    v = m.lattice([[2, 0], [1, 1]])
    expected = m.lattice([[2, 0], [0, 2]])
    rrefs, hnfs = count_eliminations(monkeypatch)
    assert m.intersect(u, v) == expected
    assert (len(rrefs), len(hnfs)) == (1, 2)

    del rrefs[:], hnfs[:]
    path = os.path.join(SCENARIOS, "q2_half.json")
    with redirect_stdout(io.StringIO()):
        code = cli.main(["report", path, "--probe", "3", "--tidy-probe", "4",
                         "--resolution", "4"])
    assert code == cli.EXIT_OK
    assert (len(rrefs), len(hnfs)) == (876, 1610)


def test_annihilator_runs_once_per_handle(monkeypatch):
    """Op-count gate: the annihilator elimination runs once for each handle
    built from generators and once inside each ``from_constraints``, where
    it eliminates the dual subgroup that the result keeps as its dual, so
    no result is eliminated again; intersections and preimages convert no
    operand."""
    m = PadicModel(2, 2)
    eliminated = count_calls(monkeypatch, padic, "_annihilator")
    built = count_calls(monkeypatch, PadicModel, "closed_subgroup")
    solved = count_calls(monkeypatch, PadicModel, "from_constraints")
    u = m.lattice([[1, 2], [3, 4]])
    v = m.closed_subgroup([[0, 1]], [[4, 0]])
    assert (len(eliminated), len(built)) == (2, 2)
    phi = m.endo([[F(1, 2), 1], [0, 2]])
    w = m.intersect(u, v)
    x = m.preimage(phi, w)
    y = m.intersect(w, x)
    assert (len(eliminated), len(built), len(solved)) == (5, 2, 3)
    for args, h in zip(eliminated[2:], (w, x, y)):
        assert args == (*h.dual, m.dim)

    del eliminated[:], built[:], solved[:]
    path = os.path.join(SCENARIOS, "q2_half.json")
    with redirect_stdout(io.StringIO()):
        code = cli.main(["report", path, "--probe", "3", "--tidy-probe", "4",
                         "--resolution", "4"])
    assert code == cli.EXIT_OK
    assert len(eliminated) == len(built) + len(solved)


@pytest.mark.parametrize("entry, rrefs, hnfs, intersects", [
    pytest.param("1/2", 876, 1610, 384, id="phi=1/2"),
    pytest.param("2", 289, 517, 113, id="phi=2"),
])
def test_report_op_counts_with_and_without_chain_skip(monkeypatch, tmp_path, entry, rrefs,
                                                      hnfs, intersects):
    """Op-count gate, as (rref, zp_column_hnf, intersect): the q2_half
    report, and the same report for phi = 2, whose forward chains are
    skipped; run to their cap those made 4897 eliminations and 1169
    intersections.  With the forward chain of the cotrajectory table built
    and unread, the two reports made (2666, 416) and (801, 145) rrefs and
    intersections; with ``from_constraints`` a kernel, an integer kernel and
    a solve, (2650, 1072, 412) and (785, 506, 141); while intersections and
    preimages converted their operands again and the forward core was imaged
    three times, (1920, 1828, 412) and (594, 739, 141); while the entropy
    certificate built each probed base element a second time, (975, 1781,
    412) and (377, 692, 141); while the nub took every candidate's
    displacement index again, (943, 1725, 412) and (345, 636, 141); while
    each tidy-above transform and the cotrajectory table built their own
    backward chain, (927, 1701, 404) and (329, 612, 133); while
    ``_plus_group`` and the tidy-below image chain each took phi(U_+), (887,
    1621, 384) and (289, 532, 113)."""
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


def test_verify_all_op_counts(monkeypatch):
    """Op-count gate, as (p-adic ``minus_group_impl``, rref, zp_column_hnf)
    over one ``verify all``.  While products called their factor hooks
    again, each reader rebuilt its backward chain and the forward/backward
    identities took a power of phi for every (n, k), the run made (79,
    18932, 33035); while products built their chains from their own
    primitives, a scenario with equal factors built two factor systems and
    ``_plus_group`` took its own image of U_+, (50, 13906, 23166); while
    each suite rebuilt its cotrajectory table and the identities took
    phi^n(U_-n) twice and phi^0(U_-n) at all, (45, 11818, 19342)."""
    rrefs, hnfs = count_eliminations(monkeypatch)
    minus = count_calls(monkeypatch, PadicModel, "minus_group_impl")
    with redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "all"]) == cli.EXIT_OK
    assert (len(minus), len(rrefs), len(hnfs)) == (45, 11516, 19032)


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


def test_alpha_sequence_checks_each_containment_once(monkeypatch):
    """Op-count gate, as (contains, index): each containment of the table is
    checked once, inside its index.  With an explicit decreasing check as
    well the same table made (40, 27)."""
    m = PadicModel(3, 3)
    sys = TdlcSystem(m, m.endo([[F(1, 3), 1, 0], [0, 3, 1], [0, 0, 1]]))
    u = m.base_element(0)
    contains = count_calls(monkeypatch, PadicModel, "contains")
    indices = count_calls(monkeypatch, PadicModel, "index")
    cotraj.alpha_sequence(sys, u, 12)
    assert (len(contains), len(indices)) == (27, 27)


def test_alpha_sequence_rejects_a_chain_that_is_not_decreasing(monkeypatch):
    """Two subgroups of index 2 in U, neither inside the other: each c_n
    divides the next, and the direct index catches the broken chain."""
    m = PadicModel(2, 2)
    sys = TdlcSystem(m, m.identity_endo())
    left, right = m.lattice([[2, 0], [0, 1]]), m.lattice([[1, 0], [0, 2]])
    monkeypatch.setattr(cotraj, "minus_chain", lambda sys, U, n: [U, left] + [right] * (n - 1))
    with pytest.raises(InvariantViolation, match="cotrajectory chain is not decreasing"):
        cotraj.alpha_sequence(sys, m.full_lattice(), 4)


@pytest.mark.parametrize("make_sys", [q2_half, shift_z2], ids=["padic", "shift"])
def test_image_chain_stops_at_a_stable_forward_core(monkeypatch, make_sys):
    """Op-count gate: on a phi-stable U+ the image chain stops at its first
    image, which ``plus_group`` took, so ``is_tidy_below`` takes no image, not
    tidy_probe + 1, and the backend is not asked.  While ``_plus_group`` took
    its own image, ``is_tidy_below`` took (1, 0)."""
    sys = make_sys()
    model = sys.model
    u = model.full_group()
    assert cotraj.plus_group(sys, u).handle == u
    images = count_calls(monkeypatch, type(model), "image")
    closures = count_calls(monkeypatch, type(model), "plus_plus_closure")
    res = cotraj.is_tidy_below(sys, u, 6)
    assert (len(images), len(closures)) == (0, 0)
    assert res.value is True
    assert res.certificate == {"closed": True, "index_constant": True,
                               "method": "image chain stabilized", "steps": 0}


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
