import pathlib
import random
from collections import Counter
from fractions import Fraction

from tdlc_entropy import cotraj, dynamics
from tdlc_entropy.backends.catalog import catalog_scenarios, find_scenario
from tdlc_entropy.backends.finite import cyclic_group, symmetric_group
from tdlc_entropy.backends.padic import PadicModel
from tdlc_entropy.backends.product import make_product
from tdlc_entropy.backends.shift import TAIL_MODES, ShiftProfileModel, cyclic_alphabet, matrix_hom
from tdlc_entropy.core import ClosedSubgroupSpec, TdlcSystem
from tdlc_entropy.dynamics import FAIL, PASS, SKIPPED
from tdlc_entropy.exact import ExactEntropy, ZERO_ENTROPY
from tdlc_entropy.scenario import build_system, load_scenario_file, run_scenario

F = Fraction
SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def q2_half():
    m = PadicModel(2, 1)
    return TdlcSystem(m, m.endo([[F(1, 2)]]), name="q2_half")


def padic_diag():
    m = PadicModel(2, 2)
    return TdlcSystem(m, m.endo([[F(1, 2), 0], [0, F(1, 2)]]), name="padic_diag")


def padic_jordan():
    m = PadicModel(2, 2)
    return TdlcSystem(m, m.endo([[F(1, 2), 1], [0, F(1, 2)]]), name="padic_jordan")


def shift_z2():
    m = ShiftProfileModel(cyclic_alphabet([2]), "compact")
    return TdlcSystem(m, m.endo(1), name="shift_z2")


def shift_z4():
    m = ShiftProfileModel(cyclic_alphabet([4]), "compact")
    return TdlcSystem(m, m.endo(1), name="shift_z4")


def laurent(n):
    m = ShiftProfileModel(cyclic_alphabet([n]), "laurent")
    return TdlcSystem(m, m.endo(1), name=f"laurent_z{n}")


def finite_s3():
    m = symmetric_group(3)
    return TdlcSystem(m, m.identity_endo(), name="finite_s3")


def test_topological_entropy_examples():
    rep = dynamics.topological_entropy(q2_half(), probe=4)
    assert rep.value == ExactEntropy(2)
    assert rep.saturated
    assert all(v == ExactEntropy(2) for _, v in rep.table)

    rep = dynamics.topological_entropy(shift_z2(), probe=4)
    assert rep.value == ExactEntropy(2) and rep.saturated

    rep = dynamics.topological_entropy(finite_s3(), probe=4)
    assert rep.value == ZERO_ENTROPY and rep.saturated

    rep = dynamics.topological_entropy(padic_jordan(), probe=3)
    assert rep.value == ExactEntropy(4)


def test_scale_examples():
    s = dynamics.scale(q2_half(), probe=4)
    assert s.value == 2
    assert s.oracle_agreement is True
    assert s.witness_tidy_above is True and s.witness_tidy_below is True

    s = dynamics.scale(shift_z2(), probe=4)
    assert s.value == 1
    assert s.witness == shift_z2().model.full_group() or s.witness.is_open

    for n in (2, 3):
        s = dynamics.scale(laurent(n), probe=4)
        assert s.value == n
        assert s.witness_tidy_above is True and s.witness_tidy_below is True

    s = dynamics.scale(finite_s3(), probe=4)
    assert s.value == 1


def test_nub_examples():
    sys = shift_z2()
    rep = dynamics.nub(sys, resolution=6, probe=4)
    assert rep.certified
    assert rep.handle == sys.model.full_group()

    sys = q2_half()
    rep = dynamics.nub(sys, resolution=6, probe=4)
    assert rep.certified
    assert rep.handle == sys.model.trivial_subgroup()

    sys = finite_s3()
    rep = dynamics.nub(sys, resolution=6, probe=4)
    assert rep.certified
    assert rep.handle == sys.model.trivial_subgroup()

    sys = laurent(3)
    rep = dynamics.nub(sys, resolution=6, probe=4)
    assert rep.certified
    assert rep.handle == sys.model.trivial_subgroup()


def test_addition_theorem_padic_diag():
    sys = padic_diag()
    h = ClosedSubgroupSpec.verify(sys, sys.model.closed_subgroup([[1, 0]], []))
    assert h.phi_stable and h.contains_kernel and h.normal
    v = dynamics.verify_addition_theorem(sys, h, probe=3)
    assert v.status == PASS
    assert v.details == {"h_total": "log 4", "h_subgroup": "log 2", "h_quotient": "log 2"}


def test_addition_theorem_jordan():
    sys = padic_jordan()
    h = ClosedSubgroupSpec.verify(sys, sys.model.closed_subgroup([[1, 0]], []))
    v = dynamics.verify_addition_theorem(sys, h, probe=3)
    assert v.status == PASS
    assert v.details["h_total"] == "log 4"


def test_addition_theorem_shift_z4():
    sys = shift_z4()
    two = sys.model.alphabet.subgroup_id({(0,), (2,)})
    h = ClosedSubgroupSpec.verify(sys, sys.model.constant_profile(two))
    v = dynamics.verify_addition_theorem(sys, h, probe=3)
    assert v.status == PASS
    assert v.details == {"h_total": "log 4", "h_subgroup": "log 2", "h_quotient": "log 2"}


def test_addition_theorem_degenerate_cases():
    sys = q2_half()
    triv = ClosedSubgroupSpec.verify(sys, sys.model.trivial_subgroup())
    v = dynamics.verify_addition_theorem(sys, triv, probe=3)
    assert v.status == PASS and v.details["h_subgroup"] == "0"
    whole = ClosedSubgroupSpec.verify(sys, sys.model.full_group())
    v = dynamics.verify_addition_theorem(sys, whole, probe=3)
    assert v.status == PASS and v.details["h_quotient"] == "0"


def test_addition_theorem_compact_nonnormal():
    sys = finite_s3()
    transposition = next(s for s in sys.model.all_subgroups() if len(s) == 2)
    h = ClosedSubgroupSpec.verify(sys, transposition)
    assert not h.normal and h.compact
    v = dynamics.verify_addition_theorem(sys, h, probe=3)
    assert v.status == PASS


def test_addition_theorem_skips_bad_preconditions():
    m = cyclic_group(12)
    double = m.endo(tuple((2 * x) % 12 for x in range(12)))
    sys = TdlcSystem(m, double, name="z12_double")
    h = ClosedSubgroupSpec.verify(sys, m.generated_subgroup([6]))
    v = dynamics.verify_addition_theorem(sys, h, probe=3)
    assert v.status == SKIPPED


def _additivity_statuses(draws):
    """Verdict counts of the additivity theorem over (system, H) draws; none may FAIL."""
    statuses = Counter()
    for sys, handle in draws:
        v = dynamics.verify_addition_theorem(sys, ClosedSubgroupSpec.verify(sys, handle), probe=3)
        assert v.status != FAIL, (sys.endo, handle.describe(), v.reason, v.details)
        statuses[v.status] += 1
    return statuses


def _padic_additivity_draws(rng, n):
    """Block upper-triangular phi on Q_p^d, so H = span(e_1..e_k) is carried into itself."""
    for _ in range(n):
        p, dim = rng.choice((2, 3, 5)), rng.choice((2, 3))
        k = rng.randrange(1, dim)
        entries = (0, 1, -1, 2, F(1, 2), 3, F(1, 3), p, F(1, p))
        a = [[0 if i >= k > j else rng.choice(entries) for j in range(dim)] for i in range(dim)]
        m = PadicModel(p, dim)
        yield (TdlcSystem(m, m.endo(a)),
               m.closed_subgroup([[int(i == j) for j in range(dim)] for i in range(k)], []))


def _shift_additivity_draws(rng, per_mode):
    """sigma x shift on every tail mode, H a constant profile."""
    for mode in TAIL_MODES:
        for _ in range(per_mode):
            orders = rng.choice(((2,), (3,), (4,), (5,), (6,), (7,), (8,), (9,), (2, 2), (3, 3)))
            m = ShiftProfileModel(cyclic_alphabet(orders), mode)
            sigma = [[rng.randrange(orders[0]) for _ in orders] for _ in orders]
            phi = m.endo(rng.randint(-2, 3), matrix_hom(m.alphabet, orders, sigma))
            yield TdlcSystem(m, phi), m.constant_profile(rng.randrange(len(m.alphabet.subgroups)))


# PASS counts of the first run of these seeded draws (60 p-adic: 8 SKIPPED,
# 3 INCONCLUSIVE; 69 shift: 31 SKIPPED); a change that loses a PASS shows here
PADIC_ADDITIVITY_PASS_FLOOR = 49
SHIFT_ADDITIVITY_PASS_FLOOR = 38


def test_addition_theorem_on_random_padic_subspaces():
    statuses = _additivity_statuses(_padic_additivity_draws(random.Random(21), 60))
    assert statuses[PASS] >= PADIC_ADDITIVITY_PASS_FLOOR, statuses


def test_addition_theorem_on_random_shift_constant_profiles():
    statuses = _additivity_statuses(_shift_additivity_draws(random.Random(21), 23))
    assert statuses[PASS] >= SHIFT_ADDITIVITY_PASS_FLOOR, statuses


def test_scale_entropy_link():
    v = dynamics.verify_scale_entropy_link(shift_z2(), probe=4, resolution=5)
    assert v.status == PASS
    assert v.details["nub_trivial"] is False
    assert v.details["equality_case"] is False

    v = dynamics.verify_scale_entropy_link(q2_half(), probe=4, resolution=5)
    assert v.status == PASS
    assert v.details["nub_trivial"] is True and v.details["equality_case"] is True

    v = dynamics.verify_scale_entropy_link(finite_s3(), probe=3, resolution=4)
    assert v.status == PASS


def test_phi_n_lower_bound():
    sys = q2_half()
    best, accepted, rejected = dynamics.entropy_lower_bound_phiN(
        sys, [sys.model.full_lattice()]
    )
    assert best == ExactEntropy(2) and len(accepted) == 1

    s = shift_z2()
    triv, full = s.model.alphabet.trivial_id, s.model.alphabet.full_id
    step = s.model.make_profile((triv,), 1, (), (full,))
    best, accepted, rejected = dynamics.entropy_lower_bound_phiN(s, [step])
    assert best == ExactEntropy(2)

    bad = s.model.base_element(0)  # not inside its image
    best, accepted, rejected = dynamics.entropy_lower_bound_phiN(s, [bad])
    assert rejected and best == ZERO_ENTROPY


def test_restriction_monotonicity():
    sys = padic_diag()
    h = ClosedSubgroupSpec.verify(sys, sys.model.closed_subgroup([[1, 0]], []))
    v = dynamics.restriction_monotonicity(sys, h, probe=3)
    assert v.status == PASS


def test_restriction_monotonicity_skips_an_unrestrictable_subgroup():
    """Z_2 is invariant under phi = 2, but the p-adic backend restricts only to
    rational subspaces: SKIPPED with the reason, not a resource verdict."""
    m = PadicModel(2, 1)
    sys = TdlcSystem(m, m.endo([[2]]), name="q2_double")
    h = ClosedSubgroupSpec.verify(sys, m.full_lattice())
    v = dynamics.restriction_monotonicity(sys, h, probe=3)
    assert v.status == SKIPPED
    assert "rational subspace" in v.reason


def test_quotient_table_equality_shift():
    sys = shift_z4()
    two = sys.model.alphabet.subgroup_id({(0,), (2,)})
    h = ClosedSubgroupSpec.verify(sys, sys.model.constant_profile(two))
    v = dynamics.quotient_table_equality(sys, h, probe=4)
    assert v.status == PASS and v.details["checked"] >= 3


def test_quotient_table_equality_finite():
    sys = finite_s3()
    a3 = next(s for s in sys.model.all_subgroups() if len(s) == 3)
    h = ClosedSubgroupSpec.verify(sys, a3)
    v = dynamics.quotient_table_equality(sys, h, probe=3)
    assert v.status == PASS


def test_product_formula_cross_backend():
    v = dynamics.verify_product_formula(q2_half(), laurent(3), probe=3)
    assert v.status == PASS
    assert v.details["h_product"] == "log 6"

    # (Q_2, x/2)^2 agrees with the diagonal matrix model
    prod = make_product(q2_half(), q2_half())
    hp = dynamics.topological_entropy(prod, probe=3).value
    hd = dynamics.topological_entropy(padic_diag(), probe=3).value
    assert hp == hd == ExactEntropy(4)
    sp = dynamics.scale(prod, probe=3).value
    sd = dynamics.scale(padic_diag(), probe=3).value
    assert sp == sd == 4


def test_finite_quotient_entropy_through_the_base_builder():
    """In a finite group the base(k) H builder yields H itself, and its
    supremum equals the one over every subgroup containing H."""
    for data in catalog_scenarios():
        if data["backend"] != "finite":
            continue
        sys = build_system(data)
        model = sys.model
        for h in model.all_subgroups():
            spec = ClosedSubgroupSpec.verify(sys, h)
            assert h in dynamics._open_subgroups_containing(sys, spec, probe=2)
            over_all = max(cotraj.htop_local(sys, s)
                           for s in model.all_subgroups() if model.contains(s, h))
            assert dynamics._quotient_entropy(sys, spec, probe=2) == over_all


def test_scale_oracle_on_the_catalog():
    for data in catalog_scenarios():
        sys = build_system(data)
        predicted = sys.model.scale_oracle(sys.endo)
        if data["backend"] == "padic":
            assert predicted == sys.model.p ** sys.model.entropy_exponent(sys.endo)
        elif data["backend"] in ("finite", "shift"):
            assert predicted is None
    squared = build_system(find_scenario("product_q2half_squared"))
    assert squared.model.scale_oracle(squared.endo) == 4
    s = dynamics.scale(squared, probe=3)
    assert s.value == 4 and s.oracle_agreement is True
    mixed = build_system(find_scenario("product_q2half_laurent3"))
    assert mixed.model.scale_oracle(mixed.endo) is None
    report, _, _ = run_scenario(load_scenario_file(str(SCENARIOS / "product.json")))
    scales = [r["result"] for r in report["results"] if r["check"]["type"] == "scale"]
    assert scales and all(r["oracle_agreement"] is None for r in scales)
