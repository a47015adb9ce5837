"""Cross-backend contracts of the core operations: index laws over lattice
and profile triples, the image-index comparison, base monotonicity, and the
quotient/restriction duality on shift models."""

from fractions import Fraction

import pytest

from tdlc_entropy.backends.finite import symmetric_group
from tdlc_entropy.backends.padic import PadicModel
from tdlc_entropy.backends.product import make_product
from tdlc_entropy.backends.shift import ShiftProfileModel, cyclic_alphabet
from tdlc_entropy.core import (
    BackendMismatchError,
    ClosedSubgroupSpec,
    TdlcSystem,
    UnsupportedSubgroupError,
)

F = Fraction


def lattice_triples():
    m = PadicModel(2, 2)
    g0 = m.full_lattice()
    k = m.lattice([[2, 0], [0, 1]])
    h = m.lattice([[4, 0], [0, 2]])
    return m, h, k, g0


def profile_triples():
    m = ShiftProfileModel(cyclic_alphabet([4]), "compact")
    full, triv = m.alphabet.full_id, m.alphabet.trivial_id
    two = m.alphabet.subgroup_id({(0,), (2,)})
    g0 = m.full_group()
    k = m.make_profile((full,), 0, (two,), (full,))
    h = m.make_profile((full,), 0, (triv, two), (full,))
    return m, h, k, g0


@pytest.mark.parametrize("triple", [lattice_triples, profile_triples])
def test_gi1_multiplicativity_over_triples(triple):
    m, h, k, g0 = triple()
    assert m.contains(k, h) and m.contains(g0, k)
    assert m.index(h, g0) == m.index(k, g0) * m.index(h, k)


@pytest.mark.parametrize("triple", [lattice_triples, profile_triples])
def test_gi2_product_exchange(triple):
    # [LH : H] = [L : H n L] where the set product is the subgroup join
    m, h, _, g0 = triple()
    l = g0
    lh = m.set_product(l, h)
    assert m.index(h, lh) == m.index(m.intersect(h, l), l)


def test_im_gi_comparison_padic():
    # H <= K, both inside their images: [phi(H):H] >= [phi(K):K]
    m = PadicModel(2, 1)
    phi = m.endo([[F(1, 2)]])
    k = m.full_lattice()
    h = m.lattice([[4]])
    for u in (h, k):
        assert m.contains(m.image(phi, u), u)
    ih = m.index(h, m.image(phi, h))
    ik = m.index(k, m.image(phi, k))
    assert ik <= ih


def test_im_gi_comparison_shift():
    m = ShiftProfileModel(cyclic_alphabet([2]), "compact")
    phi = m.endo(1)
    triv, full = m.alphabet.trivial_id, m.alphabet.full_id
    k = m.make_profile((triv,), 0, (), (full,))
    h = m.make_profile((triv,), 2, (), (full,))
    assert m.contains(k, h)
    for u in (h, k):
        assert m.contains(m.image(phi, u), u)
    assert m.index(k, m.image(phi, k)) <= m.index(h, m.image(phi, h))


def test_backend_mismatch_rejected():
    m1 = PadicModel(2, 1)
    m2 = PadicModel(2, 1)
    with pytest.raises(BackendMismatchError):
        m1.intersect(m1.full_lattice(), m2.full_lattice())


def test_product_flags_are_the_factor_flags_joined():
    """The flags of a pair, computed on the product, are the factor flags joined by 'and'."""
    s3 = symmetric_group(3)
    left = TdlcSystem(s3, s3.identity_endo())
    q2 = PadicModel(2, 1)
    right = TdlcSystem(q2, q2.endo([[F(1, 2)]]))
    prod = make_product(left, right)
    for h1 in s3.all_subgroups():
        for h2 in (q2.trivial_subgroup(), q2.full_lattice(), q2.full_group()):
            spec = ClosedSubgroupSpec.verify(prod, prod.model.pair(h1, h2))
            f1, f2 = ClosedSubgroupSpec.verify(left, h1), ClosedSubgroupSpec.verify(right, h2)
            for flag in ("normal", "compact", "phi_invariant", "phi_stable", "contains_kernel"):
                assert getattr(spec, flag) == (getattr(f1, flag) and getattr(f2, flag)), flag


def test_product_restriction_refuses_when_a_factor_refuses():
    s3 = symmetric_group(3)
    q2 = PadicModel(2, 1)
    prod = make_product(TdlcSystem(s3, s3.identity_endo()), TdlcSystem(q2, q2.endo([[2]])))
    h = prod.model.pair(s3.full_group(), q2.full_lattice())
    assert ClosedSubgroupSpec.verify(prod, h).phi_invariant
    # the p-adic factor restricts only to rational subspaces, not to Z_2
    with pytest.raises(UnsupportedSubgroupError, match="rational subspace"):
        prod.model.restriction(prod.endo, h)


def test_base_family_monotone_everywhere():
    models = [
        PadicModel(2, 2),
        ShiftProfileModel(cyclic_alphabet([2]), "compact"),
        ShiftProfileModel(cyclic_alphabet([3]), "laurent"),
    ]
    for m in models:
        for k in range(4):
            assert m.contains(m.base_element(k), m.base_element(k + 1))
            assert m.base_element(k).is_compact and m.base_element(k).is_open


def test_spec_quotient_example_padic():
    # (Q_2^2, diag(1/2,1/2)) / (Q_2 x 0) is (Q_2, y -> y/2)
    m = PadicModel(2, 2)
    q = m.quotient(m.endo([[F(1, 2), 0], [0, F(1, 2)]]), m.closed_subgroup([[1, 0]], []))
    assert q.system.model.dim == 1
    assert q.system.endo.matrix == ((F(1, 2),),)


def test_spec_restriction_example_padic():
    m = PadicModel(2, 2)
    r = m.restriction(m.endo([[F(1, 2), 0], [0, F(1, 2)]]), m.closed_subgroup([[1, 0]], []))
    assert r.model.dim == 1
    assert r.endo.matrix == ((F(1, 2),),)
    # the restricted base is the meet of the ambient base with H, in
    # coordinates on H = Q_2 x 0
    assert r.model.base_element(2) == r.model.lattice([[4]])


def test_shift_quotient_restriction_duality():
    """Restricting (Z/4)^Z to (2Z/4)^Z and quotienting match the alphabet
    level models Z/2 and Z/4 / 2Z/4 element for element on windows."""
    m = ShiftProfileModel(cyclic_alphabet([4]), "compact")
    phi = m.endo(1)
    H = m.constant_profile(m.alphabet.subgroup_id({(0,), (2,)}))
    r = m.restriction(phi, H)
    q = m.quotient(phi, H)
    z2 = ShiftProfileModel(cyclic_alphabet([2]), "compact")
    for model in (r.model, q.system.model, z2):
        assert len(model.alphabet.elements) == 2
        assert len(model.alphabet.subgroup_sets) == 2
    for k in range(3):
        for i in range(-k - 1, k + 2):
            a = r.model.base_element(k).value_at(i)
            b = z2.base_element(k).value_at(i)
            assert r.model.alphabet.order_of(a) == z2.alphabet.order_of(b)
            c = q.project(m.base_element(k)).value_at(i)
            assert q.system.model.alphabet.order_of(c) == z2.alphabet.order_of(b)


def test_preimage_of_open_is_open():
    m = ShiftProfileModel(cyclic_alphabet([2]), "compact")
    phi = m.endo(1)
    u = m.base_element(1)
    assert m.preimage(phi, u).is_open
    p = PadicModel(2, 2)
    psi = p.endo([[F(1, 2), 0], [0, 2]])
    assert p.preimage(psi, p.full_lattice()).is_open
