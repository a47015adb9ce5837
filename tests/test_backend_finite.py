import itertools

import pytest

from tdlc_entropy.backends.finite import (
    FiniteGroupModel,
    alternating_group,
    cyclic_group,
    dihedral_group,
    quaternion_group,
    symmetric_group,
    trivial_group,
)
from tdlc_entropy.core import ClosedSubgroupSpec, TdlcSystem, UnsupportedSubgroupError
from tdlc_entropy.exact import IndexValue


# -- independent oracles -------------------------------------------------------

def brute_force_subgroups(model):
    """All subgroups by filtering every subset; independent of the closure walk."""
    n = model.order
    out = set()
    for r in range(1, n + 1):
        if n % r != 0:
            continue
        for cand in itertools.combinations(range(n), r):
            s = set(cand)
            if model.identity not in s:
                continue
            if all(model.table[a][b] in s for a in s for b in s):
                out.add(frozenset(s))
    return out


def brute_force_endos(model):
    """All endomorphisms by depth-first assignment with consistency pruning."""
    n = model.order
    found = set()

    def extend(mapping):
        try:
            free = mapping.index(None)
        except ValueError:
            found.add(tuple(mapping))
            return
        for img in range(n):
            mapping[free] = img
            ok = True
            for a in range(n):
                if mapping[a] is None:
                    continue
                for b in range(n):
                    if mapping[b] is None:
                        continue
                    c = model.table[a][b]
                    if mapping[c] is not None and mapping[c] != model.table[mapping[a]][mapping[b]]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                extend(mapping)
        mapping[free] = None

    start = [None] * n
    start[model.identity] = model.identity
    extend(start)
    return found


# -- group constructions -------------------------------------------------------

def test_group_axioms_verified():
    with pytest.raises(ValueError):
        FiniteGroupModel([[0, 1], [1, 1]])  # not a group


@pytest.mark.parametrize(
    "factory,order,n_subgroups",
    [
        (trivial_group, 1, 1),
        (lambda: cyclic_group(12), 12, 6),
        (lambda: symmetric_group(3), 6, 6),
        (lambda: dihedral_group(4), 8, 10),
        (quaternion_group, 8, 6),
        (lambda: alternating_group(4), 12, 10),
    ],
)
def test_subgroup_enumeration_counts(factory, order, n_subgroups):
    g = factory()
    assert g.order == order
    subs = g.all_subgroups()
    assert len(subs) == n_subgroups
    assert {frozenset(s.members) for s in subs} == brute_force_subgroups(g)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: cyclic_group(12),
        lambda: symmetric_group(3),
        lambda: dihedral_group(4),
        quaternion_group,
        lambda: alternating_group(4),
    ],
)
def test_endomorphism_enumeration_matches_brute_force(factory):
    g = factory()
    got = {e.mapping for e in g.endomorphisms()}
    assert got == brute_force_endos(g)


def test_endo_count_cyclic():
    # End(Z/n) = multiplication maps, one per residue.
    assert len(cyclic_group(12).endomorphisms()) == 12


# -- operations ----------------------------------------------------------------

def s3_named():
    g = symmetric_group(3)
    by_perm = {g.names[i]: i for i in range(6)}
    return g, by_perm


def test_intersect_s3():
    g, _ = s3_named()
    # <(12)> n A3 = 1 in S3
    transposition = next(
        s for s in g.all_subgroups() if len(s) == 2
    )
    a3 = next(s for s in g.all_subgroups() if len(s) == 3)
    assert g.intersect(transposition, a3) == g.trivial_subgroup()


def test_set_product_s3():
    g, _ = s3_named()
    transposition = next(s for s in g.all_subgroups() if len(s) == 2)
    a3 = next(s for s in g.all_subgroups() if len(s) == 3)
    assert g.set_product(transposition, a3) == g.full_group()


def test_set_product_rejects_nonsubgroup():
    g = symmetric_group(3)
    twos = [s for s in g.all_subgroups() if len(s) == 2]
    with pytest.raises(UnsupportedSubgroupError):
        g.set_product(twos[0], twos[1])


def test_index_and_identity_image():
    g = cyclic_group(12)
    h = g.generated_subgroup([3])  # order 4
    assert g.index(h, g.full_group()) == IndexValue(3)
    assert g.image(g.identity_endo(), h) == h
    assert g.index(h, h) == IndexValue(1)


def test_base_family_finite():
    g = symmetric_group(3)
    assert g.base_element(0) == g.full_group()
    assert g.base_element(1) == g.trivial_subgroup()
    assert g.base_element(7) == g.trivial_subgroup()


def test_normalized_core_s3():
    g, _ = s3_named()
    transposition = next(s for s in g.all_subgroups() if len(s) == 2)
    a3 = next(s for s in g.all_subgroups() if len(s) == 3)
    assert g.normalized_core(transposition, a3) == g.trivial_subgroup()
    # K normal: core is K itself
    assert g.normalized_core(a3, g.full_group()) == a3
    # C trivial: empty conjugation
    assert g.normalized_core(transposition, g.trivial_subgroup()) == transposition


def test_quotient_s3_by_a3():
    g = symmetric_group(3)
    a3 = next(s for s in g.all_subgroups() if len(s) == 3)
    q = g.quotient(g.identity_endo(), a3)
    assert q.system.model.order == 2
    assert q.project(g.full_group()) == q.system.model.full_group()
    transposition = next(s for s in g.all_subgroups() if len(s) == 2)
    with pytest.raises(UnsupportedSubgroupError):
        g.quotient(g.identity_endo(), transposition)


def test_restriction_s3():
    g = symmetric_group(3)
    a3 = next(s for s in g.all_subgroups() if len(s) == 3)
    r = g.restriction(g.identity_endo(), a3)
    assert r.system.model.order == 3
    assert r.embed(r.system.model.full_group()) == a3


def test_check_index_identities_all_catalog_groups():
    for factory in (lambda: symmetric_group(3), lambda: cyclic_group(12)):
        counts = factory().check_index_identities()
        assert all(v > 0 for v in counts.values())


def test_snake_example_s3():
    # [G:B'] = [A:A n B'][G:B'A] with B' = <(12)>, A = A3: 3 = 3 * 1
    g = symmetric_group(3)
    bp = next(s for s in g.all_subgroups() if len(s) == 2)
    a = next(s for s in g.all_subgroups() if len(s) == 3)
    ba = g.set_mul(bp.members, a.members)
    assert ba == g.set_mul(a.members, bp.members)
    lhs = g.order // len(bp)
    rhs = (len(a) // len(g.intersect(a, bp))) * (g.order // len(ba))
    assert lhs == rhs == 3


def test_subgroup_flags():
    g = symmetric_group(3)
    sys = TdlcSystem(g, g.identity_endo())
    a3 = next(s for s in g.all_subgroups() if len(s) == 3)
    spec = ClosedSubgroupSpec.verify(sys, a3)
    assert spec == ClosedSubgroupSpec(
        handle=a3,
        normal=True,
        compact=True,
        phi_invariant=True,
        phi_stable=True,
        contains_kernel=True,
    )
    transposition = next(s for s in g.all_subgroups() if len(s) == 2)
    assert not ClosedSubgroupSpec.verify(sys, transposition).normal
