import itertools
import random

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


def breadth_first_subgroups(model):
    """The subgroup lattice as first built: join every subgroup found with
    every element it misses, passing all its members to the closure."""
    found = {frozenset({model.identity})}
    frontier = list(found)
    while frontier:
        nxt = []
        for h in frontier:
            for g in range(model.order):
                if g not in h:
                    k = model.closure(set(h) | {g})
                    if k not in found:
                        found.add(k)
                        nxt.append(k)
        frontier = nxt
    ordered = sorted(found, key=lambda s: (len(s), tuple(sorted(s))))
    return [tuple(sorted(s)) for s in ordered]


def is_associative(table):
    n = len(table)
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n) for b in range(n) for c in range(n)
    )


def _power(model, x, k):
    out = model.identity
    for _ in range(k):
        out = model.table[out][x]
    return out


def is_multiplicative(model, mapping):
    t = model.table
    return all(
        mapping[t[a][b]] == t[mapping[a]][mapping[b]]
        for a in range(model.order) for b in range(model.order)
    )


def abelian_table(orders):
    """Z_n1 x ... x Z_nk with elements in lexicographic order."""
    elements = list(itertools.product(*(range(n) for n in orders)))
    pos = {x: i for i, x in enumerate(elements)}
    return [
        [pos[tuple((u + v) % n for u, v, n in zip(x, y, orders))] for y in elements]
        for x in elements
    ]


def drawable_abelian_orders(max_order):
    """Every Z_n and Z_m x Z_(n/m) (m <= n/m) of order 2..max_order, the
    shapes the benchmark's finite fragments draw."""
    out = []
    for n in range(2, max_order + 1):
        out.append((n,))
        out.extend((m, n // m) for m in range(2, n) if n % m == 0 and m * m <= n)
    return out


# -- group constructions -------------------------------------------------------

def test_group_axioms_verified():
    with pytest.raises(ValueError):
        FiniteGroupModel([[0, 1], [1, 1]])  # not a group


# The smallest non-associative loop: a Latin square with identity 0 in
# which every element is its own inverse, and (1*2)*2 = 4 != 1 = 1*(2*2).
LOOP_5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_nonassociative_loops_rejected():
    # LOOP_5 x Z2 with element (l, z) at 2l + z: the first generator, (0, 1),
    # associates with every pair, so the test must check the others too.
    product = [
        [2 * LOOP_5[a // 2][b // 2] + (a + b) % 2 for b in range(10)] for a in range(10)
    ]
    for table in (LOOP_5, product):
        assert not is_associative(table)
        with pytest.raises(ValueError, match="not associative"):
            FiniteGroupModel(table)


def _random_loop(rng, n):
    """An n x n table with identity 0 and a two-sided inverse for every
    element, associative or not: a relabelled group table, the same with
    one or two entries changed, or random entries around an inverse
    pairing."""
    kind = rng.randrange(3)
    if kind < 2:
        groups = [cyclic_group(n)]
        if n % 2 == 0:
            groups += [dihedral_group(n // 2), FiniteGroupModel(abelian_table((2, n // 2)))]
        if n == 8:
            groups.append(quaternion_group())
        g = rng.choice(groups)
        rest = [x for x in range(n) if x != g.identity]
        rng.shuffle(rest)
        relabel = {g.identity: 0, **{x: i + 1 for i, x in enumerate(rest)}}
        table = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                table[relabel[a]][relabel[b]] = relabel[g.table[a][b]]
        for _ in range(kind * rng.randint(1, 2)):
            a, b = rng.randrange(1, n), rng.randrange(1, n)
            if table[a][b] != 0:
                table[a][b] = rng.randrange(1, n)
        return table
    table = [[rng.randrange(1, n) for _ in range(n)] for _ in range(n)]
    for x in range(n):
        table[0][x] = table[x][0] = x
    others = list(range(1, n))
    rng.shuffle(others)
    while others:
        x = others.pop()
        y = others.pop() if others and rng.random() < 0.5 else x
        table[x][y] = table[y][x] = 0
    return table


def test_light_test_agrees_with_brute_force_on_random_loops():
    rng = random.Random(17)
    verdicts = {True: 0, False: 0}
    for _ in range(300):
        table = _random_loop(rng, rng.randint(5, 8))
        expected = is_associative(table)
        try:
            FiniteGroupModel(table)
            accepted = True
        except ValueError as exc:
            assert "not associative" in str(exc)
            accepted = False
        assert accepted == expected, table
        verdicts[expected] += 1
    assert verdicts[True] >= 50 and verdicts[False] >= 50, verdicts


def test_out_of_range_entries_are_named():
    table = [[0, 1, 2], [1, 2, 0], [2, 0, 5]]
    with pytest.raises(ValueError, match=r"table entry \[2\]\[2\] is 5, outside range\(3\)"):
        FiniteGroupModel(table)
    table[2][2] = -1
    with pytest.raises(ValueError, match=r"table entry \[2\]\[2\] is -1, outside range\(3\)"):
        FiniteGroupModel(table)
    z3 = cyclic_group(3)
    for bad in (3, -1):
        with pytest.raises(ValueError, match=rf"image of element 2 is {bad}, outside range\(3\)"):
            z3.endo([0, 1, bad])


def test_building_a_model_enumerates_no_subgroup(monkeypatch):
    """Op-count gate, counted as ``closure`` calls: building Z16 x Z16 takes
    one closure per greedy generator and lists no subgroup; listing its 83
    subgroups by cyclic extension takes 3373 more: one per element for the
    cyclic subgroups, then one per join.  When the lattice was built with
    the model, joining each subgroup with each element and passing all its
    members to the closure, building it took 19,029 closures."""
    calls = []
    original = FiniteGroupModel.closure

    def counted(self, gens):
        calls.append(gens)
        return original(self, gens)

    monkeypatch.setattr(FiniteGroupModel, "closure", counted)
    g = FiniteGroupModel(abelian_table((16, 16)))
    assert g.generating_sequence() == (1, 16)
    assert len(calls) == 2
    assert len(g.all_subgroups()) == 83
    assert len(calls) == 2 + 3373
    g.all_subgroups()
    assert len(calls) == 2 + 3373


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


@pytest.mark.parametrize("orders", drawable_abelian_orders(64), ids=str)
def test_cyclic_extension_matches_breadth_first_lattice(orders):
    g = FiniteGroupModel(abelian_table(orders))
    got = [s.members for s in g.all_subgroups()]
    assert got == breadth_first_subgroups(g)
    if g.order <= 16:
        assert set(map(frozenset, got)) == brute_force_subgroups(g)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: symmetric_group(3),
        lambda: dihedral_group(4),
        quaternion_group,
        lambda: cyclic_group(12),
        lambda: alternating_group(4),
    ],
)
def test_generator_hom_check_agrees_with_all_pairs(factory):
    """Random maps, endomorphisms, endomorphisms with one image changed and
    maps with f(xg) = f(x)f(g) for the first generator g only: the check on
    generators accepts exactly the multiplicative maps."""
    g = factory()
    rng = random.Random(g.name)
    endos = [e.mapping for e in g.endomorphisms()]
    maps = [tuple(rng.randrange(g.order) for _ in range(g.order)) for _ in range(100)]
    maps += endos
    for m in endos:
        x = rng.randrange(g.order)
        maps.append(m[:x] + (rng.randrange(g.order),) + m[x + 1:])
    first = g.generating_sequence()[0]
    k = len(g.closure([first]))
    for _ in range(20):
        # f(first) = y with y^k = 1, free on one element of each right coset
        # of <first>, then f(x first^i) = f(x) y^i
        y = rng.choice([y for y in range(g.order) if _power(g, y, k) == g.identity])
        mapping = [None] * g.order
        for rep in range(g.order):
            if mapping[rep] is None:
                x, fx = rep, g.identity if rep == g.identity else rng.randrange(g.order)
                for _ in range(k):
                    mapping[x] = fx
                    x, fx = g.table[x][first], g.table[fx][y]
        maps.append(tuple(mapping))
    verdicts = {True: 0, False: 0}
    for m in maps:
        try:
            g.endo(m)
            accepted = True
        except ValueError as exc:
            assert "not multiplicative" in str(exc)
            accepted = False
        assert accepted == is_multiplicative(g, m), m
        verdicts[accepted] += 1
    assert verdicts[True] >= len(endos) and verdicts[False] >= 100


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
    assert r.model.order == 3
    assert r.model.names == tuple(g.names[x] for x in a3.members)


def test_restriction_refuses_a_subgroup_that_is_not_invariant():
    g = symmetric_group(3)
    transposition = next(s for s in g.all_subgroups() if len(s) == 2)
    # an inner automorphism moves it onto another transposition
    moving = next(phi for phi in g.endomorphisms()
                  if not g.contains(transposition, g.image(phi, transposition)))
    with pytest.raises(UnsupportedSubgroupError, match="not phi-invariant"):
        g.restriction(moving, transposition)


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
