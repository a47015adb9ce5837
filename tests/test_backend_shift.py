import itertools
from math import gcd, lcm, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from tdlc_entropy import cotraj
from tdlc_entropy.backends import shift
from tdlc_entropy.backends.finite import FiniteGroupModel
from tdlc_entropy.backends.shift import (
    MAX_ALPHABET_ORDER,
    TAIL_MODES,
    Profile,
    ShiftProfileModel,
    cyclic_alphabet,
    matrix_hom,
)
from tdlc_entropy.core import ClosedSubgroupSpec, TdlcSystem, UnsupportedSubgroupError
from test_backend_padic import closed_forms_agree_with_fixpoints, limit
from tdlc_entropy.exact import INFINITE_INDEX, IndexValue


@pytest.fixture
def z2_model():
    return ShiftProfileModel(cyclic_alphabet([2]), "compact")


@pytest.fixture
def z4_model():
    return ShiftProfileModel(cyclic_alphabet([4]), "compact")


@pytest.fixture
def laurent_z3():
    return ShiftProfileModel(cyclic_alphabet([3]), "laurent")


def window_count_oracle(model, U, V, lo, hi):
    """[U:V] restricted to a window, by counting configurations per coordinate."""
    total = 1
    for i in range(lo, hi):
        total *= model.alphabet.order_of(U.value_at(i)) // model.alphabet.order_of(V.value_at(i))
    return total


def test_alphabet_lattices():
    z2 = cyclic_alphabet([2])
    assert len(z2.subgroup_sets) == 2
    z4 = cyclic_alphabet([4])
    assert len(z4.subgroup_sets) == 3
    klein = cyclic_alphabet([2, 2])
    assert len(klein.subgroup_sets) == 5


def test_profile_canonicalization(z2_model):
    m = z2_model
    full = m.alphabet.full_id
    triv = m.alphabet.trivial_id
    # redundant window entries equal to the tails get trimmed
    p = m.make_profile((full,), -2, (full, triv, full), (full,))
    assert p.start == -1 and p.window == (triv,)
    # equal tails with empty window collapse to the constant profile
    q = m.make_profile((full,), 7, (), (full,))
    assert q == m.full_group()
    # patterns reduce to their minimal period
    r = m.make_profile((full, full), 0, (triv,), (full, full))
    assert r.left == (full,) and r.right == (full,)


def test_spec_intersection_example(z2_model):
    m = z2_model
    u0 = m.base_element(0)  # trivial at 0
    u1 = m.translate(u0, 1)  # trivial at 1
    meet = m.intersect(u0, u1)
    triv = m.alphabet.trivial_id
    assert meet == m.make_profile((m.alphabet.full_id,), 0, (triv, triv), (m.alphabet.full_id,))
    assert m.index(meet, m.full_group()) == IndexValue(4)


def test_image_preimage_shift(z2_model):
    m = z2_model
    phi = m.endo(1)  # left shift
    u0 = m.base_element(0)
    img = m.image(phi, u0)
    assert img == m.translate(u0, -1)  # trivial at -1
    pre = m.preimage(phi, u0)
    assert pre == m.translate(u0, 1)  # trivial at +1
    ident = m.identity_endo()
    assert m.image(ident, u0) == u0


def test_index_profiles(z4_model):
    m = z4_model
    full = m.full_group()
    u = m.base_element(0)
    assert m.index(u, full) == IndexValue(4)
    assert m.index(u, u) == IndexValue(1)
    two = m.alphabet.subgroup_id({(0,), (2,)})
    mixed = m.make_profile((m.alphabet.full_id,), 0, (two,), (m.alphabet.full_id,))
    assert m.index(u, mixed) == IndexValue(2)
    assert m.index(u, full) == IndexValue(window_count_oracle(m, full, u, -1, 1))


def test_index_infinite_on_tail_mismatch(z2_model):
    m = z2_model
    step = m.make_profile((m.alphabet.trivial_id,), 0, (), (m.alphabet.full_id,))
    assert m.index(step, m.full_group()) == INFINITE_INDEX


def test_spec_profile_sum_example(z2_model):
    # (trivial <= 0, full >= 1) + (full < 0, trivial >= 0) = trivial exactly at 0
    m = z2_model
    full, triv = m.alphabet.full_id, m.alphabet.trivial_id
    a = m.make_profile((triv,), 1, (), (full,))
    b = m.make_profile((full,), 0, (), (triv,))
    s = m.set_product(a, b)
    assert s == m.base_element(0)


def test_base_family(z2_model, laurent_z3):
    m = z2_model
    b1 = m.base_element(1)
    assert [b1.value_at(i) for i in range(-2, 3)] == [
        m.alphabet.full_id,
        m.alphabet.trivial_id,
        m.alphabet.trivial_id,
        m.alphabet.trivial_id,
        m.alphabet.full_id,
    ]
    assert m.contains(m.base_element(0), b1)
    lb = laurent_z3.base_element(0)  # F[[t]]
    assert lb.is_compact and lb.is_open
    assert laurent_z3.contains(lb, laurent_z3.base_element(1))
    assert not laurent_z3.full_group().is_compact


def test_plus_group_compact_shift(z2_model):
    m = z2_model
    phi = m.endo(1)
    u = m.base_element(0)
    handle, method, steps, cert = limit(m, phi, u)
    # trivial for i <= 0, full for i >= 1
    expected = m.make_profile((m.alphabet.trivial_id,), 1, (), (m.alphabet.full_id,))
    assert handle == expected
    assert method == "structural"


def test_minus_group_compact_shift(z2_model):
    m = z2_model
    phi = m.endo(1)
    u = m.base_element(0)
    handle, method, steps, cert = limit(m, phi, u, False)
    # full for i < 0, trivial for i >= 0
    expected = m.make_profile((m.alphabet.full_id,), 0, (), (m.alphabet.trivial_id,))
    assert handle == expected
    assert method == "structural"


def test_minus_n_window_growth(z2_model):
    m = z2_model
    phi = m.endo(1)
    u = m.base_element(0)
    current = u
    for n in range(1, 4):
        current = m.intersect(current, m.preimage(m.endo_power(phi, n), u))
    triv, full = m.alphabet.trivial_id, m.alphabet.full_id
    assert current == m.make_profile((full,), 0, (triv,) * 4, (full,))


def test_plus_group_laurent(laurent_z3):
    m = laurent_z3
    phi = m.endo(1)  # multiplication by t^{-1}
    u = m.base_element(0)
    handle, method, steps, cert = limit(m, phi, u)
    assert handle == u  # F[[t]] is its own forward core
    hminus, *_ = limit(m, phi, u, False)
    assert hminus == m.trivial_subgroup()
    assert m.set_product(handle, hminus) == u  # tidy above


def test_plus_plus_not_closed_compact(z2_model):
    m = z2_model
    phi = m.endo(1)
    u_plus = m.make_profile((m.alphabet.trivial_id,), 1, (), (m.alphabet.full_id,))
    last = m.image(m.endo_power(phi, 13), u_plus)
    closed, cert = m.plus_plus_closure(phi, u_plus, last, 12)
    assert closed is False
    assert cert == {"method": "tail deficiency drifting toward a full ambient tail",
                    "drift_side": "left"}


def test_plus_plus_closed_laurent(laurent_z3):
    m = laurent_z3
    phi = m.endo(1)
    u_plus = m.base_element(0)
    last = m.image(m.endo_power(phi, 13), u_plus)
    closed, cert = m.plus_plus_closure(phi, u_plus, last, 12)
    assert closed is True
    assert cert == {"method": "drift into trivial ambient tail", "drift_side": "left"}


def test_quotient_and_restriction_z4():
    m = ShiftProfileModel(cyclic_alphabet([4]), "compact")
    phi = m.endo(1)
    two = m.alphabet.subgroup_id({(0,), (2,)})
    h = m.constant_profile(two)  # (2Z/4)^Z
    q = m.quotient(phi, h)
    assert len(q.system.model.alphabet.elements) == 2
    assert q.project(m.full_group()) == q.system.model.full_group()
    r = m.restriction(phi, h)
    assert r.model.alphabet.elements == ((0,), (2,))
    with pytest.raises(UnsupportedSubgroupError):
        m.quotient(phi, m.base_element(0))


def test_restriction_refuses_a_profile_that_is_not_constant():
    m = ShiftProfileModel(cyclic_alphabet([4]), "compact")
    phi = m.endo(-1)
    alpha = m.alphabet
    half = m.make_profile((alpha.trivial_id,), 0, (), (alpha.full_id,))  # F at i >= 0
    assert ClosedSubgroupSpec.verify(TdlcSystem(m, phi), half).phi_invariant
    with pytest.raises(UnsupportedSubgroupError, match="constant-profile"):
        m.restriction(phi, half)


def test_subgroup_flags_shift(z2_model):
    m = z2_model
    sys = TdlcSystem(m, m.endo(1))
    spec = ClosedSubgroupSpec.verify(sys, m.full_group())
    assert spec.phi_stable and spec.contains_kernel and spec.compact
    assert not ClosedSubgroupSpec.verify(sys, m.base_element(0)).phi_invariant


def test_sigma_with_kernel():
    m = ShiftProfileModel(cyclic_alphabet([4]), "compact")
    sigma = matrix_hom(m.alphabet, (4,), [[2]])  # x -> 2x on Z/4
    phi = m.endo(1, sigma)
    ker = m.kernel_handle(phi)
    assert ker != m.trivial_subgroup()
    two = m.alphabet.subgroup_id({(0,), (2,)})
    assert ker == m.constant_profile(two)


def test_brute_force_window_oracle(z4_model):
    """Re-verify an intersection and a product against raw enumeration on a window."""
    m = z4_model
    full, triv = m.alphabet.full_id, m.alphabet.trivial_id
    two = m.alphabet.subgroup_id({(0,), (2,)})
    a = m.make_profile((full,), 0, (two, triv), (full,))
    b = m.make_profile((full,), -1, (two, two, full, two), (full,))
    got_meet = m.intersect(a, b)
    got_join = m.set_product(a, b)
    for i in range(-3, 5):
        sa = m.alphabet.subgroup_sets[a.value_at(i)]
        sb = m.alphabet.subgroup_sets[b.value_at(i)]
        assert m.alphabet.subgroup_sets[got_meet.value_at(i)] == sa & sb
        joined = {m.alphabet.add(x, y) for x in sa for y in sb}
        assert m.alphabet.subgroup_sets[got_join.value_at(i)] == joined


# -- differential test against the alphabet's own group theory ------------------
# RefAlphabet and RefHom are the shift backend's subgroup lattice and
# homomorphism tables from before the alphabet became a view over a
# FiniteGroupModel, kept as the reference the finite engine must reproduce.


class RefAlphabet:
    def __init__(self, elements, add):
        self.elements = tuple(sorted(set(elements)))
        self._add = {(a, b): add(a, b) for a in self.elements for b in self.elements}
        self.zero = next(e for e in self.elements
                         if all(self._add[(e, x)] == x for x in self.elements))
        self.subgroup_sets = self._enumerate_subgroups()
        self._set_to_id = {s: i for i, s in enumerate(self.subgroup_sets)}
        n = len(self.subgroup_sets)
        self.meet = tuple(
            tuple(self._set_to_id[self.subgroup_sets[i] & self.subgroup_sets[j]] for j in range(n))
            for i in range(n)
        )
        self.join = tuple(
            tuple(
                self._set_to_id[self._closure(self.subgroup_sets[i] | self.subgroup_sets[j])]
                for j in range(n)
            )
            for i in range(n)
        )

    def add(self, a, b):
        return self._add[(a, b)]

    def _closure(self, subset):
        els = set(subset) | {self.zero}
        frontier = list(els)
        while frontier:
            nxt = []
            for x in frontier:
                for y in list(els):
                    z = self._add[(x, y)]
                    if z not in els:
                        els.add(z)
                        nxt.append(z)
            frontier = nxt
        return frozenset(els)

    def _enumerate_subgroups(self):
        found = {frozenset({self.zero})}
        frontier = list(found)
        while frontier:
            nxt = []
            for h in frontier:
                for g in self.elements:
                    if g not in h:
                        k = self._closure(h | {g})
                        if k not in found:
                            found.add(k)
                            nxt.append(k)
            frontier = nxt
        return tuple(sorted(found, key=lambda s: (len(s), tuple(sorted(s)))))

    def subgroup_id(self, members):
        return self._set_to_id[frozenset(members)]


class RefHom:
    def __init__(self, domain, codomain, mapping):
        self.domain = domain
        self.codomain = codomain
        self.mapping = dict(mapping)
        for a in domain.elements:
            for b in domain.elements:
                assert self.mapping[domain.add(a, b)] == codomain.add(self.mapping[a],
                                                                      self.mapping[b])
        self.image_id = tuple(
            codomain.subgroup_id(codomain._closure({self.mapping[x] for x in s}))
            for s in domain.subgroup_sets
        )
        self.preimage_id = tuple(
            domain.subgroup_id(
                {x for x in domain.elements if self.mapping[x] in codomain.subgroup_sets[j]}
            )
            for j in range(len(codomain.subgroup_sets))
        )

    def compose(self, other):
        """self after other"""
        return RefHom(other.domain, self.codomain,
                      {x: self.mapping[other.mapping[x]] for x in other.domain.elements})


def ref_cyclic_alphabet(orders):
    return RefAlphabet(itertools.product(*[range(n) for n in orders]),
                       lambda a, b: tuple((x + y) % n for x, y, n in zip(a, b, orders)))


def ref_matrix_hom(alpha, orders, matrix):
    r = len(orders)
    return RefHom(alpha, alpha, {
        x: tuple(sum(matrix[j][i] * x[i] for i in range(r)) % orders[j] for j in range(r))
        for x in alpha.elements
    })


def ref_quotient(alpha, sigma, f0):
    """(F/F0, the projection, the induced sigma) as the shift backend built them."""
    cosets = {x: min(alpha.add(x, h) for h in alpha.subgroup_sets[f0]) for x in alpha.elements}
    reps = sorted(set(cosets.values()))
    qalpha = RefAlphabet(reps, lambda a, b: cosets[alpha.add(a, b)])
    pi = RefHom(alpha, qalpha, cosets)
    qsigma = RefHom(qalpha, qalpha, {r: cosets[sigma.mapping[r]] for r in reps})
    return qalpha, pi, qsigma


def ref_restriction(alpha, sigma, f0):
    """(F0, sigma on F0)."""
    salpha = RefAlphabet(alpha.subgroup_sets[f0], alpha.add)
    ssigma = RefHom(salpha, salpha, {x: sigma.mapping[x] for x in salpha.elements})
    return salpha, ssigma


@st.composite
def alphabets_with_sigma(draw, bound=MAX_ALPHABET_ORDER):
    """Cyclic orders with product <= bound and an integer matrix that
    matrix_hom accepts: entry (j, i) is a multiple of
    orders[j] / gcd(orders[j], orders[i])."""
    orders = draw(st.lists(st.integers(1, bound), min_size=1, max_size=4)
                  .filter(lambda o: prod(o) <= bound))
    matrix = [[draw(st.integers(-3, 3)) * (oj // gcd(oj, oi)) for oi in orders]
              for oj in orders]
    return orders, matrix


def _relabelled(model, U, table):
    return model.make_profile(tuple(table[v] for v in U.left), U.start,
                              tuple(table[v] for v in U.window), tuple(table[v] for v in U.right))


@settings(max_examples=30, deadline=None)
@example(([2, 2, 2, 2], [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 1]]))
@example(([4, 4], [[1, 2], [0, 3]]))
@example(([2, 4], [[1, 1], [0, 3]]))
@given(alphabets_with_sigma())
def test_alphabet_matches_reference(case):
    orders, matrix = case
    alpha, ref = cyclic_alphabet(orders), ref_cyclic_alphabet(orders)
    assert alpha.elements == ref.elements
    assert alpha.subgroup_sets == ref.subgroup_sets
    assert (alpha.meet, alpha.join) == (ref.meet, ref.join)

    m = ShiftProfileModel(alpha, "compact")
    phi = m.endo(1, matrix_hom(alpha, orders, matrix))
    ref_sigma = ref_matrix_hom(ref, orders, matrix)
    power = RefHom(ref, ref, {x: x for x in ref.elements})
    for n in range(4):
        phin = m.endo_power(phi, n)
        assert (phin.image_id, phin.preimage_id) == (power.image_id, power.preimage_id)
        power = ref_sigma.compose(power)

    profiles = [m.base_element(0), m.base_element(1)]
    for f0 in range(len(ref.subgroup_sets)):
        if not ref.subgroup_sets[ref_sigma.image_id[f0]] <= ref.subgroup_sets[f0]:
            continue
        H = m.constant_profile(f0)
        constants = [m.constant_profile(v) for v in range(len(ref.subgroup_sets))]

        qalpha, pi, qsigma = ref_quotient(ref, ref_sigma, f0)
        q = m.quotient(phi, H)
        qmodel = q.system.model
        assert len(qmodel.alphabet.elements) == len(qalpha.elements)
        assert [qmodel.alphabet.order_of(i) for i in range(len(qalpha.subgroup_sets))] == [
            len(s) for s in qalpha.subgroup_sets]
        assert (q.system.endo.image_id, q.system.endo.preimage_id) == (
            qsigma.image_id, qsigma.preimage_id)
        for U in constants + profiles:
            assert q.project(U) == _relabelled(qmodel, U, pi.image_id)

        salpha, ssigma = ref_restriction(ref, ref_sigma, f0)
        r = m.restriction(phi, H)
        assert r.model.alphabet.subgroup_sets == salpha.subgroup_sets
        assert (r.endo.image_id, r.endo.preimage_id) == (ssigma.image_id, ssigma.preimage_id)


@settings(max_examples=200, deadline=None)
@given(alphabets_with_sigma(bound=9), st.sampled_from(TAIL_MODES), st.integers(-2, 2),
       st.data())
def test_closed_forms_agree_with_literal_chains(case, tail_mode, k, data):
    orders, matrix = case
    alpha = cyclic_alphabet(orders)
    m = ShiftProfileModel(alpha, tail_mode)
    phi = m.endo(k, matrix_hom(alpha, orders, matrix))
    ids = st.integers(0, len(alpha.subgroups) - 1)
    tails = st.sampled_from([alpha.full_id, alpha.trivial_id])
    window = m.window_profile(data.draw(st.dictionaries(st.integers(-2, 2), ids)),
                              data.draw(tails), data.draw(tails))
    for u in (m.base_element(0), m.base_element(1), window):
        closed_forms_agree_with_fixpoints(shift, m, phi, u)


# -- differential test of the one-pass profile arithmetic -------------------------
# The reference reads every operand position by position through value_at and
# trims with list.pop, the direct reading of the profile definitions; the
# one-pass arithmetic must give the same profiles.


def ref_make_profile(model, left, start, window, right):
    left, right = shift._minimal_pattern(left), shift._minimal_pattern(right)
    window = list(window)
    while window and window[0] == left[start % len(left)]:
        window.pop(0)
        start += 1
    while window and window[-1] == right[(start + len(window) - 1) % len(right)]:
        window.pop()
    if not window:
        if left == right:
            start = 0
        else:
            while left[start % len(left)] == right[start % len(right)]:
                start += 1
    return Profile(model, left, start, tuple(window), right)


def ref_pointwise(model, U, V, table):
    lper = lcm(len(U.left), len(V.left))
    rper = lcm(len(U.right), len(V.right))
    lo, hi = min(U.start, V.start), max(U.end, V.end)
    left = [table[U.left[r % len(U.left)]][V.left[r % len(V.left)]] for r in range(lper)]
    right = [table[U.right[r % len(U.right)]][V.right[r % len(V.right)]] for r in range(rper)]
    window = [table[U.value_at(i)][V.value_at(i)] for i in range(lo, hi)]
    return ref_make_profile(model, left, lo, window, right)


def ref_mapped(model, U, shift_by, value_map):
    left = [value_map[U.left[(r + shift_by) % len(U.left)]] for r in range(len(U.left))]
    right = [value_map[U.right[(r + shift_by) % len(U.right)]] for r in range(len(U.right))]
    window = [value_map[v] for v in U.window]
    return ref_make_profile(model, left, U.start - shift_by, window, right)


def ref_positions(U, V):
    lper = lcm(len(U.left), len(V.left))
    rper = lcm(len(U.right), len(V.right))
    return range(min(U.start, V.start) - lper, max(U.end, V.end) + rper)


def ref_contains(model, U, V):
    sets = model.alphabet.subgroup_sets
    return all(sets[V.value_at(i)] <= sets[U.value_at(i)] for i in ref_positions(U, V))


def ref_index(model, V, U):
    if U.left != V.left or U.right != V.right:
        return INFINITE_INDEX
    sets = model.alphabet.subgroup_sets
    return IndexValue(prod(len(sets[U.value_at(i)]) // len(sets[V.value_at(i)])
                           for i in range(min(U.start, V.start), max(U.end, V.end))))


def assert_canonical(P):
    """Minimal tails, a window trimmed at both ends, a normalised start."""
    for pat in (P.left, P.right):
        assert not any(len(pat) % q == 0 and pat == pat[:q] * (len(pat) // q)
                       for q in range(1, len(pat)))
    if P.window:
        assert P.window[0] != P.left[P.start % len(P.left)]
        assert P.window[-1] != P.right[(P.end - 1) % len(P.right)]
    elif P.left == P.right:
        assert P.start == 0
    else:
        assert P.left[P.start % len(P.left)] != P.right[P.start % len(P.right)]


@st.composite
def profiles(draw, model):
    ids = st.integers(0, len(model.alphabet.subgroups) - 1)
    pattern = st.lists(ids, min_size=1, max_size=3).map(tuple)
    window = draw(st.lists(ids, max_size=5))
    return model.make_profile(draw(pattern), draw(st.integers(-3, 3)), window, draw(pattern))


@settings(max_examples=300, deadline=None)
@given(alphabets_with_sigma(bound=9), st.sampled_from(TAIL_MODES), st.integers(-3, 3),
       st.data())
def test_one_pass_arithmetic_matches_pointwise_reference(case, tail_mode, k, data):
    orders, matrix = case
    alpha = cyclic_alphabet(orders)
    m = ShiftProfileModel(alpha, tail_mode)
    phi = m.endo(k, matrix_hom(alpha, orders, matrix))
    U, V = data.draw(profiles(m)), data.draw(profiles(m))
    for P in (U, V):
        assert_canonical(P)
    lo = data.draw(st.integers(-8, 8))
    hi = data.draw(st.integers(lo, lo + 12))
    assert U.values(lo, hi) == tuple(U.value_at(i) for i in range(lo, hi))
    ident = tuple(range(len(alpha.subgroups)))
    meet = m.intersect(U, V)
    got = {
        "intersect": (meet, ref_pointwise(m, U, V, alpha.meet)),
        "set_product": (m.set_product(U, V), ref_pointwise(m, U, V, alpha.join)),
        "image": (m.image(phi, U), ref_mapped(m, U, k, phi.image_id)),
        "preimage": (m.preimage(phi, U), ref_mapped(m, U, -k, phi.preimage_id)),
        "meet_preimage": (m.meet_preimage(U, phi, V),
                          ref_pointwise(m, U, ref_mapped(m, V, -k, phi.preimage_id), alpha.meet)),
        "translate": (m.translate(U, k), ref_mapped(m, U, -k, ident)),
    }
    for name, (result, expected) in got.items():
        assert result == expected, name
        assert_canonical(result)
    for big, small in ((U, V), (V, U), (U, meet), (V, meet), (meet, U)):
        assert m.contains(big, small) == ref_contains(m, big, small)
    for big in (U, V):
        assert m.index(meet, big) == ref_index(m, meet, big)


def test_cotrajectory_step_builds_one_profile(monkeypatch):
    """Each of minus_chain's n steps is one meet_preimage, which builds its
    profile in one pass: n calls of make_profile, not an intermediate
    preimage profile per step as well."""
    alpha = cyclic_alphabet([2, 2])
    m = ShiftProfileModel(alpha, "compact")
    sys = TdlcSystem(m, m.endo(2, matrix_hom(alpha, (2, 2), [[0, 1], [1, 1]])))
    U = m.base_element(1)
    built = []
    make_profile = ShiftProfileModel.make_profile

    def counted(self, *args):
        built.append(args)
        return make_profile(self, *args)

    monkeypatch.setattr(ShiftProfileModel, "make_profile", counted)
    n = 6
    chain = cotraj.minus_chain(sys, U, n)
    assert len(chain) == n + 1
    assert len(built) == n


# -- the finite backend as an oracle on F^window ---------------------------------------
# Two profiles with the same left tail and the same right tail differ only on
# a window of w positions.  On such a pair every primitive is the finite
# backend's on F^w, read off the window, while the common tails are carried
# along pointwise.


def power_group(alpha, w):
    """F^w as a finite group, and the index of each of its elements: a
    tuple of w alphabet elements, multiplied coordinatewise."""
    group = alpha.group
    elements = tuple(itertools.product(range(group.order), repeat=w))
    index = {x: i for i, x in enumerate(elements)}
    table = [[index[tuple(map(group.mul, x, y))] for y in elements] for x in elements]
    return FiniteGroupModel(table, name=f"{group.name}^{w}"), index


@settings(max_examples=150, deadline=None)
@given(alphabets_with_sigma(bound=8).filter(lambda case: prod(case[0]) > 1),
       st.sampled_from(TAIL_MODES), st.data())
def test_profiles_with_common_tails_agree_with_the_finite_backend_on_the_window(
        case, tail_mode, data):
    orders, matrix = case
    alpha = cyclic_alphabet(orders)
    m = ShiftProfileModel(alpha, tail_mode)
    sigma = matrix_hom(alpha, orders, matrix)
    phi = m.endo(0, sigma)
    w = data.draw(st.integers(1, max(w for w in range(1, 7) if alpha.group.order ** w <= 64)))
    ids = st.integers(0, len(alpha.subgroups) - 1)
    pattern = st.lists(ids, min_size=1, max_size=2).map(tuple)
    left, right, lo = data.draw(pattern), data.draw(pattern), data.draw(st.integers(-3, 3))
    window = st.lists(ids, min_size=w, max_size=w)
    U = m.make_profile(left, lo, data.draw(window), right)
    V = m.make_profile(left, lo, data.draw(window), right)
    assert (U.left, U.right) == (V.left, V.right)

    fw, index = power_group(alpha, w)
    sigma_w = fw.endo(index[tuple(sigma.mapping[c] for c in x)] for x in index)

    def on_window(P):
        factors = (alpha.subgroups[v].members for v in P.values(lo, lo + w))
        return fw.subgroup(index[x] for x in itertools.product(*factors))

    def outside(P):
        """Values over two periods of each tail (the periods are at most 2)."""
        return P.values(lo - 4, lo) + P.values(lo + w, lo + w + 4)

    fU, fV = on_window(U), on_window(V)
    meet = m.intersect(U, V)
    img, pre = phi.image_id, phi.preimage_id
    cases = [
        (meet, fw.intersect(fU, fV), lambda u, v: alpha.meet[u][v]),
        (m.set_product(U, V), fw.set_product(fU, fV), lambda u, v: alpha.join[u][v]),
        (m.meet_preimage(U, phi, V), fw.meet_preimage(fU, sigma_w, fV),
         lambda u, v: alpha.meet[u][pre[v]]),
        (m.image(phi, U), fw.image(sigma_w, fU), lambda u, v: img[u]),
        (m.image(phi, V), fw.image(sigma_w, fV), lambda u, v: img[v]),
        (m.preimage(phi, U), fw.preimage(sigma_w, fU), lambda u, v: pre[u]),
        (m.preimage(phi, V), fw.preimage(sigma_w, fV), lambda u, v: pre[v]),
    ]
    for got, expected, pointwise in cases:
        assert on_window(got) == expected
        assert outside(got) == tuple(map(pointwise, outside(U), outside(V)))
    for big, small in ((U, V), (V, U)):
        assert m.contains(big, small) == fw.contains(on_window(big), on_window(small))
        if m.contains(big, small):
            assert m.index(small, big) == fw.index(on_window(small), on_window(big))
        assert m.index(meet, big) == fw.index(on_window(meet), on_window(big))
