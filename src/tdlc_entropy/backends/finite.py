"""Finite group backend.

Groups are given by a multiplication table.  Building a model checks every
entry, the identity, the inverses and associativity, the last by Light's
test on a generating sequence S with |S| <= log2(order), so a build costs
O(order^2 * |S|).  Every subgroup is compact and open; the complete subgroup
lattice is enumerated by cyclic extension on the first call to
``all_subgroups``.  All operations are plain element enumeration, which
makes this backend the oracle the other backends are cross-checked against.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

from ..core import (
    InvariantViolation,
    QuotientConstruction,
    TdlcSystem,
    UnsupportedSubgroupError,
    check_model,
    cotrajectory_fixpoint,
    record,
)
from ..exact import IndexValue

DEFAULT_ORDER_BOUND = 256


@record
class FiniteSubgroup:
    """A subgroup as a sorted tuple of element indices (canonical form)."""

    model: "FiniteGroupModel"
    members: tuple[int, ...]

    @property
    def is_open(self) -> bool:
        return True

    @property
    def is_compact(self) -> bool:
        return True

    @property
    def is_normal(self) -> bool:
        return len(self.model.normalizer(self)) == self.model.order

    def __len__(self):
        return len(self.members)

    def describe(self) -> str:
        names = self.model.names
        if len(self.members) == len(names):
            return "G"
        return "{" + ",".join(names[i] for i in self.members) + "}"


@record
class FiniteEndo:
    """An endomorphism as the tuple of images, verified multiplicative."""

    model: "FiniteGroupModel"
    mapping: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.mapping[x]


class FiniteGroupModel:
    """A finite group with its complete subgroup lattice, enumerated on
    first use."""

    kind = "finite"

    def __init__(self, table, names=None, name="G"):
        table = tuple(tuple(row) for row in table)
        n = len(table)
        if n == 0 or n > DEFAULT_ORDER_BOUND:
            raise ValueError(f"group order must be in 1..{DEFAULT_ORDER_BOUND}, got {n}")
        if any(len(row) != n for row in table):
            raise ValueError("multiplication table must be square")
        bad = _first_non_element(itertools.chain.from_iterable(table), n)
        if bad is not None:
            (a, b), x = divmod(bad[0], n), bad[1]
            raise ValueError(f"table entry [{a}][{b}] is {x!r}, outside range({n})")
        self.table = table
        self.order = n
        self.name = name
        self.names = tuple(names) if names is not None else tuple(f"g{i}" for i in range(n))
        if len(self.names) != n:
            raise ValueError("wrong number of element names")
        self.identity = self._find_identity()
        self.inverse = self._find_inverses()
        self._gens = self._greedy_generators()
        self._verify_associativity()
        self._subgroups: Optional[tuple[FiniteSubgroup, ...]] = None
        self._endos: Optional[tuple[FiniteEndo, ...]] = None

    # -- construction checks ------------------------------------------------

    def _find_identity(self) -> int:
        for e in range(self.order):
            if all(self.table[e][x] == x == self.table[x][e] for x in range(self.order)):
                return e
        raise ValueError("table has no identity element")

    def _find_inverses(self):
        inv = [None] * self.order
        for x in range(self.order):
            for y in range(self.order):
                if self.table[x][y] == self.identity and self.table[y][x] == self.identity:
                    inv[x] = y
                    break
            if inv[x] is None:
                raise ValueError(f"element {x} has no inverse")
        return tuple(inv)

    def _greedy_generators(self) -> tuple[int, ...]:
        """Each element outside the closure of the generators so far joins
        them.  In a group each one at least doubles the closure, so there
        are at most log2(order) of them."""
        gens: list[int] = []
        span = frozenset({self.identity})
        for g in range(self.order):
            if g not in span:
                gens.append(g)
                span = self.closure(gens)
                if len(span) == self.order:
                    break
        if len(span) != self.order:
            raise InvariantViolation("the greedy generators do not span the table")
        return tuple(gens)

    def _verify_associativity(self):
        """Light's test.  The b with (ab)c = a(bc) for all a, c contain the
        identity and are closed under multiplication, and the closure of
        the generators is the whole table, so checking each generator b
        proves the table associative."""
        t = self.table
        for b in self._gens:
            row_b = t[b]
            for a in range(self.order):
                row_a = t[a]
                if t[row_a[b]] != tuple(row_a[x] for x in row_b):
                    raise ValueError("multiplication table is not associative")

    # -- element algebra ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def conjugate(self, x: int, g: int) -> int:
        """g^{-1} x g"""
        return self.mul(self.mul(self.inverse[g], x), g)

    def closure(self, gens: Iterable[int]) -> frozenset:
        els = {self.identity}
        frontier = [self.identity]
        gens = list(gens)
        for g in gens:
            if g not in els:
                els.add(g)
                frontier.append(g)
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = self.table[x][g]
                    if y not in els:
                        els.add(y)
                        nxt.append(y)
                    y = self.table[g][x]
                    if y not in els:
                        els.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(els)

    def _enumerate_subgroups(self):
        """Every subgroup, by cyclic extension (Neubüser, Numer. Math. 2,
        1960).  An element is a product of commuting powers of itself of
        prime-power order, so every subgroup is a join of cyclic subgroups
        of prime-power order, and joining each subgroup found with each
        such cyclic subgroup it misses reaches them all.  A subgroup keeps
        the generators it was found with, one per extension, so a join is
        the closure of at most log2(order) elements."""
        cyclic = {}
        for g in range(self.order):
            c = self.closure((g,))
            if _is_prime_power(len(c)):
                cyclic.setdefault(c, g)
        found = {frozenset({self.identity}): ()}
        frontier = list(found.items())
        while frontier:
            nxt = []
            for h, gens in frontier:
                for g in cyclic.values():
                    if g not in h:
                        k_gens = gens + (g,)
                        k = self.closure(k_gens)
                        if k not in found:
                            found[k] = k_gens
                            nxt.append((k, k_gens))
            frontier = nxt
        ordered = sorted((tuple(sorted(s)) for s in found), key=lambda m: (len(m), m))
        return tuple(FiniteSubgroup(self, m) for m in ordered)

    # -- handles ------------------------------------------------------------

    def subgroup(self, members: Iterable[int]) -> FiniteSubgroup:
        memset = set(members)
        mem = tuple(sorted(memset))
        for a in mem:
            for b in mem:
                if self.table[a][b] not in memset:
                    raise ValueError("element set is not closed under multiplication")
            if self.inverse[a] not in memset:
                raise ValueError("element set is not closed under inverses")
        return FiniteSubgroup(self, mem)

    def generated_subgroup(self, gens: Iterable[int]) -> FiniteSubgroup:
        return FiniteSubgroup(self, tuple(sorted(self.closure(gens))))

    def full_group(self) -> FiniteSubgroup:
        return FiniteSubgroup(self, tuple(range(self.order)))

    def trivial_subgroup(self) -> FiniteSubgroup:
        return FiniteSubgroup(self, (self.identity,))

    def all_subgroups(self) -> tuple[FiniteSubgroup, ...]:
        """Complete, duplicate-free subgroup list, ordered by (order, members)."""
        if self._subgroups is None:
            self._subgroups = self._enumerate_subgroups()
        return self._subgroups

    # -- endomorphisms ------------------------------------------------------

    def endo(self, mapping: Iterable[int]) -> FiniteEndo:
        """The endomorphism x -> mapping[x], checked as f(xg) = f(x)f(g) for
        every x and every generator g: taking x = 1 gives f(1) = 1, and
        induction on a word in the generators gives f(xy) = f(x)f(y)."""
        mapping = tuple(mapping)
        if len(mapping) != self.order:
            raise ValueError("endomorphism mapping has wrong length")
        bad = _first_non_element(mapping, self.order)
        if bad is not None:
            raise ValueError(f"endomorphism image of element {bad[0]} is {bad[1]!r}, "
                             f"outside range({self.order})")
        t = self.table
        for g in self._gens:
            fg = mapping[g]
            for x, fx in enumerate(mapping):
                if mapping[t[x][g]] != t[fx][fg]:
                    raise ValueError("mapping is not multiplicative")
        return FiniteEndo(self, mapping)

    def identity_endo(self) -> FiniteEndo:
        return FiniteEndo(self, tuple(range(self.order)))

    def generating_sequence(self) -> tuple[int, ...]:
        return self._gens

    def _extend_hom(self, gens, images) -> Optional[tuple[int, ...]]:
        known = {self.identity: self.identity}
        frontier = [self.identity]
        while frontier:
            nxt = []
            for x in frontier:
                fx = known[x]
                for g, img in zip(gens, images):
                    y = self.table[x][g]
                    fy = self.table[fx][img]
                    if y in known:
                        if known[y] != fy:
                            return None
                    else:
                        known[y] = fy
                        nxt.append(y)
            frontier = nxt
        if len(known) != self.order:
            return None
        return tuple(known[x] for x in range(self.order))

    def endomorphisms(self) -> tuple[FiniteEndo, ...]:
        """All endomorphisms, enumerated from generator images by closure."""
        if self._endos is None:
            gens = self.generating_sequence()
            maps = set()
            if not gens:
                maps.add((self.identity,) * self.order)
            for images in itertools.product(range(self.order), repeat=len(gens)):
                hom = self._extend_hom(gens, images)
                if hom is not None:
                    maps.add(hom)
            self._endos = tuple(FiniteEndo(self, m) for m in sorted(maps))
        return self._endos

    def endo_power(self, phi: FiniteEndo, n: int) -> FiniteEndo:
        mapping = tuple(range(self.order))
        for _ in range(n):
            mapping = tuple(phi.mapping[x] for x in mapping)
        return FiniteEndo(self, mapping)

    def kernel_handle(self, phi: FiniteEndo) -> FiniteSubgroup:
        return FiniteSubgroup(
            self, tuple(x for x in range(self.order) if phi.mapping[x] == self.identity)
        )

    # -- subgroup operations -------------------------------------------------

    def intersect(self, U: FiniteSubgroup, V: FiniteSubgroup) -> FiniteSubgroup:
        check_model(self, U, V)
        return FiniteSubgroup(self, tuple(sorted(set(U.members) & set(V.members))))

    def set_mul(self, A: Iterable[int], B: Iterable[int]) -> frozenset:
        return frozenset(self.table[a][b] for a in A for b in B)

    def set_product(self, U: FiniteSubgroup, V: FiniteSubgroup) -> FiniteSubgroup:
        check_model(self, U, V)
        uv = self.set_mul(U.members, V.members)
        vu = self.set_mul(V.members, U.members)
        if uv != vu:
            raise UnsupportedSubgroupError("UV != VU, the set product is not a subgroup here")
        return FiniteSubgroup(self, tuple(sorted(uv)))

    def image(self, phi: FiniteEndo, U: FiniteSubgroup) -> FiniteSubgroup:
        check_model(self, U)
        return FiniteSubgroup(self, tuple(sorted({phi.mapping[x] for x in U.members})))

    def preimage(self, phi: FiniteEndo, U: FiniteSubgroup) -> FiniteSubgroup:
        check_model(self, U)
        mem = set(U.members)
        return FiniteSubgroup(
            self, tuple(x for x in range(self.order) if phi.mapping[x] in mem)
        )

    def meet_preimage(self, U: FiniteSubgroup, phi: FiniteEndo,
                      V: FiniteSubgroup) -> FiniteSubgroup:
        return self.intersect(U, self.preimage(phi, V))

    def contains(self, U: FiniteSubgroup, V: FiniteSubgroup) -> bool:
        """V <= U"""
        check_model(self, U, V)
        return set(V.members) <= set(U.members)

    def index(self, V: FiniteSubgroup, U: FiniteSubgroup) -> IndexValue:
        """Exact [U:V]; requires V <= U."""
        check_model(self, U, V)
        if not set(V.members) <= set(U.members):
            raise ValueError("index requires V <= U")
        return IndexValue(len(U.members) // len(V.members))

    def coset_count(self, S: Iterable[int], H: FiniteSubgroup) -> int:
        """Generalized index [SH:H] = number of distinct cosets sH, s in S."""
        hset = tuple(H.members)
        return len({frozenset(self.table[s][h] for h in hset) for s in S})

    def base_element(self, k: int) -> FiniteSubgroup:
        return self.full_group() if k == 0 else self.trivial_subgroup()

    def normalizer(self, U: FiniteSubgroup) -> FiniteSubgroup:
        mem = set(U.members)
        keep = [
            g
            for g in range(self.order)
            if {self.conjugate(x, g) for x in mem} == mem
        ]
        return FiniteSubgroup(self, tuple(sorted(keep)))

    def normalized_core(self, K: FiniteSubgroup, C: FiniteSubgroup) -> FiniteSubgroup:
        """L = the intersection of the C-conjugates of K; C normalizes L, L <= K."""
        check_model(self, K, C)
        core = set(K.members)
        for x in C.members:
            core &= {self.conjugate(k, x) for k in K.members}
        L = FiniteSubgroup(self, tuple(sorted(core)))
        if not self.contains(K, L):
            raise InvariantViolation("normalized core is not inside K")
        if not set(C.members) <= set(self.normalizer(L).members):
            raise InvariantViolation("C does not normalize the core")
        return L

    # -- subgroup specs, quotients, restrictions -----------------------------

    def quotient(self, phi: FiniteEndo, H: FiniteSubgroup) -> QuotientConstruction:
        check_model(self, H)
        if not H.is_normal:
            raise UnsupportedSubgroupError(
                "finite quotient needs a normal subgroup; compact non-normal "
                "subgroups are handled through the neighborhood-base route"
            )
        if not self.contains(H, self.image(phi, H)):
            raise UnsupportedSubgroupError("H is not phi-invariant")
        hset = set(H.members)
        coset_of = {}
        reps = []
        for x in range(self.order):
            if x in coset_of:
                continue
            coset = frozenset(self.table[x][h] for h in hset)
            rep = min(coset)
            reps.append(rep)
            for y in coset:
                coset_of[y] = rep
        reps.sort()
        rep_index = {r: i for i, r in enumerate(reps)}
        table = [
            [rep_index[coset_of[self.table[a][b]]] for b in reps] for a in reps
        ]
        qnames = tuple(f"{self.names[r]}H" for r in reps)
        qmodel = FiniteGroupModel(table, names=qnames, name=f"{self.name}/H")
        qmap = []
        for r in reps:
            qmap.append(rep_index[coset_of[phi.mapping[r]]])
        # well-definedness across each whole coset
        for x in range(self.order):
            if rep_index[coset_of[phi.mapping[x]]] != qmap[rep_index[coset_of[x]]]:
                raise InvariantViolation("induced map is not well defined on cosets")
        qendo = qmodel.endo(qmap)
        system = TdlcSystem(qmodel, qendo, name=f"{self.name}/H")

        def project(U: FiniteSubgroup) -> FiniteSubgroup:
            return qmodel.subgroup({rep_index[coset_of[x]] for x in U.members})

        return QuotientConstruction(system=system, project=project)

    def restriction(self, phi: FiniteEndo, H: FiniteSubgroup) -> TdlcSystem:
        check_model(self, H)
        if not self.contains(H, self.image(phi, H)):
            raise UnsupportedSubgroupError("H is not phi-invariant")
        elements = list(H.members)
        pos = {x: i for i, x in enumerate(elements)}
        table = [[pos[self.table[a][b]] for b in elements] for a in elements]
        submodel = FiniteGroupModel(
            table, names=tuple(self.names[x] for x in elements), name=f"{self.name}|H"
        )
        sendo = submodel.endo(tuple(pos[phi.mapping[x]] for x in elements))
        return TdlcSystem(submodel, sendo, name=f"{self.name}|H")

    # -- dynamics hooks -------------------------------------------------------

    def limit_route(self, phi: FiniteEndo, U: FiniteSubgroup, forward: bool):
        """No closed form: a strictly decreasing chain of subgroups has at
        most order + 1 members, so the literal chain always stops."""
        return self.order + 1, None

    def alpha_stabilization(self, phi, U, minus_handles, alphas):
        """Certified stabilization index: the cotrajectory chain reaches its
        exact fixpoint, after which every alpha equals 1."""
        return cotrajectory_fixpoint(minus_handles, alphas)

    def plus_plus_closure(self, phi, u_plus: FiniteSubgroup, last, tidy_probe: int):
        """Never reached: U+ <= phi(U+) and |phi(U+)| <= |U+| force phi(U+) =
        U+, so the image chain stops at step 0."""
        raise InvariantViolation("a finite image chain of U+ did not stop at step 0")

    def entropy_base_certificate(self, probed):
        if all(entry[2].is_zero for entry in probed):
            return True, "finite group: every local entropy is 0"
        raise InvariantViolation("nonzero local entropy in a finite group")

    def scale_candidates(self, phi):
        # Complete enumeration: the scale minimum over this family is exact.
        return list(self.all_subgroups())

    def scale_oracle(self, phi):
        return None

    def nub_analysis(self, phi, minimizing, resolution, scale_value=None):
        """Exact nub: the subgroup list is complete, so intersect all
        minimizing subgroups."""
        inter = self.full_group()
        for u in minimizing:
            inter = self.intersect(inter, u)
        return inter, True, "complete subgroup enumeration"

    # -- exhaustive index identity checks -------------------------------------

    def check_index_identities(self) -> dict:
        """Exhaustively verify the index identities over the whole lattice.

        Covers the multiplicativity chain rule, the product/intersection
        exchange, both monotonicity inequalities, the two homomorphism index
        identities over every endomorphism, the snake count and the
        normalized-core properties.  Any violation is fatal.  Each operand
        (meet, set product, join, and per endomorphism each preimage, image
        and product with the kernel) is built once.
        """
        subs = self.all_subgroups()
        counts = {k: 0 for k in ("gi1", "gi2", "gi3", "gi4", "gi5", "gi6", "snake", "magic")}
        sets = {S: set(S.members) for S in subs}
        pairs = [(K, H) for K in subs for H in subs if sets[H] <= sets[K]]
        meet = {(A, B): self.intersect(A, B) for A in subs for B in subs}
        mul = {(A, B): self.set_mul(A.members, B.members) for A in subs for B in subs}
        # AB as a subgroup when AB = BA, else None
        join = {(A, B): self.subgroup(ab) if ab == mul[B, A] else None
                for (A, B), ab in mul.items()}

        def idx(V, U):
            return len(U.members) // len(V.members)

        for K, H in pairs:
            for L in subs:
                if sets[K] <= sets[L]:
                    # gi1: [L:H] = [L:K][K:H]
                    if idx(H, L) != idx(K, L) * idx(H, K):
                        raise InvariantViolation("gi(1) failed")
                    counts["gi1"] += 1
                # gi3: [K:H] >= [K n L : H n L]
                if idx(H, K) < idx(meet[H, L], meet[K, L]):
                    raise InvariantViolation("gi(3) failed")
                counts["gi3"] += 1
                # gi4: [K:H] >= [KL:HL] provided HL = LH
                if join[H, L] is not None:
                    if idx(H, K) < self.coset_count(mul[K, L], join[H, L]):
                        raise InvariantViolation("gi(4) failed")
                    counts["gi4"] += 1

        for L in subs:
            for H in subs:
                # gi2: [LH:H] = [L : H n L]
                if self.coset_count(mul[L, H], H) != idx(meet[H, L], L):
                    raise InvariantViolation("gi(2) failed")
                counts["gi2"] += 1

        for phi in self.endomorphisms():
            ker = self.kernel_handle(phi)
            pre = {S: self.preimage(phi, S) for S in subs}
            img = {S: self.image(phi, S) for S in subs}
            with_ker = {S: self.subgroup(self.set_mul(S.members, ker.members)) for S in subs}
            im = img[self.full_group()]
            for K, H in pairs:
                # gi5: [phi^-1 K : phi^-1 H] = [K n Im : H n Im] <= [K:H]
                lhs = idx(pre[H], pre[K])
                if lhs != idx(meet[H, im], meet[K, im]) or lhs > idx(H, K):
                    raise InvariantViolation("gi(5) failed")
                counts["gi5"] += 1
                # gi6: [K ker : H ker] = [phi K : phi H] <= [K:H]
                rhs = idx(img[H], img[K])
                if idx(with_ker[H], with_ker[K]) != rhs or rhs > idx(H, K):
                    raise InvariantViolation("gi(6) failed")
                counts["gi6"] += 1

        B = self.full_group()
        for A in subs:
            for Bp in subs:
                if join[Bp, A] is None:
                    continue
                if idx(Bp, B) != idx(meet[A, Bp], A) * idx(join[Bp, A], B):
                    raise InvariantViolation("snake failed")
                counts["snake"] += 1

        for K in subs:
            for C in subs:
                if join[C, self.normalized_core(K, C)] is None:
                    raise InvariantViolation("CL is not a subgroup after the core")
                counts["magic"] += 1

        return counts


def _first_non_element(entries, order: int):
    """(position, entry) of the first entry that is not an element index in
    range(order), or None."""
    return next(
        ((i, x) for i, x in enumerate(entries) if type(x) is not int or not 0 <= x < order),
        None,
    )


def _is_prime_power(m: int) -> bool:
    p = next((q for q in range(2, m + 1) if m % q == 0), None)
    if p is None:
        return False
    while m % p == 0:
        m //= p
    return m == 1


# -- standard groups ----------------------------------------------------------


def _perm_mul(p, q):
    """(p*q)(i) = p(q(i))"""
    return tuple(p[q[i]] for i in range(len(p)))


def from_permutations(gens, name="G", names=None) -> FiniteGroupModel:
    n = len(gens[0])
    identity = tuple(range(n))
    els = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                for y in (_perm_mul(x, g), _perm_mul(g, x)):
                    if y not in els:
                        els.add(y)
                        nxt.append(y)
        frontier = nxt
    ordered = sorted(els)
    pos = {p: i for i, p in enumerate(ordered)}
    table = [[pos[_perm_mul(a, b)] for b in ordered] for a in ordered]
    if names is None:
        names = tuple("".join(map(str, p)) for p in ordered)
    return FiniteGroupModel(table, names=names, name=name)


def trivial_group() -> FiniteGroupModel:
    return FiniteGroupModel(((0,),), names=("e",), name="1")


def cyclic_group(n: int) -> FiniteGroupModel:
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroupModel(table, names=tuple(str(i) for i in range(n)), name=f"Z{n}")


def symmetric_group(n: int) -> FiniteGroupModel:
    cycle = tuple((i + 1) % n for i in range(n))
    swap = (1, 0) + tuple(range(2, n))
    return from_permutations([cycle, swap], name=f"S{n}")


def alternating_group(n: int) -> FiniteGroupModel:
    if n < 3:
        return trivial_group()
    three = (1, 2, 0) + tuple(range(3, n))
    if n == 3:
        gens = [three]
    else:
        double = (1, 0, 3, 2) + tuple(range(4, n))
        gens = [three, double]
    return from_permutations(gens, name=f"A{n}")


def dihedral_group(n: int) -> FiniteGroupModel:
    rot = tuple((i + 1) % n for i in range(n))
    refl = tuple((n - i) % n for i in range(n))
    return from_permutations([rot, refl], name=f"D{n}")


def quaternion_group() -> FiniteGroupModel:
    # elements 1,-1,i,-i,j,-j,k,-k encoded as (sign, axis), axis in e,i,j,k
    units = ["e", "i", "j", "k"]
    mul_unit = {
        ("e", "e"): (1, "e"), ("e", "i"): (1, "i"), ("e", "j"): (1, "j"), ("e", "k"): (1, "k"),
        ("i", "e"): (1, "i"), ("j", "e"): (1, "j"), ("k", "e"): (1, "k"),
        ("i", "i"): (-1, "e"), ("j", "j"): (-1, "e"), ("k", "k"): (-1, "e"),
        ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
        ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
    }
    elements = [(s, u) for u in units for s in (1, -1)]
    pos = {x: i for i, x in enumerate(elements)}
    table = []
    for (s1, u1) in elements:
        row = []
        for (s2, u2) in elements:
            s3, u3 = mul_unit[(u1, u2)]
            row.append(pos[(s1 * s2 * s3, u3)])
        table.append(row)
    names = tuple(("" if s == 1 else "-") + u for (s, u) in elements)
    return FiniteGroupModel(table, names=names, name="Q8")


NAMED_GROUPS = {
    "trivial": trivial_group,
    "Z12": lambda: cyclic_group(12),
    "S3": lambda: symmetric_group(3),
    "D4": lambda: dihedral_group(4),
    "Q8": quaternion_group,
    "A4": lambda: alternating_group(4),
}
