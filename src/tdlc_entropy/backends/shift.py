"""Shift backend: G is a full, Laurent or discrete power of a finite abelian
alphabet F, and the endomorphism is a shift by k composed with a coordinate
endomorphism of F.

The alphabet is a ``finite.FiniteGroupModel``: its subgroup lattice, its
endomorphisms and the quotient and restriction of F by a subgroup F0 come
from the finite backend.

Subgroups are *profiles*: an explicit window of subgroup values plus a
periodic pattern on each side.  ``make_profile`` keeps every profile in one
canonical form, so equality of handles is equality of subgroups:

- each tail pattern is minimal and indexed by absolute residue, the value at
  i being ``pattern[i % len(pattern)]``;
- the window is trimmed at both ends: its first value differs from the left
  tail's at that position and its last from the right tail's;
- when the window is empty, the start is 0 if the tails are equal and
  otherwise the first position of the right tail, where the tails disagree.

Each binary primitive is one aligned pass: ``_combine`` reads both operands
by range (``Profile.values``) over a period of the joint left tail, the
union of the windows and a period of the joint right tail, and looks each
pair up in an alphabet table.  Meet, join and the cotrajectory step
U n phi^{-1}(V) all go through it; ``contains`` and ``index`` zip the
operands' value ranges against the alphabet's containment and order tables.  The pass relies
on the canonical form: tails indexed by absolute residue line up by position
alone, and ``index`` tells equal tails apart from unequal ones by comparing
the tuples.

Limit subgroups along the dynamics are computed in closed form by walking
the defining recursion until it enters a cycle, which also yields the
stabilization certificates.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm
from typing import Optional

from ..core import (
    BackendMismatchError,
    InvariantViolation,
    QuotientConstruction,
    TdlcSystem,
    UnresolvedError,
    UnsupportedSubgroupError,
    check_model,
    cotrajectory_fixpoint,
    record,
)
from ..exact import INFINITE_INDEX, IndexValue
from .finite import FiniteEndo, FiniteGroupModel

TAIL_MODES = ("compact", "laurent", "discrete")

# At most this many literal steps of the U_n and U_{-n} chains; a chain that
# has not stopped by then goes to the closed-form limit.
CHAIN_STEP_CAP = 8

# Largest alphabet order and |shift| a scenario may ask for: building an
# alphabet enumerates its subgroup lattice, and a limit profile has
# lcm(period, |shift|) entries.
MAX_ALPHABET_ORDER = 16
MAX_SHIFT = 16


class Alphabet:
    """A finite abelian group as subgroup ids: id i is
    ``group.all_subgroups()[i]``, and ``elements[x]`` labels element x."""

    def __init__(self, group: FiniteGroupModel, elements=None):
        t = group.table
        if any(t[a][b] != t[b][a] for a in range(group.order) for b in range(a)):
            raise ValueError("alphabet must be abelian")
        self.group = group
        self.name = group.name
        self.elements = tuple(range(group.order)) if elements is None else tuple(elements)
        self._index = {x: i for i, x in enumerate(self.elements)}
        self.subgroups = group.all_subgroups()
        self.id_of = {S: i for i, S in enumerate(self.subgroups)}
        self.subgroup_sets = tuple(
            frozenset(self.elements[x] for x in S.members) for S in self.subgroups
        )
        self.trivial_id = self.id_of[group.trivial_subgroup()]
        self.full_id = self.id_of[group.full_group()]
        self.meet = self._table(group.intersect)
        self.join = self._table(group.set_product)
        self.orders = tuple(len(S) for S in self.subgroups)
        self.identity = tuple(range(len(self.subgroups)))
        # includes[big][small]: subgroup ``small`` lies in subgroup ``big``
        self.includes = tuple(tuple(row[small] == small for small in range(len(row)))
                              for row in self.meet)

    def _table(self, op):
        return tuple(tuple(self.id_of[op(S, T)] for T in self.subgroups) for S in self.subgroups)

    def add(self, a, b):
        return self.elements[self.group.mul(self._index[a], self._index[b])]

    def subgroup_id(self, members) -> int:
        return self.id_of[self.group.subgroup(self._index[x] for x in members)]

    def generated_id(self, gens) -> int:
        return self.id_of[self.group.generated_subgroup(self._index[g] for g in gens)]

    def order_of(self, sid: int) -> int:
        return self.orders[sid]


def cyclic_alphabet(orders) -> Alphabet:
    orders = tuple(int(n) for n in orders)
    if not orders or any(n < 1 for n in orders):
        raise ValueError("cyclic orders must be positive")
    elements = tuple(itertools.product(*[range(n) for n in orders]))
    index = {x: i for i, x in enumerate(elements)}
    table = [
        [index[tuple((x + y) % n for x, y, n in zip(a, b, orders))] for b in elements]
        for a in elements
    ]
    return Alphabet(FiniteGroupModel(table, name="x".join(f"Z{n}" for n in orders)), elements)


def matrix_hom(alphabet: Alphabet, orders, matrix) -> FiniteEndo:
    """The additive self-map of a cyclic-orders alphabet given by an integer matrix."""
    r = len(orders)
    matrix = [list(map(int, row)) for row in matrix]
    if len(matrix) != r or any(len(row) != r for row in matrix):
        raise ValueError("sigma matrix has wrong shape")
    return alphabet.group.endo(
        alphabet._index[
            tuple(sum(matrix[j][i] * x[i] for i in range(r)) % orders[j] for j in range(r))
        ]
        for x in alphabet.elements
    )


def _minimal_pattern(pat):
    pat = tuple(pat)
    n = len(pat)
    if n == 1:
        return pat
    for q in range(1, n + 1):
        if n % q == 0 and all(pat[j] == pat[j % q] for j in range(n)):
            return pat[:q]
    return pat


def _cycle(pat: tuple, i: int, n: int) -> tuple:
    """``pat[(i + j) % len(pat)]`` for j = 0, ..., n - 1."""
    if len(pat) == 1:
        return pat * n
    off = i % len(pat)
    return (pat * ((off + n) // len(pat) + 1))[off:off + n]


@record
class Profile:
    """A profile subgroup: explicit window plus periodic tails.

    The value at position i is ``left[i % len(left)]`` for i < start,
    ``window[i - start]`` inside the window, and ``right[i % len(right)]``
    beyond it.  Values are subgroup ids in the model's alphabet lattice.
    """

    model: "ShiftProfileModel"
    left: tuple
    start: int
    window: tuple
    right: tuple

    @property
    def end(self) -> int:
        return self.start + len(self.window)

    def value_at(self, i: int) -> int:
        if i < self.start:
            return self.left[i % len(self.left)]
        if i < self.end:
            return self.window[i - self.start]
        return self.right[i % len(self.right)]

    def values(self, lo: int, hi: int) -> tuple:
        """The values at positions lo, ..., hi - 1."""
        start = self.start
        mid_lo = min(max(lo, start), hi)
        mid_hi = max(min(hi, start + len(self.window)), mid_lo)
        return (_cycle(self.left, lo, mid_lo - lo)
                + self.window[mid_lo - start:mid_hi - start]
                + _cycle(self.right, mid_hi, hi - mid_hi))

    @property
    def is_compact(self) -> bool:
        mode = self.model.tail_mode
        triv = self.model.alphabet.trivial_id
        if mode == "compact":
            return True
        if mode == "laurent":
            return self.left == (triv,)
        return self.left == (triv,) and self.right == (triv,)

    @property
    def is_normal(self) -> bool:
        return True

    @property
    def is_open(self) -> bool:
        mode = self.model.tail_mode
        full = self.model.alphabet.full_id
        if mode == "compact":
            return self.left == (full,) and self.right == (full,)
        if mode == "laurent":
            return self.right == (full,)
        return True

    def describe(self) -> str:
        orders = [str(self.model.alphabet.order_of(v)) for v in self.window]
        lpat = ",".join(str(self.model.alphabet.order_of(v)) for v in self.left)
        rpat = ",".join(str(self.model.alphabet.order_of(v)) for v in self.right)
        return f"profile[({lpat})*|{self.start}:{','.join(orders)}|({rpat})*]"


@record
class ShiftEndo:
    """x maps to sigma applied coordinatewise after a shift by k.

    ``image_id`` and ``preimage_id`` are sigma on the alphabet's subgroup ids.
    """

    model: "ShiftProfileModel"
    k: int
    sigma: FiniteEndo
    image_id: tuple
    preimage_id: tuple


class ShiftProfileModel:
    """Profile arithmetic over F^Z, F((t)) or the discrete restricted power."""

    kind = "shift"

    def __init__(self, alphabet: Alphabet, tail_mode: str, name=""):
        if tail_mode not in TAIL_MODES:
            raise ValueError(f"tail_mode must be one of {TAIL_MODES}")
        self.alphabet = alphabet
        self.tail_mode = tail_mode
        self.name = name or f"{alphabet.name}^Z[{tail_mode}]"

    # -- construction ---------------------------------------------------------

    def make_profile(self, left, start, window, right) -> Profile:
        left = _minimal_pattern(left)
        right = _minimal_pattern(right)
        a, b = 0, len(window)
        while a < b and window[a] == left[(start + a) % len(left)]:
            a += 1
        while b > a and window[b - 1] == right[(start + b - 1) % len(right)]:
            b -= 1
        window = tuple(window[a:b])
        start += a
        if not window:
            if left == right:
                start = 0
            else:
                guard = lcm(len(left), len(right)) + 1
                while left[start % len(left)] == right[start % len(right)]:
                    start += 1
                    guard -= 1
                    if guard < 0:
                        raise InvariantViolation("distinct tail patterns never disagree")
        return Profile(self, left, start, window, right)

    def constant_profile(self, sid: int) -> Profile:
        return self.make_profile((sid,), 0, (), (sid,))

    def full_group(self) -> Profile:
        return self.constant_profile(self.alphabet.full_id)

    def trivial_subgroup(self) -> Profile:
        return self.constant_profile(self.alphabet.trivial_id)

    def window_profile(self, values: dict, left_id: int, right_id: int) -> Profile:
        """Profile with explicit subgroup values on finitely many coordinates;
        gaps inside the window span take the full alphabet."""
        if not values:
            return self.make_profile((left_id,), 0, (), (right_id,))
        lo, hi = min(values), max(values) + 1
        window = [values.get(i, self.alphabet.full_id) for i in range(lo, hi)]
        return self.make_profile((left_id,), lo, window, (right_id,))

    def base_element(self, k: int) -> Profile:
        alpha = self.alphabet
        if self.tail_mode == "compact":
            return self.make_profile(
                (alpha.full_id,), -k, (alpha.trivial_id,) * (2 * k + 1), (alpha.full_id,)
            )
        if self.tail_mode == "laurent":
            return self.make_profile((alpha.trivial_id,), k, (), (alpha.full_id,))
        return self.trivial_subgroup()

    def endo(self, k: int, sigma: Optional[FiniteEndo] = None) -> ShiftEndo:
        alpha = self.alphabet
        group = alpha.group
        if sigma is None:
            sigma = group.identity_endo()
        if sigma.model is not group:
            raise BackendMismatchError("sigma must be an endomorphism of the alphabet")
        return ShiftEndo(
            self,
            int(k),
            sigma,
            tuple(alpha.id_of[group.image(sigma, S)] for S in alpha.subgroups),
            tuple(alpha.id_of[group.preimage(sigma, S)] for S in alpha.subgroups),
        )

    def identity_endo(self) -> ShiftEndo:
        return self.endo(0)

    def endo_power(self, phi: ShiftEndo, n: int) -> ShiftEndo:
        return self.endo(phi.k * n, self.alphabet.group.endo_power(phi.sigma, n))

    def kernel_handle(self, phi: ShiftEndo) -> Profile:
        return self.constant_profile(phi.preimage_id[self.alphabet.trivial_id])

    # -- pointwise operations ----------------------------------------------------

    @staticmethod
    def _span(U: Profile, V: Profile, shift: int):
        """The positions a..b-1 over which U(i) and V(i + shift) are read:
        a period of the joint left tail from a, the union [lo, hi) of the
        windows, and a period of the joint right tail ending at b, where a
        and b are multiples of their periods.  Returns (a, b, lo, hi, lper, rper)."""
        lper = lcm(len(U.left), len(V.left))
        rper = lcm(len(U.right), len(V.right))
        lo = min(U.start, V.start - shift)
        hi = max(U.end, V.end - shift)
        return lo // lper * lper - lper, -(-hi // rper) * rper + rper, lo, hi, lper, rper

    def _combine(self, U: Profile, V: Profile, table, shift: int, value_map) -> Profile:
        """Profile with value(i) = table[U(i)][value_map[V(i + shift)]]."""
        a, b, lo, hi, lper, rper = self._span(U, V, shift)
        out = [table[u][value_map[v]]
               for u, v in zip(U.values(a, b), V.values(a + shift, b + shift))]
        return self.make_profile(out[:lper], lo, out[lo - a:hi - a], out[b - a - rper:])

    def intersect(self, U: Profile, V: Profile) -> Profile:
        check_model(self, U, V)
        alpha = self.alphabet
        return self._combine(U, V, alpha.meet, 0, alpha.identity)

    def set_product(self, U: Profile, V: Profile) -> Profile:
        check_model(self, U, V)
        alpha = self.alphabet
        return self._combine(U, V, alpha.join, 0, alpha.identity)

    def _mapped(self, U: Profile, shift: int, value_map) -> Profile:
        """Profile with value'(i) = value_map[value(i + shift)]."""
        left = [value_map[v] for v in _cycle(U.left, shift, len(U.left))]
        right = [value_map[v] for v in _cycle(U.right, shift, len(U.right))]
        window = [value_map[v] for v in U.window]
        return self.make_profile(left, U.start - shift, window, right)

    def image(self, phi: ShiftEndo, U: Profile) -> Profile:
        check_model(self, U)
        return self._mapped(U, phi.k, phi.image_id)

    def preimage(self, phi: ShiftEndo, U: Profile) -> Profile:
        check_model(self, U)
        return self._mapped(U, -phi.k, phi.preimage_id)

    def meet_preimage(self, U: Profile, phi: ShiftEndo, V: Profile) -> Profile:
        """U n phi^{-1}(V): the value at i is U(i) n sigma^{-1}(V(i - k))."""
        check_model(self, U, V)
        return self._combine(U, V, self.alphabet.meet, -phi.k, phi.preimage_id)

    def translate(self, U: Profile, t: int) -> Profile:
        """The shift automorphism by t applied to the handle."""
        return self._mapped(U, -t, self.alphabet.identity)

    # -- containment and index -----------------------------------------------------

    def contains(self, U: Profile, V: Profile) -> bool:
        """V <= U, checked pointwise over the aligned span."""
        check_model(self, U, V)
        includes = self.alphabet.includes
        a, b, *_ = self._span(U, V, 0)
        return all([includes[u][v] for u, v in zip(U.values(a, b), V.values(a, b))])

    def index(self, V: Profile, U: Profile) -> IndexValue:
        """Exact [U:V]; infinite unless the tail patterns agree."""
        check_model(self, U, V)
        if not self.contains(U, V):
            raise ValueError("index requires V <= U")
        if U.left != V.left or U.right != V.right:
            return INFINITE_INDEX
        orders = self.alphabet.orders
        lo = min(U.start, V.start)
        hi = max(U.end, V.end)
        total = 1
        for u, v in zip(U.values(lo, hi), V.values(lo, hi)):
            total *= orders[u] // orders[v]
        return IndexValue(total)

    # -- limit profiles --------------------------------------------------------------

    def _mirror(self, U: Profile) -> Profile:
        lper, rper = len(U.left), len(U.right)
        new_left = tuple(U.right[(-r) % rper] for r in range(rper))
        new_right = tuple(U.left[(-r) % lper] for r in range(lper))
        return self.make_profile(new_left, 1 - U.end, tuple(reversed(U.window)), new_right)

    def limit_profile(self, U: Profile, step: int, value_map, op_table):
        """Solve L(i) = op(U(i), value_map[L(i + step)]) by closed form.

        This is the pointwise limit of iterating the recursion from U; the
        walk detects the cycle its values enter, so the result carries exact
        periodic tails.  Returns (profile, info) where info records the cycle
        for stabilization certificates.
        """
        if step == 0:
            def fix(v, coeff):
                seen = set()
                while v not in seen:
                    seen.add(v)
                    v2 = op_table[coeff][value_map[v]]
                    if v2 == v:
                        return v
                    v = v2
                raise InvariantViolation("pointwise recursion oscillated")

            left = tuple(fix(v, v) for v in U.left)
            right = tuple(fix(v, v) for v in U.right)
            window = tuple(fix(U.window[i], U.window[i]) for i in range(len(U.window)))
            return (
                self.make_profile(left, U.start, window, right),
                {"kind": "pointwise", "cycle_len": 1, "cycle_entry": U.end, "steps_per_cycle": 1},
            )
        if step < 0:
            mirrored, info = self.limit_profile(self._mirror(U), -step, value_map, op_table)
            out = self._mirror(mirrored)
            info = dict(info)
            info["cycle_entry"] = -info["cycle_entry"]
            info["drift_side"] = "right" if info.get("drift_side") == "left" else "left"
            return out, info

        # step > 0: references increase, the settled side is +infinity.
        rper = lcm(len(U.right), step)
        pat = [U.right[r % len(U.right)] for r in range(rper)]
        guard = len(self.alphabet.subgroup_sets) * rper + 2
        while True:
            nxt = [
                op_table[U.right[r % len(U.right)]][value_map[pat[(r + step) % rper]]]
                for r in range(rper)
            ]
            if nxt == pat:
                break
            pat = nxt
            guard -= 1
            if guard < 0:
                raise InvariantViolation("tail recursion failed to stabilize")
        vals = {}

        def get(i):
            if i >= U.end:
                return pat[i % rper]
            return vals[i]

        for i in range(U.end - 1, U.start - 1, -1):
            vals[i] = op_table[U.value_at(i)][value_map[get(i + step)]]
        mper = lcm(len(U.left), step)
        seen = {}
        i = U.start - 1
        cycle_entry = None
        cycle_len = None
        bound = min(len(self.alphabet.subgroup_sets) ** step * mper * 4, 200000) + U.end - U.start + 8
        for _ in range(bound):
            state = (i % mper, tuple(get(i + 1 + t) for t in range(step)))
            if state in seen:
                prev = seen[state]
                cycle_len = prev - i
                cycle_entry = prev
                break
            seen[state] = i
            vals[i] = op_table[U.value_at(i)][value_map[get(i + step)]]
            i -= 1
        if cycle_entry is None:
            raise UnresolvedError("left walk exceeded its cycle-detection bound")
        base_pos = cycle_entry - cycle_len + 1
        left = tuple(get(base_pos + ((r - base_pos) % cycle_len)) for r in range(cycle_len))
        window = tuple(get(j) for j in range(cycle_entry + 1, U.end))
        out = self.make_profile(left, cycle_entry + 1, window, pat)
        info = {
            "kind": "walk",
            "cycle_entry": cycle_entry,
            "cycle_len": cycle_len,
            "steps_per_cycle": cycle_len // gcd(cycle_len, step),
            "drift_side": "left",
        }
        return out, info

    # -- dynamics hooks -----------------------------------------------------------------

    def limit_route(self, phi: ShiftEndo, U: Profile, forward: bool):
        """At most ``CHAIN_STEP_CAP`` literal steps, then the limit profile of
        the meet recursion."""
        step, value_map = (phi.k, phi.image_id) if forward else (-phi.k, phi.preimage_id)

        def closed_form(chain):
            limit, info = self.limit_profile(U, step, value_map, self.alphabet.meet)
            return limit, len(chain), info
        return CHAIN_STEP_CAP, closed_form

    def _diff_positions(self, U: Profile, V: Profile):
        if U.left != V.left or U.right != V.right:
            return None
        lo = min(U.start, V.start)
        hi = max(U.end, V.end)
        pairs = zip(range(lo, hi), U.values(lo, hi), V.values(lo, hi))
        return tuple(i for i, u, v in pairs if u != v)

    def alpha_stabilization(self, phi, U, minus_handles, alphas):
        """Certify the alpha plateau via the closed-form cotrajectory cycle.

        Differences between consecutive cotrajectory terms must translate by
        the shift inside the periodic regime of the closed form; a plateau
        covering a full cycle of phases then pins the value forever, since
        alpha is non-increasing.
        """
        n, cert = cotrajectory_fixpoint(minus_handles, alphas)
        if n is not None or phi.k == 0:
            return n, cert
        _, info = self.limit_profile(U, -phi.k, phi.preimage_id, self.alphabet.meet)
        q = max(info.get("steps_per_cycle", 1), 1)
        need = q + 1
        n_star = None
        for n in range(len(alphas)):
            if all(alphas[m] == alphas[n] for m in range(n, len(alphas))):
                n_star = n
                break
        if n_star is None or len(alphas) - n_star < need + 1:
            return None, {"criterion": "cotrajectory cycle", "steps_per_cycle": q}
        # translation evidence: consecutive difference sets move by exactly k
        # per step once the walk is inside its periodic regime
        start_m = max(n_star, len(minus_handles) - need - 2, 1)
        for m in range(start_m, len(minus_handles) - 1):
            diffs = self._diff_positions(minus_handles[m], minus_handles[m + 1])
            prev = self._diff_positions(minus_handles[m - 1], minus_handles[m])
            if diffs is None or prev is None:
                raise InvariantViolation("cotrajectory tails changed along the chain")
            if tuple(p + phi.k for p in prev) != diffs:
                return None, {"criterion": "cotrajectory cycle", "reason": "diffs not translating"}
        return n_star, {
            "criterion": "cotrajectory cycle",
            "steps_per_cycle": q,
            "cycle_entry": info["cycle_entry"],
        }

    def plus_plus_closure(self, phi, u_plus: Profile, last: Profile, tidy_probe: int):
        """U_++ is dense in the limit profile of the images: closed when they
        drift into a trivial ambient tail, not closed when the tail pattern of
        ``last`` never reaches the limit's."""
        limit, info = self.limit_profile(u_plus, phi.k, phi.image_id, self.alphabet.join)
        drift = info.get("drift_side", "left")
        ambient_tail = (
            u_plus.model.tail_mode == "compact"
            or (u_plus.model.tail_mode == "laurent" and drift == "right")
        )
        if not ambient_tail:
            # drifting deficiencies point at a trivial ambient tail: every
            # member of the limit profile is reached at a finite power.
            return True, {"method": "drift into trivial ambient tail", "drift_side": drift}
        # tail deficiency: if the sigma-orbit of the drifting tail pattern of
        # the last iterate never matches the limit's pattern, every later
        # iterate stays short at infinitely many coordinates, so the union is
        # a proper dense subgroup of the limit profile.
        pat = last.left if drift == "left" else last.right
        target = limit.left if drift == "left" else limit.right
        period = lcm(len(pat), len(target))
        img = phi.image_id
        seen = set()
        cur = tuple(pat[r % len(pat)] for r in range(period))
        goal = tuple(target[r % len(target)] for r in range(period))
        while cur not in seen:
            if cur == goal:
                raise UnresolvedError("iterate tails eventually reach the limit pattern")
            seen.add(cur)
            cur = tuple(img[cur[(r + phi.k) % period]] for r in range(period))
        if self._diff_positions(last, limit) == ():
            raise UnresolvedError("drift did not leave a visible deficiency at the probe")
        return False, {
            "method": "tail deficiency drifting toward a full ambient tail",
            "drift_side": drift,
        }

    def entropy_base_certificate(self, probed):
        values = {entry[2] for entry in probed}
        if len(values) == 1:
            return True, "base elements are shift translates with matching tail patterns"
        return False, "local entropy varied along the base probe"

    def scale_candidates(self, phi):
        out = []
        if self.tail_mode == "compact":
            out.append(self.full_group())
        if self.tail_mode == "discrete":
            out.append(self.trivial_subgroup())
        return out

    def scale_oracle(self, phi):
        return None

    def nub_analysis(self, phi, minimizing, resolution, scale_value=None):
        inter = minimizing[0]
        for u in minimizing[1:]:
            inter = self.intersect(inter, u)
        if self.tail_mode == "compact" and minimizing == [self.full_group()]:
            return (
                self.full_group(),
                True,
                "an open minimizing profile has shift-stable core, hence is the whole group",
            )
        if self.tail_mode == "discrete":
            return inter, True, "discrete group: the found minimizing family is exact"
        if phi.k != 0:
            # translate chain: if the shifted witness is still minimizing and
            # smaller, the chain of translates intersects to its pointwise
            # tail limit; a trivial limit pins the result exactly.
            witness = inter
            step = phi.k
            shifted = self.translate(witness, step)
            if self.contains(witness, shifted) and shifted != witness:
                img = self.image(phi, shifted)
                val = self.index(self.intersect(shifted, img), img)
                if scale_value is None or val == IndexValue(scale_value):
                    tail_limit, _ = self.limit_profile(witness, -step, self.alphabet.identity,
                                                       self.alphabet.meet)
                    if tail_limit == self.trivial_subgroup():
                        return (
                            tail_limit,
                            True,
                            "translate chain of the witness is minimizing and meets to 1",
                        )
        return inter, False, "probed minimizing family only"

    # -- specs, quotient, restriction ---------------------------------------------------

    def _constant_value(self, H: Profile) -> Optional[int]:
        if H.left == H.right and len(H.left) == 1 and not H.window:
            return H.left[0]
        return None

    def quotient(self, phi: ShiftEndo, H: Profile) -> QuotientConstruction:
        check_model(self, H)
        f0 = self._constant_value(H)
        if f0 is None:
            raise UnsupportedSubgroupError(
                "can only quotient by a constant-profile subgroup in this backend"
            )
        alpha = self.alphabet
        q = alpha.group.quotient(phi.sigma, alpha.subgroups[f0])
        qalpha = Alphabet(q.system.model)
        qmodel = ShiftProfileModel(qalpha, self.tail_mode, name=f"{self.name}/H")
        system = TdlcSystem(qmodel, qmodel.endo(phi.k, q.system.endo), name=f"{self.name}/H")
        pi = tuple(qalpha.id_of[q.project(S)] for S in alpha.subgroups)
        return QuotientConstruction(system=system, project=lambda U: qmodel._mapped(U, 0, pi))

    def restriction(self, phi: ShiftEndo, H: Profile) -> TdlcSystem:
        check_model(self, H)
        f0 = self._constant_value(H)
        if f0 is None:
            raise UnsupportedSubgroupError(
                "can only restrict to a constant-profile subgroup in this backend"
            )
        alpha = self.alphabet
        F0 = alpha.subgroups[f0]
        r = alpha.group.restriction(phi.sigma, F0)
        salpha = Alphabet(r.model, tuple(alpha.elements[x] for x in F0.members))
        smodel = ShiftProfileModel(salpha, self.tail_mode, name=f"{self.name}|H")
        return TdlcSystem(smodel, smodel.endo(phi.k, r.endo), name=f"{self.name}|H")
