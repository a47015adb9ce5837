"""Seeded inputs, operations and oracle checks for the benchmark workloads.

Every workload is a sequence of *decks*.  A deck is a fixed list of input
shapes (backend, prime, dimension, kind of system) whose concrete values are
drawn from ``random.Random(f"{workload}:{seed}:{deck}")``, so the same seed
always yields the same bytes and a deck can be generated on demand without
generating the ones before it.  Within one run every input is distinct: the
generator re-draws any scenario it has already produced, so a cache that
survives between operations cannot make repeated work look free.

An operation is one in-process call of ``tdlc_entropy.cli.main(argv)`` with
``--out`` pointing at a file in the run's scratch directory.  Its output is
checked by ``Op.check``, which returns a list of problems (empty when the
output is accepted).  Which checks are independent of the library:

* p-adic ``entropy``, ``scale`` and certified stable ``alpha`` are compared
  with ``p ** sum(-k for k < 0)`` read off the diagonal matrix ``D`` the
  generator built; nothing of the library is used for that number.
* finite systems must report ``h = 0`` (alpha 1) and ``s = 1``.
* shift systems and products have no independent oracle here: they rely on
  the library's own cross-checks (certified nub and cotrajectory table, the
  ``scale_link`` verdict PASS) and on the absence of UNRESOLVED, INCONCLUSIVE
  and FAIL anywhere in the output.  Their entropy may be an honest
  uncertified lower bound at ``--probe 3`` (compact shifts by 2 or 3); that
  is reported, not failed.
* ``verify all`` is checked by its own verdicts: every entry PASS or SKIPPED.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Optional

REPORT_FLAGS = ["--probe", "3", "--tidy-probe", "4", "--resolution", "4"]
REPORT_CHECKS = [
    {"type": "entropy"},
    {"type": "scale"},
    {"type": "nub"},
    {"type": "scale_link"},
    {"type": "tidy", "subgroup": "B"},
    {"type": "cotrajectory"},
]
# a verdict anywhere in an output, as a JSON value (``verify`` summaries use
# the same words as keys, with counts)
BAD_VERDICT = re.compile(r':\s*"(UNRESOLVED|INCONCLUSIVE|FAIL)"')

# Suites of ``verify all`` in run order; each is timed as one operation.
VERIFY_SUITES = (
    "indices", "cotrajectory", "addition", "scale_link",
    "limit_free", "products", "oracle", "monotonicity",
)

SHIFT_ALPHABETS = ([2], [3], [4], [5], [6], [7], [8], [9], [2, 2], [2, 3], [2, 4], [3, 3])
SHIFTS = (-1, 1, 2, 3)
# re-draws allowed for one deck position before the input space counts as used up
MAX_DRAWS = 1000


@dataclass
class Op:
    """One benchmark operation: the CLI arguments and the expected answers."""

    label: str
    argv: list
    scenario: Optional[dict] = None
    expect: dict = field(default_factory=dict)

    def write_input(self, directory: str) -> None:
        """Write the scenario file; the program receives only this file."""
        if self.scenario is None:
            return
        path = os.path.join(directory, f"{self.label}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.scenario, fh, sort_keys=True)
        self.argv = [a if a != "{input}" else path for a in self.argv]

    def check(self, exit_code: int, text: str) -> list:
        """Problems with one operation's output; an empty list accepts it."""
        problems = []
        if exit_code != 0:
            problems.append(f"exit code {exit_code}")
        problems += sorted({f"{m} in output" for m in BAD_VERDICT.findall(text)})
        try:
            out = json.loads(text)
        except json.JSONDecodeError as exc:
            return problems + [f"output is not JSON: {exc}"]
        try:
            if self.scenario is None:
                return problems + _check_verify(out)
            return problems + _check_report(out, self.expect)
        except (KeyError, IndexError, TypeError, AttributeError) as exc:
            return problems + [f"malformed output: {type(exc).__name__} {exc}"]


def _check_verify(out: dict) -> list:
    bad = [e["name"] for e in out.get("entries", []) if e.get("status") not in ("PASS", "SKIPPED")]
    if not out.get("entries"):
        bad.append("no entries")
    return [f"verify entry not PASS: {name}" for name in bad]


def _check_report(out: dict, expect: dict) -> list:
    problems = []
    results = {}
    for entry in out.get("results", []):
        results.setdefault(entry["check"]["type"], entry["result"])
    if set(results) != set(expect["checks"]):
        return [f"checks {sorted(results)} != {sorted(expect['checks'])}"]
    alpha = expect.get("alpha")
    scale = expect.get("scale")
    if "entropy" in results:
        ent = results["entropy"]
        if expect.get("entropy_certified") and not ent.get("certified"):
            problems.append("entropy not certified")
        if alpha is not None and ent.get("alpha") != str(alpha):
            problems.append(f"entropy alpha {ent.get('alpha')} != {alpha}")
    if "scale" in results and scale is not None and results["scale"].get("scale") != str(scale):
        problems.append(f"scale {results['scale'].get('scale')} != {scale}")
    if "nub" in results and not results["nub"].get("certified"):
        problems.append("nub not certified")
    if "scale_link" in results and results["scale_link"].get("status") != "PASS":
        problems.append(f"scale_link {results['scale_link'].get('status')}")
    if "cotrajectory" in results:
        table = results["cotrajectory"]
        n_star = table.get("n_star")
        if n_star is None:
            problems.append("cotrajectory table not certified")
        elif alpha is not None and table["alpha"][n_star] != str(alpha):
            problems.append(f"stable alpha {table['alpha'][n_star]} != {alpha}")
    return problems


# -- input generators ----------------------------------------------------------


def _unit(rng: random.Random, p: int) -> Fraction:
    """A small rational p-adic unit +-a/b with a, b coprime to p."""
    choices = [n for n in range(1, 10) if n % p]
    while True:
        a, b = rng.choice(choices), rng.choice(choices)
        if gcd(a, b) == 1:
            return Fraction(rng.choice((1, -1)) * a, b)


def _unimodular(rng: random.Random, dim: int):
    """An integer matrix of determinant +-1: a product of elementary shears."""
    m = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    if dim == 1:
        m[0][0] = Fraction(rng.choice((1, -1)))
        return m
    for _ in range(dim):
        i, j = rng.sample(range(dim), 2)
        c = rng.choice((-2, -1, 1, 2))
        for r in range(dim):
            m[r][j] += c * m[r][i]
    return m


def _inverse(m):
    d = len(m)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(d)] for i, row in enumerate(m)]
    for c in range(d):
        piv = next(r for r in range(c, d) if aug[r][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(d):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[d:] for row in aug]


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def padic_fragment(rng: random.Random, p: int, ks):
    """(scenario fragment, expected alpha) for A = P D P^-1 over Q_p.

    ``D`` is diagonal with entries ``p^k * u`` for the given exponents ``ks``
    and seeded small units ``u``; ``P`` is a seeded unimodular matrix.  The
    exponents fix the cost of an operation far more than ``u`` and ``P`` do,
    so every deck uses the same exponent profiles and only the numbers vary.
    """
    dim = len(ks)
    diag = [Fraction(p) ** k * _unit(rng, p) for k in ks]
    pm = _unimodular(rng, dim)
    dm = [[diag[i] if i == j else Fraction(0) for j in range(dim)] for i in range(dim)]
    a = _matmul(_matmul(pm, dm), _inverse(pm))
    frag = {
        "backend": "padic",
        "prime": p,
        "dim": dim,
        "matrix": [[str(x) for x in row] for row in a],
    }
    return frag, p ** sum(-k for k in ks if k < 0)


def _automorphism(rng: random.Random, orders):
    """A seeded additive bijection of the alphabet, as an integer matrix."""
    elements = list(itertools.product(*[range(n) for n in orders]))
    while True:
        m = [[rng.randrange(n) for _ in orders] for n in orders]

        def apply(x):
            return tuple(sum(m[j][i] * x[i] for i in range(len(orders))) % n
                         for j, n in enumerate(orders))

        # well defined on each cyclic factor, and bijective
        if all(apply(tuple(n if i == c else 0 for i in range(len(orders)))) == (0,) * len(orders)
               for c, n in enumerate(orders)) and len({apply(x) for x in elements}) == len(elements):
            return m


def shift_fragment(rng: random.Random, tail: str, laurent_contracting: bool = False):
    """A shift system over a cyclic-orders alphabet of order <= 9.

    The tail mode fixes the cost of an operation far more than the alphabet
    or the shift do, so decks fix it per position.
    """
    orders = list(rng.choice(SHIFT_ALPHABETS))
    if laurent_contracting:
        k = -1
    else:
        k = rng.choice([s for s in SHIFTS if (tail, s) != ("laurent", -1)])
    frag = {"backend": "shift", "alphabet": orders, "tail_mode": tail, "shift": k}
    if rng.random() < 0.5:
        frag["sigma"] = _automorphism(rng, orders)
    return frag


def finite_fragment(rng: random.Random, lo: int, hi: int):
    """Z_n or Z_m x Z_n of order in lo..hi as a raw table, with a seeded
    endomorphism.  The order fixes the cost, so decks fix its range."""
    n = rng.randint(lo, hi)
    splits = [m for m in range(2, n) if n % m == 0 and m * m <= n]
    orders = [rng.choice(splits), 0] if splits and rng.random() < 0.5 else [n]
    if len(orders) == 2:
        orders[1] = n // orders[0]
    elements = [(a,) for a in range(orders[0])] if len(orders) == 1 else [
        (a, b) for a in range(orders[0]) for b in range(orders[1])
    ]
    pos = {x: i for i, x in enumerate(elements)}

    def add(x, y):
        return tuple((u + v) % n for u, v, n in zip(x, y, orders))

    table = [[pos[add(x, y)] for y in elements] for x in elements]
    # images of the standard generators, each of order dividing its own
    gens = []
    for n in orders:
        while True:
            img = tuple(rng.randrange(q) for q in orders)
            if all((n * c) % q == 0 for c, q in zip(img, orders)):
                gens.append(img)
                break

    def endo(x):
        out = tuple(0 for _ in orders)
        for coeff, g in zip(x, gens):
            out = tuple((o + coeff * c) % q for o, c, q in zip(out, g, orders))
        return out

    frag = {"backend": "finite", "table": table, "endo": [pos[endo(x)] for x in elements]}
    return frag


BASE_SUBGROUP = {
    "padic": {"full_lattice": True},
    "shift": {"base": 0},
    "finite": {"full": True},
}


def _scenario(name: str, frag: dict, checks) -> dict:
    data = {"schema": 1, "name": name, **frag, "checks": checks}
    if any(c["type"] == "tidy" for c in checks):
        data["subgroups"] = {"B": BASE_SUBGROUP[frag["backend"]]}
    return data


def _product(name: str, left: dict, right: dict, checks) -> dict:
    data = {"schema": 1, "name": name, "backend": "product", "factors": [left, right],
            "checks": checks}
    if any(c["type"] == "tidy" for c in checks):
        data["subgroups"] = {"B": {"pair": [BASE_SUBGROUP[left["backend"]],
                                            BASE_SUBGROUP[right["backend"]]]}}
    return data


def _report_op(label: str, scenario: dict, **expect) -> Op:
    expect.setdefault("checks", {c["type"] for c in scenario["checks"]})
    return Op(label, ["report", "{input}", *REPORT_FLAGS], scenario, expect)


def _padic_report(p, ks):
    def make(rng, label):
        frag, alpha = padic_fragment(rng, p, ks)
        return _report_op(label, _scenario(label, frag, REPORT_CHECKS), alpha=alpha,
                          scale=alpha, entropy_certified=True)
    return make


def _shift_report(tail):
    def make(rng, label):
        return _report_op(label, _scenario(label, shift_fragment(rng, tail), REPORT_CHECKS))
    return make


def _finite_report(lo, hi):
    def make(rng, label):
        frag = finite_fragment(rng, lo, hi)
        return _report_op(label, _scenario(label, frag, REPORT_CHECKS), alpha=1, scale=1,
                          entropy_certified=True)
    return make


def _shift_finite_product(tail):
    def make(rng, label):
        left = shift_fragment(rng, tail)
        right = finite_fragment(rng, 2, 16)
        return _report_op(label, _product(label, left, right, REPORT_CHECKS))
    return make


def _cotraj_padic(p, ks, n_max):
    def make(rng, label):
        frag, alpha = padic_fragment(rng, p, ks)
        checks = [{"type": "cotrajectory", "n_max": n_max}]
        return _report_op(label, _scenario(label, frag, checks), alpha=alpha)
    return make


def _cotraj_shift(tail, n_max):
    def make(rng, label):
        checks = [{"type": "cotrajectory", "n_max": n_max}]
        return _report_op(label, _scenario(label, shift_fragment(rng, tail), checks))
    return make


def _cotraj_product(p, ks, tail, n_max):
    def make(rng, label):
        left, _ = padic_fragment(rng, p, ks)
        checks = [{"type": "cotrajectory", "n_max": n_max}]
        return _report_op(label, _product(label, left, shift_fragment(rng, tail), checks))
    return make


# Each deck is a fixed list of shapes, so every run measures the same mix;
# the seed draws the numbers inside each shape.  The mix puts the median op
# inside one large class of similar cost (dim-1 p-adic with k = +-1, compact
# shifts, p-adic dim 2 tables), so ``op_p50_s`` does not jump between the
# costs of two classes.
DECKS = {
    "padic_report": (
        [_padic_report(p, [k]) for p in (2, 3, 5) for k in (-1, 1, 0, -1, 1)]
        + [_padic_report(2, [-1, 0]), _padic_report(3, [-1, 1]), _padic_report(5, [0, 1])]
    ),
    "shift_finite_report": (
        [_shift_report(t) for t in ("compact",) * 5 + ("laurent",) * 2 + ("discrete",)]
        + [_finite_report(lo, lo + 15) for lo in (2, 17, 33, 49)]
        + [_shift_finite_product(t) for t in ("compact", "laurent", "laurent", "discrete")]
    ),
    "cotraj_tables": [
        _cotraj_padic(2, [-1, 0], 12), _cotraj_padic(3, [0, -1], 12),
        _cotraj_padic(5, [-1, 0], 12), _cotraj_padic(3, [-1, 1], 16),
        _cotraj_padic(5, [0, -1, 1], 14), _cotraj_padic(2, [-1, 0, 1, 0], 12),
        _cotraj_shift("compact", 12), _cotraj_shift("laurent", 14),
        _cotraj_shift("discrete", 16),
        _cotraj_product(2, [-1], "laurent", 13), _cotraj_product(3, [1, 0], "compact", 15),
    ],
}

WORKLOADS = ("padic_report", "shift_finite_report", "cotraj_tables", "verify_all")


class InputStream:
    """Distinct seeded operations of one workload, generated deck by deck."""

    def __init__(self, workload: str, seed: int, directory: str):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        self.workload = workload
        self.seed = seed
        self.directory = directory
        self._seen: set = set()

    def _draw(self, make, rng: random.Random, label: str) -> Op:
        """A new distinct operation from ``make``, with its input file written."""
        for _ in range(MAX_DRAWS):
            op = make(rng, label)
            # a digest, so that the memory this takes does not grow with the inputs
            key = hashlib.sha256(json.dumps(
                {k: v for k, v in op.scenario.items() if k != "name"}, sort_keys=True,
            ).encode()).digest()
            if key not in self._seen:
                self._seen.add(key)
                op.write_input(self.directory)
                return op
        raise RuntimeError(f"no new distinct input for {label} in {MAX_DRAWS} draws")

    def deck(self, index: int) -> list:
        """The operations of deck ``index``.

        ``verify_all`` has one deck, one ``verify all``: its catalog is fixed,
        so a second deck would repeat the first exactly.
        """
        if self.workload == "verify_all":
            return [Op("verify_all", ["verify", "all"])] if index == 0 else []
        rng = random.Random(f"{self.workload}:{self.seed}:{index}")
        return [self._draw(make, rng, f"{self.workload}_deck{index}_{pos}")
                for pos, make in enumerate(DECKS[self.workload])]

    def warmup(self) -> Op:
        """One operation from a separate stream; absorbs lazy imports.

        ``verify_all`` warms up on a fixed p-adic report, which imports sympy
        but does not build the verify catalog.
        """
        if self.workload == "verify_all":
            rng = random.Random("verify_all:warmup")
            return self._draw(_padic_report(2, [-1]), rng, "verify_all_warmup")
        rng = random.Random(f"{self.workload}:{self.seed}:warmup")
        return self._draw(DECKS[self.workload][0], rng, f"{self.workload}_warmup")

    def known_failures(self) -> list:
        """Inputs the library cannot certify today (Laurent shift -1).

        They are run and listed by input after the measured phase, outside
        the timed workload, so the timed operations are all expected to
        succeed while the defect stays visible in every run.
        """
        if self.workload != "shift_finite_report":
            return []
        rng = random.Random(f"{self.workload}:{self.seed}:known")

        def make(rng, label):
            frag = shift_fragment(rng, "laurent", laurent_contracting=True)
            return _report_op(label, _scenario(label, frag, REPORT_CHECKS))

        return [self._draw(make, rng, f"{self.workload}_known{i}") for i in range(2)]
