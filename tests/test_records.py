"""The contract of the package's immutable records, class by class: equal
fields give equal objects, the hash is the hash of the compared fields as
one tuple, a field outside comparison takes no part in either, instances
of two classes are never equal, fields can be neither assigned nor
deleted, and the repr reads ``Name(field=value, ...)``."""

import itertools

import pytest

from tdlc_entropy import cotraj, dynamics
from tdlc_entropy.backends import finite, padic, product, shift
from tdlc_entropy.core import ClosedSubgroupSpec, QuotientConstruction, TdlcSystem
from tdlc_entropy.exact import ExactEntropy, IndexValue

# (class, the fields its constructor takes in order, the fields outside
# comparison, the fields outside the repr)
RECORDS = [
    (TdlcSystem, ("model", "endo", "name"), (), ()),
    (ClosedSubgroupSpec, ("handle", "normal", "compact", "phi_invariant", "phi_stable",
                          "contains_kernel"), (), ()),
    (QuotientConstruction, ("system", "project"), (), ()),
    (cotraj.CotrajectoryRow, ("n", "minus_handle", "c", "alpha"), (), ()),
    (cotraj.CotrajectoryTable, ("subgroup", "rows", "n_star", "certificate"), (), ()),
    (cotraj.PlusGroupResult, ("handle", "method", "steps", "certificate", "image_index"), (), ()),
    (cotraj.TidyBelowResult, ("value", "certificate"), (), ()),
    (dynamics.EntropyReport, ("value", "witness", "probed", "saturated", "table", "unresolved",
                              "reason"), (), ()),
    (dynamics.ScaleReport, ("value", "witness", "candidates_probed", "oracle_agreement",
                            "witness_tidy_above", "witness_tidy_below", "minimizing"), (), ()),
    (dynamics.NubReport, ("handle", "resolution", "certified", "reason", "minimizing_probed"),
     (), ()),
    (dynamics.Verdict, ("status", "reason", "details"), (), ()),
    (IndexValue, ("value",), (), ()),
    (ExactEntropy, ("value",), (), ()),
    (finite.FiniteSubgroup, ("model", "members"), (), ()),
    (finite.FiniteEndo, ("model", "mapping"), (), ()),
    (padic.PadicSubgroup, ("model", "subspace", "module", "dual", "pivots"),
     ("dual", "pivots"), ("dual", "pivots")),
    (padic.PadicEndo, ("model", "matrix"), (), ()),
    (shift.Profile, ("model", "left", "start", "window", "right"), (), ()),
    (shift.ShiftEndo, ("model", "k", "sigma", "image_id", "preimage_id"), (), ()),
    (product.ProductSubgroup, ("model", "parts"), (), ()),
    (product.ProductEndo, ("model", "parts"), (), ()),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


def sample(cls, names, salt=0):
    """Field values for ``cls``: hashable and distinct per field and per salt."""
    if issubclass(cls, (IndexValue, ExactEntropy)):
        return (3 + salt,)
    return tuple((i, name, salt) for i, name in enumerate(names))


@pytest.mark.parametrize("cls, names, uncompared, unshown", RECORDS, ids=IDS)
def test_equal_fields_give_equal_records_and_the_hash_of_the_compared_fields(
        cls, names, uncompared, unshown):
    x, y = cls(*sample(cls, names)), cls(*sample(cls, names))
    assert x == y and not x != y and hash(x) == hash(y)
    compared = tuple(getattr(x, n) for n in names if n not in uncompared)
    assert hash(x) == hash(compared)
    for i, name in enumerate(names):
        values = list(sample(cls, names))
        values[i] = sample(cls, names, salt=1)[i]
        other = cls(*values)
        if name in uncompared:
            assert other == x and hash(other) == hash(x), name
        else:
            assert other != x and not other == x, name


@pytest.mark.parametrize("cls, names, uncompared, unshown", RECORDS, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(cls, names, uncompared, unshown):
    x = cls(*sample(cls, names))
    for name in names:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert getattr(x, name) == sample(cls, names)[names.index(name)]


@pytest.mark.parametrize("cls, names, uncompared, unshown", RECORDS, ids=IDS)
def test_repr_names_the_class_and_its_shown_fields(cls, names, uncompared, unshown):
    values = sample(cls, names)
    shown = ", ".join(f"{n}={v!r}" for n, v in zip(names, values) if n not in unshown)
    assert repr(cls(*values)) == f"{cls.__name__}({shown})"


def test_repr_examples():
    assert repr(IndexValue(None)) == "IndexValue(value=None)"
    assert repr(ExactEntropy(4)) == "ExactEntropy(value=4)"
    assert repr(padic.PadicSubgroup(1, (), (), "dual", "pivots")) == (
        "PadicSubgroup(model=1, subspace=(), module=())")
    assert repr(TdlcSystem(1, 2)) == "TdlcSystem(model=1, endo=2, name='')"


def test_records_of_two_classes_are_never_equal():
    built = [cls(*sample(cls, names)) for cls, names, *_ in RECORDS]
    # the same field values in two classes of one shape
    built += [product.ProductSubgroup(1, (2,)), product.ProductEndo(1, (2,)),
              finite.FiniteSubgroup(1, (2,)), finite.FiniteEndo(1, (2,)),
              IndexValue(5), ExactEntropy(5)]
    for a, b in itertools.permutations(built, 2):
        if type(a) is not type(b):
            assert a != b and not a == b, (a, b)
    assert len(set(built[-6:])) == 6


def test_defaults_and_fields_outside_the_constructor():
    s = TdlcSystem(1, 2)
    assert s.name == "" and s == TdlcSystem(1, 2, "")
    s.memo("key", lambda: 7)
    assert s == TdlcSystem(1, 2) and hash(s) == hash(TdlcSystem(1, 2))
    with pytest.raises(TypeError):
        TdlcSystem(1, 2, "", {})
    v, w = dynamics.Verdict("PASS", "r"), dynamics.Verdict("PASS", "r")
    assert v.details == {} and v == w and v.details is not w.details


def test_cached_properties_live_on_the_instance():
    model = padic.PadicModel(3, 2)
    phi = model.endo([[1, 0], [0, 3]])
    assert phi.char_poly is phi.char_poly
    assert "char_poly" in vars(phi)
    assert phi == model.endo([[1, 0], [0, 3]])
    U = model.base_element(0)
    assert U.int_dual is U.int_dual and "int_dual" in vars(U)
