"""Every backend model implements the whole protocol ``core.Backend``, and
the library outside the backends reads every name in it.

The dynamics layer calls these methods and attributes without ``hasattr``
fallbacks; this test is what makes that safe.
"""

import ast
import functools
import inspect
import pathlib

import pytest

import tdlc_entropy

from tdlc_entropy import core, cotraj, verify
from tdlc_entropy.backends.catalog import catalog_scenarios, find_scenario
from tdlc_entropy.backends.finite import FiniteGroupModel
from tdlc_entropy.backends.padic import PadicModel
from tdlc_entropy.backends.product import ProductModel, make_product
from tdlc_entropy.backends.shift import ShiftProfileModel, cyclic_alphabet, matrix_hom
from tdlc_entropy.scenario import build_system

# the parameters of each protocol method, after self: no chain depth, nothing unread
METHOD_PARAMETERS = {
    name: tuple(inspect.signature(fn).parameters)[1:]
    for name, fn in vars(core.Backend).items()
    if inspect.isfunction(fn) and not name.startswith("_")
}
PROTOCOL = (*core.Backend.__annotations__, *METHOD_PARAMETERS)

MODEL_CLASSES = (FiniteGroupModel, PadicModel, ShiftProfileModel, ProductModel)

SYSTEMS = ("finite_s3", "q2_half", "shift_z2_compact", "product_q2half_laurent3")


def test_every_protocol_name_is_read_outside_the_backends():
    """A hook that only backends and tests call belongs out of the protocol."""
    package = pathlib.Path(tdlc_entropy.__file__).parent
    read = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert set(PROTOCOL) - read == set()


def _protocol_of(cls):
    """The protocol names ``cls`` defines: all of them, except ``limit_route``
    on a product, whose limits ``cotraj.limit`` pairs from its factor
    systems without ever asking the product for a route."""
    return [name for name in PROTOCOL
            if not (cls is ProductModel and name == "limit_route")]


@pytest.mark.parametrize("cls", MODEL_CLASSES, ids=lambda cls: cls.__name__)
def test_hooks_take_exactly_the_documented_parameters(cls):
    """Every hook but ``limit_route`` on a product (see ``_protocol_of``)."""
    names = _protocol_of(cls)
    for name, params in METHOD_PARAMETERS.items():
        if name in names:
            assert tuple(inspect.signature(getattr(cls, name)).parameters)[1:] == params, name


@pytest.fixture(params=SYSTEMS)
def system(request):
    return build_system(find_scenario(request.param))


def test_model_defines_the_protocol(system):
    """Every protocol name but ``limit_route`` on a product (see ``_protocol_of``)."""
    model = system.model
    for name in _protocol_of(type(model)):
        assert hasattr(model, name), name
    assert isinstance(model.name, str) and model.name
    assert model.contains(model.full_group(), model.trivial_subgroup())


def test_restriction_returns_the_restricted_system(system):
    model, phi = system.model, system.endo
    assert isinstance(model.restriction(phi, model.full_group()), core.TdlcSystem)


def _swapped_alphabet():
    """Z2 x Z2 with the coordinate swap and the id of <(1,0)>, which the swap moves."""
    alpha = cyclic_alphabet([2, 2])
    return alpha, matrix_hom(alpha, (2, 2), [[0, 1], [1, 0]]), alpha.subgroup_id({(0, 0), (1, 0)})


def _finite_case():
    alpha, swap, sid = _swapped_alphabet()
    return alpha.group, swap, alpha.subgroups[sid]


def _shift_case():
    alpha, swap, sid = _swapped_alphabet()
    model = ShiftProfileModel(alpha, "compact")
    return model, model.endo(1, swap), model.constant_profile(sid)


def _padic_case():
    # phi(0, 1) = (1, 1) is not in H = span(0, 1)
    model = PadicModel(2, 2)
    return model, model.endo([[1, 1], [0, 1]]), model.closed_subgroup([[0, 1]], [])


def _product_case():
    other = build_system(find_scenario("q2_half"))
    model, phi, H = _padic_case()
    prod = make_product(other, core.TdlcSystem(model, phi))
    return prod.model, prod.endo, prod.model.pair(other.model.full_group(), H)


@pytest.mark.parametrize("case", (_finite_case, _shift_case, _padic_case, _product_case),
                         ids=("finite", "shift", "padic", "product"))
def test_hooks_refuse_a_subgroup_phi_does_not_carry_into_itself(case):
    model, phi, H = case()
    assert not model.contains(H, model.image(phi, H))
    for hook in (model.quotient, model.restriction):
        with pytest.raises(core.UnsupportedSubgroupError, match="invariant|carried into"):
            hook(phi, H)


def test_every_built_handle_describes_itself(system):
    model, phi = system.model, system.endo
    u, v = model.base_element(0), model.base_element(2)
    handles = [
        u, v, model.full_group(), model.trivial_subgroup(), model.kernel_handle(phi),
        model.intersect(u, v), model.set_product(u, v),
        model.image(phi, u), model.preimage(phi, u),
        cotraj.plus_group(system, u).handle, cotraj.minus_group(system, u),
    ]
    for h in handles:
        assert isinstance(h.describe(), str)
        assert isinstance(h.is_open, bool) and isinstance(h.is_compact, bool)
        assert isinstance(h.is_normal, bool)


@functools.cache
def _catalog_system(name):
    return build_system(find_scenario(name))


# every catalog system and every product that the products suite checks
MEET_PREIMAGE_CASES = [data["name"] for data in catalog_scenarios()] + [
    f"{a}*{b}" for a, b in verify.PRODUCT_PAIRS]


@pytest.mark.parametrize("case", MEET_PREIMAGE_CASES)
def test_meet_preimage_is_the_meet_with_the_preimage(case):
    """``meet_preimage(U, phi, V) == intersect(U, preimage(phi, V))`` at base
    elements 0-2, with V each of their first three cotrajectory steps."""
    if "*" in case:
        system = make_product(*map(_catalog_system, case.split("*")))
    else:
        system = _catalog_system(case)
    model, phi = system.model, system.endo
    for k in range(3):
        u = model.base_element(k)
        for v in cotraj.minus_chain(system, u, 2):
            assert model.meet_preimage(u, phi, v) == model.intersect(u, model.preimage(phi, v))
