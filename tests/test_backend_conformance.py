"""Every backend model implements the whole protocol ``core.Backend``, and
the library outside the backends reads every name in it.

The dynamics layer calls these methods and attributes without ``hasattr``
fallbacks; this test is what makes that safe.
"""

import ast
import inspect
import pathlib

import pytest

import tdlc_entropy

from tdlc_entropy import core, cotraj
from tdlc_entropy.backends.catalog import find_scenario
from tdlc_entropy.backends.finite import FiniteGroupModel
from tdlc_entropy.backends.padic import PadicModel
from tdlc_entropy.backends.product import ProductModel
from tdlc_entropy.backends.shift import ShiftProfileModel
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


@pytest.mark.parametrize("cls", MODEL_CLASSES, ids=lambda cls: cls.__name__)
def test_hooks_take_exactly_the_documented_parameters(cls):
    for name, params in METHOD_PARAMETERS.items():
        assert tuple(inspect.signature(getattr(cls, name)).parameters)[1:] == params, name


@pytest.fixture(params=SYSTEMS)
def system(request):
    return build_system(find_scenario(request.param))


def test_model_defines_the_protocol(system):
    model = system.model
    for name in PROTOCOL:
        assert hasattr(model, name), name
    assert isinstance(model.name, str) and model.name
    assert model.contains(model.full_group(), model.trivial_subgroup())


def test_restriction_returns_the_restricted_system(system):
    model, phi = system.model, system.endo
    assert isinstance(model.restriction(phi, model.full_group()), core.TdlcSystem)


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
