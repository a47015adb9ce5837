"""Every backend model implements the whole protocol documented in ``core``,
and the library outside the backends reads every name in it.

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

PROTOCOL = (
    "name", "kind",
    "base_element", "intersect", "set_product", "image", "preimage", "index", "contains",
    "full_group", "trivial_subgroup", "endo_power", "kernel_handle",
    "quotient", "restriction",
    "plus_group_impl", "minus_group_impl", "alpha_stabilization", "plus_plus_analysis",
    "entropy_base_certificate", "scale_candidates", "nub_analysis",
)

# the parameters of each dynamics hook, after self: no chain depth, nothing unread
HOOK_PARAMETERS = {
    "plus_group_impl": ("phi", "U"),
    "minus_group_impl": ("phi", "U"),
    "alpha_stabilization": ("phi", "U", "minus_handles", "alphas"),
    "plus_plus_analysis": ("phi", "u_plus", "tidy_probe"),
    "entropy_base_certificate": ("probed",),
    "scale_candidates": ("phi",),
    "nub_analysis": ("phi", "minimizing", "resolution", "scale_value"),
}

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


def test_protocol_list_matches_core_docstring():
    for name in PROTOCOL:
        assert name in core.__doc__
    for name, params in HOOK_PARAMETERS.items():
        assert f"{name}({', '.join(params)}" in core.__doc__


@pytest.mark.parametrize("cls", MODEL_CLASSES, ids=lambda cls: cls.__name__)
def test_hooks_take_exactly_the_documented_parameters(cls):
    for name, params in HOOK_PARAMETERS.items():
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
