import pytest
from hypothesis import given, strategies as st

from tdlc_entropy.exact import (
    INFINITE_ENTROPY,
    INFINITE_INDEX,
    ZERO_ENTROPY,
    ExactArithmeticError,
    ExactEntropy,
    IndexValue,
    entropy_add,
    entropy_from_index,
)

alphas = st.integers(min_value=1, max_value=10**12)
entropies = st.one_of(st.just(INFINITE_ENTROPY), alphas.map(ExactEntropy))


def test_entropy_from_index_identity_case():
    assert entropy_from_index(1) == ZERO_ENTROPY


def test_entropy_from_index_definition():
    assert entropy_from_index(2) == ExactEntropy(2)
    assert entropy_from_index(IndexValue(2)) == ExactEntropy(2)


def test_entropy_from_index_infinite():
    assert entropy_from_index(INFINITE_INDEX) == INFINITE_ENTROPY


def test_entropy_from_index_rejects_zero():
    with pytest.raises(ExactArithmeticError):
        entropy_from_index(0)
    with pytest.raises(ExactArithmeticError):
        IndexValue(0)


def test_entropy_add_log_laws():
    assert entropy_add(ExactEntropy(2), ExactEntropy(3)) == ExactEntropy(6)
    assert entropy_add(ExactEntropy(1), ExactEntropy(7)) == ExactEntropy(7)
    assert entropy_add(INFINITE_ENTROPY, ExactEntropy(5)) == INFINITE_ENTROPY


def test_index_multiplication_and_division():
    assert IndexValue(6) == IndexValue(2) * IndexValue(3)
    assert IndexValue(6).divide_exact(IndexValue(2)) == IndexValue(3)
    assert (INFINITE_INDEX * IndexValue(5)) == INFINITE_INDEX
    with pytest.raises(ExactArithmeticError):
        IndexValue(6).divide_exact(IndexValue(4))


def test_ordering():
    assert ExactEntropy(2) < ExactEntropy(3)
    assert ExactEntropy(3) <= INFINITE_ENTROPY
    assert not INFINITE_ENTROPY <= ExactEntropy(3)


@given(entropies, entropies)
def test_entropy_add_commutative(a, b):
    assert entropy_add(a, b) == entropy_add(b, a)


@given(entropies, entropies, entropies)
def test_entropy_add_associative(a, b, c):
    assert entropy_add(entropy_add(a, b), c) == entropy_add(a, entropy_add(b, c))


@given(entropies)
def test_zero_entropy_neutral(a):
    assert entropy_add(a, ZERO_ENTROPY) == a


@given(alphas, alphas)
def test_entropy_from_index_multiplicative(a, b):
    assert entropy_from_index(a * b) == entropy_add(entropy_from_index(a), entropy_from_index(b))


def test_display_only_log():
    assert ExactEntropy(1).ln_display() == "0"
    assert ExactEntropy(2).ln_display().startswith("0.693147")
    assert INFINITE_ENTROPY.ln_display() == "inf"


@pytest.mark.parametrize("cls", [IndexValue, ExactEntropy])
@pytest.mark.parametrize("bad", [0, -3, True, 2.0, "2"])
def test_both_classes_reject_the_same_values(cls, bad):
    with pytest.raises(ExactArithmeticError):
        cls(bad)


def test_indices_and_entropies_never_mix():
    assert IndexValue(2) != ExactEntropy(2)
    assert INFINITE_INDEX != INFINITE_ENTROPY
    for a, b in ((IndexValue(2), ExactEntropy(2)), (ExactEntropy(2), IndexValue(2))):
        for op in (lambda x, y: x * y, lambda x, y: x + y, lambda x, y: x <= y,
                   lambda x, y: x < y):
            with pytest.raises(TypeError):
                op(a, b)


@given(st.one_of(st.none(), alphas), st.one_of(st.none(), alphas))
def test_index_product_and_order_match_entropy_sum_and_order(a, b):
    """One algebra under two names: [x] * [y] is log x + log y, in the same order."""
    assert (IndexValue(a) * IndexValue(b)).value == (ExactEntropy(a) + ExactEntropy(b)).alpha
    assert (IndexValue(a) <= IndexValue(b)) == (ExactEntropy(a) <= ExactEntropy(b))
    assert (IndexValue(a) < IndexValue(b)) == (ExactEntropy(a) < ExactEntropy(b))
    assert (IndexValue(a) == IndexValue(b)) == (ExactEntropy(a) == ExactEntropy(b))


def test_entropy_alpha_is_read_only():
    with pytest.raises(AttributeError):
        ExactEntropy(2).alpha = 3
    with pytest.raises(AttributeError):
        IndexValue(2).value = 3
