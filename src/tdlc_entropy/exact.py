"""Exact index and entropy arithmetic.

Indices and entropies share one algebra: a value is an arbitrary-precision
integer >= 1 or the infinite element, the product of two values is exact and
infinity absorbs it, and values are ordered by their integers with infinity
on top.  ``_ExactValue`` implements it once.  ``IndexValue`` exposes the
product as ``*``; ``ExactEntropy`` holds ``h = log(alpha)`` and exposes the
same product as ``+``, since log(alpha) + log(beta) = log(alpha*beta).  No
logarithm is ever taken inside a computation; a decimal rendering of
``log(alpha)`` exists for display only.  The two classes never compare equal
to each other, and mixing them in ``*``, ``+`` or an order raises
``TypeError``.
"""

from __future__ import annotations

import math
from typing import Optional


class ExactArithmeticError(ValueError):
    """Raised when a value outside the representable class is constructed."""


class _ExactValue:
    """An integer >= 1, or the infinite element when ``value`` is None.

    An immutable record of its one field, written out by hand: ``core``'s
    ``record`` cannot serve here, since ``core`` imports this module.
    """

    def __init__(self, value: Optional[int]):
        if value is not None and (not isinstance(value, int) or isinstance(value, bool)
                                  or value < 1):
            raise ExactArithmeticError(
                f"{type(self).__name__} needs an integer >= 1, got {value!r}")
        object.__setattr__(self, "value", value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.value,))

    def __repr__(self):
        return f"{self.__class__.__qualname__}(value={self.value!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _product(self, other):
        """Exact product of two values of one class; infinity absorbs."""
        if type(other) is not type(self):
            return NotImplemented
        if self.value is None or other.value is None:
            return type(self)(None)
        return type(self)(self.value * other.value)

    def __le__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return other.value is None or (self.value is not None and self.value <= other.value)

    def __lt__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.value != other.value and self <= other


class IndexValue(_ExactValue):
    """A subgroup index; ``value`` is ``None`` exactly when it is infinite."""

    __mul__ = _ExactValue._product

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def divide_exact(self, other: "IndexValue") -> "IndexValue":
        """Quotient self/other; both must be finite and other must divide self."""
        if self.value is None or other.value is None:
            raise ExactArithmeticError("cannot divide infinite indices")
        if self.value % other.value != 0:
            raise ExactArithmeticError(
                f"{other.value} does not divide {self.value}; index laws violated"
            )
        return IndexValue(self.value // other.value)

    def divides(self, other: "IndexValue") -> bool:
        if self.value is None or other.value is None:
            return False
        return other.value % self.value == 0

    def __str__(self) -> str:
        return "infinite" if self.value is None else str(self.value)


INFINITE_INDEX = IndexValue(None)


class ExactEntropy(_ExactValue):
    """log(alpha) for a positive integer alpha, or the infinite entropy.

    ``ExactEntropy(1)`` is the zero entropy and the neutral element of
    addition.  Equality of two finite entropies is equality of their alphas.
    """

    __add__ = _ExactValue._product

    @property
    def alpha(self) -> Optional[int]:
        return self.value

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    @property
    def is_zero(self) -> bool:
        return self.value == 1

    def ln_display(self) -> str:
        """Decimal approximation of log(alpha), display-only, never computed with."""
        return "inf" if self.value is None else f"{math.log(self.value):.12g}"

    def __str__(self) -> str:
        if self.value is None:
            return "infinite"
        return "0" if self.value == 1 else f"log {self.value}"


ZERO_ENTROPY = ExactEntropy(1)
INFINITE_ENTROPY = ExactEntropy(None)


def entropy_from_index(alpha) -> ExactEntropy:
    """Entropy log(alpha) of an IndexValue or of a bare index (an integer
    >= 1, or None for infinity, as in ``IndexValue``); the constructor
    rejects anything else, such as zero, which is never a subgroup index."""
    return ExactEntropy(alpha.value if isinstance(alpha, IndexValue) else alpha)


def entropy_add(a: ExactEntropy, b: ExactEntropy) -> ExactEntropy:
    """Exact sum: log(alpha) + log(beta) = log(alpha*beta); infinity absorbs."""
    return a + b
