"""Exact index and entropy arithmetic.

An entropy value is held as the positive integer ``alpha`` with
``h = log(alpha)``, or as the infinite element.  No logarithm is ever taken
inside a computation; comparisons and sums are integer-exact.  A decimal
rendering of ``log(alpha)`` exists for display only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


class ExactArithmeticError(ValueError):
    """Raised when a value outside the representable class is constructed."""


@dataclass(frozen=True)
class IndexValue:
    """A subgroup index: an arbitrary-precision integer >= 1, or infinite.

    ``value`` is ``None`` exactly when the index is infinite.  Finite values
    multiply exactly; the infinite element is absorbing.
    """

    value: Optional[int]

    def __post_init__(self):
        if self.value is not None:
            if not isinstance(self.value, int) or isinstance(self.value, bool):
                raise ExactArithmeticError(f"index must be an integer, got {self.value!r}")
            if self.value < 1:
                raise ExactArithmeticError(f"index must be >= 1, got {self.value}")

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def __mul__(self, other: "IndexValue") -> "IndexValue":
        if not isinstance(other, IndexValue):
            return NotImplemented
        if self.value is None or other.value is None:
            return INFINITE_INDEX
        return IndexValue(self.value * other.value)

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

    def __le__(self, other: "IndexValue") -> bool:
        if other.value is None:
            return True
        if self.value is None:
            return False
        return self.value <= other.value

    def __lt__(self, other: "IndexValue") -> bool:
        return self <= other and self != other

    def __str__(self) -> str:
        return "infinite" if self.value is None else str(self.value)


INFINITE_INDEX = IndexValue(None)


@dataclass(frozen=True)
class ExactEntropy:
    """log(alpha) for a positive integer alpha, or the infinite entropy.

    ``Finite(1)`` is the zero entropy and the neutral element of addition.
    Equality of two finite entropies is equality of their alphas; no float
    is involved anywhere.
    """

    alpha: Optional[int]

    def __post_init__(self):
        if self.alpha is not None:
            if not isinstance(self.alpha, int) or isinstance(self.alpha, bool):
                raise ExactArithmeticError(f"entropy alpha must be an integer, got {self.alpha!r}")
            if self.alpha < 1:
                raise ExactArithmeticError(f"entropy alpha must be >= 1, got {self.alpha}")

    @property
    def is_infinite(self) -> bool:
        return self.alpha is None

    @property
    def is_zero(self) -> bool:
        return self.alpha == 1

    def __add__(self, other: "ExactEntropy") -> "ExactEntropy":
        if not isinstance(other, ExactEntropy):
            return NotImplemented
        if self.alpha is None or other.alpha is None:
            return INFINITE_ENTROPY
        return ExactEntropy(self.alpha * other.alpha)

    def __le__(self, other: "ExactEntropy") -> bool:
        # log is monotone, so comparing alphas is exact.
        if other.alpha is None:
            return True
        if self.alpha is None:
            return False
        return self.alpha <= other.alpha

    def __lt__(self, other: "ExactEntropy") -> bool:
        return self <= other and self != other

    def ln_display(self) -> str:
        """Decimal approximation of log(alpha), display-only, never computed with."""
        if self.alpha is None:
            return "inf"
        return f"{math.log(self.alpha):.12g}"

    def __str__(self) -> str:
        if self.alpha is None:
            return "infinite"
        if self.alpha == 1:
            return "0"
        return f"log {self.alpha}"


ZERO_ENTROPY = ExactEntropy(1)
INFINITE_ENTROPY = ExactEntropy(None)


def entropy_from_index(alpha) -> ExactEntropy:
    """Entropy log(alpha) of a finite index alpha >= 1, or infinite.

    Accepts an IndexValue or a bare positive integer.  An index of zero is
    rejected: an index of subgroups is never zero.
    """
    if isinstance(alpha, IndexValue):
        return ExactEntropy(alpha.value)
    if isinstance(alpha, int) and not isinstance(alpha, bool):
        if alpha < 1:
            raise ExactArithmeticError(f"an index is never {alpha}")
        return ExactEntropy(alpha)
    raise ExactArithmeticError(f"expected an index, got {alpha!r}")


def entropy_add(a: ExactEntropy, b: ExactEntropy) -> ExactEntropy:
    """Exact sum: log(alpha) + log(beta) = log(alpha*beta); infinity absorbs."""
    return a + b

