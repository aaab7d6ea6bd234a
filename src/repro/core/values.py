"""Value types with cross-enterprise semantics.

The paper's Characteristic 2 opens with the canonical example: "a US supplier
quotes product prices in dollars, while a French supplier quotes prices in
francs".  :class:`Money` makes the currency explicit so the workbench can
normalize it, and refuses arithmetic across currencies so heterogeneity can
never be silently ignored.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.errors import TransformError


def _known(compare: Callable[[Any, Any], bool]) -> Callable[[Any, Any], Any]:
    return lambda a, b: None if a is None or b is None else compare(a, b)


# What a comparison of two values means, wherever it is evaluated: row-wise
# in ``sql.expressions.evaluate``, at a source in ``Predicate.matches``.
# The one NULL rule is SQL's: a comparison with a NULL side is unknown
# (``None``), ``=`` and ``!=`` included, and a filter keeps a row only where
# its condition is true.  An incomparable pair raises ``TypeError`` for the
# caller to word.  (``core.records.column_scan`` is these rules over a whole
# column; it and the kernels of ``federation.columnar`` are property-tested.)
COMPARISONS: dict[str, Callable[[Any, Any], Any]] = {
    "=": _known(operator.eq),
    "!=": _known(operator.ne),
    "<": _known(operator.lt),
    "<=": _known(operator.le),
    ">": _known(operator.gt),
    ">=": _known(operator.ge),
    "contains": _known(lambda a, b: str(b).lower() in str(a).lower()),
}


@dataclass(frozen=True, order=False)
class Money:
    """An amount tagged with its ISO-4217-style currency code.

    Comparison and arithmetic are only defined within a single currency;
    mixing currencies raises :class:`~repro.core.errors.TransformError`.
    Use :meth:`convert` (with an explicit rate) or the workbench's
    :class:`~repro.workbench.normalize.CurrencyNormalizer` to cross
    currencies.
    """

    amount: float
    currency: str

    def __post_init__(self) -> None:
        if not self.currency or not self.currency.isalpha():
            raise TransformError(f"invalid currency code {self.currency!r}")
        object.__setattr__(self, "currency", self.currency.upper())

    def _check_currency(self, other: "Money", op: str) -> None:
        if self.currency != other.currency:
            raise TransformError(
                f"cannot {op} {self.currency} and {other.currency}; "
                "normalize currencies first"
            )

    def __add__(self, other: "Money") -> "Money":
        self._check_currency(other, "add")
        return Money(self.amount + other.amount, self.currency)

    def __sub__(self, other: "Money") -> "Money":
        self._check_currency(other, "subtract")
        return Money(self.amount - other.amount, self.currency)

    def __mul__(self, factor: float) -> "Money":
        return Money(self.amount * factor, self.currency)

    __rmul__ = __mul__

    def __lt__(self, other: "Money") -> bool:
        self._check_currency(other, "compare")
        return self.amount < other.amount

    def __le__(self, other: "Money") -> bool:
        self._check_currency(other, "compare")
        return self.amount <= other.amount

    def __gt__(self, other: "Money") -> bool:
        self._check_currency(other, "compare")
        return self.amount > other.amount

    def __ge__(self, other: "Money") -> bool:
        self._check_currency(other, "compare")
        return self.amount >= other.amount

    def convert(self, to_currency: str, rate: float) -> "Money":
        """Return this amount converted at an explicit exchange ``rate``.

        ``rate`` is units of ``to_currency`` per unit of ``self.currency``.
        """
        if rate <= 0:
            raise TransformError(f"non-positive exchange rate {rate!r}")
        return Money(self.amount * rate, to_currency)

    def rounded(self, digits: int = 2) -> "Money":
        """Return the amount rounded to ``digits`` decimal places."""
        return Money(round(self.amount, digits), self.currency)

    def __str__(self) -> str:
        return f"{self.amount:.2f} {self.currency}"
