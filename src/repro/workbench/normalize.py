"""Normalizers for semantic heterogeneity.

Characteristic 2's examples, implemented literally:

* "a US supplier quotes product prices in dollars, while a French supplier
  quotes prices in francs" -- :class:`CurrencyNormalizer` parses each
  supplier's price *format* and converts to the integrator's currency.
* "companies often mean very different things by 'two day delivery'" --
  :class:`DeliveryTimeNormalizer` resolves a supplier's delivery quote
  against that supplier's declared :class:`DeliveryPolicy` into comparable
  calendar hours.
* :class:`UnitNormalizer` converts measurement units (inches vs millimetres,
  pounds vs kilograms, packs vs eaches).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from repro.core.errors import TransformError
from repro.core.values import Money

_SYMBOLS = {"$": "USD", "€": "EUR", "£": "GBP", "F": "FRF", "¥": "JPY"}

# Matches the three sitegen styles and common real-world variants:
#   "$5.00"  "F5.00"  "USD 5.00"  "5,00 FRF"  "5.00USD"
_PRICE_PATTERNS = [
    re.compile(r"^\s*(?P<sym>[$€£¥F])\s*(?P<amt>[\d.,]+)\s*$"),
    re.compile(r"^\s*(?P<code>[A-Za-z]{3})\s*(?P<amt>[\d.,]+)\s*$"),
    re.compile(r"^\s*(?P<amt>[\d.,]+)\s*(?P<code>[A-Za-z]{3})\s*$"),
    re.compile(r"^\s*(?P<amt>[\d.,]+)\s*$"),
]


def parse_price(text: str, default_currency: str = "USD") -> Money:
    """Parse a supplier-formatted price string into :class:`Money`.

    Handles currency symbols, ISO-code prefixes/suffixes, thousands
    separators and the European decimal comma.
    """
    for pattern in _PRICE_PATTERNS:
        match = pattern.match(text)
        if not match:
            continue
        groups = match.groupdict()
        amount_text = groups["amt"]
        if "," in amount_text and "." not in amount_text:
            amount_text = amount_text.replace(",", ".")
        else:
            amount_text = amount_text.replace(",", "")
        try:
            amount = float(amount_text)
        except ValueError:
            continue
        if groups.get("sym"):
            currency = _SYMBOLS.get(groups["sym"], default_currency)
        elif groups.get("code"):
            currency = groups["code"].upper()
        else:
            currency = default_currency
        return Money(amount, currency)
    raise TransformError(f"cannot parse price {text!r}")


class CurrencyNormalizer:
    """Converts Money (or supplier price strings) into one target currency."""

    def __init__(self, target_currency: str, rates_to_target: dict[str, float]) -> None:
        """``rates_to_target[c]`` is target units per one unit of ``c``."""
        self.target_currency = target_currency.upper()
        self.rates = {c.upper(): r for c, r in rates_to_target.items()}
        self.rates.setdefault(self.target_currency, 1.0)

    def normalize(self, value: "Money | str", default_currency: str = "USD") -> Money:
        money = value if isinstance(value, Money) else parse_price(value, default_currency)
        if money.currency == self.target_currency:
            return money
        if money.currency not in self.rates:
            raise TransformError(
                f"no exchange rate from {money.currency} to {self.target_currency}"
            )
        return money.convert(self.target_currency, self.rates[money.currency]).rounded(4)


class UnitNormalizer:
    """Converts measurements to canonical units via a factor table.

    Ships with length (m), mass (kg) and count (each) families; suppliers'
    idiosyncratic units (``"pack of 12"``) can be registered per supplier.
    """

    _BUILTIN = {
        # length -> metres
        "m": ("length", 1.0), "meter": ("length", 1.0), "cm": ("length", 0.01),
        "mm": ("length", 0.001), "in": ("length", 0.0254), "inch": ("length", 0.0254),
        "ft": ("length", 0.3048), "foot": ("length", 0.3048),
        # mass -> kilograms
        "kg": ("mass", 1.0), "g": ("mass", 0.001), "lb": ("mass", 0.45359237),
        "oz": ("mass", 0.028349523),
        # count -> eaches
        "each": ("count", 1.0), "ea": ("count", 1.0), "pair": ("count", 2.0),
        "dozen": ("count", 12.0), "gross": ("count", 144.0),
    }

    def __init__(self) -> None:
        self._units: dict[str, tuple[str, float]] = dict(self._BUILTIN)

    def register(self, unit: str, family: str, factor: float) -> None:
        """Register a custom unit (e.g. ``("pack12", "count", 12.0)``)."""
        if factor <= 0:
            raise TransformError(f"non-positive unit factor {factor!r}")
        self._units[unit.lower()] = (family, factor)

    def convert(self, quantity: float, from_unit: str, to_unit: str) -> float:
        from_family, from_factor = self._lookup(from_unit)
        to_family, to_factor = self._lookup(to_unit)
        if from_family != to_family:
            raise TransformError(
                f"cannot convert {from_unit!r} ({from_family}) "
                f"to {to_unit!r} ({to_family})"
            )
        return quantity * from_factor / to_factor

    def _lookup(self, unit: str) -> tuple[str, float]:
        key = unit.lower().strip()
        if key not in self._units:
            raise TransformError(f"unknown unit {unit!r}")
        return self._units[key]


class DeliveryPolicy(enum.Enum):
    """What a supplier means by "N day delivery" (the FedEx example)."""

    CALENDAR_DAYS = "calendar"
    BUSINESS_DAYS = "business"
    CALENDAR_EXCEPT_SUNDAY = "calendar-except-sunday"


@dataclass(frozen=True)
class _PolicyModel:
    """Average calendar-hours one quoted 'day' costs under a policy.

    Computed as the long-run expectation over a uniformly random start day:
    a business day averages 7/5 calendar days, a Sunday-excluded day 7/6.
    """

    hours_per_quoted_day: float


_POLICY_MODELS = {
    DeliveryPolicy.CALENDAR_DAYS: _PolicyModel(24.0),
    DeliveryPolicy.BUSINESS_DAYS: _PolicyModel(24.0 * 7 / 5),
    DeliveryPolicy.CALENDAR_EXCEPT_SUNDAY: _PolicyModel(24.0 * 7 / 6),
}

_DELIVERY_RE = re.compile(r"(?P<n>\d+)\s*(?:-)?\s*(day|days|business day|business days)", re.I)


class DeliveryTimeNormalizer:
    """Resolves supplier delivery quotes into comparable calendar hours."""

    def __init__(self, supplier_policies: dict[str, DeliveryPolicy] | None = None) -> None:
        self.supplier_policies = dict(supplier_policies or {})

    def register(self, supplier: str, policy: DeliveryPolicy) -> None:
        self.supplier_policies[supplier] = policy

    def normalize(self, supplier: str, quote: "str | int | float") -> float:
        """Expected calendar hours for ``quote`` from ``supplier``.

        ``quote`` may be a number of days or free text like "2 day
        delivery".  The supplier's policy defaults to calendar days.
        """
        if isinstance(quote, (int, float)):
            days = float(quote)
        else:
            match = _DELIVERY_RE.search(quote)
            if not match:
                raise TransformError(f"cannot parse delivery quote {quote!r}")
            days = float(match.group("n"))
        policy = self.supplier_policies.get(supplier, DeliveryPolicy.CALENDAR_DAYS)
        return days * _POLICY_MODELS[policy].hours_per_quoted_day
