"""Tests for currency, unit and delivery-time normalization."""

import pytest

from repro.core import Money, TransformError
from repro.workbench import (
    CurrencyNormalizer,
    DeliveryPolicy,
    DeliveryTimeNormalizer,
    UnitNormalizer,
)
from repro.workbench.normalize import parse_price


class TestParsePrice:
    @pytest.mark.parametrize(
        "text,amount,currency",
        [
            ("$5.00", 5.0, "USD"),
            ("F30.00", 30.0, "FRF"),
            ("€9.99", 9.99, "EUR"),
            ("USD 1,234.50", 1234.5, "USD"),
            ("5,00 FRF", 5.0, "FRF"),
            ("  12.00 GBP ", 12.0, "GBP"),
            ("7.25", 7.25, "USD"),
        ],
    )
    def test_formats(self, text, amount, currency):
        money = parse_price(text)
        assert money.amount == pytest.approx(amount)
        assert money.currency == currency

    def test_default_currency_honoured(self):
        assert parse_price("3.00", default_currency="EUR").currency == "EUR"

    def test_garbage_rejected(self):
        with pytest.raises(TransformError):
            parse_price("call for quote")


class TestCurrencyNormalizer:
    def make(self):
        return CurrencyNormalizer("USD", {"FRF": 0.14, "EUR": 1.1})

    def test_same_currency_passthrough(self):
        assert self.make().normalize(Money(5.0, "USD")) == Money(5.0, "USD")

    def test_converts_francs(self):
        normalized = self.make().normalize(Money(100.0, "FRF"))
        assert normalized.currency == "USD"
        assert normalized.amount == pytest.approx(14.0)

    def test_parses_then_converts_strings(self):
        normalized = self.make().normalize("5,00 FRF")
        assert normalized.amount == pytest.approx(0.7)

    def test_missing_rate_rejected(self):
        with pytest.raises(TransformError):
            self.make().normalize(Money(1.0, "JPY"))

    def test_target_rate_defaults_to_one(self):
        normalizer = CurrencyNormalizer("usd", {})
        assert normalizer.normalize(Money(2.0, "USD")).amount == 2.0


class TestUnitNormalizer:
    def test_builtin_conversions(self):
        units = UnitNormalizer()
        assert units.convert(1.0, "in", "mm") == pytest.approx(25.4)
        assert units.convert(1.0, "lb", "g") == pytest.approx(453.59237)
        assert units.convert(3.0, "dozen", "each") == 36.0

    def test_to_canonical(self):
        units = UnitNormalizer()
        assert units.convert(100.0, "cm", "m") == pytest.approx(1.0)
        assert units.convert(1.0, "oz", "g") == pytest.approx(28.349523125)

    def test_cross_family_rejected(self):
        with pytest.raises(TransformError):
            UnitNormalizer().convert(1.0, "kg", "m")

    def test_unknown_unit_rejected(self):
        with pytest.raises(TransformError):
            UnitNormalizer().convert(1.0, "cubit", "m")

    def test_custom_unit(self):
        units = UnitNormalizer()
        units.register("pack12", "count", 12.0)
        assert units.convert(2.0, "pack12", "each") == 24.0

    def test_bad_factor_rejected(self):
        with pytest.raises(TransformError):
            UnitNormalizer().register("zero", "count", 0.0)


class TestDeliveryTimeNormalizer:
    def make(self):
        return DeliveryTimeNormalizer(
            {
                "ups-shop": DeliveryPolicy.CALENDAR_DAYS,
                "office-co": DeliveryPolicy.BUSINESS_DAYS,
                "fedex-like": DeliveryPolicy.CALENDAR_EXCEPT_SUNDAY,
            }
        )

    def test_two_day_delivery_means_different_things(self):
        normalizer = self.make()
        calendar = normalizer.normalize("ups-shop", "2 day delivery")
        business = normalizer.normalize("office-co", "2 day delivery")
        except_sunday = normalizer.normalize("fedex-like", "2 day delivery")
        assert calendar == pytest.approx(48.0)
        assert business == pytest.approx(48.0 * 7 / 5)
        assert except_sunday == pytest.approx(48.0 * 7 / 6)
        assert calendar < except_sunday < business

    def test_numeric_quote(self):
        assert self.make().normalize("ups-shop", 3) == 72.0

    def test_unknown_supplier_defaults_to_calendar(self):
        assert self.make().normalize("mystery", "1 day") == 24.0

    def test_register(self):
        normalizer = self.make()
        normalizer.register("new-co", DeliveryPolicy.BUSINESS_DAYS)
        assert normalizer.normalize("new-co", 5) == pytest.approx(120.0 * 7 / 5)

    def test_unparseable_quote_rejected(self):
        with pytest.raises(TransformError):
            self.make().normalize("ups-shop", "whenever")
