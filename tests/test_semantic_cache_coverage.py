"""Unit tests for implication-aware coverage and cost-aware cache policy."""

import itertools
import random

import pytest

from repro.connect.source import Predicate
from repro.core import DataType, Field, Schema, Table
from repro.core.errors import QueryError
from repro.federation.cache import (
    SemanticCache,
    coverage_kind,
    predicate_implies,
)
from repro.federation.catalog import FederationCatalog
from repro.federation.engine import FederatedEngine
from repro.federation.stats import ZoneMap, fragment_can_match, zone_selectivity
from repro.sim import SimClock


def P(column, op, value):
    return Predicate(column, op, value)


def region(*predicates):
    return frozenset(predicates)


class TestCoverageKind:
    def test_verbatim_subset_still_covers(self):
        assert coverage_kind(
            region(P("a", ">", 5)), region(P("a", ">", 5), P("b", "=", 1))
        ) == "verbatim"

    def test_empty_region_covers_everything_verbatim(self):
        assert coverage_kind(region(), region(P("a", "<", 3))) == "verbatim"

    def test_upper_bound_subsumption(self):
        # price < 5 covers price < 3 (the paper-shaped example).
        assert coverage_kind(
            region(P("price", "<", 5)), region(P("price", "<", 3))
        ) == "implication"
        assert coverage_kind(
            region(P("price", "<", 5)), region(P("price", "<=", 4))
        ) == "implication"
        # Strict implies non-strict at the same bound, not vice versa.
        assert coverage_kind(
            region(P("price", "<=", 5)), region(P("price", "<", 5))
        ) == "implication"
        assert coverage_kind(
            region(P("price", "<", 5)), region(P("price", "<=", 5))
        ) is None

    def test_lower_bound_subsumption(self):
        assert coverage_kind(
            region(P("price", ">", 2)), region(P("price", ">", 4))
        ) == "implication"
        assert coverage_kind(
            region(P("price", ">=", 2)), region(P("price", ">", 2))
        ) == "implication"
        assert coverage_kind(
            region(P("price", ">", 4)), region(P("price", ">", 2))
        ) is None

    def test_wider_request_misses(self):
        assert coverage_kind(
            region(P("price", "<", 3)), region(P("price", "<", 5))
        ) is None

    def test_equality_implies_satisfied_constraints(self):
        # supplier = 'acme' implies supplier != 'bolt'.
        assert coverage_kind(
            region(P("supplier", "!=", "bolt")),
            region(P("supplier", "=", "acme")),
        ) == "implication"
        # ...but not the forbidden value itself.
        assert coverage_kind(
            region(P("supplier", "!=", "bolt")),
            region(P("supplier", "=", "bolt")),
        ) is None
        assert coverage_kind(
            region(P("price", "<", 10)), region(P("price", "=", 7))
        ) == "implication"
        assert coverage_kind(
            region(P("price", "<", 10)), region(P("price", "=", 12))
        ) is None

    def test_equality_with_null_never_implies(self):
        # NULL rows satisfy `col = None` but fail every range predicate.
        assert coverage_kind(
            region(P("price", "<", 10)), region(P("price", "=", None))
        ) is None

    def test_a_null_valued_bound_is_a_miss(self):
        # ``price < NULL`` selects nothing; its region covers no other
        # request and no other region is asked to cover it by a bound.
        for cached, requested in (
            (P("price", "<", None), P("price", "<", 5)),
            (P("price", "<", 5), P("price", "<", None)),
            (P("price", ">=", None), P("price", "=", 7)),
        ):
            assert coverage_kind(region(cached), region(requested)) is None

    def test_bound_excluding_value_implies_not_equal(self):
        assert coverage_kind(
            region(P("price", "!=", 9)), region(P("price", "<", 5))
        ) == "implication"
        assert coverage_kind(
            region(P("price", "!=", 3)), region(P("price", "<", 5))
        ) is None  # 3 is inside the requested range

    def test_contains_substring_subsumption(self):
        assert coverage_kind(
            region(P("name", "contains", "ota")),
            region(P("name", "contains", "rotary")),
        ) == "implication"
        assert coverage_kind(
            region(P("name", "contains", "rotary")),
            region(P("name", "contains", "ota")),
        ) is None

    def test_equality_implies_contains_only_for_strings(self):
        assert coverage_kind(
            region(P("name", "contains", "acm")),
            region(P("name", "=", "acme")),
        ) == "implication"
        # str(1.0) vs str(1) diverge; numeric equality must not leak into
        # substring reasoning.
        assert coverage_kind(
            region(P("code", "contains", "1.0")),
            region(P("code", "=", 1)),
        ) is None

    def test_mixed_types_are_a_miss_not_an_error(self):
        assert coverage_kind(
            region(P("price", "<", 5)), region(P("price", "<", "3"))
        ) is None

    def test_different_columns_never_imply(self):
        assert coverage_kind(
            region(P("a", "<", 5)), region(P("b", "<", 3))
        ) is None

    def test_region_covers_verbatim_mode(self):
        cached, requested = region(P("a", "<", 5)), region(P("a", "<", 3))
        assert coverage_kind(cached, requested) == "implication"
        assert coverage_kind(cached, cached) == "verbatim"


def make_table(n=10):
    schema = Schema("t", (Field("a", DataType.INTEGER),))
    return Table(schema, [(i,) for i in range(n)])


class TestImplicationLookup:
    def test_residuals_applied_on_implication_hit(self):
        cache = SemanticCache(SimClock())
        cache.store("t", [P("a", "<", 8)], make_table(8))
        result = cache.lookup("t", [P("a", "<", 5), P("a", ">", 1)])
        assert result is not None
        assert sorted(result.column("a")) == [2, 3, 4]
        assert cache.implication_hits == 1 and cache.verbatim_hits == 0

    def test_verbatim_mode_rejects_implication(self):
        cache = SemanticCache(SimClock(), coverage="verbatim")
        cache.store("t", [P("a", "<", 8)], make_table(8))
        assert cache.lookup("t", [P("a", "<", 5)]) is None
        assert cache.lookup("t", [P("a", "<", 8)]) is not None

    def test_unknown_coverage_policy_rejected(self):
        with pytest.raises(ValueError):
            SemanticCache(SimClock(), coverage="psychic")


class TestAdmissionAndEviction:
    def test_oversized_entry_refused_not_pinned(self):
        # Regression: the old evictor's len>1 guard pinned a single entry
        # larger than max_rows in memory forever.
        cache = SemanticCache(SimClock(), max_rows=50)
        assert cache.store("t", [], make_table(60)) is False
        assert len(cache) == 0 and cache.cached_rows() == 0
        assert cache.rejected == 1
        assert cache.lookup("t", []) is None

    def test_low_benefit_entry_evicted_first(self):
        clock = SimClock()
        cache = SemanticCache(clock, max_rows=100)
        cache.store("t", [P("a", "=", 1)], make_table(60), fetch_seconds=0.001)
        clock.advance(1.0)
        cache.store("t", [P("a", "=", 2)], make_table(60), fetch_seconds=5.0)
        # LRU would evict the older entry; benefit keeps the expensive one.
        assert len(cache) == 1
        assert cache.lookup("t", [P("a", "=", 2), P("a", "!=", 0)]) is not None

    def test_worthless_new_entry_not_admitted(self):
        clock = SimClock()
        cache = SemanticCache(clock, max_rows=100)
        assert cache.store("t", [P("a", "=", 1)], make_table(90), fetch_seconds=5.0)
        admitted = cache.store("t", [P("a", "=", 2)], make_table(90), fetch_seconds=0.0)
        assert admitted is False
        assert cache.lookup("t", [P("a", "=", 1)]) is not None

    def test_store_stamps_explicit_fetch_time(self):
        clock = SimClock()
        cache = SemanticCache(clock)
        clock.advance(10.0)
        cache.store("t", [], make_table(), as_of=4.0)
        _, age, region = cache.lookup_entry("t", [])
        assert age == pytest.approx(6.0) and region == frozenset()

    def test_per_call_staleness_bound_overrides_store_default(self):
        """Regression: a caller with a loose per-query staleness bound is
        served, and the lookup evicts nothing -- only the per-call bound
        decides whether an entry is fresh enough."""
        clock = SimClock()
        cache = SemanticCache(clock)
        cache.store("t", [], make_table(), as_of=0.0)
        clock.advance(10.0)
        found = cache.lookup_entry("t", [], max_staleness=100.0)
        assert found is not None
        _, age, _ = found
        assert age == pytest.approx(10.0)
        assert cache.hits == 1 and cache.evictions == 0

    def test_tighter_per_call_bound_skips_but_keeps_fresh_entry(self):
        clock = SimClock()
        cache = SemanticCache(clock)
        cache.store("t", [], make_table(), as_of=0.0)
        clock.advance(10.0)
        # Too stale for this strict caller: the entry stays for laxer
        # queries.
        assert cache.lookup_entry("t", [], max_staleness=1.0) is None
        assert cache.evictions == 0 and len(cache) == 1
        assert cache.lookup_entry("t", [], max_staleness=50.0) is not None

    def test_metrics_registry_sees_cache_traffic(self):
        clock = SimClock()
        cache = SemanticCache(clock, max_rows=50)
        # The engine attaches its registry to the cache it is built with.
        metrics = FederatedEngine(FederationCatalog(clock), cache=cache).metrics
        cache.store("t", [P("a", "<", 9)], make_table(9))
        cache.lookup("t", [P("a", "<", 3)])
        cache.lookup("t", [P("a", ">", 3)])
        cache.store("t", [], make_table(60))  # rejected: oversized
        cache.invalidate_table("t")
        assert metrics.counter("cache.hits").value == 1
        assert metrics.counter("cache.misses").value == 1
        assert metrics.counter("cache.implication_hits").value == 1
        assert metrics.counter("cache.rejected").value == 1
        assert metrics.counter("cache.invalidations").value == 1
        assert metrics.histogram("cache.entry_age_seconds").count == 1


POOL = [
    None, 0, 1, 2, -1, 1.0, 1.5, 2.0, float("nan"), float("inf"),
    True, False, "a", "b", "ab", "A", "", " 1", "1", "none",
]
PREDICATES = [
    P("c", op, value)
    for op in ("=", "!=", "<", "<=", ">", ">=", "contains")
    for value in POOL
]


class TestReasoningAboutPredicatesIsSound:
    """The two modules that *reason* about predicates instead of applying
    them -- ``cache.predicate_implies`` and ``stats.fragment_can_match`` --
    swept by brute force with the scalar ``Predicate.matches`` as referee.
    A comparison the scalar rule refuses (``'a' < 1``) keeps no row."""

    @staticmethod
    def keeps(predicate, value):
        try:
            return predicate.matches({"c": value})
        except QueryError:
            return False

    def test_an_implied_predicate_keeps_every_value_the_implying_one_keeps(self):
        unsound = [
            (p, q, value)
            for p, q in itertools.product(PREDICATES, repeat=2)
            if predicate_implies(p, q)
            for value in POOL
            if self.keeps(p, value) and not self.keeps(q, value)
        ]
        assert unsound == []

    def test_needles_that_compare_equal_are_not_one_region(self):
        # 1 == True == 1.0 (and hash alike), but the needles are their text.
        one, true, float_one = (P("c", "contains", v) for v in (1, True, 1.0))
        assert len({one, true, float_one}) == 3
        assert one == P("c", "contains", "1")
        assert coverage_kind(region(one), region(true)) is None
        assert coverage_kind(region(one), region(float_one)) == "implication"
        assert coverage_kind(region(float_one), region(one)) is None

    def test_a_pruned_fragment_holds_no_matching_row(self):
        schema = Schema("t", (Field("c", DataType.STRING),))
        rng = random.Random(7)
        for _ in range(400):
            table = Table(schema, validate=False)
            table.rows = [
                (rng.choice(POOL),) for _ in range(rng.randint(1, 4))
            ]
            zone = ZoneMap.from_table(table)
            for predicate in PREDICATES:
                assert 0.0 <= zone_selectivity(zone, [predicate]) <= 1.0
                if fragment_can_match(zone, [predicate]) is False:
                    assert not any(
                        self.keeps(predicate, value) for (value,) in table.rows
                    ), (table.rows, predicate)
