"""The six benchmark workloads: input generators, federations, drivers.

Every workload is one client in a closed loop against a
:class:`~repro.federation.gateway.Gateway`.  A workload owns

* ``generate(seed)`` -- the seeded *input stream* (warm-up ops + timed
  ops).  Ops are plain tuples, so the stream can be digested:
  ``("q", tenant, sql, params)`` one statement, ``("w",)`` one market
  write, ``("b", arrivals)`` one burst of queued arrivals.
* ``build(seed)`` -- the program state the stream runs against (catalog,
  fragments, engine, gateway, sessions).  Table contents are fixed
  constants; the seed reaches the program only through the stream (and,
  for ``read_write``, through which hotel each write updates).
* ``execute(world, op)`` -- the timed call, nothing else.
* ``check`` / ``verify`` -- answer checking, outside the timed segments.

Stream lengths and warm-up/traced op counts are fixed constants, chosen
once so that ``run_seconds`` of ops on the reference box stays inside the
stream (the driver cycles if a faster box outruns it) and never tuned per
commit.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import dataclass

from repro.core import DataType, Field, Schema, Table
from repro.federation import (
    ArtifactStore,
    FederatedEngine,
    FederationCatalog,
    Gateway,
    SemanticCache,
    WorkloadManager,
)
from repro.federation.gateway import bind_sql_text
from repro.federation.governance import GovernanceRegistry
from repro.federation.workload import QueryState
from repro.sim import EventLoop, SimClock
from repro.workloads import generate_hotels

from benchmarks.e2e.oracle import SqliteOracle, rows_match

TENANTS = [f"t{i}" for i in range(6)]
SLOTS = 3
PLAN_CACHE_SIZE = 64


def zipf_weights(count: int, exponent: float = 1.1) -> list[float]:
    raw = [1.0 / (rank**exponent) for rank in range(1, count + 1)]
    total = sum(raw)
    return [w / total for w in raw]


TENANT_WEIGHTS = zipf_weights(len(TENANTS))


def stream_digest(warmup: list, ops: list) -> str:
    """SHA-256 of the generated input stream (warm-up + timed ops)."""
    payload = json.dumps([warmup, ops], separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class World:
    """The program under test plus the client's open sessions."""

    gateway: Gateway
    sessions: dict
    market: object = None  # read_write: the mutable HotelMarket
    rng: object = None  # read_write: drives apply_random_update
    burst_gap: float = 0.0  # burst_queue: modeled seconds per unit gap
    queue_depth_max: int = 0
    heap_len_max: int = 0

    @property
    def engine(self) -> FederatedEngine:
        return self.gateway.engine

    @property
    def manager(self) -> WorkloadManager:
        return self.gateway.workload


def make_gateway(engine: FederatedEngine, queue_limit: int = 50) -> Gateway:
    loop = EventLoop(engine.catalog.clock)
    manager = WorkloadManager(
        engine, loop, scheduler="weighted-fair", max_in_flight=SLOTS
    )
    for name in TENANTS:
        manager.register_tenant(name, queue_limit=queue_limit)
    return Gateway(manager, max_sessions=32, plan_cache_size=PLAN_CACHE_SIZE)


def open_sessions(gateway: Gateway) -> dict:
    return {tenant: gateway.connect(tenant=tenant) for tenant in TENANTS}


class Workload:
    """Base driver: statement ops through pooled gateway sessions."""

    name = ""
    why = ""
    stream_ops = 0  # timed ops generated per seed (cycled if outrun)
    warmup_ops = 0
    trace_ops = 0  # fixed op count of each phase of a traced run
    verify_ops = 64  # distinct statements checked against the oracle
    # Traced runs also price a sample of this workload's logical plans with
    # the centralized and policy optimizers (layer-only numbers).
    compare_optimizers = False

    def generate(self, seed: int) -> tuple[list, list]:
        rng = random.Random(f"{self.name}:{seed}")
        warmup = [self.make_op(rng) for _ in range(self.warmup_ops)]
        ops = [self.make_op(rng) for _ in range(self.stream_ops)]
        return warmup, ops

    def make_op(self, rng) -> tuple:
        raise NotImplementedError

    def build(self, seed: int) -> World:
        raise NotImplementedError

    def oracles(self) -> dict:
        """Independent answer oracles by tenant, ``None`` for the ungoverned
        rest.  Built for verification only, never inside a timed set-up."""
        raise NotImplementedError

    def execute(self, world: World, op: tuple):
        return world.sessions[op[1]].execute(op[2], op[3])

    def statements(self, op: tuple) -> int:
        """How many statements ``op`` offers (0 for a write)."""
        return 1

    def results(self, result) -> list:
        """The per-statement ``QueryResult`` objects behind one op."""
        return [result.result]

    def check(self, world: World, op: tuple, result) -> int:
        """Wrong answers detectable only at this instant (live data)."""
        return 0

    def sample_answers(self, world: World, ops: list):
        """Yield ``(tenant, sql, params, rows)`` for the verification sample:
        the first ``verify_ops`` distinct statements, re-executed now."""
        seen = set()
        for op in ops:
            key = repr(op)
            if op[0] != "q" or key in seen:
                continue
            seen.add(key)
            _, tenant, sql, params = op
            yield tenant, sql, params, world.sessions[tenant].execute(sql, params).rows
            if len(seen) == self.verify_ops:
                return

    def verify(self, world: World, ops: list) -> tuple[int, int, str]:
        """Check a fixed sample against the oracle after the timed window.

        Returns ``(checked, wrong, sha256 of the sample's answers)``.
        """
        oracles = self.oracles()
        digest = hashlib.sha256()
        checked = wrong = 0
        for tenant, sql, params, rows in self.sample_answers(world, ops):
            digest.update(repr(rows).encode("utf-8"))
            expected = oracles.get(tenant, oracles[None]).query(sql, params)
            checked += 1
            if not rows_match(rows, expected, ordered=self.is_ordered(sql)):
                wrong += 1
        return checked, wrong, digest.hexdigest()

    def is_ordered(self, sql: str) -> bool:
        """Does ``sql`` impose a *total* order on its answer?"""
        return False


# -- hot_mix: E14's topology and statement mix ---------------------------------

ITEM_SITES = 3
ITEM_FRAGMENTS = 6
ITEM_ROWS = 120
ITEMS_SCHEMA = Schema(
    "items", (Field("k", DataType.STRING), Field("v", DataType.INTEGER))
)
ITEM_DATA = [(f"k{i:04d}", i) for i in range(ITEM_ROWS)]

# t4 and t5 share one declared policy: an RLS filter plus one mask.
GOVERNED = ("t4", "t5")
RLS_MIN_V = 30
MANIFEST = {
    "version": 1,
    "tenants": {
        tenant: {
            "tables": {
                "items": {
                    "row_filter": f"v >= {RLS_MIN_V}",
                    "masks": {"k": "last4"},
                }
            }
        }
        for tenant in GOVERNED
    },
}


def governed_item_data() -> list[tuple]:
    """mask(sigma_RLS(items)) as the harness computes it (oracle side)."""
    return [
        ("*" * (len(k) - 4) + k[-4:], v) for k, v in ITEM_DATA if v >= RLS_MIN_V
    ]


def _threshold(rng):
    return (rng.randrange(ITEM_ROWS),)


def _range(rng):
    low = rng.randrange(ITEM_ROWS - 20)
    return (low, low + 20)


def _point(rng):
    return (f"k{rng.randrange(ITEM_ROWS):04d}",)


def _like(rng):
    return (f"k00{rng.randrange(10)}%",)


# Three preparable shapes plus LIKE ?, whose pattern slot cannot hold a
# placeholder and so takes the textual-bind fallback on every arrival.
ITEM_STATEMENTS = [
    ("select count(*) from items where v < ?", _threshold),
    ("SELECT k, v FROM items WHERE v BETWEEN ? AND ?", _range),
    ("select v from items where k = ?", _point),
    ("select k from items where k like ?", _like),
]


def item_op(rng) -> tuple:
    tenant = rng.choices(TENANTS, TENANT_WEIGHTS)[0]
    sql, params_fn = ITEM_STATEMENTS[rng.randrange(len(ITEM_STATEMENTS))]
    return ("q", tenant, sql, params_fn(rng))


def build_items_engine() -> FederatedEngine:
    catalog = FederationCatalog(SimClock())
    sites = [catalog.make_site(f"s{i}").name for i in range(ITEM_SITES)]
    placement = [
        [sites[i % ITEM_SITES], sites[(i + 1) % ITEM_SITES]]
        for i in range(ITEM_FRAGMENTS)
    ]
    catalog.load_fragmented(
        Table(ITEMS_SCHEMA, ITEM_DATA), ITEM_FRAGMENTS, placement
    )
    return FederatedEngine(catalog, governance=GovernanceRegistry(MANIFEST))


class HotMix(Workload):
    name = "hot_mix"
    why = (
        "E14 mix on 120 rows, plan cache fits: normalize, plan-cache, bind, "
        "compile, dispatch and accounting are nearly all of the time"
    )
    stream_ops = 40_000
    warmup_ops = 1_000
    trace_ops = 4_000
    queue_limit = 50  # per tenant, E14's

    def make_op(self, rng) -> tuple:
        return item_op(rng)

    def build(self, seed: int) -> World:
        gateway = make_gateway(build_items_engine(), self.queue_limit)
        return World(gateway, open_sessions(gateway))

    def oracles(self) -> dict:
        # A governed tenant's oracle holds mask(sigma_RLS(items)) as the
        # harness computes it, not as the program does.
        columns = [("k", "TEXT"), ("v", "INTEGER")]
        plain = SqliteOracle({"items": (columns, ITEM_DATA)})
        governed = SqliteOracle({"items": (columns, governed_item_data())})
        return {None: plain, **{tenant: governed for tenant in GOVERNED}}


# -- burst_queue: the same mix, 32 queued arrivals per op ----------------------

BURST = 32


def mix_service_seconds() -> float:
    """Mean uncontended modeled response time of the item mix (E14's
    capacity-planning probe), on a scratch engine."""
    rng = random.Random(0)
    engine = build_items_engine()
    total = 0.0
    samples = 24
    for i in range(samples):
        sql, params_fn = ITEM_STATEMENTS[i % len(ITEM_STATEMENTS)]
        bound = bind_sql_text(sql, params_fn(rng))
        total += engine.query(bound, advance_clock=False).report.response_seconds
    return total / samples


class BurstQueue(HotMix):
    name = "burst_queue"
    why = (
        "hot_mix statements arriving 32 at a time at 2x modeled capacity: the "
        "only workload where admission queues, scheduler and event heap run deep"
    )
    stream_ops = 900
    warmup_ops = 20
    trace_ops = 90
    queue_limit = BURST  # a whole burst may queue on one tenant: no sheds

    def make_op(self, rng) -> tuple:
        # Poisson arrivals: unit-rate gaps here, scaled to 2x the modeled
        # capacity at build time so the stream does not depend on the program.
        arrivals, now = [], 0.0
        for _ in range(BURST):
            now += rng.expovariate(1.0)
            _, tenant, sql, params = item_op(rng)
            arrivals.append((now, tenant, sql, params))
        return ("b", arrivals)

    def build(self, seed: int) -> World:
        world = super().build(seed)
        world.burst_gap = mix_service_seconds() / (2.0 * SLOTS)
        return world

    def statements(self, op: tuple) -> int:
        return BURST

    def execute(self, world: World, op: tuple):
        manager = world.manager
        loop = manager.loop
        sessions = world.sessions
        arrivals = op[1]
        handles = [None] * len(arrivals)
        base = loop.clock.now()
        remaining = len(arrivals)

        def arrive(i, tenant, sql, params):
            nonlocal remaining
            handles[i] = sessions[tenant].submit(sql, params)
            remaining -= 1
            if manager.queued > world.queue_depth_max:
                world.queue_depth_max = manager.queued
            heap = remaining + manager.in_flight
            if heap > world.heap_len_max:
                world.heap_len_max = heap

        for i, (offset, tenant, sql, params) in enumerate(arrivals):
            loop.schedule_at(
                base + offset * world.burst_gap,
                functools.partial(arrive, i, tenant, sql, params),
            )
        # Not loadgen.run_open_loop: its ``while loop.pending()`` rescans
        # the heap per event, an O(n^2) harness artefact.
        while loop.run_next() is not None:
            pass
        return handles

    def results(self, handles) -> list:
        # ``check`` has already counted the handles that did not complete.
        return [
            handle.result()
            for handle in handles
            if handle is not None and handle.state is QueryState.COMPLETED
        ]

    def check(self, world: World, op: tuple, handles) -> int:
        return sum(
            1
            for handle in handles
            if handle is None or handle.state is not QueryState.COMPLETED
        )

    def sample_answers(self, world: World, ops: list):
        for op in ops[:2]:
            handles = self.execute(world, op)
            for (_, tenant, sql, params), handle in zip(op[1], handles):
                yield tenant, sql, params, handle.result().table.rows


# -- cold_plan: ad-hoc literal SQL, plan cache thrashes ------------------------

COLD_SITES = 32  # every table has one fragment, replicated on all of them
COLD_PARTS = [
    (f"part-{i:03d}", f"sup-{i % 8:02d}", float((i * 37) % 100), (i * 7) % 50)
    for i in range(24)
]
COLD_SUPPLIERS = [(f"sup-{i:02d}", f"r{i % 4}", i % 7) for i in range(8)]
COLD_REGIONS = [(f"r{i}", f"c{i % 2}") for i in range(4)]
PARTS_SCHEMA = Schema(
    "parts",
    (
        Field("sku", DataType.STRING),
        Field("supplier", DataType.STRING),
        Field("price", DataType.FLOAT),
        Field("qty", DataType.INTEGER),
    ),
)
SUPPLIERS_SCHEMA = Schema(
    "suppliers",
    (
        Field("supplier", DataType.STRING),
        Field("region", DataType.STRING),
        Field("rating", DataType.INTEGER),
    ),
)
REGIONS_SCHEMA = Schema(
    "regions", (Field("region", DataType.STRING), Field("country", DataType.STRING))
)
PARTS_COLUMNS = [
    ("sku", "TEXT"), ("supplier", "TEXT"), ("price", "REAL"), ("qty", "INTEGER")
]
SUPPLIERS_COLUMNS = [("supplier", "TEXT"), ("region", "TEXT"), ("rating", "INTEGER")]
REGIONS_COLUMNS = [("region", "TEXT"), ("country", "TEXT")]


def _cold_join(rng) -> str:
    return (
        "select p.sku, p.price, p.qty, p.price * p.qty as value, s.supplier, "
        "s.rating, g.region, g.country "
        "from parts p join suppliers s on p.supplier = s.supplier "
        "join regions g on s.region = g.region "
        f"where p.price >= {rng.uniform(0, 100):.6f} "
        f"and p.qty < {rng.randrange(1, 50)} and s.rating >= {rng.randrange(4)} "
        "and s.rating in (0, 1, 2, 3, 4, 5, 6) "
        f"and g.country = 'c{rng.randrange(2)}' and g.region != 'r9'"
    )


def _cold_aggregate(rng) -> str:
    low = rng.uniform(0, 60)
    return (
        "select supplier, count(*) as n, sum(price) as total, min(price) as lo, "
        "max(price) as hi, min(qty) as few, max(qty) as many from parts "
        f"where price between {low:.6f} and {low + 30:.6f} "
        f"and qty >= {rng.randrange(10)} and qty <= 49 and sku != 'part-999' "
        "group by supplier order by supplier"
    )


def _cold_point(rng) -> str:
    return (
        "select sku, supplier, price, qty, price * qty as value from parts "
        f"where sku = 'part-{rng.randrange(len(COLD_PARTS)):03d}' "
        f"and price >= {rng.uniform(0, 1):.6f} and qty < 50 and qty >= 0 "
        "and supplier != 'sup-99'"
    )


COLD_SHAPES = [_cold_join, _cold_aggregate, _cold_point]


class ColdPlan(Workload):
    name = "cold_plan"
    why = (
        "distinct literal-inlined texts thrash the 64-entry plan cache: every "
        "statement pays parse, build, rewrite, bid collection and eviction"
    )
    stream_ops = 24_000
    warmup_ops = 500
    trace_ops = 2_400
    compare_optimizers = True

    def make_op(self, rng) -> tuple:
        tenant = rng.choices(TENANTS, TENANT_WEIGHTS)[0]
        shape = COLD_SHAPES[rng.randrange(len(COLD_SHAPES))]
        return ("q", tenant, shape(rng), ())

    def build(self, seed: int) -> World:
        catalog = FederationCatalog(SimClock())
        sites = [catalog.make_site(f"s{i:02d}").name for i in range(COLD_SITES)]

        everywhere = [sites]
        catalog.load_fragmented(Table(PARTS_SCHEMA, COLD_PARTS), 1, everywhere)
        catalog.load_fragmented(Table(SUPPLIERS_SCHEMA, COLD_SUPPLIERS), 1, everywhere)
        catalog.load_fragmented(Table(REGIONS_SCHEMA, COLD_REGIONS), 1, everywhere)
        gateway = make_gateway(FederatedEngine(catalog))
        return World(gateway, open_sessions(gateway))

    def oracles(self) -> dict:
        return {
            None: SqliteOracle(
                {
                    "parts": (PARTS_COLUMNS, COLD_PARTS),
                    "suppliers": (SUPPLIERS_COLUMNS, COLD_SUPPLIERS),
                    "regions": (REGIONS_COLUMNS, COLD_REGIONS),
                }
            )
        }

    def is_ordered(self, sql: str) -> bool:
        return sql.endswith("order by supplier")


# -- scan_agg / join_ship: the data plane --------------------------------------

DATA_SITES = 4
DATA_FRAGMENTS = 8
DATA_SUPPLIERS = 40


@functools.cache
def parts_data(rows: int) -> list[tuple]:
    """The fixed ``parts`` table of a given size (generated once, outside
    any timed set-up's repeats)."""
    rng = random.Random(rows)
    return [
        (
            f"part-{i:06d}",
            f"sup-{rng.randrange(DATA_SUPPLIERS):02d}",
            round(rng.uniform(0.0, 1000.0), 2),
            rng.randrange(50),
        )
        for i in range(rows)
    ]


SUPPLIER_DATA = [
    (f"sup-{i:02d}", f"r{i % 5}", i % 7) for i in range(DATA_SUPPLIERS)
]


def build_parts_world(parts: list[tuple]) -> World:
    catalog = FederationCatalog(SimClock())
    sites = [catalog.make_site(f"s{i}").name for i in range(DATA_SITES)]
    placement = [
        [sites[i % DATA_SITES], sites[(i + 1) % DATA_SITES]]
        for i in range(DATA_FRAGMENTS)
    ]
    catalog.load_fragmented(
        Table(PARTS_SCHEMA, parts, validate=False), DATA_FRAGMENTS, placement
    )
    catalog.load_fragmented(
        Table(SUPPLIERS_SCHEMA, SUPPLIER_DATA), 1, [[sites[0], sites[1]]]
    )
    gateway = make_gateway(FederatedEngine(catalog))
    return World(gateway, open_sessions(gateway))


def parts_oracles(parts: list[tuple]) -> dict:
    return {
        None: SqliteOracle(
            {
                "parts": (PARTS_COLUMNS, parts),
                "suppliers": (SUPPLIERS_COLUMNS, SUPPLIER_DATA),
            }
        )
    }


SCAN_ROWS = 25_000
SCAN_GROUPED = (
    "select supplier, count(*) as n, sum(price) as total from parts "
    "where price >= ? or supplier = ? group by supplier order by supplier"
)
SCAN_RANGE = (
    "select count(*) as n, sum(qty) as q from parts "
    "where qty < ? and price between ? and ?"
)


class ScanAgg(Workload):
    name = "scan_agg"
    why = (
        "25k-row scans with site-side filter and partial aggregate, <=50 rows "
        "shipped: the columnar site plane dominates, wire and coordinator idle"
    )
    stream_ops = 2_000
    warmup_ops = 20
    trace_ops = 120

    def make_op(self, rng) -> tuple:
        tenant = rng.choices(TENANTS, TENANT_WEIGHTS)[0]
        if rng.random() < 0.5:
            params = (
                round(rng.uniform(700.0, 950.0), 1),
                f"sup-{rng.randrange(DATA_SUPPLIERS):02d}",
            )
            return ("q", tenant, SCAN_GROUPED, params)
        low = round(rng.uniform(0.0, 600.0), 1)
        return ("q", tenant, SCAN_RANGE, (rng.randrange(5, 45), low, low + 300.0))

    def build(self, seed: int) -> World:
        return build_parts_world(parts_data(SCAN_ROWS))

    def oracles(self) -> dict:
        return parts_oracles(parts_data(SCAN_ROWS))

    def is_ordered(self, sql: str) -> bool:
        return sql == SCAN_GROUPED


JOIN_ROWS = 6_000
JOIN_TOP = (
    "select p.sku, p.price, s.region from parts p "
    "join suppliers s on p.supplier = s.supplier "
    "where p.price >= ? order by p.price desc, p.sku limit 100"
)
JOIN_GROUPED = (
    "select s.region, count(*) as n, sum(p.price) as total from parts p "
    "join suppliers s on p.supplier = s.supplier "
    "where p.price >= ? group by s.region"
)


class JoinShip(Workload):
    name = "join_ship"
    why = (
        "joins that ship thousands of rows per statement: encode, ship, decode "
        "and row-env join/aggregate/sort at the coordinator dominate"
    )
    stream_ops = 1_600
    warmup_ops = 20
    trace_ops = 100

    def make_op(self, rng) -> tuple:
        tenant = rng.choices(TENANTS, TENANT_WEIGHTS)[0]
        sql = JOIN_TOP if rng.random() < 0.5 else JOIN_GROUPED
        return ("q", tenant, sql, (round(rng.uniform(600.0, 800.0), 1),))

    def build(self, seed: int) -> World:
        return build_parts_world(parts_data(JOIN_ROWS))

    def oracles(self) -> dict:
        return parts_oracles(parts_data(JOIN_ROWS))

    def is_ordered(self, sql: str) -> bool:
        return sql == JOIN_TOP


# -- read_write: the paper's C5 hotel market ------------------------------------

MARKET_SEED = 7
HOTEL_CHAINS = 50
HOTELS_PER_CHAIN = 4
READS_PER_WRITE = 19
_TRAVELER_FROM = (
    "from hotel_static s join hotel_availability a on s.hotel_id = a.hotel_id "
    "where s.miles_to_airport <= ? and a.corporate_rate <= ? "
    "and a.rooms_available > 0"
)
TRAVELER = (
    "select s.hotel_id, s.name, a.corporate_rate, a.rooms_available "
    f"{_TRAVELER_FROM} and s.has_health_club = true order by a.corporate_rate"
)
TRAVELER_ANY_CLUB = (
    f"select s.hotel_id, a.corporate_rate {_TRAVELER_FROM} "
    "order by a.corporate_rate"
)
TRAVELER_COUNT = f"select count(*) as n {_TRAVELER_FROM} and s.has_health_club = true"
TRAVELER_SHAPES = (TRAVELER, TRAVELER_ANY_CLUB, TRAVELER_COUNT)
# The paper's query dominates, so the median read is one of its cache hits
# and not a point between two shapes' modes.
TRAVELER_WEIGHTS = (0.8, 0.1, 0.1)
MAX_MILES = (5.0, 10.0, 15.0, 20.0)
MAX_RATES = (150.0, 200.0, 250.0)


class ReadWrite(Workload):
    name = "read_write"
    why = (
        "traveler query over live hotel availability with semantic cache and "
        "artifact store; a write after every 19th read invalidates and replans"
    )
    stream_ops = 18_000
    warmup_ops = 120
    trace_ops = 1_200

    def generate(self, seed: int) -> tuple[list, list]:
        rng = random.Random(f"{self.name}:{seed}")
        return self._stream(rng, self.warmup_ops), self._stream(rng, self.stream_ops)

    def _stream(self, rng, count: int) -> list:
        ops = []
        for i in range(count):
            if i % (READS_PER_WRITE + 1) == READS_PER_WRITE:
                ops.append(("w",))
                continue
            tenant = rng.choices(TENANTS, TENANT_WEIGHTS)[0]
            sql = rng.choices(TRAVELER_SHAPES, TRAVELER_WEIGHTS)[0]
            params = (rng.choice(MAX_MILES), rng.choice(MAX_RATES))
            ops.append(("q", tenant, sql, params))
        return ops

    def build(self, seed: int) -> World:
        clock = SimClock()
        catalog = FederationCatalog(clock)
        market = generate_hotels(MARKET_SEED, HOTEL_CHAINS, HOTELS_PER_CHAIN)
        chain_sites = {
            chain: catalog.make_site(f"res-{i:02d}").name
            for i, chain in enumerate(market.chains)
        }
        market.register_sources(catalog, chain_sites)
        engine = FederatedEngine(
            catalog, cache=SemanticCache(clock), artifacts=ArtifactStore(clock)
        )
        gateway = make_gateway(engine)
        return World(
            gateway,
            open_sessions(gateway),
            market=market,
            rng=random.Random(f"updates:{seed}"),
        )

    def statements(self, op: tuple) -> int:
        return 1 if op[0] == "q" else 0

    def execute(self, world: World, op: tuple):
        if op[0] == "w":
            world.market.apply_random_update(world.rng)
            return None
        return world.sessions[op[1]].execute(op[2], op[3])

    def results(self, result) -> list:
        return [] if result is None else [result.result]

    def check(self, world: World, op: tuple, result) -> int:
        if op[0] == "w":
            return 0
        _, _, sql, (max_miles, max_rate) = op
        truth = world.market.matching_hotels(
            max_miles, max_rate, need_club=sql != TRAVELER_ANY_CLUB
        )
        if sql == TRAVELER_COUNT:
            return 0 if result.rows == [(len(truth),)] else 1
        answered = [row[0] for row in result.rows]
        return 0 if len(answered) == len(truth) and set(answered) == truth else 1

    def verify(self, world: World, ops: list) -> tuple[int, int, str]:
        # Every read was already checked in place, against the market.
        return 0, 0, hashlib.sha256(b"").hexdigest()


WORKLOADS = {
    workload.name: workload
    for workload in (
        HotMix(), ColdPlan(), ScanAgg(), JoinShip(), ReadWrite(), BurstQueue()
    )
}
