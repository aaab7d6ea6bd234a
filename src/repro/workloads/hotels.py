"""The hotel-availability workload.

"Hotel room availability in the Atlanta area is in some fifty data systems
(each hotel chain runs their own reservation system) ... the address of the
hotel and its amenities are static data and can be fetched in advance, while
room availability is highly volatile and must be fetched on demand" (§1.2,
§3.2 C5).

:func:`generate_hotels` builds ~fifty chains, each a mutable reservation
system; :meth:`HotelMarket.schedule_volatility` drives bookings,
cancellations and rate changes on the event loop; and
:meth:`HotelMarket.register_sources` wires the market into a federation
catalog as one live fragment per chain (fetch-on-demand path) plus the
static table benchmark code typically materializes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable

from repro.connect.source import LiveSource
from repro.core.records import Table
from repro.core.schema import DataType, Field, Schema
from repro.federation.catalog import FederationCatalog
from repro.sim.events import EventLoop

STATIC_SCHEMA = Schema(
    "hotel_static",
    (
        Field("hotel_id", DataType.STRING, nullable=False),
        Field("chain", DataType.STRING),
        Field("name", DataType.STRING),
        Field("miles_to_airport", DataType.FLOAT),
        Field("has_health_club", DataType.BOOLEAN),
    ),
)

AVAILABILITY_SCHEMA = Schema(
    "hotel_availability",
    (
        Field("hotel_id", DataType.STRING, nullable=False),
        Field("rooms_available", DataType.INTEGER),
        Field("reserve_rooms", DataType.INTEGER),
        Field("corporate_rate", DataType.FLOAT),
    ),
)


@dataclass
class HotelMarket:
    """All chains' reservation systems, mutable in place."""

    hotels: list[dict] = field(default_factory=list)
    chains: list[str] = field(default_factory=list)
    updates_applied: int = 0
    # Catalogs whose copy of this market must hear about writes (so their
    # semantic caches invalidate stale availability regions).
    _catalogs: list = field(default_factory=list, repr=False)

    # -- views over the mutable state -----------------------------------------

    def static_rows(self) -> list[dict]:
        return [
            {
                "hotel_id": h["hotel_id"],
                "chain": h["chain"],
                "name": h["name"],
                "miles_to_airport": h["miles_to_airport"],
                "has_health_club": h["has_health_club"],
            }
            for h in self.hotels
        ]

    def availability_rows(self, chain: str | None = None) -> list[dict]:
        return _availability(
            h for h in self.hotels if chain is None or h["chain"] == chain
        )

    def static_table(self) -> Table:
        return Table.from_dicts(STATIC_SCHEMA, self.static_rows())

    # -- the traveler's ground truth -----------------------------------------------

    def matching_hotels(
        self, max_miles: float = 10.0, max_rate: float = 200.0, need_club: bool = True
    ) -> set[str]:
        """Hotel ids currently satisfying the paper's traveler query."""
        return {
            h["hotel_id"]
            for h in self.hotels
            if h["miles_to_airport"] <= max_miles
            and h["corporate_rate"] <= max_rate
            and (h["has_health_club"] or not need_club)
            and h["rooms_available"] > 0
        }

    # -- volatility ---------------------------------------------------------------------

    def apply_random_update(self, rng: random.Random) -> None:
        """One booking / cancellation / rate move at a random hotel; the
        registered catalogs hear that its chain's fragment was written."""
        hotel = rng.choice(self.hotels)
        roll = rng.random()
        if roll < 0.5:  # booking
            if hotel["rooms_available"] > 0:
                hotel["rooms_available"] -= 1
        elif roll < 0.8:  # cancellation / release
            hotel["rooms_available"] += 1
        else:  # yield-management rate move
            factor = rng.uniform(0.85, 1.25)
            hotel["corporate_rate"] = round(hotel["corporate_rate"] * factor, 2)
        self.updates_applied += 1
        # Availability is the volatile table (C5): every booking is a base
        # update of one chain's fragment, whose stored parts go stale.
        fragment = chain_fragment(self.chains.index(hotel["chain"]))
        for catalog in self._catalogs:
            catalog.notify_table_updated("hotel_availability", fragment)

    def schedule_volatility(
        self, loop: EventLoop, rng: random.Random, mean_interval: float
    ) -> None:
        """Exponentially spaced updates forever (until the loop stops)."""

        def update_and_reschedule() -> None:
            self.apply_random_update(rng)
            loop.schedule_after(
                rng.expovariate(1.0 / mean_interval),
                update_and_reschedule,
                "hotel-update",
            )

        loop.schedule_after(
            rng.expovariate(1.0 / mean_interval), update_and_reschedule, "hotel-update"
        )

    # -- federation wiring ------------------------------------------------------------------

    def register_sources(
        self,
        catalog: FederationCatalog,
        chain_sites: dict[str, str],
        fetch_cost: float = 0.1,
    ) -> None:
        """One live availability fragment per chain + the static table.

        ``chain_sites`` maps each chain to the site simulating its
        reservation system.  Static data lands replicated on the first two
        sites (it is cheap and slow-changing).  The catalog is remembered
        so market writes raise its base-table update notifications.

        Each chain's reservation system reads its own hotels (the market's
        dicts, in market order) and no other chain's; the hotels a chain
        has are fixed here, as its fragment's row estimate is.
        """
        self._catalogs.append(catalog)
        catalog.create_table("hotel_availability", AVAILABILITY_SCHEMA)
        by_chain: dict[str, list[dict]] = {chain: [] for chain in self.chains}
        for hotel in self.hotels:
            by_chain[hotel["chain"]].append(hotel)
        for i, chain in enumerate(self.chains):
            site_name = chain_sites[chain]
            hotels = by_chain[chain]
            rows = len(hotels)
            fragment = catalog.add_fragment("hotel_availability", chain_fragment(i), rows)
            source = LiveSource(
                f"availability@{chain}",
                AVAILABILITY_SCHEMA,
                lambda hotels=hotels: _availability(hotels),
                cost_seconds=fetch_cost,
                estimated_rows=rows,
            )
            catalog.place_replica(fragment, site_name, source)

        static_sites = sorted(set(chain_sites.values()))[:2]
        catalog.load_fragmented(
            self.static_table(), 1, [static_sites], scan_cost_seconds=0.01
        )


def chain_fragment(index: int) -> str:
    """The availability fragment id of the ``index``-th chain."""
    return f"chain-{index}"


def _availability(hotels: Iterable[dict]) -> list[dict]:
    """The volatile columns of ``hotels``, one row each, in order."""
    return [
        {
            "hotel_id": h["hotel_id"],
            "rooms_available": h["rooms_available"],
            "reserve_rooms": h["reserve_rooms"],
            "corporate_rate": h["corporate_rate"],
        }
        for h in hotels
    ]


def generate_hotels(
    seed: int = 0,
    chain_count: int = 50,
    hotels_per_chain: int = 4,
) -> HotelMarket:
    """Build the deterministic hotel market for ``seed``."""
    rng = random.Random(seed)
    market = HotelMarket()
    for c in range(chain_count):
        chain = f"chain-{c:02d}"
        market.chains.append(chain)
        for h in range(hotels_per_chain):
            market.hotels.append(
                {
                    "hotel_id": f"{chain}-h{h}",
                    "chain": chain,
                    "name": f"{chain.title()} Hotel #{h}",
                    "miles_to_airport": round(rng.uniform(0.5, 30.0), 1),
                    "has_health_club": rng.random() < 0.6,
                    "rooms_available": rng.randrange(0, 25),
                    "reserve_rooms": rng.randrange(0, 4),
                    "corporate_rate": round(rng.uniform(80.0, 320.0), 2),
                }
            )
    return market
