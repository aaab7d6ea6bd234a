"""The federation catalog: tables, fragments, replicas, indexes, views.

This is the metadata the optimizers plan against: which global tables
exist, how each is horizontally fragmented, which sites hold replicas of
each fragment (Characteristic 8's "table fragments, materialized views and
replicas"), which materialized views offer alternative access paths, and
which text indexes serve ranked search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.connect.source import ContentSource, StaticSource
from repro.core.errors import QueryError
from repro.core.records import Table
from repro.core.schema import Schema
from repro.federation.network import Network
from repro.federation.site import Site
from repro.federation.stats import ZoneMap
from repro.federation.views import MaterializedView
from repro.ir.inverted_index import InvertedIndex
from repro.sim.clock import SimClock


@dataclass
class Fragment:
    """One horizontal fragment of a global table."""

    fragment_id: str
    table_name: str
    estimated_rows: int
    # site name -> the source name registered on that site for this replica
    replicas: dict[str, str] = field(default_factory=dict)
    # Per-column min/max/null/distinct statistics collected at load or
    # repartition time; ``None`` means unknown (external source, or dropped
    # by a base-table update) and disables partition elimination for this
    # fragment -- pruning must stay sound under stale statistics.
    zone_map: ZoneMap | None = None
    # Content epoch: moves whenever this fragment's rows may have changed
    # (a notified write, a replica placed or dropped).  Stored answers tag
    # each fragment's share with the epoch it was read at (a
    # ``repro.federation.parts.Part``) and serve it only while the two match.
    epoch: int = 0

    def replica_sites(self) -> list[str]:
        return sorted(self.replicas)


@dataclass
class TableEntry:
    """Catalog metadata for one global table."""

    name: str
    schema: Schema
    fragments: list[Fragment] = field(default_factory=list)
    text_index: InvertedIndex | None = None

    def estimated_rows(self) -> int:
        return sum(f.estimated_rows for f in self.fragments)


class FederationCatalog:
    """Sites + tables + placement + views: everything the planner needs."""

    def __init__(self, clock: SimClock | None = None, network: Network | None = None) -> None:
        self.clock = clock or SimClock()
        self.network = network or Network()
        self.sites: dict[str, Site] = {}
        self.tables: dict[str, TableEntry] = {}
        self.views: dict[str, MaterializedView] = {}
        # Monotonic counter over planning-relevant metadata: new tables or
        # views and fragment/replica changes bump it.  Prepared statements
        # stamp the version they planned against and replan when it moves
        # (gateway plan-cache invalidation).  Content writes move fragment
        # epochs instead: a plan names its stored copies and holds no rows.
        self.version = 0
        # Base-table update listeners (semantic caches, view schedulers...).
        self._update_listeners: list = []

    # -- base-table update notifications -------------------------------------

    def on_table_updated(self, callback) -> None:
        """Subscribe ``callback(table_name)`` to base-table update events.

        Sources that mutate a table's content (workload writers, ETL jobs,
        repartitioning) call :meth:`notify_table_updated`; anything holding
        derived answers -- the engine's semantic cache above all -- listens
        here so staleness is bounded by invalidation, not only by age.
        """
        self._update_listeners.append(callback)

    def notify_table_updated(
        self, table_name: str, fragment: str | None = None
    ) -> None:
        """Tell listeners that ``table_name``'s base content changed: the
        fragment whose id is ``fragment``, or every fragment (``None``).

        Each written fragment's epoch moves, so stored parts read from it
        stop being current, and its zone map is dropped: statistics
        describe content, and pruning without them scans the fragment,
        which is always sound.  The catalog version does not move: a
        prepared plan holds no stored rows, only names its copies resolve
        at execution, and re-prepares only when a fragment its zone maps
        pruned was written.
        """
        entry = self.tables.get(table_name)
        written = [] if entry is None else [
            each
            for each in entry.fragments
            if fragment is None or each.fragment_id == fragment
        ]
        if fragment is not None and not written:
            raise QueryError(f"unknown fragment {fragment!r} of {table_name!r}")
        for each in written:
            each.epoch += 1
            each.zone_map = None
        for callback in list(self._update_listeners):
            callback(table_name)

    # -- sites -----------------------------------------------------------------

    def add_site(self, site: Site) -> Site:
        if site.name in self.sites:
            raise QueryError(f"site {site.name!r} already registered")
        self.sites[site.name] = site
        return site

    def make_site(self, name: str, **kwargs) -> Site:
        """Create-and-register convenience (shares the catalog clock)."""
        return self.add_site(Site(name, self.clock, **kwargs))

    def site(self, name: str) -> Site:
        if name not in self.sites:
            raise QueryError(f"unknown site {name!r}")
        return self.sites[name]

    def up_sites(self) -> list[Site]:
        return [s for s in self.sites.values() if s.up]

    # -- tables & fragments -----------------------------------------------------

    def create_table(self, name: str, schema: Schema) -> TableEntry:
        if name in self.tables or name in self.views:
            raise QueryError(f"table or view {name!r} already exists")
        entry = TableEntry(name, schema)
        self.tables[name] = entry
        self.version += 1
        return entry

    def entry(self, name: str) -> TableEntry:
        if name not in self.tables:
            raise QueryError(f"unknown table {name!r}")
        return self.tables[name]

    def add_fragment(self, table_name: str, fragment_id: str, estimated_rows: int) -> Fragment:
        entry = self.entry(table_name)
        if any(f.fragment_id == fragment_id for f in entry.fragments):
            raise QueryError(f"fragment {fragment_id!r} already exists on {table_name!r}")
        fragment = Fragment(fragment_id, table_name, estimated_rows)
        entry.fragments.append(fragment)
        self.version += 1
        return fragment

    def place_replica(self, fragment: Fragment, site_name: str, source: ContentSource) -> None:
        """Host ``source`` at a site as one replica of ``fragment``."""
        site = self.site(site_name)
        local_name = f"{fragment.table_name}/{fragment.fragment_id}"
        site.host(source, local_name)
        fragment.replicas[site_name] = local_name
        fragment.epoch += 1
        self.version += 1

    def drop_replica(self, fragment: Fragment, site_name: str) -> None:
        local_name = fragment.replicas.pop(site_name, None)
        if local_name is not None and site_name in self.sites:
            self.sites[site_name].unhost(local_name)
        fragment.epoch += 1
        self.version += 1

    # -- bulk loading helpers -----------------------------------------------------

    @staticmethod
    def _deal_rows(rows: Sequence[tuple], fragment_count: int) -> list[list[tuple]]:
        """Round-robin dealing (a deterministic stand-in for hashing)."""
        buckets: list[list[tuple]] = [[] for _ in range(fragment_count)]
        for i, row in enumerate(rows):
            buckets[i % fragment_count].append(row)
        return buckets

    @staticmethod
    def _range_buckets(
        schema: Schema, rows: Sequence[tuple], column: str, fragment_count: int
    ) -> list[list[tuple]]:
        """Contiguous value-ordered chunks: range partitioning on ``column``.

        Rows are sorted by the partition column (nulls first) and split into
        near-equal chunks, so each fragment covers a disjoint value range --
        the layout that makes zone-map pruning bite on range predicates.
        """
        index = schema.index_of(column)
        ordered = sorted(
            rows, key=lambda row: (row[index] is not None, row[index])
        )
        size, remainder = divmod(len(ordered), fragment_count)
        buckets: list[list[tuple]] = []
        start = 0
        for i in range(fragment_count):
            stop = start + size + (1 if i < remainder else 0)
            buckets.append(list(ordered[start:stop]))
            start = stop
        return buckets

    def _place_buckets(
        self,
        entry: TableEntry,
        buckets: list[list[tuple]],
        placement: Sequence[Sequence[str]],
        scan_cost_seconds: float,
    ) -> list[tuple[Fragment, Table]]:
        """Create one fragment (with zone map) per bucket and host replicas."""
        placed: list[tuple[Fragment, Table]] = []
        for i, rows in enumerate(buckets):
            fragment = self.add_fragment(entry.name, f"f{i}", len(rows))
            fragment_table = Table(entry.schema, rows, validate=False)
            fragment.zone_map = ZoneMap.from_table(fragment_table)
            for site_name in placement[i]:
                self.place_replica(
                    fragment,
                    site_name,
                    StaticSource(
                        f"{entry.name}.f{i}@{site_name}",
                        fragment_table,
                        cost_seconds=scan_cost_seconds,
                    ),
                )
            placed.append((fragment, fragment_table))
        return placed

    def load_fragmented(
        self,
        table: Table,
        fragment_count: int,
        placement: Sequence[Sequence[str]],
        scan_cost_seconds: float = 0.01,
    ) -> TableEntry:
        """Create a table from data, hash-fragmented with explicit placement.

        ``placement[i]`` lists the sites holding replicas of fragment ``i``.
        Rows are dealt round-robin (a stand-in for hash partitioning that
        keeps fragments balanced and deterministic).  Each fragment's zone
        map is collected from its rows as it is placed.
        """
        if fragment_count < 1:
            raise QueryError("need at least one fragment")
        if len(placement) != fragment_count:
            raise QueryError(
                f"placement has {len(placement)} entries for {fragment_count} fragments"
            )
        entry = self.create_table(table.schema.name, table.schema)
        self._place_buckets(
            entry,
            self._deal_rows(table.rows, fragment_count),
            placement,
            scan_cost_seconds,
        )
        return entry

    def load_range_partitioned(
        self,
        table: Table,
        column: str,
        fragment_count: int,
        placement: Sequence[Sequence[str]],
        scan_cost_seconds: float = 0.01,
    ) -> TableEntry:
        """Create a table range-partitioned on ``column``.

        Each fragment holds a contiguous slice of the column's value order,
        so its zone map covers a narrow ``[min, max]`` interval and
        selective range queries eliminate most fragments outright.
        """
        if fragment_count < 1:
            raise QueryError("need at least one fragment")
        if len(placement) != fragment_count:
            raise QueryError(
                f"placement has {len(placement)} entries for {fragment_count} fragments"
            )
        entry = self.create_table(table.schema.name, table.schema)
        self._place_buckets(
            entry,
            self._range_buckets(table.schema, table.rows, column, fragment_count),
            placement,
            scan_cost_seconds,
        )
        return entry

    def repartition(
        self,
        table_name: str,
        fragment_count: int,
        placement: Sequence[Sequence[str]],
        scan_cost_seconds: float = 0.01,
        partition_column: str | None = None,
    ) -> TableEntry:
        """Re-deal a fragmented table over a new placement, online.

        §3.2 C8: "if additional scalability is required, the data can be
        repartitioned over more machines, and the transactions dispersed
        more widely."  Rows are gathered from one live replica of each
        current fragment, the old replicas dropped, and the table re-dealt
        over the new placement -- round-robin by default, or as contiguous
        value ranges when ``partition_column`` is given.  The catalog entry
        object is preserved, so queries planned against the table keep
        working, and fresh zone maps are collected from the re-dealt rows.
        """
        if len(placement) != fragment_count:
            raise QueryError(
                f"placement has {len(placement)} entries for {fragment_count} fragments"
            )
        entry = self.entry(table_name)
        if not entry.fragments:
            raise QueryError(f"table {table_name!r} has no fragments to repartition")

        # Gather current rows from one live replica per fragment.
        rows: list[tuple] = []
        for fragment in entry.fragments:
            live = [s for s in fragment.replica_sites() if self.site(s).up]
            if not live:
                raise QueryError(
                    f"fragment {fragment.fragment_id!r} of {table_name!r} has "
                    "no live replica to gather from"
                )
            source = self.site(live[0]).source(fragment.replicas[live[0]])
            rows.extend(source.fetch().table.rows)

        for fragment in list(entry.fragments):
            for site_name in fragment.replica_sites():
                self.drop_replica(fragment, site_name)
        entry.fragments.clear()

        if partition_column is not None:
            buckets = self._range_buckets(
                entry.schema, rows, partition_column, fragment_count
            )
        else:
            buckets = self._deal_rows(rows, fragment_count)
        placed = self._place_buckets(entry, buckets, placement, scan_cost_seconds)
        # Repartitioning re-deals the same rows, but cached answers keyed by
        # the old fragmentation cannot be trusted to stay coherent with
        # concurrent writers -- treat it as an update.
        self.notify_table_updated(table_name)
        # The update notification dropped every zone map for this table;
        # re-stamp them from the rows just dealt, which *are* the current
        # content (statistics collected at repartition time, per the spec).
        for fragment, fragment_table in placed:
            fragment.zone_map = ZoneMap.from_table(fragment_table)
        return entry

    # -- text indexes ----------------------------------------------------------------

    def build_text_index(self, table_name: str, column: str, data: Table, key_column: str) -> InvertedIndex:
        """Index ``column`` of ``data`` keyed by ``key_column`` values.

        The index serves ranked :meth:`FederatedEngine.search` (synonyms,
        fuzzy expansion, scores); SQL ``match`` is a row predicate and
        never reads it.
        """
        entry = self.entry(table_name)
        index = InvertedIndex()
        key_values = data.column(key_column)
        text_values = data.column(column)
        for key, text in zip(key_values, text_values):
            index.add(key, text or "")
        entry.text_index = index
        return index

    # -- views --------------------------------------------------------------------------

    def register_view(self, view: MaterializedView) -> MaterializedView:
        if view.name in self.views or view.name in self.tables:
            raise QueryError(f"table or view {view.name!r} already exists")
        self.views[view.name] = view
        self.version += 1
        return view

    def direct_view(self, name: str) -> MaterializedView | None:
        """The materialized view queried by its own name, verified live.

        Returns ``None`` when no filled view of that name exists.  Raises
        :class:`QueryError` when the view exists but its host site is down:
        a view has exactly one host, so there is no replica to fail over to
        and planning a scan against the dead site would only fail later,
        at execution time.  Every optimizer resolves direct view scans
        through this one guard.
        """
        view = self.views.get(name)
        if view is None or view.data is None:
            return None
        if not self.site(view.site_name).up:
            raise QueryError(
                f"view {name!r} is hosted on site {view.site_name!r}, "
                "which is down"
            )
        return view

    def view_for_table(
        self, table_name: str, max_staleness: float | None
    ) -> list[MaterializedView]:
        """Filled whole-table views fresh enough for ``max_staleness``, in
        registration order.  Host liveness is the caller's question
        (:meth:`repro.federation.access.AccessPaths.live_view`)."""
        now = self.clock.now()
        return [
            view
            for view in self.views.values()
            if view.base_table == table_name and view.is_fresh(max_staleness, now)
        ]

    # -- planner support -------------------------------------------------------------------

    def estimated_rows(self, name: str) -> int:
        """A table's row estimate, its fragments' summed, or a view's row
        count (0 while unfilled): the sides the eager aggregation rule
        (:class:`repro.sql.rewrite.AggregateSplitting`) compares."""
        entry = self.tables.get(name)
        if entry is not None:
            return entry.estimated_rows()
        view = self.views.get(name)
        return 0 if view is None or view.data is None else len(view.data)

    def binding_fields(self, bindings: dict[str, str]) -> dict[str, set[str]]:
        """Map query bindings (alias -> table name) to their field-name sets."""
        fields: dict[str, set[str]] = {}
        for binding, table_name in bindings.items():
            if table_name in self.tables:
                fields[binding] = set(self.tables[table_name].schema.field_names)
            elif table_name in self.views:
                fields[binding] = set(self.views[table_name].schema.field_names)
            else:
                raise QueryError(f"unknown table {table_name!r} in query")
        return fields
