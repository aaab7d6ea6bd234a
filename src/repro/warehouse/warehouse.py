"""The warehouse store and its refresh machinery.

A :class:`Warehouse` owns a set of :class:`~repro.warehouse.etl.EtlJob`
objects and a single "warehouse site".  Each refresh re-runs every job and
replaces the stored snapshot; queries are answered *only* from snapshots
(fetch-in-advance, always), and each answer carries the snapshot's
staleness so experiments can score it against live ground truth.

SQL support comes from embedding a one-site federated engine -- same
parser, same executor as the federation, so benchmark comparisons isolate
the fetch policy rather than implementation differences.
"""

from __future__ import annotations

from repro.connect.source import StaticSource
from repro.core.errors import QueryError
from repro.core.records import Table
from repro.federation.catalog import FederationCatalog
from repro.federation.engine import FederatedEngine, QueryResult
from repro.sim.clock import SimClock
from repro.sim.events import EventLoop
from repro.sql.parser import parse_sql
from repro.warehouse.etl import EtlJob


class Warehouse:
    """Batch-refreshed store answering SQL from its latest snapshots."""

    def __init__(self, clock: SimClock, site_name: str = "warehouse") -> None:
        self.clock = clock
        self.site_name = site_name
        self.catalog = FederationCatalog(clock)
        self.catalog.make_site(site_name)
        self.engine = FederatedEngine(self.catalog)
        self.jobs: list[EtlJob] = []
        self.loaded_at: dict[str, float] = {}
        self.refresh_count = 0
        self.refresh_seconds_total = 0.0

    # -- definition ----------------------------------------------------------

    def add_job(self, job: EtlJob) -> EtlJob:
        if any(j.target_table == job.target_table for j in self.jobs):
            raise QueryError(
                f"warehouse already has a job loading {job.target_table!r}"
            )
        self.jobs.append(job)
        return job

    # -- refresh -----------------------------------------------------------------

    def refresh(self) -> float:
        """Run every ETL job and load the results; returns total cost seconds.

        The paper's criticism is cost-side: a full refresh re-extracts every
        source, so its cost scales with total content size regardless of
        how little changed.
        """
        now = self.clock.now()
        total_cost = 0.0
        for job in self.jobs:
            run = job.run(now)
            self._load(run.table, now)
            total_cost += run.extract_seconds
        self.refresh_count += 1
        self.refresh_seconds_total += total_cost
        return total_cost

    def schedule_refresh(self, loop: EventLoop, interval: float) -> None:
        """Refresh every ``interval`` seconds (the warehouse's only knob)."""
        if interval <= 0:
            raise QueryError(f"refresh interval must be positive, got {interval!r}")
        loop.schedule_every(interval, self.refresh, name="warehouse-refresh")

    def _load(self, table: Table, now: float) -> None:
        name = table.schema.name
        source = StaticSource(f"{name}@warehouse", table, cost_seconds=0.005)
        if name in self.catalog.tables:
            fragment = self.catalog.entry(name).fragments[0]
            self.catalog.site(self.site_name).host(source, fragment.replicas[self.site_name])
            fragment.estimated_rows = len(table)
        else:
            entry = self.catalog.create_table(name, table.schema)
            fragment = self.catalog.add_fragment(name, "f0", len(table))
            self.catalog.place_replica(fragment, self.site_name, source)
        self.loaded_at[name] = now

    # -- querying ------------------------------------------------------------------

    def staleness(self, table_name: str) -> float:
        """Seconds since ``table_name`` was last loaded (inf if never)."""
        if table_name not in self.loaded_at:
            return float("inf")
        return self.clock.now() - self.loaded_at[table_name]

    def query(self, sql: str) -> QueryResult:
        """Answer SQL from snapshots; the report carries their staleness."""
        statement = parse_sql(sql)
        referenced = {statement.table.name} | {j.table.name for j in statement.joins}
        result = self.engine.query(sql)
        result.report.staleness_seconds = max(
            (self.staleness(name) for name in referenced), default=float("inf")
        )
        return result
