"""A DB-API 2.0 (PEP 249) style interface to the federated engine.

§4: "Cohera Connect can present a traditional ODBC or JDBC interface to
query applications."  Python's equivalent of ODBC is the DB-API, so the
reproduction speaks it: :func:`connect` returns a :class:`Connection` whose
cursors execute federated SQL with qmark (``?``) parameter binding and
expose ``description`` / ``rowcount`` / ``fetchone`` / ``fetchmany`` /
``fetchall`` exactly the way a driver would.  Any DB-API-shaped tool can
sit on top of the federation unchanged.

Multi-tenant deployments connect *through the workload manager*:
``connect(engine, workload=manager, tenant="partner-a", priority=2)``
routes every statement through admission control and the scheduler (the
driver drives the event loop until the query resolves, so ``execute`` stays
synchronous), and ``cursor.last_report.queue_wait_seconds`` shows what the
statement paid in queueing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.core.errors import BindError, QueryError
from repro.core.records import Table
from repro.federation.engine import FederatedEngine
from repro.federation.gateway import PlanCache
from repro.federation.physical import ExecutionReport, PhysicalPlan
from repro.sql.sqltext import render_literal

if TYPE_CHECKING:  # imported lazily to avoid a module cycle at runtime
    from repro.federation.workload import WorkloadManager

apilevel = "2.0"
threadsafety = 1
paramstyle = "qmark"


class InterfaceError(QueryError):
    """Misuse of the DB-API surface (closed cursor, bad parameters...)."""


def _check_bindable(parameters: Sequence[Any]) -> tuple:
    """The parameter values, each checked against the binder's one rule.

    A value :func:`~repro.sql.sqltext.render_literal` cannot spell has no
    SQL-level meaning, so it is refused here, whichever grammar position
    its ``?`` sits in.
    """
    values = tuple(parameters)
    try:
        for value in values:
            render_literal(value)
    except ValueError as error:
        raise InterfaceError(str(error)) from error
    return values


class Cursor:
    """One statement-at-a-time cursor over the federation."""

    arraysize = 1

    def __init__(self, connection: "Connection") -> None:
        self._connection = connection
        self._result: Table | None = None
        self._position = 0
        self._closed = False
        # Accounting for the last executed statement, mirroring what
        # FederatedEngine.query returns (driver users get the same numbers).
        self.last_plan: PhysicalPlan | None = None
        self.last_report: ExecutionReport | None = None

    # -- DB-API attributes ------------------------------------------------------

    @property
    def description(self) -> "list[tuple] | None":
        """Seven-item column descriptors (name, type_code, then Nones)."""
        if self._result is None:
            return None
        return [
            (f.name, f.dtype.value, None, None, None, None, f.nullable)
            for f in self._result.schema.fields
        ]

    @property
    def rowcount(self) -> int:
        return -1 if self._result is None else len(self._result)

    # -- execution -----------------------------------------------------------------

    def execute(self, sql: str, parameters: Sequence[Any] = ()) -> "Cursor":
        """Run one statement, with qmark parameters bound.

        Statements route through the connection's prepared-statement plan
        cache: the first execution of a SQL shape pays parse + rewrite +
        optimize, repeats bind values into the cached template.  A value
        that does not fit its placeholder (``LIKE ?`` with a number,
        ``LIMIT ?`` with ``-1``) is an :class:`InterfaceError`.
        """
        self._check_open()
        connection = self._connection
        values = _check_bindable(parameters)
        prepared = connection._plan_cache.get_or_prepare(
            sql, connection.max_staleness, tenant=connection.tenant
        )
        if len(values) != prepared.param_count:
            raise InterfaceError(
                f"statement takes {prepared.param_count} parameter(s), "
                f"got {len(values)}"
            )
        try:
            if connection.workload is not None:
                # Tenanted execution: the statement goes through admission
                # control and the scheduler, and the driver runs the event
                # loop until it resolves -- DB-API callers stay synchronous
                # while the federation underneath runs a concurrent workload.
                handle = connection.workload.submit(
                    tenant=connection.tenant,
                    priority=connection.priority,
                    degraded_ok=connection.degraded_ok,
                    prepared=prepared,
                    params=values,
                )
                connection.workload.drain(handle)
                result = handle.result()
            else:
                result = connection.engine.execute(
                    prepared, values, degraded_ok=connection.degraded_ok
                )
        except BindError as error:
            raise InterfaceError(str(error)) from error
        self._install_result(result)
        return self

    def _install_result(self, result) -> None:
        self._result = result.table
        self.last_plan = result.plan
        self.last_report = result.report
        self._position = 0

    def executemany(self, sql: str, seq_of_parameters) -> "Cursor":
        executed = False
        for parameters in seq_of_parameters:
            self.execute(sql, parameters)
            executed = True
        if not executed:
            # PEP 249 leaves this unspecified, but retaining the *previous*
            # statement's rows would let a caller fetch stale results from
            # a statement that never ran -- reset instead.
            self._check_open()
            self._result = None
            self._position = 0
            self.last_plan = None
            self.last_report = None
        return self

    # -- fetching ---------------------------------------------------------------------

    def fetchone(self) -> "tuple | None":
        rows = self._rows()
        if self._position >= len(rows):
            return None
        row = rows[self._position]
        self._position += 1
        return row

    def fetchmany(self, size: int | None = None) -> list[tuple]:
        rows = self._rows()
        count = size if size is not None else self.arraysize
        chunk = rows[self._position:self._position + count]
        self._position += len(chunk)
        return list(chunk)

    def fetchall(self) -> list[tuple]:
        rows = self._rows()
        remaining = list(rows[self._position:])
        self._position = len(rows)
        return remaining

    def __iter__(self) -> Iterator[tuple]:
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    # -- lifecycle ----------------------------------------------------------------------

    def close(self) -> None:
        self._closed = True
        self._result = None
        self.last_plan = None
        self.last_report = None

    def _check_open(self) -> None:
        if self._closed or self._connection.closed:
            raise InterfaceError("cursor or connection is closed")

    def _rows(self) -> list[tuple]:
        self._check_open()
        if self._result is None:
            raise InterfaceError("no statement has been executed")
        return self._result.rows


class Connection:
    """A DB-API connection wrapping one federated engine.

    With a ``workload`` manager attached, every statement is submitted under
    this connection's ``tenant`` and ``priority`` instead of running on the
    engine directly.
    """

    def __init__(
        self,
        engine: FederatedEngine,
        max_staleness: float | None = None,
        workload: "WorkloadManager | None" = None,
        tenant: str = "default",
        priority: float = 0.0,
        degraded_ok: bool = False,
    ) -> None:
        self.engine = engine
        self.max_staleness = max_staleness
        self.workload = workload
        self.tenant = tenant
        self.priority = priority
        self.degraded_ok = degraded_ok
        self.closed = False
        # Per-connection prepared-statement cache (parse + plan once per
        # SQL shape; see repro.federation.gateway.PlanCache).
        self._plan_cache = PlanCache(engine, metrics=engine.metrics)

    def cursor(self) -> Cursor:
        if self.closed:
            raise InterfaceError("connection is closed")
        return Cursor(self)

    def close(self) -> None:
        self.closed = True

    def commit(self) -> None:
        """No-op: the federation is read-only; provided for API shape."""

    def rollback(self) -> None:
        """No-op: the federation is read-only; provided for API shape."""

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def connect(
    engine: FederatedEngine,
    max_staleness: float | None = None,
    workload: "WorkloadManager | None" = None,
    tenant: str | None = None,
    priority: float = 0.0,
    degraded_ok: bool = False,
) -> Connection:
    """Open a DB-API connection over a federated engine.

    Pass ``workload=`` (a :class:`~repro.federation.workload.WorkloadManager`)
    to route statements through admission control and scheduling;
    ``tenant``/``priority`` identify this connection's population in that
    queue and require a workload manager.  ``degraded_ok=True`` accepts
    partial answers when content is unreachable after failover (the
    report's ``completeness`` says how partial), on both the direct and
    the tenanted path.
    """
    if workload is None and (tenant is not None or priority != 0.0):
        raise InterfaceError(
            "tenant/priority need a workload manager: "
            "connect(engine, workload=manager, tenant=...)"
        )
    return Connection(
        engine,
        max_staleness,
        workload=workload,
        tenant=tenant if tenant is not None else "default",
        priority=priority,
        degraded_ok=degraded_ok,
    )
