"""A DB-API 2.0 (PEP 249) face over one pooled gateway session: §4's
"traditional ODBC or JDBC interface to query applications".  A cursor holds
its statement's whole result, so ``fetchmany`` is the one way to page it."""

from __future__ import annotations

from contextlib import AbstractContextManager
from typing import Any, Iterator, Sequence

from repro.core.errors import BindError, QueryError
from repro.federation.gateway import Gateway, GatewaySession
from repro.sql.sqltext import render_literal

apilevel, threadsafety, paramstyle = "2.0", 1, "qmark"


class InterfaceError(QueryError):
    """Misuse of the DB-API surface (closed cursor, bad parameters...)."""


def _check_bindable(parameters: Sequence[Any]) -> tuple:
    """The values; one with no SQL literal form is refused at any ``?``."""
    values = tuple(parameters)
    try:
        for value in values:
            render_literal(value)
    except ValueError as error:
        raise InterfaceError(str(error)) from error
    return values


class Cursor:
    """Runs one statement at a time on its connection's gateway session."""

    arraysize = 1
    _result, _position, _closed = None, 0, False  # the last QueryResult, next row
    last_plan = property(lambda self: getattr(self._result, "plan", None))
    last_report = property(lambda self: getattr(self._result, "report", None))
    rowcount = property(lambda self: len(self._result.table) if self._result else -1)

    def __init__(self, connection: "Connection") -> None:
        self._connection = connection
        self._check_open()

    @property
    def description(self) -> "list[tuple] | None":
        return None if self._result is None else [
            (f.name, f.dtype.value, None, None, None, None, f.nullable)
            for f in self._result.table.schema.fields]

    def execute(self, sql: str, parameters: Sequence[Any] = ()) -> "Cursor":
        """Values that do not bind (``LIMIT ?`` with -1) are InterfaceError."""
        self._check_open()
        values = _check_bindable(parameters)
        try:
            self._result = self._connection._session.execute(sql, values).result
        except BindError as error:
            raise InterfaceError(str(error)) from error
        self._position = 0
        return self

    def executemany(self, sql: str, seq_of_parameters) -> "Cursor":
        self._check_open()
        self._result = None  # an empty sequence leaves nothing to fetch
        for parameters in seq_of_parameters:
            self.execute(sql, parameters)
        return self

    def fetchone(self) -> "tuple | None":
        return next(iter(self.fetchmany(1)), None)

    def fetchmany(self, size: int | None = None) -> list[tuple]:
        self._check_open()
        if self._result is None:
            raise InterfaceError("no statement has been executed")
        rows, start = self._result.table.rows, self._position
        count = self.arraysize if size is None else max(size, 0)
        self._position = min(start + count, len(rows))
        return rows[start:self._position]

    def fetchall(self) -> list[tuple]:
        return self.fetchmany(self.rowcount)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.fetchone, None)

    def close(self) -> None:
        self._closed, self._result = True, None

    def _check_open(self) -> None:
        if self._closed or self._connection.closed:
            raise InterfaceError("cursor or connection is closed")


class Connection(AbstractContextManager):
    """Holds one gateway session; ``close`` returns it to the pool."""

    def __init__(self, session: GatewaySession) -> None:
        self._session, self.closed = session, False

    def cursor(self) -> Cursor:
        return Cursor(self)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._session.close()

    def commit(self) -> None:
        """No-op, as is ``rollback``: the federation is read-only."""

    rollback = commit

    def __exit__(self, *exc_info) -> None:
        self.close()


def connect(gateway: Gateway, tenant="default", degraded_ok=False) -> Connection:
    """A connection on a session checked out of ``gateway``'s pool."""
    return Connection(gateway.connect(tenant, degraded_ok))
