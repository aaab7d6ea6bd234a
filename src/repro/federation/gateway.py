"""The query gateway: the federation's client-facing front door.

The paper's deployment story (§4) puts a portal in front of the
integrator -- "Cohera Connect can present a traditional ODBC or JDBC
interface to query applications" -- serving many trading partners at
once.  This module is that serving layer, sitting in front of the
:class:`~repro.federation.workload.WorkloadManager`:

* **Session pooling.**  :meth:`Gateway.connect` checks a
  :class:`GatewaySession` out of a per-tenant free list instead of
  building connection state per request; :meth:`GatewaySession.close`
  returns it.  ``gateway.sessions.active`` / ``.pooled`` gauges and
  ``.opened`` / ``.reused`` counters make pool behaviour observable.
* **Prepared-statement plan cache.**  Statements are keyed by their
  *normalized* SQL text (the lexer's tokens: keyword case, spacing and
  comments folded, identifiers and literals as written) plus the staleness
  bound, and the parse + rewrite + optimize work happens once per key:
  :meth:`~repro.federation.engine.FederatedEngine.prepare` builds an
  immutable parameterizable template, every later execution binds values
  into a copy (``gateway.plan_cache.hits``/``misses``).  Stale templates
  are *not* served: the engine revalidates each one against the catalog
  version, its views' staleness bound and the epochs of the fragments its
  zone maps pruned at execution time, so a repartition transparently
  replans rather than answer from a dead topology.  A base-table update
  replans nothing else: the template names its cache regions and
  artifacts, and each execution resolves them against current content.

Clients that want a PEP 249 cursor (and ``fetchmany`` paging) connect
through :mod:`repro.federation.dbapi`, which wraps one session.

Everything dispatches through the workload manager, so gateway traffic
is admitted, queued, scheduled and priced exactly like any other load.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.core.errors import BindError, QueryError
from repro.federation.engine import FederatedEngine, PreparedStatement, QueryResult
from repro.federation.workload import QueryHandle, WorkloadManager
from repro.sim.metrics import MetricsRegistry
from repro.sql.sqltext import (
    key_placeholders,
    normalize_sql,
    render_literal,
    replace_placeholders,
)


class PlanCache:
    """LRU cache of prepared-statement templates, keyed by normalized SQL.

    The key is ``(normalize_sql(sql), max_staleness, coordinator,
    policy_signature)``: two spellings of the same statement -- different
    comments, whitespace, keyword case -- share one template, while options
    that change *what plan is built* key separately: the staleness bound
    shapes access-path choice, a pinned coordinator is baked into the
    template's site assignments (two sessions pinning different
    coordinators must never share one plan), and a *governed* tenant's
    policy signature is baked into the plan itself (RLS predicates and
    masks compile into the template's scans, so two tenants with different
    policies must never share one plan either).  The signature is the
    content hash of the tenant's policy, not the tenant name: ungoverned
    tenants all key on ``None`` and keep sharing (adding governance for
    some tenants costs the rest nothing), tenants with byte-identical
    policies share soundly, and a manifest edit changes the signature so
    the edited tenant's next statement misses to a freshly-governed plan.
    Everything else binds per *execution* and stays out of the key on
    purpose: ``degraded_ok`` and the other answer-policy fields, and the
    tenant's *name* -- whoever executes a shared template is named on its
    report and billed for it.  Entries are never served stale or to the
    wrong policy: validation against the catalog version *and* the asking
    tenant's signature is the engine's (DESIGN §5g), so the cache only
    manages identity and eviction.
    """

    def __init__(
        self,
        engine: FederatedEngine,
        capacity: int = 256,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if capacity < 1:
            raise QueryError(f"plan cache capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.metrics = metrics or engine.metrics
        self._entries: "OrderedDict[tuple[str, float | None, str | None, str | None], PreparedStatement]" = (
            OrderedDict()
        )
        # Statement text as written -> its normalized form, so a text seen
        # before is not tokenized again.  A pure function of the text (never
        # stale); oldest spelling out beyond ``capacity``.
        self._normalized: "OrderedDict[str, str]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get_or_prepare(
        self,
        sql: str,
        max_staleness: float | None = None,
        coordinator: str | None = None,
        tenant: str | None = None,
    ) -> PreparedStatement:
        """The cached template for ``sql``, preparing (and caching) on miss.

        A ``?`` may stand wherever the grammar takes a literal, so every
        statement with placeholders has a template; text that does not
        parse raises the parser's error here, before anything is admitted.
        """
        governance = getattr(self.engine, "governance", None)
        signature = (
            governance.signature_for(tenant) if governance is not None else None
        )
        normalized = self._normalized.get(sql)
        if normalized is None:
            normalized = normalize_sql(sql)
            self._normalized[sql] = normalized
            if len(self._normalized) > self.capacity:
                self._normalized.popitem(last=False)
        key = (normalized, max_staleness, coordinator, signature)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            self.metrics.counter("gateway.plan_cache.hits").inc()
            return entry
        entry = self.engine.prepare(
            sql, max_staleness=max_staleness, coordinator=coordinator,
            tenant=tenant,
        )
        # Counted only once the statement proved preparable: text that does
        # not parse is no miss.
        self.misses += 1
        self.metrics.counter("gateway.plan_cache.misses").inc()
        self._entries[key] = entry
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
            self.metrics.counter("gateway.plan_cache.evictions").inc()
        self.metrics.gauge("gateway.plan_cache.size").set(len(self._entries))
        return entry

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class GatewayResult:
    """What a synchronous gateway execution hands back to the client."""

    result: QueryResult

    @property
    def prepared(self) -> PreparedStatement:
        """The cached template the statement ran on."""
        return self.result.prepared

    @property
    def rows(self) -> list[tuple]:
        return self.result.table.rows


class GatewaySession:
    """One pooled client connection to the gateway.

    Sessions are tenant-scoped: every statement executed on the session is
    admitted under the session's tenant (and degraded-answer policy).  Use
    the session synchronously (:meth:`execute`) or asynchronously
    (:meth:`submit`, resolving handles via the workload manager's event
    loop).
    """

    def __init__(
        self,
        gateway: "Gateway",
        tenant: str,
        degraded_ok: bool,
        coordinator: str | None = None,
    ) -> None:
        self.gateway = gateway
        self.tenant = tenant
        self.degraded_ok = degraded_ok
        self.coordinator = coordinator  # pinned coordinator site, or None
        self.closed = False
        self.statements = 0  # lifetime statements across checkouts

    # -- statement execution ----------------------------------------------

    def submit(
        self,
        sql: str,
        params: "tuple | list" = (),
        priority: float = 0.0,
        deadline: float | None = None,
        max_staleness: float | None = None,
    ) -> QueryHandle:
        """Admit one statement; the handle resolves as the loop runs.

        The statement is prepared through the plan cache -- text that does
        not parse raises here, holding no slot -- and dispatched with
        ``params`` via the workload manager under this session's tenant.
        """
        self._check_open()
        self.statements += 1
        prepared = self.gateway.plan_cache.get_or_prepare(
            sql, max_staleness, self.coordinator, self.tenant
        )
        return self.gateway.workload.submit(
            tenant=self.tenant,
            priority=priority,
            deadline=deadline,
            degraded_ok=self.degraded_ok,
            prepared=prepared,
            params=params,
        )

    def execute(
        self,
        sql: str,
        params: "tuple | list" = (),
        priority: float = 0.0,
        deadline: float | None = None,
        max_staleness: float | None = None,
    ) -> GatewayResult:
        """Submit one statement and drive the loop until it resolves."""
        handle = self.submit(
            sql,
            params,
            priority=priority,
            deadline=deadline,
            max_staleness=max_staleness,
        )
        self.gateway.workload.drain(handle)
        return GatewayResult(handle.result())

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Return this session to the gateway's pool."""
        if not self.closed:
            self.closed = True
            self.gateway._release(self)

    def __enter__(self) -> "GatewaySession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self.closed:
            raise QueryError("session is closed; connect() a fresh one")

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"GatewaySession(tenant={self.tenant!r}, {state})"


def bind_sql_text(sql: str, params: "tuple | list") -> str:
    """Textually substitute ``params`` into the ``?`` tokens of ``sql``:
    the ad-hoc client's binder (no template, no plan cache), which no
    gateway or DB-API statement passes through.

    A ``?`` inside a string or a ``--`` comment is not a token, so it is
    not a placeholder.  An int bound to a ``?`` that is a whole ORDER BY or
    GROUP BY key is spelled ``k + 0``: a bound value is a constant, as a
    template and sqlite3 read it, and ``k`` alone would be an output
    position.  Raises :class:`BindError` when the counts differ or a value
    has no SQL literal form.
    """
    try:
        literals = [render_literal(v) for v in params]
        if int in map(type, params):
            for i, (value, key) in enumerate(zip(params, key_placeholders(sql))):
                if key and type(value) is int:
                    literals[i] += " + 0"
        return replace_placeholders(sql, literals)
    except ValueError as error:
        raise BindError(str(error)) from error


class Gateway:
    """Session pool + plan cache in front of one workload manager."""

    def __init__(
        self,
        workload: WorkloadManager,
        max_sessions: int = 64,
        max_idle: int = 16,
        plan_cache_size: int = 256,
    ) -> None:
        if max_sessions < 1:
            raise QueryError(f"max_sessions must be >= 1, got {max_sessions}")
        if max_idle < 0:
            raise QueryError(f"max_idle must be >= 0, got {max_idle}")
        self.workload = workload
        self.engine = workload.engine
        self.metrics = workload.metrics
        self.max_sessions = max_sessions
        self.max_idle = max_idle
        self.plan_cache = PlanCache(
            self.engine, capacity=plan_cache_size, metrics=self.metrics
        )
        self.active_sessions = 0
        self.sessions_opened = 0
        self.sessions_reused = 0
        # tenant name -> idle sessions ready for reuse (LIFO: the most
        # recently released session is the warmest).
        self._idle: dict[str, list[GatewaySession]] = {}

    # -- session pool ------------------------------------------------------

    def connect(
        self,
        tenant: str = "default",
        degraded_ok: bool = False,
        coordinator: str | None = None,
    ) -> GatewaySession:
        """Check a session out of the pool (creating one on a cold pool).

        ``coordinator`` pins every plan built for this session to one
        coordinator site (a client co-located with a site, or a routing
        tier's affinity choice); it participates in the plan-cache key.
        Raises :class:`QueryError` when ``max_sessions`` sessions are
        already checked out -- the gateway sheds connections rather than
        oversubscribing, mirroring the workload manager's bounded queues.
        """
        if self.active_sessions >= self.max_sessions:
            self.metrics.counter("gateway.sessions.rejected").inc()
            raise QueryError(
                f"gateway session pool exhausted ({self.max_sessions} active)"
            )
        free = self._idle.get(tenant)
        if free:
            session = free.pop()
            session.closed = False
            session.degraded_ok = degraded_ok
            session.coordinator = coordinator
            self.sessions_reused += 1
            self.metrics.counter("gateway.sessions.reused").inc()
        else:
            session = GatewaySession(self, tenant, degraded_ok, coordinator)
            self.sessions_opened += 1
            self.metrics.counter("gateway.sessions.opened").inc()
        self.active_sessions += 1
        self.metrics.gauge("gateway.sessions.active").set(self.active_sessions)
        self._set_pooled_gauge()
        return session

    def _release(self, session: GatewaySession) -> None:
        self.active_sessions -= 1
        self.metrics.gauge("gateway.sessions.active").set(self.active_sessions)
        free = self._idle.setdefault(session.tenant, [])
        if len(free) < self.max_idle:
            free.append(session)
        self._set_pooled_gauge()

    def _set_pooled_gauge(self) -> None:
        self.metrics.gauge("gateway.sessions.pooled").set(
            sum(len(free) for free in self._idle.values())
        )

    def __repr__(self) -> str:
        return (
            f"Gateway(active={self.active_sessions}/{self.max_sessions}, "
            f"plan_cache={len(self.plan_cache)}, "
            f"hit_rate={self.plan_cache.hit_rate:.2f})"
        )
