"""Declarative per-tenant governance compiled into query plans.

The paper's content-integration model has many parties querying one
federated catalog; this module is the access-mediation layer that decides
*what each party may see* -- declared as data (a YAML/dict manifest) and
compiled into the logical plan, never bolted onto the gateway as a
post-filter.  A manifest names, per tenant:

* **row-level security** (``row_filter``): a SQL predicate over each
  governed table.  :class:`~repro.sql.rewrite.GovernanceInjection` splits
  it into conjuncts during rewrite; pushable ones join the scan's ordinary
  pushdown list (pruning zone maps, scoping semantic-cache regions, priced
  by selectivity), the rest filter the scan's chunks at its site before masking.
* **column masks** (``masks``): per-column mask styles applied at the
  scan's output, ahead of any shipping, caching or joining.
* **rate limits**: a deterministic token bucket on the simulation clock,
  enforced at :class:`~repro.federation.workload.WorkloadManager`
  admission.
* **cost budgets**: a credit ledger priced in the same currency as the
  agoric economy.  A tenant's remaining balance caps its bids (the engine
  passes it as the optimizer ``budget``), and exhaustion either rejects at
  admission or degrades (forced ``degraded_ok``) per the manifest.

Policy identity is a content signature (:meth:`GovernanceRegistry.
signature_for`): prepared statements and the gateway plan cache fold it
into their keys so a manifest edit transparently replans, and the stage
artifact hash folds the compiled RLS/mask annotations into the stage
identity so two tenants with different policies can never collide on one
artifact (tenants with *identical* policies still share -- sound, since
the artifact content is the same).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from repro.core.errors import QueryError, QueryRejectedError
from repro.sql.ast import Expr, columns_in
from repro.sql.parser import SqlParseError, parse_sql
from repro.sql.rewrite import GovernanceInjection, GovernanceRule

MASK_STYLES = ("null", "redact", "hash", "last4")

ON_EXHAUSTED = ("reject", "degrade")


class PolicyError(QueryError):
    """A governance manifest is malformed or references unknown schema."""


class RateLimitExceededError(QueryRejectedError):
    """Admission shed a query because the tenant's token bucket ran dry."""

    def __init__(self, tenant: str, per_second: float) -> None:
        self.per_second = per_second
        super().__init__(
            tenant,
            0,
            f"tenant {tenant!r} exceeded its rate limit "
            f"({per_second:g} queries/second)",
        )


class BudgetExhaustedError(QueryRejectedError):
    """Admission shed a query because the tenant's cost budget ran out."""

    def __init__(self, tenant: str, credits: float) -> None:
        self.credits = credits
        super().__init__(
            tenant,
            0,
            f"tenant {tenant!r} exhausted its query cost budget "
            f"({credits:g} credits)",
        )


# -- column masking -----------------------------------------------------------


def mask_value(style: str, value: Any) -> Any:
    """One masked value; ``None`` stays ``None`` for every style."""
    if value is None:
        return None
    if style == "null":
        return None
    if style == "redact":
        return "***"
    if style == "hash":
        return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:12]
    if style == "last4":
        text = str(value)
        return "*" * max(0, len(text) - 4) + text[-4:]
    raise PolicyError(f"unknown mask style {style!r}")


# -- compiled policies --------------------------------------------------------


@dataclass
class TablePolicy:
    """One tenant's view of one table: an RLS predicate plus masks.

    A loaded policy is not edited in place -- its parsed filter and its
    tenant's signature are computed once per manifest load; reload the
    manifest to change it.
    """

    table: str
    row_filter: str | None = None
    masks: dict[str, str] = field(default_factory=dict)
    _parsed: Expr | None = field(default=None, repr=False)

    def parsed_filter(self) -> Expr | None:
        """The parsed RLS predicate (bare column names), cached."""
        if self.row_filter is None:
            return None
        if self._parsed is None:
            self._parsed = _parse_row_filter(self.table, self.row_filter)
        return self._parsed

    def describe(self) -> dict[str, Any]:
        return {
            "table": self.table,
            "row_filter": self.row_filter,
            "masks": dict(sorted(self.masks.items())),
        }


@dataclass
class TenantPolicy:
    """Everything the manifest declares for one tenant."""

    name: str
    tables: dict[str, TablePolicy] = field(default_factory=dict)
    rate_per_second: float | None = None
    rate_burst: float | None = None
    budget_credits: float | None = None
    on_exhausted: str = "reject"

    def signature(self) -> str:
        """Content hash of the declared policy (not of runtime spend).

        The tenant *name* is deliberately excluded: two tenants with
        byte-identical declared policies produce the same signature, so
        they share prepared plans and stage artifacts soundly.
        """
        payload = {
            "tables": {
                name: policy.describe()
                for name, policy in sorted(self.tables.items())
            },
            "rate": [self.rate_per_second, self.rate_burst],
            "budget": [self.budget_credits, self.on_exhausted],
        }
        canonical = json.dumps(payload, sort_keys=True, default=repr)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _parse_row_filter(table: str, row_filter: str) -> Expr:
    """Parse an RLS predicate by planting it in a SELECT's WHERE clause."""
    if "?" in row_filter:
        raise PolicyError(
            f"row_filter for table {table!r} must not contain parameters"
        )
    try:
        statement = parse_sql(f"select * from {table} where {row_filter}")
    except (QueryError, SqlParseError) as exc:
        raise PolicyError(
            f"row_filter for table {table!r} does not parse: {exc}"
        ) from exc
    if statement.where is None or statement.has_subqueries:
        raise PolicyError(
            f"row_filter for table {table!r} must be a plain predicate "
            "(no subqueries)"
        )
    return statement.where


# -- manifest validation ------------------------------------------------------


def validate_manifest(data: Any) -> list[str]:
    """Every schema problem in a manifest dict, as human-readable strings.

    Used both by :meth:`GovernanceRegistry.load_manifest` (which raises on
    any error) and by the CI manifest validator, which reports all of them.
    """
    errors: list[str] = []
    if not isinstance(data, dict):
        return [f"manifest must be a mapping, got {type(data).__name__}"]
    version = data.get("version")
    if version != 1:
        errors.append(f"manifest version must be 1, got {version!r}")
    tenants = data.get("tenants")
    if not isinstance(tenants, dict) or not tenants:
        errors.append("manifest must declare a non-empty 'tenants' mapping")
        return errors
    for key in data:
        if key not in ("version", "tenants"):
            errors.append(f"unknown top-level key {key!r}")
    for tenant_name, spec in tenants.items():
        prefix = f"tenant {tenant_name!r}"
        if not isinstance(tenant_name, str) or not tenant_name:
            errors.append(f"tenant names must be non-empty strings: {tenant_name!r}")
            continue
        if not isinstance(spec, dict):
            errors.append(f"{prefix}: spec must be a mapping")
            continue
        for key in spec:
            if key not in ("tables", "rate_limit", "budget"):
                errors.append(f"{prefix}: unknown key {key!r}")
        errors.extend(_validate_tables(prefix, spec.get("tables")))
        errors.extend(_validate_rate(prefix, spec.get("rate_limit")))
        errors.extend(_validate_budget(prefix, spec.get("budget")))
    return errors


def _validate_tables(prefix: str, tables: Any) -> list[str]:
    errors: list[str] = []
    if tables is None:
        return errors
    if not isinstance(tables, dict):
        return [f"{prefix}: 'tables' must be a mapping"]
    for table_name, table_spec in tables.items():
        where = f"{prefix}, table {table_name!r}"
        if not isinstance(table_spec, dict):
            errors.append(f"{where}: spec must be a mapping")
            continue
        for key in table_spec:
            if key not in ("row_filter", "masks"):
                errors.append(f"{where}: unknown key {key!r}")
        row_filter = table_spec.get("row_filter")
        if row_filter is not None:
            if not isinstance(row_filter, str) or not row_filter.strip():
                errors.append(f"{where}: row_filter must be a non-empty string")
            else:
                try:
                    _parse_row_filter(str(table_name), row_filter)
                except PolicyError as exc:
                    errors.append(f"{where}: {exc}")
        masks = table_spec.get("masks")
        if masks is not None:
            errors.extend(_validate_masks(where, masks))
        if row_filter is None and not masks:
            errors.append(f"{where}: declares neither row_filter nor masks")
    return errors


def _validate_masks(where: str, masks: Any) -> list[str]:
    errors: list[str] = []
    if isinstance(masks, list):
        items = [(column, "redact") for column in masks]
    elif isinstance(masks, dict):
        items = list(masks.items())
    else:
        return [f"{where}: masks must be a mapping or a list of columns"]
    for column, style in items:
        if not isinstance(column, str) or not column:
            errors.append(f"{where}: mask columns must be non-empty strings")
        if style not in MASK_STYLES:
            errors.append(
                f"{where}: mask style {style!r} for column {column!r} "
                f"must be one of {', '.join(MASK_STYLES)}"
            )
    return errors


def _validate_rate(prefix: str, rate: Any) -> list[str]:
    if rate is None:
        return []
    if not isinstance(rate, dict):
        return [f"{prefix}: 'rate_limit' must be a mapping"]
    errors = []
    for key in rate:
        if key not in ("per_second", "burst"):
            errors.append(f"{prefix}: unknown rate_limit key {key!r}")
    per_second = rate.get("per_second")
    if not isinstance(per_second, (int, float)) or per_second <= 0:
        errors.append(f"{prefix}: rate_limit.per_second must be positive")
    burst = rate.get("burst", 1)
    if not isinstance(burst, (int, float)) or burst < 1:
        errors.append(f"{prefix}: rate_limit.burst must be >= 1")
    return errors


def _validate_budget(prefix: str, budget: Any) -> list[str]:
    if budget is None:
        return []
    if not isinstance(budget, dict):
        return [f"{prefix}: 'budget' must be a mapping"]
    errors = []
    for key in budget:
        if key not in ("credits", "on_exhausted"):
            errors.append(f"{prefix}: unknown budget key {key!r}")
    credits = budget.get("credits")
    if not isinstance(credits, (int, float)) or credits <= 0:
        errors.append(f"{prefix}: budget.credits must be positive")
    on_exhausted = budget.get("on_exhausted", "reject")
    if on_exhausted not in ON_EXHAUSTED:
        errors.append(
            f"{prefix}: budget.on_exhausted must be one of "
            f"{', '.join(ON_EXHAUSTED)}, got {on_exhausted!r}"
        )
    return errors


def load_manifest_data(source: Any) -> dict[str, Any]:
    """A manifest dict from a dict, YAML/JSON text, or a file path.

    YAML support is optional (CI installs only the test toolchain): JSON is
    always accepted since every manifest is also valid JSON-able data, and
    PyYAML is used when importable.
    """
    if isinstance(source, dict):
        return source
    text = None
    if hasattr(source, "read_text"):
        text = source.read_text(encoding="utf-8")
    elif isinstance(source, str):
        stripped = source.lstrip()
        if stripped.startswith("{") or "\n" in source or ":" in source:
            text = source
        else:
            with open(source, "r", encoding="utf-8") as handle:
                text = handle.read()
    if text is None:
        raise PolicyError(
            f"cannot load a governance manifest from {type(source).__name__}"
        )
    try:
        import yaml  # type: ignore[import-untyped]
    except ImportError:
        yaml = None
    if yaml is not None:
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise PolicyError(f"manifest does not parse as YAML: {exc}") from exc
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PolicyError(
                "manifest does not parse as JSON and PyYAML is unavailable: "
                f"{exc}"
            ) from exc
    if not isinstance(data, dict):
        raise PolicyError("manifest must be a mapping")
    return data


# -- the registry -------------------------------------------------------------


@dataclass
class _TokenBucket:
    tokens: float
    last: float


class GovernanceRegistry:
    """Loaded tenant policies plus their runtime state (ledger, buckets).

    ``version`` increments on every manifest (re)load; per-tenant
    :meth:`signature_for` is a content hash of the declared policy.  Both
    exist so plan caches revalidate on *policy content*, not on reload
    count -- but ``version`` gives EXPLAIN and metrics a human-readable
    epoch.
    """

    def __init__(self, manifest: Any = None, metrics: Any = None) -> None:
        self.version = 0
        self.metrics = metrics
        self._tenants: dict[str, TenantPolicy] = {}
        self._signatures: dict[str, str] = {}
        self._spent: dict[str, float] = {}
        self._buckets: dict[str, _TokenBucket] = {}
        if manifest is not None:
            self.load_manifest(manifest)

    # -- loading ------------------------------------------------------------

    def load_manifest(self, source: Any) -> list[str]:
        """(Re)load tenant policies; returns the tenant names loaded.

        A reload *replaces* all declared policies and bumps ``version`` so
        every cached plan revalidates, but keeps the runtime ledger: spent
        budget does not reset just because an operator edited a mask.
        """
        data = load_manifest_data(source)
        errors = validate_manifest(data)
        if errors:
            raise PolicyError(
                "invalid governance manifest: " + "; ".join(errors)
            )
        tenants: dict[str, TenantPolicy] = {}
        for tenant_name, spec in data["tenants"].items():
            tables: dict[str, TablePolicy] = {}
            for table_name, table_spec in (spec.get("tables") or {}).items():
                masks_spec = table_spec.get("masks") or {}
                if isinstance(masks_spec, list):
                    masks = {column: "redact" for column in masks_spec}
                else:
                    masks = dict(masks_spec)
                policy = TablePolicy(
                    table=str(table_name),
                    row_filter=table_spec.get("row_filter"),
                    masks=masks,
                )
                policy.parsed_filter()  # fail at load time, not query time
                tables[str(table_name)] = policy
            rate = spec.get("rate_limit") or {}
            budget = spec.get("budget") or {}
            tenants[tenant_name] = TenantPolicy(
                name=tenant_name,
                tables=tables,
                rate_per_second=rate.get("per_second"),
                rate_burst=float(rate.get("burst", 1)) if rate else None,
                budget_credits=budget.get("credits"),
                on_exhausted=budget.get("on_exhausted", "reject"),
            )
        self._tenants = tenants
        self._signatures = {
            name: policy.signature() for name, policy in tenants.items()
        }
        self._buckets.clear()
        self.version += 1
        return sorted(tenants)

    def validate_against_catalog(self, catalog: Any) -> list[str]:
        """Schema problems a manifest-only check cannot see."""
        errors: list[str] = []
        for tenant in self._tenants.values():
            for table_name, policy in tenant.tables.items():
                try:
                    entry = catalog.entry(table_name)
                except Exception:
                    errors.append(
                        f"tenant {tenant.name!r}: unknown table {table_name!r}"
                    )
                    continue
                fields = set(entry.schema.field_names)
                for column in policy.masks:
                    if column not in fields:
                        errors.append(
                            f"tenant {tenant.name!r}, table {table_name!r}: "
                            f"masked column {column!r} does not exist"
                        )
                parsed = policy.parsed_filter()
                if parsed is not None:
                    for column in columns_in(parsed):
                        if column.name not in fields:
                            errors.append(
                                f"tenant {tenant.name!r}, table "
                                f"{table_name!r}: row_filter column "
                                f"{column.name!r} does not exist"
                            )
        return errors

    # -- lookups ------------------------------------------------------------

    def policy_for(self, tenant: str | None) -> TenantPolicy | None:
        if tenant is None:
            return None
        return self._tenants.get(tenant)

    def signature_for(self, tenant: str | None) -> str | None:
        """Policy content hash for cache keys; None for ungoverned tenants.

        Ungoverned tenants deliberately share plans (and the signature stays
        out of their keys), so adding governance for *some* tenants cannot
        cost the rest their cache hit rates.
        """
        return self._signatures.get(tenant)

    def injection_pass(
        self, tenant: str | None, scope: dict[str, set[str]]
    ) -> GovernanceInjection | None:
        """The rewrite pass enforcing ``tenant``'s policy over a statement
        of the resolved ``scope`` (binding -> field names), or None."""
        policy = self.policy_for(tenant)
        if policy is None or not policy.tables:
            return None
        rules = {
            table_name: GovernanceRule(
                tenant=policy.name,
                table=table_name,
                row_filter=table_policy.parsed_filter(),
                masks=tuple(sorted(table_policy.masks.items())),
            )
            for table_name, table_policy in policy.tables.items()
        }
        return GovernanceInjection(rules=rules, scope=scope)

    # -- admission: rate limits and budget gates ----------------------------

    def admit(self, tenant: str, now: float) -> str:
        """Admission-control check at submit time; deterministic.

        Returns ``"ok"`` or ``"degrade"`` (budget exhausted under a
        ``degrade`` policy: the caller should force ``degraded_ok``).
        Raises :class:`RateLimitExceededError` /
        :class:`BudgetExhaustedError` -- both subclasses of the workload
        manager's shedding error, so existing back-off handling applies.
        """
        policy = self.policy_for(tenant)
        if policy is None:
            return "ok"
        if policy.rate_per_second is not None:
            bucket = self._buckets.get(tenant)
            burst = policy.rate_burst or 1.0
            if bucket is None:
                bucket = _TokenBucket(tokens=burst, last=now)
                self._buckets[tenant] = bucket
            elapsed = max(0.0, now - bucket.last)
            bucket.tokens = min(burst, bucket.tokens + elapsed * policy.rate_per_second)
            bucket.last = now
            if bucket.tokens < 1.0:
                self._count("rate_limited")
                raise RateLimitExceededError(tenant, policy.rate_per_second)
            bucket.tokens -= 1.0
        if policy.budget_credits is not None and self.remaining_budget(tenant) <= 0:
            if policy.on_exhausted == "degrade":
                self._count("budget_degraded")
                return "degrade"
            self._count("budget_rejections")
            raise BudgetExhaustedError(tenant, policy.budget_credits)
        return "ok"

    # -- the budget ledger ---------------------------------------------------

    def remaining_budget(self, tenant: str) -> float | None:
        """Credits left, or None when the tenant has no budget."""
        policy = self.policy_for(tenant)
        if policy is None or policy.budget_credits is None:
            return None
        return policy.budget_credits - self._spent.get(tenant, 0.0)

    def effective_budget(
        self, tenant: str | None, budget: float | None
    ) -> float | None:
        """The bid cap the optimizer should honor for this execution.

        The tenant's remaining balance caps any caller-supplied budget.  An
        exhausted ``degrade`` tenant is *not* capped (a zero cap would fail
        every plan); admission already forced ``degraded_ok`` and counted
        the degradation.  An exhausted ``reject`` tenant gets a zero cap, so
        under the agoric optimizer every execution that *plans* fails
        closed, direct engine calls included.  The engine asks only then
        (DESIGN §5g): an execution replaying a prepared template buys
        nothing, is not capped, and is gated by workload admission alone.
        """
        remaining = self.remaining_budget(tenant) if tenant is not None else None
        if remaining is None:
            return budget
        policy = self._tenants[tenant]
        if remaining <= 0:
            return budget if policy.on_exhausted == "degrade" else 0.0
        if budget is None:
            return remaining
        return min(budget, remaining)

    def charge(self, tenant: str | None, price: float) -> None:
        """Debit one execution's plan price against the tenant's budget."""
        if tenant is None or price <= 0:
            return
        policy = self.policy_for(tenant)
        if policy is None or policy.budget_credits is None:
            return
        self._spent[tenant] = self._spent.get(tenant, 0.0) + price

    # -- metrics -------------------------------------------------------------

    def _count(self, what: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(f"governance.{what}").inc(amount)
