"""Exception hierarchy for the content integration system.

Every error raised by :mod:`repro` derives from
:class:`ContentIntegrationError`, so applications can catch one base class at
their integration boundary while tests assert on precise subclasses.
"""

from __future__ import annotations


class ContentIntegrationError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ContentIntegrationError):
    """A schema is malformed, or data does not conform to its schema."""


class QueryError(ContentIntegrationError):
    """A query is syntactically or semantically invalid."""


class BindError(QueryError):
    """Parameter values do not fit a statement's ``?`` placeholders: the
    wrong number of them, or a value with no SQL literal form."""


class WrapperError(ContentIntegrationError):
    """A wrapper failed to fetch or parse content from a source."""


class SourceUnavailableError(ContentIntegrationError):
    """A federated data source (site or web endpoint) is down.

    Carries the source name -- and, when known, the site and fragment the
    failed access targeted -- so availability experiments and the failover
    machinery can attribute the failure precisely.
    """

    def __init__(
        self,
        source: str,
        message: str = "",
        site: "str | None" = None,
        fragment: "str | None" = None,
    ) -> None:
        self.source = source
        self.site = site if site is not None else source
        self.fragment = fragment
        super().__init__(message or f"source {source!r} is unavailable")


class PartialFailureError(QueryError):
    """A query could not reach every fragment it needed.

    Raised by the executor when, even after failover and retries, some
    fragment has no live replica (and the caller did not opt into a
    degraded answer with ``degraded_ok=True``).  Structured so callers can
    see exactly *what* is unreachable instead of a bare source error:

    * ``unreachable_fragments`` -- ``"table/fragment_id"`` names;
    * ``dead_sites`` -- the sites whose failure caused it;
    * ``retries_used`` -- failover attempts spent before giving up.
    """

    def __init__(
        self,
        unreachable_fragments: "list[str]",
        dead_sites: "list[str]",
        retries_used: int = 0,
        message: str = "",
    ) -> None:
        self.unreachable_fragments = list(unreachable_fragments)
        self.dead_sites = list(dead_sites)
        self.retries_used = retries_used
        super().__init__(
            message
            or (
                f"fragments {self.unreachable_fragments} unreachable "
                f"(dead sites: {self.dead_sites}, "
                f"retries used: {retries_used}); "
                "pass degraded_ok=True for a partial answer"
            )
        )


class QueryRejectedError(QueryError):
    """Admission control shed a query at submit time.

    Raised by the workload manager when a tenant's bounded queue is already
    full (load shedding keeps overload from growing queues without limit).
    Carries the tenant and the limit that was hit so callers can back off or
    resubmit under a different tenant.
    """

    def __init__(self, tenant: str, queue_limit: int, message: str = "") -> None:
        self.tenant = tenant
        self.queue_limit = queue_limit
        super().__init__(
            message
            or (
                f"tenant {tenant!r} queue is full "
                f"(queue_limit={queue_limit}); query rejected"
            )
        )


class QueryTimeoutError(QueryError):
    """A queued query's deadline expired before a slot freed.

    Raised (via the query handle) by the workload manager when a submission
    waited longer than its ``deadline`` without being dispatched.  Carries
    the tenant, the deadline, and how long the query actually waited.
    """

    def __init__(
        self,
        tenant: str,
        deadline: float,
        waited: float,
        message: str = "",
    ) -> None:
        self.tenant = tenant
        self.deadline = deadline
        self.waited = waited
        super().__init__(
            message
            or (
                f"query for tenant {tenant!r} timed out in queue after "
                f"{waited:.3f}s (deadline {deadline:.3f}s)"
            )
        )


class TransformError(ContentIntegrationError):
    """A workbench transformation could not be applied to a value or row."""


class TaxonomyError(ContentIntegrationError):
    """A taxonomy operation referenced a missing or conflicting category."""


class SyndicationError(ContentIntegrationError):
    """A syndication rule set is inconsistent or a recipient is unknown."""
