"""Cohera Integrate analog: the federated query processor.

§4: "Cohera Integrate is a federated query processing engine ... based on
the agoric, federated query processor architecture of the Mariposa system
... Because of Cohera's scalable agoric optimizer, new compute and cache
machines can be added to a Cohera installation incrementally."

The pieces:

* :mod:`repro.federation.site` / :mod:`repro.federation.network` -- the
  machine room: sites with processing rates, load backlogs, prices and
  failures; a network with latency and transfer costs.
* :mod:`repro.federation.catalog` -- the federation catalog: global tables,
  horizontal fragments, replica placement, materialized views as
  alternative access paths, and text indexes for ranked search.
* :mod:`repro.federation.views` -- materialized views with refresh policies
  (fetch-in-advance over federated technology, §3.2 C5).
* :mod:`repro.federation.cache` -- a semantic predicate-region cache.
* :mod:`repro.federation.access` -- :class:`AccessPaths`, the one seam that
  enumerates which access paths (fragments, views, cache regions, stage
  artifacts) can answer a scan; each optimizer below is only its rule for
  choosing among them.
* :mod:`repro.federation.agoric` -- the Mariposa-style bid-based optimizer
  (live per-site bids; O(replicas) optimization work).
* :mod:`repro.federation.central` -- the baseline the paper calls
  unacceptable: a centralized compile-time cost-based optimizer that
  enumerates site assignments against a periodically refreshed statistics
  snapshot.
* :mod:`repro.federation.physical` -- the physical operator IR: the plan
  types, the operator protocol, the explicit Ship that crosses the
  network model, and the planner that compiles a physical plan into an
  operator tree.  Its site-side operators
  (SiteScan/SiteFilter/SiteProject/SiteTopK/PartialAggregate, in
  :mod:`repro.federation.site_ops`) charge the owning site; its streaming
  coordinator operators (filter, joins, aggregation, sort, limit, in
  :mod:`repro.federation.coordinator_ops`) charge the coordinator; each
  records rows in/out, seconds and placement
  (:mod:`repro.federation.report`).
* :mod:`repro.federation.executor` -- drives that operator tree: starts
  each stage, then the parallel fragment scans and the coordinator,
  per-site accounting, EXPLAIN ANALYZE stats.
* :mod:`repro.federation.loadbalance` -- replica-choice policies.
* :mod:`repro.federation.availability` -- failure injection, placement
  strategies, availability probes ("some of the content all of the time").
* :mod:`repro.federation.health` -- per-site failure memory, the half-open
  circuit breaker and availability-aware risk pricing.
* :mod:`repro.federation.reopt` -- adaptive mid-query re-optimization:
  migrate *unstarted* stages of a running plan when the cluster degrades
  (circuit opens, congestion spikes, deadline projects an overrun).
* :mod:`repro.federation.engine` -- :class:`FederatedEngine`: SQL and XPath
  in, rows or XML out.
* :mod:`repro.federation.workload` / :mod:`repro.federation.scheduler` --
  the multi-tenant workload manager: admission control (slots, quotas,
  bounded queues, deadlines), pluggable scheduling (FIFO / strict priority /
  weighted fair), and the per-site congestion gauges that feed concurrency
  back into the agoric prices.
* :mod:`repro.federation.gateway` -- the client-facing serving layer:
  pooled sessions and a prepared-statement plan cache keyed by normalized
  SQL, dispatching through the workload manager.
* :mod:`repro.federation.dbapi` -- the PEP 249 driver: a connection holds
  one gateway session, and a cursor pages its result with ``fetchmany``.
"""

from repro.federation.access import AccessPaths, FragmentSlot
from repro.federation.agoric import AgoricOptimizer, BudgetExceededError
from repro.federation.availability import (
    AvailabilityProbe,
    FailureInjector,
    PlacementStrategy,
    place_fragments,
)
from repro.federation.artifacts import Artifact, ArtifactStore
from repro.federation.cache import SemanticCache
from repro.federation.catalog import FederationCatalog, Fragment, TableEntry
from repro.federation.central import CentralizedOptimizer
from repro.federation.engine import FederatedEngine, PreparedStatement, QueryResult
from repro.federation.executor import Executor
from repro.federation.gateway import Gateway, GatewaySession, PlanCache
from repro.federation.health import (
    CircuitState,
    SiteHealth,
    SiteHealthTracker,
)
from repro.federation.physical import PhysicalPlan, PhysicalPlanner, QueryOptions
from repro.federation.report import ExecutionReport, OperatorStats
from repro.federation.reopt import ReoptController, ReoptEvent
from repro.federation.loadbalance import (
    LeastLoadedPolicy,
    PolicyOptimizer,
    RandomPolicy,
    ReplicaPolicy,
    RoundRobinPolicy,
    SnapshotLoadPolicy,
)
from repro.federation.network import Network
from repro.federation.secure import SecureNetwork, TamperedPayloadError, seal, unseal
from repro.federation.site import Site
from repro.federation.stats import (
    ColumnStats,
    ZoneMap,
    fallback_selectivity,
    fragment_can_match,
    fragment_selectivity,
    zone_selectivity,
)
from repro.federation.views import MaterializedView
from repro.federation.scheduler import (
    FifoScheduler,
    Scheduler,
    StrictPriorityScheduler,
    WeightedFairScheduler,
    make_scheduler,
)
from repro.federation.workload import (
    QueryHandle,
    QueryState,
    Tenant,
    WorkloadManager,
)

__all__ = [
    "AccessPaths",
    "FragmentSlot",
    "AgoricOptimizer",
    "BudgetExceededError",
    "AvailabilityProbe",
    "FailureInjector",
    "PlacementStrategy",
    "place_fragments",
    "Artifact",
    "ArtifactStore",
    "SemanticCache",
    "FederationCatalog",
    "Fragment",
    "TableEntry",
    "CentralizedOptimizer",
    "FederatedEngine",
    "PreparedStatement",
    "QueryOptions",
    "QueryResult",
    "ExecutionReport",
    "Executor",
    "PhysicalPlan",
    "Gateway",
    "GatewaySession",
    "PlanCache",
    "CircuitState",
    "SiteHealth",
    "SiteHealthTracker",
    "OperatorStats",
    "PhysicalPlanner",
    "ReoptController",
    "ReoptEvent",
    "LeastLoadedPolicy",
    "PolicyOptimizer",
    "RandomPolicy",
    "ReplicaPolicy",
    "RoundRobinPolicy",
    "SnapshotLoadPolicy",
    "Network",
    "SecureNetwork",
    "TamperedPayloadError",
    "seal",
    "unseal",
    "Site",
    "ColumnStats",
    "ZoneMap",
    "fallback_selectivity",
    "fragment_can_match",
    "fragment_selectivity",
    "zone_selectivity",
    "MaterializedView",
    "FifoScheduler",
    "Scheduler",
    "StrictPriorityScheduler",
    "WeightedFairScheduler",
    "make_scheduler",
    "QueryHandle",
    "QueryState",
    "Tenant",
    "WorkloadManager",
]
