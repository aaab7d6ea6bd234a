"""Pluggable scheduling disciplines for the workload manager.

When an execution slot frees, the :class:`~repro.federation.workload.WorkloadManager`
asks its scheduler which queued query starts next.  Three disciplines are
provided, each a different answer to "who gets the federation first":

* :class:`FifoScheduler` -- arrival order, the throughput baseline.  Fair in
  expectation only: one aggressive tenant's flood delays everyone behind it
  (the head-of-line victimization E13's fairness ablation measures).
* :class:`StrictPriorityScheduler` -- highest ``priority`` first, FIFO within
  a priority level.  Latency-critical tenants jump the queue; low-priority
  work can starve under sustained high-priority load (by design).
* :class:`WeightedFairScheduler` -- stride scheduling over tenant weights:
  each tenant carries a virtual *pass* value advanced by ``1 / weight`` per
  dispatch, and the eligible tenant with the smallest pass goes next.  Over
  any saturated interval each tenant's dispatch share converges to its
  weight share, and a tenant that was idle re-enters at the current virtual
  time (``global_pass``) rather than with accumulated credit -- so a light
  tenant is served almost immediately when it does show up, no matter how
  deep the aggressive tenant's queue is.

Every discipline is deterministic: ties break on submission sequence, then
tenant name.  Schedulers only order; admission control (queue bounds, slot
quotas, deadlines) lives in the workload manager.

Items need four attributes -- ``seq`` (submission order), ``tenant_name``,
``priority`` and ``weight`` -- so the schedulers are reusable for anything
queue-shaped, not just SQL submissions.
"""

from __future__ import annotations

from typing import Callable


class Scheduler:
    """Orders queued submissions; subclasses define the discipline."""

    name = "base"

    def push(self, item) -> None:
        raise NotImplementedError

    def pop(self, eligible: Callable[[object], bool]) -> object | None:
        """Remove and return the next dispatchable item, or None.

        ``eligible`` is the workload manager's slot test (per-tenant
        concurrency quota); items failing it are skipped, not dropped.
        """
        raise NotImplementedError

    def remove(self, item) -> bool:
        """Withdraw a queued item (deadline timeout); False if not queued."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def queued_for(self, tenant_name: str) -> int:
        """Queue depth for one tenant (admission control's bound)."""
        raise NotImplementedError


class FifoScheduler(Scheduler):
    """First come, first served, skipping over-quota tenants."""

    name = "fifo"

    def __init__(self) -> None:
        self._queue: list = []

    def push(self, item) -> None:
        self._queue.append(item)

    def pop(self, eligible: Callable[[object], bool]) -> object | None:
        for index, item in enumerate(self._queue):
            if eligible(item):
                return self._queue.pop(index)
        return None

    def remove(self, item) -> bool:
        for index, queued in enumerate(self._queue):
            if queued is item:
                del self._queue[index]
                return True
        return False

    def __len__(self) -> int:
        return len(self._queue)

    def queued_for(self, tenant_name: str) -> int:
        return sum(1 for item in self._queue if item.tenant_name == tenant_name)


class StrictPriorityScheduler(FifoScheduler):
    """Highest ``priority`` value first; FIFO within a priority level."""

    name = "priority"

    def pop(self, eligible: Callable[[object], bool]) -> object | None:
        best_index = -1
        best_key: tuple[float, int] | None = None
        for index, item in enumerate(self._queue):
            if not eligible(item):
                continue
            key = (-item.priority, item.seq)
            if best_key is None or key < best_key:
                best_key = key
                best_index = index
        if best_index < 0:
            return None
        return self._queue.pop(best_index)


class WeightedFairScheduler(Scheduler):
    """Stride scheduling: dispatch share converges to tenant weight share."""

    name = "weighted-fair"

    def __init__(self) -> None:
        self._queues: dict[str, list] = {}
        self._pass: dict[str, float] = {}
        self._global_pass = 0.0

    def push(self, item) -> None:
        queue = self._queues.setdefault(item.tenant_name, [])
        if not queue:
            # A tenant (re)entering the race starts at the current virtual
            # time: idling earns no banked credit, but a fresh arrival is
            # never behind tenants that kept dispatching (their pass has
            # advanced past global_pass), so light tenants get served
            # promptly under an aggressive tenant's flood.
            self._pass[item.tenant_name] = max(
                self._pass.get(item.tenant_name, 0.0), self._global_pass
            )
        queue.append(item)

    def pop(self, eligible: Callable[[object], bool]) -> object | None:
        for tenant_name in sorted(
            (name for name, queue in self._queues.items() if queue),
            key=lambda name: (self._pass[name], name),
        ):
            queue = self._queues[tenant_name]
            for index, item in enumerate(queue):
                if not eligible(item):
                    continue
                queue.pop(index)
                self._global_pass = self._pass[tenant_name]
                self._pass[tenant_name] += 1.0 / max(item.weight, 1e-9)
                return item
        return None

    def remove(self, item) -> bool:
        queue = self._queues.get(item.tenant_name, [])
        for index, queued in enumerate(queue):
            if queued is item:
                del queue[index]
                return True
        return False

    def __len__(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def queued_for(self, tenant_name: str) -> int:
        return len(self._queues.get(tenant_name, []))


_SCHEDULERS: dict[str, type[Scheduler]] = {
    FifoScheduler.name: FifoScheduler,
    StrictPriorityScheduler.name: StrictPriorityScheduler,
    WeightedFairScheduler.name: WeightedFairScheduler,
    "fair": WeightedFairScheduler,  # convenient alias
}


def make_scheduler(spec: "str | Scheduler") -> Scheduler:
    """Resolve a scheduler name (or pass an instance through)."""
    if isinstance(spec, Scheduler):
        return spec
    if spec not in _SCHEDULERS:
        known = ", ".join(sorted(set(_SCHEDULERS)))
        raise ValueError(f"unknown scheduler {spec!r} (known: {known})")
    return _SCHEDULERS[spec]()
