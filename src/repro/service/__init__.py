"""Scale-out service layer: batch operations over one repository.

The paper's use case is interactive — one user uploads one VMI (Figure
2, steps 1-3).  Operating a repository at corpus scale (marketplace
imports, CI rebuild storms, tenant migrations) publishes hundreds to
thousands of images in one administrative action, and doing that well
is more than a loop: the batch should be *ordered* so the repository's
dedup machinery sees lean bases and shared packages early, *accounted*
so the operator learns what the batch cost as a whole, and *observable*
while it runs.

:mod:`repro.service.batch` provides exactly that pipeline:

* :func:`~repro.service.batch.dedup_aware_order` — deterministic batch
  ordering that groups uploads by base-attribute quadruple and puts
  leaner bases and smaller primary sets first, so Algorithm 2 selects
  stored bases instead of storing fat ones it must replace later;
* :class:`~repro.service.batch.BatchPublisher` — drives
  :class:`~repro.core.publisher.VMIPublisher` over a whole corpus with
  per-item error isolation and a progress callback;
* :class:`~repro.service.batch.BatchPublishReport` — aggregated cost
  accounting: simulated seconds, bytes, export/dedup counts, base
  replacement churn and the Algorithm 2 work counters for the batch.

:mod:`repro.service.retrieval` is the read-side mirror of the same
idea — the half a production repository actually serves under
read-heavy traffic:

* :func:`~repro.service.retrieval.base_affine_order` — deterministic
  batch ordering that runs requests sharing a stored base (and,
  within a base, a full assembly plan) consecutively, so the warm
  base copy and the cached plan serve every follower;
* :class:`~repro.service.retrieval.BatchRetriever` — drives
  :class:`~repro.core.assembly_plan.AssemblyPlanner` over a whole
  request batch with per-item error isolation and a progress callback;
* :class:`~repro.service.retrieval.BatchRetrieveReport` — aggregated
  cost accounting: the Figure-5a component stack for the batch plus
  the planner's plan-cache and base-cache work counters.

:mod:`repro.service.executor` is the one batch executor both pipelines
run on — sequential, sharded by
:class:`~repro.service.parallel.ParallelPublisher` /
:class:`~repro.service.parallel.ParallelRetriever`
(:func:`~repro.service.parallel.plan_shards`) or routed by the
federation: every item under its repository's lock, results in caller
order, and per-shard critical-path accounting
(:class:`~repro.service.executor.ShardAccount`) for a sharded run.

:mod:`repro.service.maintenance` closes the lifecycle — the deletion
and reclamation half an operator runs against a churning repository:

* :class:`~repro.service.maintenance.MaintenanceService` — batched
  deletes with per-item error isolation, plus incremental GC passes
  scheduled by the repository's exact reclaimable-bytes estimate;
* :class:`~repro.service.maintenance.MaintenanceReport` — aggregated
  accounting: per-item outcomes, interleaved GC reports, exact byte
  movement and the charged delete/GC seconds.

:mod:`repro.service.rebase` is the heavyweight maintenance half:
:class:`~repro.service.rebase.RebaseService` takes the candidate
base package-sets proposed by :class:`~repro.analysis.mining.BaseMiner`
and applies them — publishing the merged base, merging master graphs,
repointing every member VMI and removing the obsoleted donor bases —
as an oplog-journaled, crash-recoverable operation (``rebase.json``
intent journal, recovered on the next run), with
:class:`~repro.service.rebase.RebaseReport` accounting the bytes
reclaimed and the VMIs migrated.

:mod:`repro.service.server` / :mod:`repro.service.client` put the
whole thing behind a socket — a long-running multi-tenant daemon
(:class:`~repro.service.server.ImageServer`) that owns a durable
workspace, serves many concurrent clients over the length-prefixed
JSON protocol of :mod:`repro.service.protocol`, enforces per-tenant
namespaces and quotas (:mod:`repro.service.tenancy`) and bounds its
own load (:mod:`repro.service.admission`); the typed
:class:`~repro.service.client.RemoteClient` is what the CLI's
``--remote`` mode and the differential suites speak.

See DESIGN.md ("Scale-out publish pipeline", "Retrieval scale-out",
"Concurrency model" for the executor contract, "Deletion and garbage
collection", "The image server") for how this layer relates to the
per-upload / per-request paths.
"""

from repro.service.admission import AdmissionController
from repro.service.batch import (
    BatchItemResult,
    BatchPublisher,
    BatchPublishReport,
    dedup_aware_order,
)
from repro.service.client import RemoteClient, parse_endpoint
from repro.service.executor import ShardAccount
from repro.service.maintenance import (
    DeleteItemResult,
    MaintenanceReport,
    MaintenanceService,
)
from repro.service.parallel import (
    ParallelPublisher,
    ParallelRetriever,
    plan_shards,
)
from repro.service.rebase import (
    RebaseReport,
    RebaseService,
)
from repro.service.retrieval import (
    BatchRetrieveReport,
    BatchRetriever,
    RetrieveItemResult,
    base_affine_order,
)
from repro.service.server import ImageServer, ServerConfig
from repro.service.tenancy import (
    TenantQuota,
    TenantRegistry,
    TenantUsage,
    namespaced,
    split_namespace,
)

__all__ = [
    "AdmissionController",
    "BatchItemResult",
    "BatchPublisher",
    "BatchPublishReport",
    "BatchRetrieveReport",
    "BatchRetriever",
    "DeleteItemResult",
    "MaintenanceReport",
    "MaintenanceService",
    "ImageServer",
    "ParallelPublisher",
    "ParallelRetriever",
    "RebaseReport",
    "RebaseService",
    "RemoteClient",
    "RetrieveItemResult",
    "ServerConfig",
    "ShardAccount",
    "TenantQuota",
    "TenantRegistry",
    "TenantUsage",
    "base_affine_order",
    "dedup_aware_order",
    "namespaced",
    "parse_endpoint",
    "plan_shards",
    "split_namespace",
]
