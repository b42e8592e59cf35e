"""Multi-tenant fair-share routing.

:class:`TenantRouter` composes the pipeline's ingestion front, its shared
collection pool and one retrieval index per tenant into a multi-tenant
deployment — per-tenant index namespaces, quotas with tenant-scoped load
shed, and deficit-round-robin fair-share micro-batching with cross-tenant
LLM deduplication.  See :mod:`repro.tenancy.router` for the full design
notes.
"""

from .router import (
    DEFAULT_TENANT,
    TenantQueue,
    TenantQueueFull,
    TenantQuota,
    TenantRouter,
)

__all__ = [
    "DEFAULT_TENANT",
    "TenantQueue",
    "TenantQueueFull",
    "TenantQuota",
    "TenantRouter",
]
