"""Campaign-as-a-service: job queue, result cache, HTTP API, and client.

This package turns the characterization campaign engine into a
multi-tenant service, mirroring how DRAM testing fleets (SoftMC-style
bench controllers, litex-rowhammer-tester deployments) are actually
operated: a long-lived daemon owns the hardware-equivalent resource and
many clients submit sweeps against it.

Layers:

- :mod:`repro.service.store` — content-addressed result store; the
  spec digest is the cache key, so identical (spec, seed, modules)
  submissions dedup into one stored schema-v2 results file.
- :mod:`repro.service.jobs` — job lifecycle, bounded queue with
  token-bucket rate limiting, persistence/recovery, and the supervisor
  that runs every job's shards through the :mod:`repro.fleet` lease
  table with checkpoint/resume.
- :mod:`repro.service.server` — dependency-free asyncio HTTP/1.1 JSON
  API with NDJSON progress streaming and graceful SIGTERM drain.
- :mod:`repro.service.client` — typed blocking client with retry,
  exponential backoff, and ``Retry-After`` honoring.

Start a server with ``repro serve --data-dir state/``; submit with
``repro submit --server http://host:port`` or :class:`ServiceClient`.
See ``docs/SERVICE.md`` for the API reference and job lifecycle.
"""

from __future__ import annotations

from repro.service.client import JobStatus, ServiceClient, ServiceError
from repro.service.jobs import (
    DONE,
    FAILED,
    INTERRUPTED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    Job,
    JobManager,
    JobSupervisor,
    QueueFull,
    RateLimited,
    TokenBucket,
)
from repro.service.server import (
    CampaignService,
    HttpRequest,
    ServiceConfig,
    serve,
)
from repro.service.store import ResultStore, spec_key

__all__ = [
    "ResultStore",
    "spec_key",
    "Job",
    "JobManager",
    "JobSupervisor",
    "TokenBucket",
    "RateLimited",
    "QueueFull",
    "QUEUED",
    "RUNNING",
    "INTERRUPTED",
    "DONE",
    "FAILED",
    "TERMINAL_STATES",
    "ServiceConfig",
    "CampaignService",
    "HttpRequest",
    "serve",
    "ServiceClient",
    "ServiceError",
    "JobStatus",
]
