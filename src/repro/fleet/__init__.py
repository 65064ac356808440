"""Distributed worker fleet: wire-level shard leasing over the service.

The campaign engine decomposes a run into deterministic,
independently-seeded shards; :mod:`repro.fleet` promotes that shard to
a network work unit.  The lease table (:mod:`repro.fleet.leases`)
schedules shards for every campaign — privately in-process for
:func:`~repro.characterization.engine.run_engine`, and in the service
with TTLs and fencing epochs for its own local backend and for
pull-based workers over HTTP.  One shard driver (:mod:`repro.fleet.driver`)
runs the shards of them all; :mod:`repro.fleet.worker` is the ``repro
worker`` process.  See ``docs/FLEET.md`` for the failure matrix.

Importing the package loads only the lease table, not the worker: the
worker pulls in the service client stack, which the engine must not.
"""

from __future__ import annotations

from repro.fleet.leases import (
    CompletionResult,
    FencingViolation,
    FleetJobStatus,
    LeaseError,
    LeaseGrant,
    LeaseManager,
    UnknownLease,
    outcome_to_payload,
    shard_from_payload,
    shard_to_payload,
)

__all__ = [
    "LeaseManager",
    "LeaseGrant",
    "LeaseError",
    "UnknownLease",
    "FencingViolation",
    "CompletionResult",
    "FleetJobStatus",
    "shard_to_payload",
    "shard_from_payload",
    "outcome_to_payload",
]
