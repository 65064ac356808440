"""Registry of named fault points.

Every location in the production code that can be interrupted by
:class:`repro.testkit.faults.FaultPlan` is named here, in one place, so

* tests refer to points by constant instead of by string literal,
* ``FaultPlan`` can reject typo'd point names at construction time, and
* ``repro lint`` (the ``unknown-fault-point`` rule) can flag call sites
  that pass a string not in :data:`FAULT_POINTS`.

This module is intentionally dependency-free (stdlib only): the engine
and service import it at module load, and it must never pull the test
harness (or numpy) into production import paths.
"""

from __future__ import annotations

ENGINE_SHARD_START = "engine.shard.start"
"""Entry of :func:`~repro.characterization.engine._run_shard_units` —
fires before any unit of the shard runs, so a crash here loses the
whole shard attempt but never a recorded one."""

ENGINE_CHECKPOINT_APPEND = "engine.checkpoint.append"
"""The checkpoint JSONL append in ``CampaignCheckpoint._append`` —
truncation here simulates a kill mid-write, which ``load()`` must
detect and normalize."""

SERVICE_JOB_PERSIST = "service.jobs.persist"
"""The atomic job-record write in ``JobManager.persist``."""

SERVICE_STORE_PUT = "service.store.put"
"""The results-file write in ``ResultStore.put``."""

SERVICE_STORE_READ = "service.store.read"
"""Entry of ``ResultStore.read_text`` — lets tests inject IO errors or
delays on the cached-result read path."""

FLEET_WORKER_EXECUTE = "fleet.worker.execute"
"""Start of one leased shard's execution in the shard driver
(:mod:`repro.fleet.driver`) of any caller — a crash here simulates a
worker killed mid-shard (before any result exists), so the lease must
expire and the shard be reassigned, or the campaign resume."""

FLEET_WORKER_COMPLETE = "fleet.worker.complete"
"""Just before the shard driver completes a finished shard — a crash
here kills a worker *after* the work but *before* the completion call,
the window where reassignment or resume must not double-count."""

FLEET_WORKER_HEARTBEAT = "fleet.worker.heartbeat"
"""The shard driver's lease-heartbeat send — an ``io-error`` here drops
heartbeats, which must let the lease expire on the server."""

WAREHOUSE_INGEST = "warehouse.ingest"
"""Start of one warehouse ingest step (a backfill batch, a streamed
shard, or a source registration) — a crash here loses the step before
any row is written, leaving the source detectably incomplete."""

WAREHOUSE_COMMIT = "warehouse.commit"
"""Immediately before a warehouse transaction commit — a crash here
rolls the in-flight step back on reopen; an ``io-error`` surfaces as a
failed ingest the caller must handle.  Either way the source stays
``complete=0`` until the final commit lands, so torn ingests are
detected and ``repro warehouse rebuild`` reconverges."""

FAULT_POINTS: frozenset[str] = frozenset(
    {
        ENGINE_SHARD_START,
        ENGINE_CHECKPOINT_APPEND,
        SERVICE_JOB_PERSIST,
        SERVICE_STORE_PUT,
        SERVICE_STORE_READ,
        FLEET_WORKER_EXECUTE,
        FLEET_WORKER_COMPLETE,
        FLEET_WORKER_HEARTBEAT,
        WAREHOUSE_INGEST,
        WAREHOUSE_COMMIT,
    }
)
"""All fault-point names the production code declares."""
