"""Parallel, resumable campaign execution engine.

The paper's 164-chip characterization ran as multi-week campaigns spread
across several DRAM Bender setups, dumping raw results incrementally so
interrupted runs could resume.  This module is that campaign layer for
the behavioral fleet:

* :func:`plan_shards` cuts a :class:`~repro.characterization.campaign.
  CampaignSpec` into independent work shards — one (module, site-block,
  sweep-point) cell each — with deterministic per-shard seeds derived
  from :func:`repro.rng.derive_seed`;
* :func:`run_engine` opens the shards as one job in a private,
  in-process :class:`~repro.fleet.leases.LeaseManager` (no HTTP, no
  lease expiry) and runs it with the shard driver
  (:class:`~repro.fleet.driver.ShardDriver`) every caller shares: on
  the caller's thread, or on ``workers`` slot processes.  The
  lease table is the only shard scheduler in the repo: it appends each
  completed shard to the JSONL checkpoint, re-leases failed shards
  within the retry budget, records shards that still fail as structured
  :class:`ShardFailure` records instead of aborting the campaign, skips
  every checkpointed shard on ``resume=True``, and merges the records
  back into sweep order;
* :func:`execute_shard` is the one shard attempt, wherever it runs.

Because every experiment unit is a deterministic function of the spec's
seed (benches rebuild identically from :mod:`repro.rng` streams and each
probe starts from ``fresh_experiment``), the merged record list is
identical to a sequential
:func:`~repro.characterization.campaign.run_campaign` with the same spec.

Each shard attempt ships its spans and metric deltas back with its
completion; when the job closes they merge into the caller's observer
under ``campaign.run``, so a campaign produces one trace, one metrics
snapshot, and unified progress at any worker count.  See
``docs/CAMPAIGNS.md``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.characterization import registry
from repro.characterization.campaign import CampaignSpec
from repro.characterization.runner import CharacterizationRunner
from repro.obs import (
    NULL_OBSERVER,
    MetricsRegistry,
    Observer,
    SamplingProfiler,
    TraceContext,
    Tracer,
    atomic_write_text,
    get_logger,
    monotonic_s,
)
from repro.rng import derive_seed
from repro.testkit.faults import fault_point, fault_write
from repro.testkit.points import ENGINE_CHECKPOINT_APPEND, ENGINE_SHARD_START

__all__ = [
    "ShardSpec",
    "ShardFailure",
    "EngineResult",
    "CampaignCheckpoint",
    "plan_shards",
    "execute_shard",
    "run_engine",
]

logger = get_logger("characterization.engine")

#: Checkpoint-file schema (the JSONL sidecar, not the results file).
CHECKPOINT_SCHEMA_VERSION = 1

#: Worker id the engine's driver leases its shards under.
_ENGINE_WORKER = "engine"


# ----------------------------------------------------------------------
# sharding
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardSpec:
    """One independent unit of campaign work.

    A shard covers one module, a block of consecutive site indices, and
    one sweep point; its ``seed`` is derived from the campaign seed and
    the shard coordinates, so planning is deterministic and stable
    across runs (which is what checkpoint resume keys on).
    """

    index: int
    shard_id: str
    module_id: str
    module_index: int
    site_indices: tuple[int, ...]
    sweep_index: int
    seed: int


@dataclass(frozen=True)
class ShardFailure:
    """A shard that kept failing after every retry."""

    shard_id: str
    attempts: int
    error: str
    traceback: str = ""


@dataclass
class EngineResult:
    """Outcome of one engine run (or one closed lease-table job)."""

    records: list
    failures: list[ShardFailure]
    shards_total: int
    shards_run: int
    shards_resumed: int
    retries: int
    interrupted: bool = False
    #: ``(spans, metrics_snapshot, granted_tracer_s)`` batches of the
    #: observed shard attempts, failed ones too, in completion order,
    #: for trace merging.
    trace_batches: list[tuple[list, dict, float]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every shard eventually completed (and none were skipped)."""
        return not self.failures and not self.interrupted


def plan_shards(spec: CampaignSpec, shard_size: int = 4) -> list[ShardSpec]:
    """Cut a spec into (module x site-block x sweep-point) shards.

    ``shard_size`` is the number of consecutive sites per shard; smaller
    shards parallelize further but checkpoint more often.
    """
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    experiment = registry.get(spec.experiment)
    points = len(experiment.sweep_values(spec))
    shards: list[ShardSpec] = []
    for module_index, module_id in enumerate(spec.module_ids):
        for block_start in range(0, spec.sites_per_module, shard_size):
            block = tuple(
                range(block_start, min(block_start + shard_size, spec.sites_per_module))
            )
            for sweep_index in range(points):
                shards.append(
                    ShardSpec(
                        index=len(shards),
                        shard_id=f"{module_id}/s{block[0]}-{block[-1]}/p{sweep_index}",
                        module_id=module_id,
                        module_index=module_index,
                        site_indices=block,
                        sweep_index=sweep_index,
                        seed=derive_seed(
                            spec.seed, "shard", module_id, block[0], sweep_index
                        ),
                    )
                )
    return shards


# ----------------------------------------------------------------------
# shard execution (on the driver's thread or in a slot process)
# ----------------------------------------------------------------------


def _run_shard_units(
    runner: CharacterizationRunner,
    spec: CampaignSpec,
    shard: ShardSpec,
    observer: Observer,
    fault_hook: Callable[[ShardSpec, int], None] | None = None,
    attempt: int = 0,
) -> tuple[list, int]:
    """Execute one shard's units; returns ``([(unit_index, record)], flips)``.

    ``unit_index`` is the unit's position in the sequential sweep order
    (module, then site, then sweep point), which is how the engine
    re-normalizes parallel completion order back to sequential order.
    """
    fault_point(ENGINE_SHARD_START)
    if fault_hook is not None:
        fault_hook(shard, attempt)
    experiment = registry.get(spec.experiment)
    values = experiment.sweep_values(spec)
    value = values[shard.sweep_index]
    bench = runner.bench(shard.module_id)
    sites = runner.sites(bench.module)
    units: list = []
    flips = 0
    with observer.span(
        "campaign.shard",
        shard=shard.shard_id,
        module=shard.module_id,
        attempt=attempt,
    ) as shard_span:
        for site_index in shard.site_indices:
            if site_index >= len(sites):
                continue  # geometry yielded fewer sites than requested
            site = sites[site_index]
            unit_index = (
                shard.module_index * spec.sites_per_module + site_index
            ) * len(values) + shard.sweep_index
            with observer.span(
                "experiment",
                kind=experiment.name,
                module=shard.module_id,
                row=site.row,
                value=value,
            ) as span:
                record = experiment.run_unit(
                    runner, spec, shard.module_id, site, value, observer
                )
                record_flips = experiment.flips(record)
                span.set(flips=record_flips)
            observer.metrics.counter("campaign.experiments").inc()
            flips += record_flips
            units.append((unit_index, record))
        shard_span.set(units=len(units), flips=flips)
    return units, flips


@dataclass
class _ShardOutcome:
    """Pickled result of one shard attempt (success or failure)."""

    shard: ShardSpec
    attempt: int
    ok: bool
    units: list
    flips: int
    elapsed_s: float
    error: str | None = None
    traceback_text: str | None = None
    spans: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    profile_counts: dict = field(default_factory=dict)

    def shard_line(self) -> dict:
        """The checkpoint shard-line fields (also the completion body's)."""
        return {
            "shard_id": self.shard.shard_id,
            "seed": self.shard.seed,
            "attempt": self.attempt,
            "elapsed_s": self.elapsed_s,
            "flips": self.flips,
            "units": [
                {"unit": unit_index, "record": dataclasses.asdict(record)}
                for unit_index, record in self.units
            ],
        }


#: Per-worker state: one slot holding the runner for the last spec this
#: thread executed.  Its benches persist across the shards of that spec,
#: like a Bender setup that keeps its modules socketed between
#: experiments; the next spec's first shard replaces the runner, so a
#: long-lived worker holds one spec's cell populations at a time.
#: Thread-local rather than process-global: a CharacterizationRunner
#: owns one command timeline, so concurrent fleet worker threads sharing
#: a runner would interleave ACT/PRE commands and trip timing violations.
_PROCESS_STATE = threading.local()

#: Test-only failure injection, set by :func:`run_engine` for its run
#: (slot processes fork with it).
_FAULT_HOOK: Callable[[ShardSpec, int], None] | None = None


def _process_context(
    spec_json: str, observe: bool, trace_header: str | None = None
) -> tuple[CharacterizationRunner, Observer]:
    """This thread's runner + observer for a spec (kept for the next shard)."""
    key = f"{int(observe)}:{trace_header}:{spec_json}"
    slot = getattr(_PROCESS_STATE, "slot", None)
    if slot is None or slot[0] != key:
        spec = CampaignSpec.from_json(spec_json)
        observer = (
            Observer(
                metrics=MetricsRegistry(),
                tracer=Tracer(context=TraceContext.from_header(trace_header)),
            )
            if observe
            else NULL_OBSERVER
        )
        runner = CharacterizationRunner(
            module_ids=list(spec.module_ids),
            sites_per_module=spec.sites_per_module,
            seed=spec.seed,
            observer=observer,
        )
        # Replacing the slot drops the previous spec's runner.
        slot = _PROCESS_STATE.slot = (key, runner, observer)
    return slot[1], slot[2]


def execute_shard(
    spec_json: str,
    shard: ShardSpec,
    attempt: int = 0,
    observe: bool = False,
    trace_header: str | None = None,
) -> _ShardOutcome:
    """Run one shard attempt on this thread: the one shard entry point.

    The shard driver (:mod:`repro.fleet.driver`) calls it for every
    leased shard, wherever it runs; the per-shard seed makes the records
    byte-identical.  The thread's runner for ``spec_json`` persists until
    another spec replaces it.  A failure comes back structured, with its
    traceback, never raised.  With ``observe`` the attempt's spans (timed
    from its start) and metric deltas ride in the outcome.
    """
    runner, observer = _process_context(spec_json, observe, trace_header)
    started_s = observer.tracer.now_s()
    start = monotonic_s()
    outcome = _ShardOutcome(
        shard=shard, attempt=attempt, ok=True, units=[], flips=0, elapsed_s=0.0
    )
    try:
        outcome.units, outcome.flips = _run_shard_units(
            runner,
            CampaignSpec.from_json(spec_json),
            shard,
            observer,
            fault_hook=_FAULT_HOOK,
            attempt=attempt,
        )
    except Exception as error:  # surfaced as a structured failure upstream
        outcome.ok = False
        outcome.error = f"{type(error).__name__}: {error}"
        outcome.traceback_text = traceback.format_exc()
    outcome.elapsed_s = monotonic_s() - start
    outcome.spans = observer.tracer.drain()
    for span in outcome.spans:
        span["start_s"] -= started_s
    outcome.metrics = observer.metrics.drain() if observer.metrics.enabled else {}
    return outcome


# ----------------------------------------------------------------------
# checkpointing
# ----------------------------------------------------------------------


class CampaignCheckpoint:
    """JSONL checkpoint of completed shards (see docs/CAMPAIGNS.md).

    Line 1 is a header binding the file to a spec + shard size; every
    completed shard appends one ``{"kind": "shard", ...}`` line and every
    permanent failure one ``{"kind": "failure", ...}`` line.  Appends are
    true O(1) file appends (one ``write`` syscall per line), so a
    campaign killed mid-append can leave at most one truncated trailing
    line behind — :meth:`load` tolerates that (the shard simply re-runs)
    and rewrites the file normalized, so no manual cleanup is ever
    needed.
    """

    def __init__(
        self, path: str | Path, spec: CampaignSpec, shard_size: int
    ) -> None:
        self.path = Path(path)
        self.spec = spec
        self.shard_size = shard_size
        self._completed: dict[str, dict] = {}

    # -- reading -------------------------------------------------------

    def load(self) -> dict[str, dict]:
        """Parse an existing checkpoint for resume.

        Returns ``shard_id -> shard line payload`` for completed shards.
        Old failure lines are dropped (those shards run again); a spec or
        shard-size mismatch raises :class:`ValueError` so a checkpoint
        can never silently mix two campaigns.  A truncated trailing line
        (writer killed mid-append) is logged and skipped — that shard
        re-runs — as is any other unparseable line.
        """
        text = self.path.read_text()
        lines = text.splitlines()
        header: dict | None = None
        for line_number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                if line_number == len(lines) and not text.endswith("\n"):
                    logger.warning(
                        "%s:%d: truncated trailing checkpoint line (writer "
                        "killed mid-append?); that shard will re-run",
                        self.path,
                        line_number,
                    )
                else:
                    logger.warning(
                        "%s:%d: unparseable checkpoint line skipped",
                        self.path,
                        line_number,
                    )
                continue
            kind = payload.get("kind")
            if kind == "header":
                header = payload
            elif kind == "shard":
                self._completed[payload["shard_id"]] = payload
            # "failure" lines are intentionally not carried over
        if header is None:
            raise ValueError(f"checkpoint {self.path} has no header line")
        if header.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
            raise ValueError(
                f"checkpoint {self.path} has schema version "
                f"{header.get('schema_version')!r}; this build writes "
                f"v{CHECKPOINT_SCHEMA_VERSION}"
            )
        # Normalize through JSON: the header's spec has lists where the
        # live dataclass has tuples.
        if header.get("spec") != json.loads(self.spec.to_json()):
            raise ValueError(
                f"checkpoint {self.path} was written for a different campaign "
                f"spec; refusing to resume"
            )
        if header.get("shard_size") != self.shard_size:
            raise ValueError(
                f"checkpoint {self.path} used shard_size="
                f"{header.get('shard_size')}, current run uses "
                f"{self.shard_size}; shards would not line up"
            )
        # Rewrite normalized (atomically): garbage, truncated, and stale
        # failure lines are dropped, so later appends extend a clean file.
        normalized = [json.dumps(header)] + [
            json.dumps(payload) for payload in self._completed.values()
        ]
        atomic_write_text(self.path, "\n".join(normalized) + "\n")
        return dict(self._completed)

    # -- writing -------------------------------------------------------

    def start(self) -> None:
        """Write a fresh header (discarding any previous content)."""
        self._completed = {}
        header = json.dumps(
            {
                "kind": "header",
                "schema_version": CHECKPOINT_SCHEMA_VERSION,
                "experiment": self.spec.experiment,
                "shard_size": self.shard_size,
                "spec": dataclasses.asdict(self.spec),
            }
        )
        atomic_write_text(self.path, header + "\n")

    def record_shard(self, outcome: _ShardOutcome) -> None:
        """Append one completed shard outcome."""
        self.record_shard_payload(outcome.shard_line())

    def record_shard_payload(self, payload: dict) -> None:
        """Append a completed shard already in wire/checkpoint line form.

        The completion payload the lease table accepts (see
        :mod:`repro.fleet.leases`) uses exactly the checkpoint shard-line
        schema, so an accepted shard appends verbatim — what a resumed
        run reads is byte-for-byte what the worker reported.
        """
        self._append(json.dumps({"kind": "shard", **payload}))

    def record_failure(self, failure: ShardFailure) -> None:
        """Append one permanent failure."""
        self._append(
            json.dumps(
                {
                    "kind": "failure",
                    "shard_id": failure.shard_id,
                    "attempts": failure.attempts,
                    "error": failure.error,
                    "traceback": failure.traceback,
                }
            )
        )

    def _append(self, line: str) -> None:
        # One buffered write flushed on close: a kill can truncate only
        # the line being written, which load() detects and re-runs.
        with self.path.open("a", encoding="utf-8") as handle:
            fault_write(ENGINE_CHECKPOINT_APPEND, handle.write, line + "\n")


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------


class _EngineLeaseClient:
    """The shard driver's client over :func:`run_engine`'s private table.

    One lock serializes the slots' calls.  A completion also appends the
    checkpoint line, counts ``engine.*`` and advances progress; the one
    that settles the job stops the driver.  Leases never expire here.
    """

    def __init__(self, table, job_id: str, obs: Observer) -> None:
        self.table = table
        self.job_id = job_id
        self.obs = obs
        self.on_settled: Callable[[], None] = lambda: None
        self._lock = threading.Lock()

    def lease_shards(self, worker_id, max_shards=1, wait_s=0.0) -> dict:
        # Imported here because the lease table imports this module.
        from repro.fleet.leases import grants_reply

        with self._lock:
            return grants_reply(self.table.acquire(worker_id, max_shards), wait_s)

    def lease_complete(self, lease_id, worker_id, epoch, result) -> dict:
        metrics = self.obs.metrics
        with self._lock:
            done = self.table.complete(lease_id, worker_id, epoch, result)
            if done.checkpoint_append is not None:
                done.checkpoint_append()
            if done.outcome == "accepted":
                metrics.counter("engine.shards").inc()
                metrics.histogram("engine.shard_seconds").record(result["elapsed_s"])
                self.obs.progress.advance(len(result["units"]), flips=result["flips"])
            elif done.outcome == "retry":
                metrics.counter("engine.retries").inc()
            else:
                metrics.counter("engine.shard_failures").inc()
            if self.table.job_status(self.job_id).settled:
                self.on_settled()
        return {"outcome": done.outcome}


def run_engine(
    spec: CampaignSpec,
    workers: int = 1,
    shard_size: int = 4,
    checkpoint: str | Path | None = None,
    resume: bool = False,
    max_retries: int = 2,
    observer: Observer | None = None,
    fault_hook: Callable[[ShardSpec, int], None] | None = None,
    profiler: SamplingProfiler | None = None,
) -> EngineResult:
    """Execute a campaign spec as a sharded, checkpointed campaign.

    ``workers=1`` runs shards on the caller's thread (no pool);
    ``workers>1`` runs them on that many driver slots, each with a
    process of its own, so a process that dies costs one attempt of its
    own shard.  With ``checkpoint`` set, every completed
    shard is persisted; with ``resume=True`` and an existing checkpoint,
    already-completed shards are skipped.  Shards that fail are retried
    at once, up to ``max_retries`` times, then surfaced in ``failures``.
    The returned records are order-normalized to sequential sweep order,
    so for a fully successful run they equal
    :func:`~repro.characterization.campaign.run_campaign` on the same
    spec.  ``fault_hook`` is a test-only failure injector called at the
    start of every shard attempt.  Those scheduling rules belong to the
    lease table the run goes through (see the module docstring).

    ``profiler`` (a started :class:`~repro.obs.SamplingProfiler`, usually
    the CLI's) also receives the samples slot processes take, so a
    parallel campaign still yields one profile.
    """
    # Imported here because the lease table and the driver import this module.
    from repro.fleet.driver import ShardDriver
    from repro.fleet.leases import LeaseManager

    global _FAULT_HOOK
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    obs = observer or NULL_OBSERVER
    shards = plan_shards(spec, shard_size)

    ckpt: CampaignCheckpoint | None = None
    resumed: dict[str, dict] = {}
    if checkpoint is not None:
        ckpt = CampaignCheckpoint(checkpoint, spec, shard_size)
        if resume and ckpt.path.exists():
            resumed = ckpt.load()
        else:
            ckpt.start()
    elif resume:
        raise ValueError("resume=True requires a checkpoint path")

    table = LeaseManager(ttl_s=math.inf, max_retries=max_retries)
    with obs.span(
        "campaign.run",
        campaign=spec.name,
        experiment=spec.experiment,
        engine=f"workers={workers}",
        shards=len(shards),
    ) as campaign_span:
        context = campaign_span.context()
        table.open_job(
            spec.name,
            spec.to_json(),
            shards,
            resumed,
            ckpt,
            units_total=sum(len(shard.site_indices) for shard in shards),
            observe=obs.enabled,
            trace_parent=context.to_header() if context is not None else None,
            trace_now=obs.tracer.now_s,
        )
        status = table.job_status(spec.name)
        obs.progress.start(total=status.units_total, label=f"campaign:{spec.name}")
        if status.shards_completed:
            obs.metrics.counter("engine.shards_resumed").inc(status.shards_completed)
            obs.progress.advance(status.units_done, flips=status.flips)
            logger.info(
                "resumed %d/%d shards from %s",
                status.shards_completed,
                len(shards),
                checkpoint,
            )
        previous_hook, _FAULT_HOOK = _FAULT_HOOK, fault_hook
        try:
            if not status.settled:
                client = _EngineLeaseClient(table, spec.name, obs)
                slots = min(workers, status.shards_pending)
                driver = ShardDriver(client, _ENGINE_WORKER, slots, profiler=profiler)
                client.on_settled = driver.stop
                driver.run()
        finally:
            _FAULT_HOOK = previous_hook
            # The campaign's runner goes with the call, not the thread.
            _PROCESS_STATE.slot = None
            # Even when the run raised: completed attempts keep their spans.
            result = table.close_job(spec.name)
            for spans, snapshot, granted_s in result.trace_batches:
                obs.tracer.ingest(spans, parent=campaign_span, shift_s=granted_s)
                obs.metrics.merge_snapshot(snapshot)
        campaign_span.set(
            records=len(result.records),
            shards=result.shards_total,
            resumed=result.shards_resumed,
            retries=result.retries,
            failures=len(result.failures),
        )
    obs.progress.finish()
    return result
