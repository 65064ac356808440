"""Spans around calls into each layer's public functions.

:func:`install` wraps the functions in :data:`TARGETS` from outside the
program: nothing under ``src/`` changes.  Several modules import a
function by name (``runner`` and ``registry`` import ``measure_ber``,
``fleet.worker`` imports ``execute_shard``), so a wrapped function is
also patched into every already-imported ``repro`` module that holds the
original, and wrapped methods are patched on their class.

Each call records one span ``[name, start, end, parent, extra]`` in
memory (``parent`` is the index of the innermost open span of the same
thread, ``-1`` at the top); :meth:`SpanRecorder.dump` writes them all
when the run ends.  A layer is the span-name prefix before the first dot.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
import weakref
from pathlib import Path

#: (module, attribute path, span name) of every wrapped call.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.dram.cells", "CellPopulation.row", "dram.row"),
    ("repro.dram.device", "DramDevice.act", "dram.device"),
    ("repro.dram.device", "DramDevice.precharge", "dram.device"),
    ("repro.dram.device", "DramDevice.read_row", "dram.device"),
    ("repro.dram.device", "DramDevice.write_row", "dram.device"),
    ("repro.dram.device", "DramDevice.deposit_episodes", "dram.device"),
    ("repro.bender.infrastructure", "TestingInfrastructure.execute", "bender.execute"),
    ("repro.bender.isa", "compile_program", "bender.compile"),
    ("repro.characterization.acmin", "AcminSearch.search", "characterization.unit"),
    ("repro.characterization.ber", "measure_ber", "characterization.unit"),
    ("repro.characterization.registry", "AcminExperiment.run_unit", "characterization.run_unit"),
    ("repro.characterization.registry", "BerExperiment.run_unit", "characterization.run_unit"),
    ("repro.characterization.engine", "run_engine", "engine.run"),
    ("repro.characterization.engine", "execute_shard", "engine.execute_shard"),
    ("repro.characterization.engine", "CampaignCheckpoint.record_shard", "engine.checkpoint"),
    ("repro.characterization.engine", "CampaignCheckpoint.record_shard_payload", "engine.checkpoint"),
    ("repro.service.client", "ServiceClient.lease_shards", "fleet.lease"),
    ("repro.service.client", "ServiceClient.lease_complete", "fleet.complete"),
    ("repro.fleet.leases", "LeaseManager.open_job", "fleet.open_job"),
    ("repro.fleet.leases", "LeaseManager.acquire", "fleet.acquire"),
    ("repro.fleet.leases", "LeaseManager.complete", "fleet.accept"),
    ("repro.service.client", "ServiceClient.submit", "service.submit"),
    ("repro.service.client", "ServiceClient.stream_events", "service.events"),
    ("repro.service.client", "ServiceClient.fetch_results_text", "service.results"),
    ("repro.service.client", "ServiceClient.analytics", "service.analytics"),
    ("repro.service.store", "ResultStore.put", "service.store_put"),
    ("repro.service.jobs", "JobManager.persist", "service.persist"),
    ("repro.warehouse.db", "Warehouse.ingest_results_text", "warehouse.bulk_ingest"),
    ("repro.warehouse.db", "Warehouse.ingest_shard", "warehouse.shard_ingest"),
    ("repro.warehouse.db", "Warehouse.ingest_checkpoint_file", "warehouse.finalize"),
    ("repro.warehouse.db", "Warehouse.analytics", "warehouse.query"),
)

#: Modules that import a target by name; imported before patching so the
#: scan in :func:`install` finds their copies.
_LOOKUP_MODULES = (
    "repro.bender",
    "repro.characterization.runner",
    "repro.characterization.registry",
    "repro.characterization.campaign",
    "repro.fleet.worker",
    "repro.service.server",
    "repro.cli",
)


class SpanRecorder:
    """In-memory spans of one process, one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def end(self, index: int, extra: object = None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] = extra
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


def _extra(name: str, args: tuple, result: object, state: dict) -> object:
    """Per-call facts a layer metric needs, read from arguments/results."""
    if name == "dram.row":
        seen = state["rows"].setdefault(args[0], set())
        first = args[1:4] not in seen
        seen.add(args[1:4])
        return 1 if first else 0  # a miss is a row's first touch
    if name == "bender.execute":
        return getattr(result, "activations", 0)
    if name == "fleet.lease":
        return len(result.get("leases", [])) if isinstance(result, dict) else 0
    if name == "fleet.acquire":
        return [grant.job_id for grant in result]
    if name == "fleet.open_job":
        return args[1]
    if name == "warehouse.shard_ingest" or name == "warehouse.bulk_ingest":
        return result
    return None


def _wrap(recorder: SpanRecorder, name: str, function, state: dict):
    if name == "service.events":

        @functools.wraps(function)
        def generator_wrapper(*args, **kwargs):
            index = recorder.begin(name)
            try:
                yield from function(*args, **kwargs)
            finally:
                recorder.end(index)

        return generator_wrapper

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        index = recorder.begin(name)
        result = None
        try:
            result = function(*args, **kwargs)
            return result
        finally:
            recorder.end(index, _extra(name, args, result, state))

    return wrapper


def install(recorder: SpanRecorder) -> None:
    """Wrap every target and patch it wherever it is looked up."""
    for module_name in _LOOKUP_MODULES:
        importlib.import_module(module_name)
    state: dict = {"rows": weakref.WeakKeyDictionary()}
    for module_name, path, name in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attribute = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = owner.__dict__[attribute]
        wrapped = _wrap(recorder, name, original, state)
        setattr(owner, attribute, wrapped)
        if owner_name:
            continue
        for other in list(sys.modules.values()):
            other_name = getattr(other, "__name__", "")
            if other_name.startswith("repro") and getattr(other, attribute, None) is original:
                setattr(other, attribute, wrapped)
