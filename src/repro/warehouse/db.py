"""The warehouse: a crash-safe SQLite index over campaign results.

One :class:`Warehouse` owns one database file (or ``:memory:``).  The
connection is created with ``check_same_thread=False`` and every public
method takes an internal lock, because the service calls in from
``asyncio.to_thread`` worker threads — never from the event loop.

Crash-safety contract (exercised by ``tests/test_warehouse_crash.py``):

* Every ingest path registers its source row with ``complete=0`` and
  only flips it to ``1`` in the final commit, so a kill mid-ingest
  leaves a *detectably torn* source (:meth:`Warehouse.torn_sources`,
  :meth:`Warehouse.verify`) rather than silently partial answers.
* A source's ``record_groups`` and ``group_values`` rows (its group
  totals and observations) are written in the transaction
  that makes it visible (the final commit of
  :meth:`Warehouse.ingest_records`, :meth:`Warehouse.finalize_source`,
  and any :meth:`Warehouse.ingest_shard` into a complete source, which
  rewrites them; a :meth:`Warehouse.ingest_checkpoint_file` catch-up of
  a complete source commits all its late shards with one rewrite), so
  a crash at the commit leaves neither the complete flag nor the group
  rows, nor visible records without them
  (``tests/test_warehouse_grouped.py``).  They cascade with the source
  row, and :meth:`Warehouse.verify` recomputes them from the records.
* Streaming shard ingest writes the ``shards`` provenance row and the
  shard's records in one transaction keyed by ``(source, shard_id)``,
  so a re-delivered shard (lease reassignment, worker retry) is a
  no-op — exactly-once per shard.
* The named fault points :data:`~repro.testkit.points.WAREHOUSE_INGEST`
  and :data:`~repro.testkit.points.WAREHOUSE_COMMIT` sit at the ingest
  and commit boundaries; ``testkit.faults`` can kill, fail, or delay
  them deterministically.
* :meth:`Warehouse.rebuild_from_store` drops everything and re-ingests
  from the JSONL results store — the warehouse is a derived index, the
  JSONL files stay the source of truth.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import sqlite3
import threading
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from repro.characterization.campaign import CampaignSpec, loads_results
from repro.characterization import registry
from repro.obs import Counter, Histogram, MetricsRegistry, monotonic_s
from repro.testkit.points import WAREHOUSE_COMMIT, WAREHOUSE_INGEST
from repro.testkit.faults import fault_point
from repro.warehouse.schema import (
    SCHEMA_SQL,
    WAREHOUSE_SCHEMA_VERSION,
    pragma_statements,
)

__all__ = ["Warehouse", "WarehouseError", "sweep_field"]

#: Record columns stored natively; anything else lands in ``extra``.
_COLUMN_FIELDS = (
    "module_id",
    "die_key",
    "access",
    "temperature_c",
    "t_aggon",
    "t_aggoff",
    "activation_count",
    "site_row",
    "acmin",
    "taggonmin",
    "ber",
    "bitflips",
    "one_to_zero",
)

#: Per-experiment sweep axis and primary observable, mirroring how the
#: engine enumerates sweep points (``t_aggon`` for acmin/ber sweeps,
#: ``activation_count`` for taggonmin).
_SWEEP_FIELDS = {
    "acmin": ("t_aggon", "acmin"),
    "taggonmin": ("activation_count", "taggonmin"),
    "ber": ("t_aggon", "ber"),
}

#: Columns :meth:`Warehouse.iter_rows` accepts in a projection.
_SELECTABLE_COLUMNS = frozenset(
    _COLUMN_FIELDS + ("experiment", "record_index", "sweep_value", "value")
)

#: The ``record_groups`` columns :meth:`Warehouse.group_totals` may
#: re-group by (every key column but ``experiment``, which it filters).
_GROUP_KEYS = ("module_id", "die_key", "temperature_c", "t_aggon")

#: One source's ``record_groups`` rows, computed from its records: per
#: group ``COUNT(*)``, ``COUNT(acmin)``, ``{total}``, ``MIN(acmin)``,
#: ``MAX(acmin)`` and ``{inexact}`` (see :data:`_EXACT`).
_SOURCE_GROUPS = (
    "SELECT source_id, experiment, module_id, die_key, temperature_c, "
    "t_aggon, COUNT(*), COUNT(acmin), {total}, MIN(acmin), MAX(acmin), "
    "{inexact} FROM records WHERE source_id = ? "
    "GROUP BY experiment, module_id, die_key, temperature_c, t_aggon"
)

#: The exact totals, flagged inexact where an ``acmin`` is not stored as
#: INTEGER (a non-integral ``acmin`` ingests as REAL) ...
_EXACT = {
    "total": "SUM(acmin)",
    "inexact": "MAX(typeof(acmin) NOT IN ('integer', 'null'))",
}
#: ... and, when some group's ``SUM`` raises ``integer overflow``, no
#: sums at all: every group of the source is flagged.
_OVERFLOWED = {"total": "NULL", "inexact": "1"}

#: The record columns a ``group_values`` row is built from: its key
#: (the first five), then what it stores.
_VALUE_COLUMNS = (
    "experiment",
    "module_id",
    "die_key",
    "temperature_c",
    "sweep_value",
    "record_index",
    "acmin",
    "taggonmin",
    "ber",
    "bitflips",
    "one_to_zero",
)
#: One source's records in record order, which the primary key gives
#: without a sort.
_SOURCE_RECORDS = (
    f"SELECT {', '.join(_VALUE_COLUMNS)} FROM records WHERE source_id = ? "
    "ORDER BY record_index"
)
_INDEX, _BITFLIPS, _ONE_TO_ZERO = (
    _VALUE_COLUMNS.index(name) for name in ("record_index", "bitflips", "one_to_zero")
)

#: ``group_values.value_type`` -> the dtype its observations are packed as.
_PACKED = {"integer": "<i8", "real": "<f8"}

_INSERT_VALUES = (
    "INSERT INTO group_values (source_id, experiment, module_id, die_key, "
    "temperature_c, sweep_value, records, first_index, bitflips, "
    "one_to_zero, inexact, value_type, record_indexes, observations) "
    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
)

_INSERT_RECORD = (
    "INSERT INTO records (source_id, record_index, experiment, module_id, "
    "die_key, access, temperature_c, t_aggon, t_aggoff, activation_count, "
    "site_row, sweep_value, value, acmin, taggonmin, ber, bitflips, "
    "one_to_zero) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, "
    "?, ?)"
)


class WarehouseError(RuntimeError):
    """A warehouse-level failure (schema mismatch, unknown source, ...)."""


def sweep_field(experiment: str) -> tuple[str | None, str | None]:
    """``(sweep_axis_field, observable_field)`` for an experiment name."""
    return _SWEEP_FIELDS.get(experiment, (None, None))


def _record_row(
    source_id: int, record_index: int, experiment: str, fields: dict
) -> tuple:
    sweep_name, value_name = sweep_field(experiment)
    sweep = fields.get(sweep_name) if sweep_name else None
    value = fields.get(value_name) if value_name else None
    return (
        source_id,
        record_index,
        experiment,
        fields.get("module_id"),
        fields.get("die_key"),
        fields.get("access"),
        fields.get("temperature_c"),
        fields.get("t_aggon"),
        fields.get("t_aggoff"),
        fields.get("activation_count"),
        fields.get("site_row"),
        sweep,
        value,
        fields.get("acmin"),
        fields.get("taggonmin"),
        fields.get("ber"),
        fields.get("bitflips"),
        fields.get("one_to_zero"),
    )


def _int_total(values: Iterable[object]) -> int | None:
    """``sum(int(value))``, as the ``ber`` row fold adds bitflip counts.

    ``None`` when a value is missing or not a number, or the total does
    not fit an INTEGER column: the ``ber`` report then folds rows.
    """
    try:
        total = sum(int(value) for value in values)
    except (TypeError, ValueError):
        return None
    return total if -(2**63) <= total < 2**63 else None


def _value_row(source_id: int, key: tuple, records: list[tuple]) -> tuple:
    """One ``group_values`` row from its records, in record order.

    The observations are the group's non-NULL observables (SQLite stores
    NaN as NULL, so these are what ``analytics._present`` keeps), packed
    with their record indexes.  A group whose observations are not all
    INTEGER or all REAL is flagged ``inexact``: one packed array cannot
    keep both Python types.
    """
    observable = sweep_field(key[0])[1]
    at = _VALUE_COLUMNS.index(observable) if observable is not None else None
    observed = (
        [(record[_INDEX], record[at]) for record in records if record[at] is not None]
        if at is not None
        else []
    )
    types = {type(value) for _, value in observed}
    inexact = len(types) > 1 or not types <= {int, float}
    if inexact:
        observed = []  # never read: the reports fold rows instead
    value_type = "real" if types == {float} else "integer"
    return (
        source_id,
        *key,
        len(records),
        records[0][_INDEX],
        _int_total(record[_BITFLIPS] for record in records),
        _int_total(record[_ONE_TO_ZERO] for record in records),
        int(inexact),
        value_type,
        np.array([index for index, _ in observed], dtype="<i8").tobytes(),
        np.array([value for _, value in observed], dtype=_PACKED[value_type]).tobytes(),
    )


class StoredGroup(NamedTuple):
    """One complete source's ``group_values`` row, decoded.

    ``source`` is the source's key; ``observations`` are the group's
    present observations and ``indexes`` their record indexes, both in
    record order.
    """

    source: str
    experiment: str
    module_id: str
    die_key: str
    temperature_c: float | None
    sweep_value: float | None
    records: int
    first_index: int
    bitflips: int | None
    one_to_zero: int | None
    indexes: np.ndarray
    observations: np.ndarray


class Warehouse:
    """An indexed, rebuildable, crash-safe view of campaign records."""

    def __init__(
        self,
        path: str | Path,
        metrics: MetricsRegistry | None = None,
        batch_size: int = 2000,
    ) -> None:
        self.path = str(path)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.batch_size = max(int(batch_size), 1)
        self._lock = threading.RLock()
        self._connection = sqlite3.connect(
            self.path, check_same_thread=False, timeout=30.0
        )
        self._connection.row_factory = sqlite3.Row
        cursor = self._connection.cursor()
        for statement in pragma_statements():
            cursor.execute(statement)
        # Read the version before creating anything, so an old file is
        # refused as it was found.
        has_meta = cursor.execute(
            "SELECT 1 FROM sqlite_master WHERE type = 'table' AND name = 'meta'"
        ).fetchone()
        row = (
            cursor.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if has_meta
            else None
        )
        if row is not None and row["value"] != str(WAREHOUSE_SCHEMA_VERSION):
            self._connection.close()
            raise WarehouseError(
                f"warehouse {self.path} has schema version {row['value']}, "
                f"this build writes v{WAREHOUSE_SCHEMA_VERSION}; run "
                "'repro warehouse rebuild' (the warehouse is a derived "
                "index, no data is lost)"
            )
        cursor.executescript(SCHEMA_SQL)
        if row is None:
            cursor.execute(
                "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                (str(WAREHOUSE_SCHEMA_VERSION),),
            )
        self._connection.commit()

    # -- instruments ---------------------------------------------------
    # A registry lookup builds a label key on every call.  The registry
    # is fixed at construction, so each instrument is looked up once, on
    # its first use: looking them all up at construction would add
    # zero-valued series to the registry.

    @cached_property
    def _ingests(self) -> Counter:
        return self.metrics.counter("warehouse.ingests")

    @cached_property
    def _shards_ingested(self) -> Counter:
        return self.metrics.counter("warehouse.shards_ingested")

    @cached_property
    def _shards_duplicate(self) -> Counter:
        return self.metrics.counter("warehouse.shards_duplicate")

    @cached_property
    def _records_ingested(self) -> Counter:
        return self.metrics.counter("warehouse.records_ingested")

    @cached_property
    def _ingest_seconds(self) -> Histogram:
        return self.metrics.histogram("warehouse.ingest_seconds")

    @cached_property
    def _grouped_queries(self) -> Counter:
        return self.metrics.counter("warehouse.queries", path="grouped")

    @cached_property
    def _row_queries(self) -> Counter:
        return self.metrics.counter("warehouse.queries", path="rows")

    @cached_property
    def _query_seconds(self) -> Histogram:
        return self.metrics.histogram("warehouse.query_seconds")

    @cached_property
    def _rows_fetched(self) -> Counter:
        return self.metrics.counter("warehouse.rows_fetched")

    @cached_property
    def _groups_fetched(self) -> Counter:
        return self.metrics.counter("warehouse.groups_fetched")

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Commit and close the underlying connection (idempotent)."""
        with self._lock:
            try:
                self._connection.commit()
            except sqlite3.ProgrammingError:
                return
            self._connection.close()

    def __enter__(self) -> "Warehouse":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- ingestion: batch backfill -------------------------------------

    def ingest_results_text(
        self, text: str, key: str, kind: str = "results"
    ) -> int:
        """Backfill one schema-v2 results document (JSONL interchange)."""
        spec, records = loads_results(text, source=f"warehouse:{key}")
        return self.ingest_records(spec, records, key=key, kind=kind)

    def ingest_records(
        self,
        spec: CampaignSpec,
        records: Iterable[object],
        key: str,
        kind: str = "records",
    ) -> int:
        """(Re-)ingest a full record set under ``key``; returns the count.

        The source stays ``complete=0`` across the batched commits and
        flips to ``1`` only in the final commit — a crash mid-way leaves
        a torn source that :meth:`verify` reports and ``repro warehouse
        rebuild`` repairs.
        """
        started = monotonic_s()
        experiment = registry.get(spec.experiment)
        with self._lock:
            try:
                source_id = self._begin_source(key, kind, spec)
                count = 0
                batch: list[tuple] = []
                for record in records:
                    fields = dataclasses.asdict(record)
                    batch.append(
                        _record_row(source_id, count, experiment.name, fields)
                    )
                    count += 1
                    if len(batch) >= self.batch_size:
                        self._commit_batch(batch)
                        batch = []
                if batch:
                    self._commit_batch(batch)
                cursor = self._connection.cursor()
                cursor.execute(
                    "UPDATE sources SET complete = 1, ingested_records = ? "
                    "WHERE source_id = ?",
                    (count, source_id),
                )
                self._write_groups(source_id)
                fault_point(WAREHOUSE_COMMIT)
                self._connection.commit()
            except BaseException:
                self._connection.rollback()
                raise
        self._ingests.inc()
        self._records_ingested.inc(count)
        self._ingest_seconds.record(monotonic_s() - started)
        return count

    def _commit_batch(self, batch: list[tuple]) -> None:
        fault_point(WAREHOUSE_INGEST)
        cursor = self._connection.cursor()
        cursor.executemany(_INSERT_RECORD, batch)
        fault_point(WAREHOUSE_COMMIT)
        self._connection.commit()

    def _source_groups(self, source_id: int, insert: bool = False) -> list:
        """One source's group rows from its records (stored: ``insert``)."""
        sql = ("INSERT INTO record_groups " if insert else "") + _SOURCE_GROUPS
        try:
            rows = self._connection.execute(
                sql.format(**_EXACT), (source_id,)
            ).fetchall()
        except sqlite3.OperationalError as error:
            if "integer overflow" not in str(error):
                raise
            rows = self._connection.execute(
                sql.format(**_OVERFLOWED), (source_id,)
            ).fetchall()
        return [tuple(row) for row in rows]

    def _source_values(self, source_id: int) -> list[tuple]:
        """One source's ``group_values`` rows from its records."""
        cursor = self._connection.cursor()
        cursor.row_factory = None
        groups: dict[tuple, list[tuple]] = {}
        for record in cursor.execute(_SOURCE_RECORDS, (source_id,)):
            groups.setdefault(record[:5], []).append(record)
        return [
            _value_row(source_id, key, records) for key, records in groups.items()
        ]

    def _write_groups(self, source_id: int) -> None:
        """Replace one source's ``record_groups`` and ``group_values`` rows
        (the caller commits)."""
        for table in ("record_groups", "group_values"):
            self._connection.execute(
                f"DELETE FROM {table} WHERE source_id = ?", (source_id,)
            )
        self._source_groups(source_id, insert=True)
        self._connection.executemany(_INSERT_VALUES, self._source_values(source_id))

    def _begin_source(self, key: str, kind: str, spec: CampaignSpec) -> int:
        """Register (or reset) a source row; commits ``complete=0``."""
        fault_point(WAREHOUSE_INGEST)
        cursor = self._connection.cursor()
        cursor.execute("DELETE FROM sources WHERE key = ?", (key,))
        cursor.execute(
            "INSERT INTO sources (kind, key, experiment, spec_json, "
            "ingested_records, complete) VALUES (?, ?, ?, ?, 0, 0)",
            (kind, key, spec.experiment, spec.to_json()),
        )
        source_id = int(cursor.lastrowid)
        self._connection.commit()
        return source_id

    # -- ingestion: streaming from the engine/fleet checkpoint ---------

    def open_source(
        self, spec: CampaignSpec, key: str, kind: str = "checkpoint"
    ) -> int:
        """Open a streaming source for per-shard ingest (``complete=0``)."""
        with self._lock:
            try:
                row = self._connection.execute(
                    "SELECT source_id FROM sources WHERE key = ?", (key,)
                ).fetchone()
                if row is not None:
                    return int(row["source_id"])
                return self._begin_source(key, kind, spec)
            except BaseException:
                self._connection.rollback()
                raise

    def _source_row(self, key: str) -> sqlite3.Row:
        """An open source's id, experiment and completeness (lock held)."""
        row = self._connection.execute(
            "SELECT source_id, experiment, complete FROM sources WHERE key = ?",
            (key,),
        ).fetchone()
        if row is None:
            raise WarehouseError(
                f"no open warehouse source {key!r}; call "
                "open_source() before streaming shards"
            )
        return row

    def _insert_shard(self, source: sqlite3.Row, payload: dict) -> int | None:
        """Write one shard's provenance row and records (the caller commits).

        None when the shard is already ingested: nothing is written.
        """
        source_id = int(source["source_id"])
        fault_point(WAREHOUSE_INGEST)
        cursor = self._connection.cursor()
        seed = payload.get("seed")
        cursor.execute(
            "INSERT OR IGNORE INTO shards (source_id, shard_id, "
            "seed, attempt, units) VALUES (?, ?, ?, ?, ?)",
            (
                source_id,
                payload["shard_id"],
                str(seed) if seed is not None else None,
                payload.get("attempt"),
                len(payload.get("units", ())),
            ),
        )
        if cursor.rowcount == 0:
            return None
        rows = [
            _record_row(source_id, entry["unit"], source["experiment"], entry["record"])
            for entry in payload.get("units", ())
        ]
        cursor.executemany(_INSERT_RECORD, rows)
        cursor.execute(
            "UPDATE sources SET ingested_records = "
            "ingested_records + ? WHERE source_id = ?",
            (len(rows), source_id),
        )
        return len(rows)

    def ingest_shard(self, key: str, payload: dict) -> int:
        """Ingest one checkpoint shard line exactly once.

        ``payload`` is the engine-checkpoint shard schema
        (``shard_id``/``seed``/``attempt``/``units`` with per-unit
        ``{"unit": index, "record": fields}``).  The provenance row and
        the records commit atomically, so a duplicate delivery — the
        same shard re-uploaded after a lease reassignment — is detected
        by the ``(source, shard_id)`` primary key and ingests nothing.
        A new shard of a source that is already complete rewrites the
        source's group rows in the same commit.  Returns the number of
        records ingested (0 for duplicates).
        """
        return self._ingest_shards(key, [payload])

    def _ingest_shards(self, key: str, payloads: list[dict]) -> int:
        """Ingest shards exactly once each, in one commit; returns the new records.

        Into a complete source, the new records and the source's group
        rows, rewritten once, become visible together, so a crash at
        either fault point leaves group rows that match the visible
        records.
        """
        started = monotonic_s()
        with self._lock:
            try:
                source = self._source_row(key)
                counts = [self._insert_shard(source, payload) for payload in payloads]
                new = [count for count in counts if count is not None]
                if new:
                    if source["complete"]:
                        self._write_groups(int(source["source_id"]))
                    fault_point(WAREHOUSE_COMMIT)
                    self._connection.commit()
                else:
                    self._connection.rollback()
            except BaseException:
                self._connection.rollback()
                raise
        if len(new) < len(counts):
            self._shards_duplicate.inc(len(counts) - len(new))
        if new:
            self._shards_ingested.inc(len(new))
            self._records_ingested.inc(sum(new))
            self._ingest_seconds.record(monotonic_s() - started)
        return sum(new)

    def ingest_checkpoint_file(
        self, path: str | Path, key: str, finalize: bool = False
    ) -> int:
        """Stream an engine-checkpoint JSONL file's shards into ``key``.

        Incremental and exactly-once: shards already ingested (streamed
        live by the service, or by a previous call) are skipped via the
        ``(source, shard_id)`` provenance key, so this can run while a
        campaign is in flight, after a resume, or as a catch-up at job
        completion — it converges to the checkpoint's content.  A
        truncated trailing line (writer killed mid-append) is skipped,
        matching ``CampaignCheckpoint.load``.  Shards of an incomplete
        source commit one by one (:meth:`ingest_shard`) before the
        optional :meth:`finalize_source`; late shards of a complete
        source commit together, with one rewrite of its group rows.
        Returns the number of *new* records ingested.
        """
        text = Path(path).read_text()
        lines = text.splitlines()
        spec: CampaignSpec | None = None
        shard_lines: list[dict] = []
        for line in lines:
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
            except ValueError:
                continue  # truncated trailing append; that shard re-runs
            kind = payload.get("kind")
            if kind == "header":
                spec = CampaignSpec.from_json(json.dumps(payload["spec"]))
            elif kind == "shard":
                shard_lines.append(payload)
        if spec is None:
            raise WarehouseError(
                f"checkpoint {path} has no header line; cannot ingest"
            )
        self.open_source(spec, key=key, kind="checkpoint")
        with self._lock:
            complete = self._source_row(key)["complete"]
        if complete:
            return self._ingest_shards(key, shard_lines)
        ingested = sum(self.ingest_shard(key, payload) for payload in shard_lines)
        if finalize:
            self.finalize_source(key)
        return ingested

    def finalize_source(self, key: str) -> None:
        """Mark a streaming source complete (its job finished cleanly).

        Its group rows are (re)written in the same commit.
        """
        with self._lock:
            try:
                row = self._connection.execute(
                    "SELECT source_id FROM sources WHERE key = ?", (key,)
                ).fetchone()
                if row is None:
                    raise WarehouseError(f"no warehouse source {key!r}")
                source_id = int(row["source_id"])
                self._connection.execute(
                    "UPDATE sources SET complete = 1 WHERE source_id = ?",
                    (source_id,),
                )
                self._write_groups(source_id)
                fault_point(WAREHOUSE_COMMIT)
                self._connection.commit()
            except BaseException:
                self._connection.rollback()
                raise

    # -- integrity and rebuild -----------------------------------------

    def torn_sources(self) -> list[dict]:
        """Sources whose ingest never completed (crash mid-stream)."""
        with self._lock:
            rows = self._connection.execute(
                "SELECT s.key, s.kind, s.experiment, s.ingested_records, "
                "(SELECT COUNT(*) FROM records r "
                " WHERE r.source_id = s.source_id) AS actual "
                "FROM sources s WHERE s.complete = 0 ORDER BY s.key"
            ).fetchall()
        torn = [dict(row) for row in rows]
        if torn:
            self.metrics.counter("warehouse.torn_detected").inc(len(torn))
        return torn

    def verify(self) -> dict:
        """Integrity report: torn sources, count and group-row mismatches.

        ``mismatched_groups`` lists the complete sources whose stored
        group rows — ``record_groups`` totals or ``group_values``
        observations — differ from the ones their records give; ``repro
        warehouse rebuild`` rewrites them.
        """
        report: dict = {
            "sources": [],
            "torn": [],
            "mismatched": [],
            "mismatched_groups": [],
        }
        with self._lock:
            sources = self._connection.execute(
                "SELECT s.source_id, s.key, s.kind, s.experiment, s.complete, "
                "s.ingested_records, "
                "(SELECT COUNT(*) FROM records r "
                " WHERE r.source_id = s.source_id) AS actual "
                "FROM sources s ORDER BY s.key"
            ).fetchall()
            for row in sources:
                entry = dict(row)
                source_id = entry.pop("source_id")
                report["sources"].append(entry)
                if not entry["complete"]:
                    report["torn"].append(entry["key"])
                    continue
                if entry["actual"] != entry["ingested_records"]:
                    report["mismatched"].append(entry["key"])
                if not self._groups_match(source_id):
                    report["mismatched_groups"].append(entry["key"])
        report["ok"] = not (
            report["torn"] or report["mismatched"] or report["mismatched_groups"]
        )
        return report

    def _groups_match(self, source_id: int) -> bool:
        """Whether a source's stored group rows are those of its records."""
        for table, computed in (
            ("record_groups", self._source_groups),
            ("group_values", self._source_values),
        ):
            stored = self._connection.execute(
                f"SELECT * FROM {table} WHERE source_id = ?", (source_id,)
            )
            if collections.Counter(map(tuple, stored)) != collections.Counter(
                computed(source_id)
            ):
                return False
        return True

    def rebuild_from_store(self, results_dir: str | Path) -> dict:
        """Drop everything, re-ingest every results JSON in a store dir.

        The results store (:class:`repro.service.store.ResultStore`
        layout: ``<key>.json`` schema-v2 documents) is the source of
        truth; this converges the warehouse to exactly the state a
        fresh ingest of those files produces, whatever torn state a
        crash left behind.
        """
        root = Path(results_dir)
        with self._lock:
            try:
                self._connection.execute("DELETE FROM sources")
                self._connection.commit()
            except BaseException:
                self._connection.rollback()
                raise
        ingested: dict[str, int] = {}
        for path in sorted(root.glob("*.json")):
            ingested[path.stem] = self.ingest_results_text(
                path.read_text(), key=path.stem, kind="results"
            )
        self.metrics.counter("warehouse.rebuilds").inc()
        return {"sources": len(ingested), "records": sum(ingested.values())}

    def stats(self) -> dict:
        """Row counts and completeness, for dashboards and the CLI."""
        with self._lock:
            sources = self._connection.execute(
                "SELECT COUNT(*) AS n, COALESCE(SUM(complete), 0) AS done "
                "FROM sources"
            ).fetchone()
            records = self._connection.execute(
                "SELECT COUNT(*) AS n FROM records"
            ).fetchone()
            shards = self._connection.execute(
                "SELECT COUNT(*) AS n FROM shards"
            ).fetchone()
            experiments = self._connection.execute(
                "SELECT experiment, COUNT(*) AS n FROM records "
                "GROUP BY experiment ORDER BY experiment"
            ).fetchall()
        self.metrics.gauge("warehouse.sources").set(int(sources["n"]))
        self.metrics.gauge("warehouse.records").set(int(records["n"]))
        return {
            "path": self.path,
            "schema_version": WAREHOUSE_SCHEMA_VERSION,
            "sources": int(sources["n"]),
            "sources_complete": int(sources["done"]),
            "records": int(records["n"]),
            "shards": int(shards["n"]),
            "by_experiment": {
                row["experiment"]: int(row["n"]) for row in experiments
            },
        }

    def shard_provenance(self, key: str) -> dict[str, int]:
        """``shard_id -> ingested unit count`` for one source."""
        with self._lock:
            row = self._connection.execute(
                "SELECT source_id FROM sources WHERE key = ?", (key,)
            ).fetchone()
            if row is None:
                raise WarehouseError(f"no warehouse source {key!r}")
            shards = self._connection.execute(
                "SELECT shard_id, units FROM shards WHERE source_id = ? "
                "ORDER BY shard_id",
                (int(row["source_id"]),),
            ).fetchall()
        return {shard["shard_id"]: int(shard["units"]) for shard in shards}

    # -- queries -------------------------------------------------------

    def analytics(
        self,
        report: str,
        experiment: str | None = None,
        module_id: str | None = None,
        die_key: str | None = None,
    ) -> dict:
        """Run one named analytics report (timed); see ``analytics.py``.

        Every report is answered from the stored groups
        (:func:`~repro.warehouse.analytics.grouped_report`): ``sweep``
        and ``temperature`` over ``acmin`` re-group their totals, the
        others merge their observations.  A report whose groups would
        not give the exact answer folds rows
        (:func:`~repro.warehouse.analytics.run_report`).
        ``warehouse.queries`` counts each call under the ``path`` that
        answered it.
        """
        from repro.warehouse.analytics import grouped_report, run_report

        started = monotonic_s()
        payload = grouped_report(self, report, experiment, module_id, die_key)
        if payload is None:
            payload = run_report(self, report, experiment, module_id, die_key)
            self._row_queries.inc()
        else:
            self._grouped_queries.inc()
        self._query_seconds.record(monotonic_s() - started)
        return payload

    @staticmethod
    def _where(
        experiment: str | None, module_id: str | None, die_key: str | None
    ) -> tuple[str, list[object]]:
        """The ``WHERE`` clause of a query over complete sources' records."""
        clauses = ["s.complete = 1"]
        params: list[object] = []
        for column, value in (
            ("experiment", experiment),
            ("module_id", module_id),
            ("die_key", die_key),
        ):
            if value is not None:
                clauses.append(f"r.{column} = ?")
                params.append(value)
        return "WHERE " + " AND ".join(clauses), params

    @staticmethod
    def _check_columns(columns: Iterable[str]) -> None:
        unknown = [c for c in columns if c not in _SELECTABLE_COLUMNS]
        if unknown:
            raise WarehouseError(
                f"unknown record columns {unknown}; "
                f"selectable: {sorted(_SELECTABLE_COLUMNS)}"
            )

    def _fetch(
        self, sql: str, params: list[object], fetched: Counter
    ) -> list[sqlite3.Row]:
        with self._lock:
            rows = self._connection.execute(sql, params).fetchall()
        fetched.inc(len(rows))
        return rows

    def iter_rows(
        self,
        experiment: str | None = None,
        module_id: str | None = None,
        die_key: str | None = None,
        columns: tuple[str, ...] | None = None,
    ) -> Iterator[sqlite3.Row]:
        """Complete sources' record rows in campaign sweep order.

        Ordered by ``(source key, record_index)`` so a fold over the
        rows visits records exactly as a fold over the corresponding
        JSONL documents would — the basis of the byte-equivalence
        guarantee.  ``columns`` narrows the projection to the record
        fields a fold actually reads (the columnar win: analytics
        queries materialize two or three columns, not nineteen);
        ``None`` selects everything.  Sources still streaming or torn
        (``complete=0``) are invisible.
        """
        if columns:
            self._check_columns(columns)
            select = ", ".join(f"r.{column}" for column in columns)
        else:
            select = "r.*"
        where, params = self._where(experiment, module_id, die_key)
        return iter(
            self._fetch(
                f"SELECT {select} FROM records r "
                f"JOIN sources s ON s.source_id = r.source_id {where} "
                "ORDER BY s.key, r.record_index",
                params,
                self._rows_fetched,
            )
        )

    def group_totals(
        self,
        experiment: str,
        keys: tuple[str, ...],
        field: str,
        module_id: str | None = None,
        die_key: str | None = None,
    ) -> list[tuple] | None:
        """Per-group ``acmin`` totals over complete sources.

        Re-groups the complete sources' ``record_groups`` rows by
        ``keys`` (any of ``module_id``, ``die_key``, ``temperature_c``,
        ``t_aggon``) and returns, per group, ``(*key values, COUNT(*),
        COUNT(acmin), SUM(acmin), MIN(acmin), MAX(acmin))`` over the
        matching records, in no particular order: sums of the stored
        counts and sums, the minimum of their minima, the maximum of
        their maxima.  These totals are exact and independent of row
        order only while every ``acmin`` is an INTEGER (or NULL) and
        every sum fits 64 bits, so ``None`` is returned — fold the rows
        instead — when a matching group row is flagged ``inexact`` or
        the re-grouping ``SUM`` raises ``integer overflow``.
        """
        if field != "acmin" or not set(keys) <= set(_GROUP_KEYS):
            raise WarehouseError(
                f"no stored group totals of {field!r} by {list(keys)}; "
                f"groupable: {list(_GROUP_KEYS)} of 'acmin'"
            )
        group = ", ".join(f"r.{key}" for key in keys)
        where, params = self._where(experiment, module_id, die_key)
        sql = (
            f"SELECT {group}, SUM(r.records), SUM(r.observed), "
            "SUM(r.acmin_sum), MIN(r.acmin_min), MAX(r.acmin_max), "
            "MAX(r.inexact) FROM record_groups r "
            f"JOIN sources s ON s.source_id = r.source_id {where} "
            f"GROUP BY {group}"
        )
        try:
            rows = self._fetch(sql, params, self._groups_fetched)
        except sqlite3.OperationalError as error:
            if "integer overflow" not in str(error):
                raise
            return None
        if any(row[-1] for row in rows):
            return None
        return [tuple(row)[:-1] for row in rows]

    def stored_groups(
        self,
        experiment: str | None = None,
        module_id: str | None = None,
        die_key: str | None = None,
    ) -> list[StoredGroup] | None:
        """Complete sources' ``group_values`` rows, decoded, by source key.

        One statement, filtered like :meth:`iter_rows`.  Within a group
        the observations are in record order; merging groups by
        ``(source, index)`` gives the order :meth:`iter_rows` visits
        them in.  ``None`` — fold the rows instead — when a matching
        group is flagged ``inexact``.
        """
        where, params = self._where(experiment, module_id, die_key)
        rows = self._fetch(
            "SELECT s.key, r.experiment, r.module_id, r.die_key, "
            "r.temperature_c, r.sweep_value, r.records, r.first_index, "
            "r.bitflips, r.one_to_zero, r.inexact, r.value_type, "
            "r.record_indexes, r.observations FROM group_values r "
            f"JOIN sources s ON s.source_id = r.source_id {where} "
            "ORDER BY s.key",
            params,
            self._groups_fetched,
        )
        if any(row["inexact"] for row in rows):
            return None
        return [
            StoredGroup(
                *row[:10],
                np.frombuffer(row["record_indexes"], dtype="<i8"),
                np.frombuffer(row["observations"], dtype=_PACKED[row["value_type"]]),
            )
            for row in rows
        ]

    def count_records(self) -> int:
        """Every ingested record, torn and streaming sources included."""
        with self._lock:
            row = self._connection.execute(
                "SELECT COUNT(*) AS n FROM records"
            ).fetchone()
        return int(row["n"])
