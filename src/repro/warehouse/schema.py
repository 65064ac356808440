"""Warehouse schema and tuned SQLite pragmas.

The warehouse is a *derived* columnar index over schema-v2 results
(:mod:`repro.characterization.campaign`): JSONL stays the interchange
format, the SQLite file is rebuildable at any time from the results
store, and every query answer must be byte-equivalent to a pure-Python
fold over the same JSONL records (the differential suite in
``tests/test_warehouse_diff.py`` enforces this).

Pragma tuning follows the proven calibration-database recipe
(SNIPPETS.md snippet 3): explicit page size, a fixed-size page cache
expressed in KiB (negative ``cache_size``), WAL journaling so ingest
commits are sequential appends, and exclusive locking because exactly
one :class:`repro.warehouse.db.Warehouse` owns a file at a time (the
service guards its connection with a lock; CLI and bench usage is
single-process).
"""

from __future__ import annotations

__all__ = [
    "CACHE_SIZE_BYTES",
    "PAGE_SIZE",
    "SCHEMA_SQL",
    "WAREHOUSE_SCHEMA_VERSION",
    "cache_size_pragma",
    "pragma_statements",
]

#: Bump when the table layout changes; an on-disk mismatch demands a
#: ``repro warehouse rebuild`` (the file is derived, never the truth).
#: v2: the ``(experiment, die_key)`` index covers the grouped reports.
#: v3: per-source group totals in ``record_groups``; the index is
#: narrow again.
#: v4: per-source group observations in ``group_values``.
WAREHOUSE_SCHEMA_VERSION = 4

#: SQLite page size.  4 KiB matches common filesystem block sizes; the
#: records table is wide but rows are small, so small pages keep the
#: (module, experiment, sweep) index dense.
PAGE_SIZE = 4096

#: Page-cache budget.  16 MiB holds the whole index working set for a
#: ~100k-record fixture, so aggregate queries never re-read pages.
CACHE_SIZE_BYTES = 16 * 1024 * 1024


def cache_size_pragma(budget_bytes: int = CACHE_SIZE_BYTES) -> int:
    """``PRAGMA cache_size`` value for a byte budget (negative = KiB)."""
    return -(budget_bytes // 1024)


def pragma_statements() -> tuple[str, ...]:
    """The connection-setup pragmas, in application order.

    ``page_size`` must precede the first write to an empty database;
    ``locking_mode=EXCLUSIVE`` skips per-query lock acquisition for the
    single-owner access pattern; ``journal_mode=WAL`` turns ingest
    commits into log appends; ``synchronous=NORMAL`` is durable-enough
    for a derived index that can always be rebuilt.
    """
    return (
        f"PRAGMA page_size={PAGE_SIZE}",
        f"PRAGMA cache_size={cache_size_pragma()}",
        "PRAGMA locking_mode=EXCLUSIVE",
        "PRAGMA journal_mode=WAL",
        "PRAGMA synchronous=NORMAL",
        "PRAGMA temp_store=MEMORY",
        "PRAGMA foreign_keys=ON",
    )


#: The whole warehouse layout.  ``sources`` carries ingest provenance
#: and the torn-ingest flag (``complete=0`` until the final commit);
#: ``shards`` records exactly-once streaming ingestion per checkpoint
#: shard; ``records`` is the columnar index itself, keyed by
#: ``(source_id, record_index)`` where ``record_index`` is the record's
#: position in the campaign's sequential sweep order — the same order
#: the JSONL results file lists them — so ordered retrieval replays the
#: JSONL fold exactly.  ``record_groups`` holds each complete source's
#: ``acmin`` totals per (experiment, module, die, temperature,
#: t_AggON): record count, observed count, sum, minimum, maximum and an
#: ``inexact`` flag (an ``acmin`` not stored as INTEGER, or a ``SUM``
#: past 64 bits).  They are written by one ``GROUP BY`` over the
#: source's records in the transaction that makes it complete, and the
#: grouped ``sweep``/``temperature`` reports re-group them instead of
#: reading ``records``.  ``group_values`` holds, in the same
#: transaction, each complete source's observations per (experiment,
#: module, die, temperature, sweep point): the record count, the first
#: record index, the present observations and their record indexes as
#: packed little-endian arrays (``value_type`` ``integer``: int64,
#: ``real``: float64), the ``bitflips``/``one_to_zero`` totals, and an
#: ``inexact`` flag (observations of both storage classes).  The sweep
#: point is ``sweep_value``: t_AggON for ``acmin`` (the same groups as
#: ``record_groups``) and ``ber``, the activation count for
#: ``taggonmin``.  Every other report reads these rows, not ``records``;
#: they sit in their own table so that the ``record_groups`` scans stay
#: narrow.
SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS sources (
    source_id        INTEGER PRIMARY KEY,
    kind             TEXT NOT NULL,
    key              TEXT NOT NULL UNIQUE,
    experiment       TEXT NOT NULL,
    spec_json        TEXT NOT NULL,
    ingested_records INTEGER NOT NULL DEFAULT 0,
    complete         INTEGER NOT NULL DEFAULT 0
);

CREATE TABLE IF NOT EXISTS shards (
    source_id INTEGER NOT NULL REFERENCES sources(source_id)
        ON DELETE CASCADE,
    shard_id  TEXT NOT NULL,
    seed      TEXT,    -- provenance only; engine seeds exceed 63 bits
    attempt   INTEGER,
    units     INTEGER NOT NULL,
    PRIMARY KEY (source_id, shard_id)
);

CREATE TABLE IF NOT EXISTS records (
    source_id        INTEGER NOT NULL REFERENCES sources(source_id)
        ON DELETE CASCADE,
    record_index     INTEGER NOT NULL,
    experiment       TEXT NOT NULL,
    module_id        TEXT NOT NULL,
    die_key          TEXT NOT NULL,
    access           TEXT,
    temperature_c    REAL,
    t_aggon          REAL,
    t_aggoff         REAL,
    activation_count INTEGER,
    site_row         INTEGER,
    sweep_value      REAL,
    value            REAL,
    acmin            INTEGER,
    taggonmin        REAL,
    ber              REAL,
    bitflips         INTEGER,
    one_to_zero      INTEGER,
    PRIMARY KEY (source_id, record_index)
);

CREATE INDEX IF NOT EXISTS idx_records_module_experiment_sweep
    ON records (module_id, experiment, sweep_value);

CREATE INDEX IF NOT EXISTS idx_records_experiment_die
    ON records (experiment, die_key);

CREATE TABLE IF NOT EXISTS record_groups (
    source_id     INTEGER NOT NULL REFERENCES sources(source_id)
        ON DELETE CASCADE,
    experiment    TEXT NOT NULL,
    module_id     TEXT NOT NULL,
    die_key       TEXT NOT NULL,
    temperature_c REAL,
    t_aggon       REAL,
    records       INTEGER NOT NULL,
    observed      INTEGER NOT NULL,
    acmin_sum     INTEGER,
    acmin_min     INTEGER,
    acmin_max     INTEGER,
    inexact       INTEGER NOT NULL
);

CREATE INDEX IF NOT EXISTS idx_record_groups_source
    ON record_groups (source_id);

CREATE TABLE IF NOT EXISTS group_values (
    source_id      INTEGER NOT NULL REFERENCES sources(source_id)
        ON DELETE CASCADE,
    experiment     TEXT NOT NULL,
    module_id      TEXT NOT NULL,
    die_key        TEXT NOT NULL,
    temperature_c  REAL,
    sweep_value    REAL,
    records        INTEGER NOT NULL,
    first_index    INTEGER NOT NULL,
    bitflips       INTEGER,
    one_to_zero    INTEGER,
    inexact        INTEGER NOT NULL,
    value_type     TEXT NOT NULL,
    record_indexes BLOB NOT NULL,
    observations   BLOB NOT NULL
);

CREATE INDEX IF NOT EXISTS idx_group_values_source
    ON group_values (source_id);
"""
