"""Columnar result warehouse: an indexed, rebuildable view of results.

JSONL (schema-v2 results files, engine checkpoints) stays the
interchange format; this package maintains a derived SQLite index with
tuned pragmas so aggregate queries — ACmin percentiles per die
revision, temperature deltas, BER curves, per-module summaries — are
indexed reads instead of whole-file replays.  See ``docs/WAREHOUSE.md``.

* :class:`~repro.warehouse.db.Warehouse` — ingest (batch backfill and
  streaming per-shard), per-source stored groups (totals and
  observations), integrity checks, rebuild, ordered row queries.
* :mod:`~repro.warehouse.analytics` — the report folds, shared with the
  pure-JSONL path, and the stored-group path that feeds their payload
  builders, so answers are byte-equivalent by construction.
"""

from repro.warehouse.analytics import (
    REPORTS,
    fold_acmin_percentiles,
    fold_ber_curves,
    fold_module_summaries,
    fold_sweep_summaries,
    fold_temperature_deltas,
    observable_field,
    run_report,
)
from repro.warehouse.db import Warehouse, WarehouseError, sweep_field
from repro.warehouse.schema import WAREHOUSE_SCHEMA_VERSION

__all__ = [
    "REPORTS",
    "WAREHOUSE_SCHEMA_VERSION",
    "Warehouse",
    "WarehouseError",
    "fold_acmin_percentiles",
    "fold_ber_curves",
    "fold_module_summaries",
    "fold_sweep_summaries",
    "fold_temperature_deltas",
    "observable_field",
    "run_report",
    "sweep_field",
]
