"""Analytics reports over warehouse rows.

Every report is a fold over record mappings — plain dicts (as a JSONL
fold produces via ``dataclasses.asdict``) or ``sqlite3.Row`` objects (as
:meth:`repro.warehouse.db.Warehouse.iter_rows` yields) — using the
aggregation primitives from :mod:`repro.characterization.results`
(``box_stats``, the ``DieAggregate`` mean/min/max math).  A warehouse
answer is byte-for-byte the answer a pure-Python fold over the same
JSONL records computes (``tests/test_warehouse_diff.py`` holds that
under hand-built and generated record sets), because the work is split
by what stays exact in any order:

* SQLite computes counts, integer sums, minima and maxima.  None of
  them depends on the order rows are visited in, so each source's
  ``acmin`` totals per (module, die, temperature, t_AggON) are stored
  in ``record_groups`` when the source becomes complete, and
  :meth:`~repro.warehouse.db.Warehouse.analytics` answers ``sweep`` and
  ``temperature`` over ``acmin`` (an INTEGER column, their default
  experiment) by re-grouping those rows (:func:`grouped_report`): sums
  of counts and sums, the minimum of minima, the maximum of maxima.  A
  query reads one row per source and group, not one per record.
* Python computes every float sum, in record order.  Float addition is
  not associative and ``GROUP BY`` feeds ``SUM`` in its sorter's order
  (SQLite 3.43+ also compensates REAL sums, as CPython 3.12's ``sum``
  does), so the REAL observables (``taggonmin``, ``ber``) and the
  ``acmin``, ``ber`` and ``modules`` reports fold rows ordered by
  ``(source key, record_index)`` — the JSONL record order
  (:func:`run_report`).
* The grouped path falls back to the row fold when a matching group
  row is flagged inexact (an ``acmin`` not stored as INTEGER — an
  ingested non-integral ``acmin`` is stored as REAL — or a source's
  ``SUM`` past 64 bits) or when the re-grouping ``SUM`` overflows.

Both paths reduce a group to the same five numbers — count, observed,
sum, minimum, maximum — and :func:`_finish` turns them into the summary,
so each report's shape is written once.

Reports (also the ``GET /v1/analytics/{report}`` catalog, see
``docs/WAREHOUSE.md``):

* ``acmin`` — ACmin box-percentiles per die revision (paper Figs. 6-7).
* ``temperature`` — per-die, per-temperature observable summaries plus
  deltas against the coolest temperature (Figs. 13-15).
* ``ber`` — BER curves per die over the t_AggON sweep (Figs. 22, 25).
* ``sweep`` — per-die, per-temperature summaries at every sweep point
  of an experiment's axis (the raw series behind Figs. 6, 9, 13).
* ``modules`` — per-module summaries across experiments (Table 1 view).
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from repro.characterization.results import box_stats

__all__ = [
    "REPORTS",
    "fold_acmin_percentiles",
    "fold_ber_curves",
    "fold_module_summaries",
    "fold_sweep_summaries",
    "fold_temperature_deltas",
    "grouped_report",
    "observable_field",
    "run_report",
]

#: Report name -> the experiment whose records it folds (``None``: any).
REPORTS: dict[str, str | None] = {
    "acmin": "acmin",
    "temperature": None,
    "ber": "ber",
    "sweep": None,
    "modules": None,
}

#: Primary observable per experiment (the field a report summarizes).
_OBSERVABLES = {"acmin": "acmin", "taggonmin": "taggonmin", "ber": "ber"}

#: Sweep-axis record field per experiment (how the engine enumerates
#: sweep points; mirrors ``repro.warehouse.db.sweep_field``).
_SWEEP_AXES = {"acmin": "t_aggon", "taggonmin": "activation_count", "ber": "t_aggon"}

#: Observables stored in an INTEGER column, whose group totals SQLite
#: computes exactly (``taggonmin`` and ``ber`` are REAL).
_INTEGER_OBSERVABLES = frozenset({"acmin"})


def observable_field(experiment: str) -> str | None:
    """The summarized record field for an experiment (None: unknown)."""
    return _OBSERVABLES.get(experiment)


def _present(values: Iterable[float | None]) -> list[float]:
    """Drop missing observations, preserving record order.

    The same filter :func:`repro.characterization.results.aggregate_by_die`
    applies — ``None`` (no bitflip within budget) and NaN never enter a
    mean.
    """
    return [
        v for v in values if v is not None and not math.isnan(float(v))
    ]


def _tally(values: list[float | None]) -> tuple:
    """A group's five totals, folded in record order.

    ``(count, observed, total, minimum, maximum)``: every record, the
    present observations, their sum and extremes (``None`` when nothing
    is present) — the numbers a SQL ``GROUP BY`` returns per group.
    """
    present = _present(values)
    if not present:
        return len(values), 0, None, None, None
    return len(values), len(present), sum(present), min(present), max(present)


def _finish(
    count: int, observed: int, total: float | None, minimum, maximum
) -> dict:
    """Count/observed/mean/min/max, the ``DieAggregate`` way."""
    return {
        "count": count,
        "observed": observed,
        "hit_fraction": observed / count if count else 0.0,
        "mean": total / observed if observed else None,
        "minimum": minimum,
        "maximum": maximum,
    }


def _summary(values: list[float | None]) -> dict:
    return _finish(*_tally(values))


def _box(values: list[float | None]) -> dict | None:
    """Box-and-whiskers percentiles (paper footnote 2), or ``None``."""
    present = _present(values)
    if not present:
        return None
    stats = box_stats(present)
    return {
        "minimum": stats.minimum,
        "first_quartile": stats.first_quartile,
        "median": stats.median,
        "third_quartile": stats.third_quartile,
        "maximum": stats.maximum,
        "mean": stats.mean,
    }


def fold_acmin_percentiles(rows: Iterable[Mapping]) -> dict:
    """ACmin percentiles per die revision over ``acmin`` records."""
    groups: dict[str, list[float | None]] = {}
    for row in rows:
        groups.setdefault(row["die_key"], []).append(row["acmin"])
    dies = {}
    for die_key in sorted(groups):
        values = groups[die_key]
        entry = _summary(values)
        entry["percentiles"] = _box(values)
        dies[die_key] = entry
    return {"report": "acmin", "experiment": "acmin", "dies": dies}


def fold_temperature_deltas(
    rows: Iterable[Mapping], experiment: str
) -> dict:
    """Per-die, per-temperature summaries + deltas vs the coolest point.

    ``delta_vs_coolest`` is the ratio of each temperature's mean
    observable to the mean at that die's lowest temperature — the
    paper's 50C-to-80C comparison generalized to any sweep.
    """
    field = observable_field(experiment)
    groups: dict[tuple[str, float], list[float | None]] = {}
    for row in rows:
        key = (row["die_key"], float(row["temperature_c"]))
        groups.setdefault(key, []).append(
            row[field] if field is not None else None
        )
    return _temperature_payload(
        {key: _tally(values) for key, values in groups.items()}, experiment
    )


def _temperature_payload(
    tallies: Mapping[tuple[str, float], tuple], experiment: str
) -> dict:
    """The ``temperature`` report from ``(die, temperature)`` totals."""
    by_die: dict[str, dict[float, dict]] = {}
    for die_key, temp in sorted(tallies):
        by_die.setdefault(die_key, {})[temp] = _finish(
            *tallies[(die_key, temp)]
        )
    dies = {}
    for die_key, summaries in by_die.items():
        coolest = next(iter(summaries))
        base_mean = summaries[coolest]["mean"]
        deltas = {}
        for temp, summary in summaries.items():
            mean = summary["mean"]
            deltas[str(temp)] = (
                mean / base_mean
                if mean is not None and base_mean not in (None, 0)
                else None
            )
        dies[die_key] = {
            "temperatures": {
                str(temp): summary for temp, summary in summaries.items()
            },
            "coolest": coolest,
            "delta_vs_coolest": deltas,
        }
    return {
        "report": "temperature",
        "experiment": experiment,
        "dies": dies,
    }


def fold_ber_curves(rows: Iterable[Mapping]) -> dict:
    """BER vs t_AggON per die: mean BER, bitflip totals, 1->0 fraction."""
    groups: dict[str, dict[float, list[Mapping]]] = {}
    for row in rows:
        by_sweep = groups.setdefault(row["die_key"], {})
        by_sweep.setdefault(float(row["t_aggon"]), []).append(row)
    dies = {}
    for die_key in sorted(groups):
        curve = []
        for sweep in sorted(groups[die_key]):
            bucket = groups[die_key][sweep]
            bers = [entry["ber"] for entry in bucket]
            present = _present(bers)
            bitflips = sum(int(entry["bitflips"]) for entry in bucket)
            one_to_zero = sum(int(entry["one_to_zero"]) for entry in bucket)
            curve.append(
                {
                    "t_aggon": sweep,
                    "count": len(bucket),
                    "mean_ber": (
                        sum(present) / len(present) if present else None
                    ),
                    "max_ber": max(present) if present else None,
                    "bitflips": bitflips,
                    "one_to_zero_fraction": (
                        one_to_zero / bitflips if bitflips else None
                    ),
                }
            )
        dies[die_key] = curve
    return {"report": "ber", "experiment": "ber", "dies": dies}


def fold_sweep_summaries(rows: Iterable[Mapping], experiment: str) -> dict:
    """Observable summaries at every sweep point, per die and temperature.

    The raw series behind the sweep figures: ``dies[die][str(temp)]``
    is the list of per-sweep-point summaries in ascending axis order —
    for ``acmin`` that is mean/min/max ACmin vs t_AggON (Fig. 6), and
    comparing two temperatures' series gives the 50C-vs-80C view
    (Figs. 13-14).
    """
    axis = _SWEEP_AXES.get(experiment)
    field = observable_field(experiment)
    groups: dict[tuple[str, float, float], list[float | None]] = {}
    for row in rows:
        key = (
            row["die_key"],
            float(row["temperature_c"]),
            float(row[axis]) if axis is not None else 0.0,
        )
        groups.setdefault(key, []).append(
            row[field] if field is not None else None
        )
    return _sweep_payload(
        {key: _tally(values) for key, values in groups.items()}, experiment
    )


def _sweep_payload(
    tallies: Mapping[tuple[str, float, float], tuple], experiment: str
) -> dict:
    """The ``sweep`` report from ``(die, temperature, sweep)`` totals."""
    dies: dict[str, dict[str, list[dict]]] = {}
    for die_key, temp, sweep in sorted(tallies):
        dies.setdefault(die_key, {}).setdefault(str(temp), []).append(
            {"sweep": sweep, **_finish(*tallies[(die_key, temp, sweep)])}
        )
    return {
        "report": "sweep",
        "experiment": experiment,
        "axis": _SWEEP_AXES.get(experiment),
        "dies": dies,
    }


def fold_module_summaries(rows: Iterable[Mapping]) -> dict:
    """Per-module, per-experiment observable summaries."""
    groups: dict[tuple[str, str], list[Mapping]] = {}
    for row in rows:
        key = (row["module_id"], row["experiment"])
        groups.setdefault(key, []).append(row)
    modules: dict[str, dict] = {}
    for module_id, experiment in sorted(groups):
        bucket = groups[(module_id, experiment)]
        field = observable_field(experiment)
        values = [
            entry[field] if field is not None else None for entry in bucket
        ]
        entry = _summary(values)
        entry["die_key"] = bucket[0]["die_key"]
        modules.setdefault(module_id, {})[experiment] = entry
    return {"report": "modules", "modules": modules}


def _report_columns(report: str, experiment: str | None) -> tuple[str, ...]:
    """The record columns a report's fold reads — the projection the
    warehouse materializes instead of full nineteen-column rows."""
    field = observable_field(experiment) if experiment else None
    if report == "acmin":
        return ("die_key", "acmin")
    if report == "temperature":
        columns = ["die_key", "temperature_c"]
        if field is not None:
            columns.append(field)
        return tuple(columns)
    if report == "ber":
        return ("die_key", "t_aggon", "ber", "bitflips", "one_to_zero")
    if report == "sweep":
        columns = ["die_key", "temperature_c"]
        axis = _SWEEP_AXES.get(experiment or "")
        if axis is not None:
            columns.append(axis)
        if field is not None and field not in columns:
            columns.append(field)
        return tuple(columns)
    return ("module_id", "experiment", "die_key", "acmin", "taggonmin", "ber")


def _selected_experiment(report: str, experiment: str | None) -> str | None:
    """The experiment whose records ``report`` folds."""
    fixed = REPORTS[report]
    selected = fixed if fixed is not None else experiment
    if report in ("temperature", "sweep") and selected is None:
        selected = "acmin"  # the paper's headline sweeps are ACmin
    return selected


def grouped_report(
    warehouse,
    report: str,
    experiment: str | None = None,
    module_id: str | None = None,
    die_key: str | None = None,
) -> dict | None:
    """``report`` from SQL group totals, or ``None`` for the row fold.

    Only ``sweep`` and ``temperature`` over an INTEGER observable
    re-group stored totals
    (:meth:`~repro.warehouse.db.Warehouse.group_totals`); any
    other report, a REAL observable, or totals the warehouse declines
    (a value not stored as INTEGER, a 64-bit ``SUM`` overflow) return
    ``None``, and the caller folds rows with :func:`run_report`.
    """
    if report not in ("temperature", "sweep"):
        return None
    selected = _selected_experiment(report, experiment)
    field = observable_field(selected)
    if field not in _INTEGER_OBSERVABLES:
        return None
    keys: tuple[str, ...] = ("die_key", "temperature_c")
    if report == "sweep":
        keys += (_SWEEP_AXES[selected],)
    rows = warehouse.group_totals(
        selected, keys, field, module_id=module_id, die_key=die_key
    )
    if rows is None:
        return None
    width = len(keys)
    tallies = {
        (row[0], *map(float, row[1:width])): tuple(row[width:])
        for row in rows
    }
    if report == "sweep":
        return _sweep_payload(tallies, selected)
    return _temperature_payload(tallies, selected)


def run_report(
    warehouse,
    report: str,
    experiment: str | None = None,
    module_id: str | None = None,
    die_key: str | None = None,
) -> dict:
    """Fold one named report over ``warehouse.iter_rows``.

    The row fold every report has; ``warehouse`` is anything with the
    :meth:`~repro.warehouse.db.Warehouse.iter_rows` signature.  Raises
    :class:`KeyError` for an unknown report name (the service maps that
    to a 404 listing the catalog).
    """
    if report not in REPORTS:
        raise KeyError(
            f"unknown analytics report {report!r}; "
            f"known: {sorted(REPORTS)}"
        )
    selected = _selected_experiment(report, experiment)
    rows = warehouse.iter_rows(
        experiment=selected,
        module_id=module_id,
        die_key=die_key,
        columns=_report_columns(report, selected),
    )
    if report == "acmin":
        return fold_acmin_percentiles(rows)
    if report == "temperature":
        return fold_temperature_deltas(rows, experiment=selected)
    if report == "ber":
        return fold_ber_curves(rows)
    if report == "sweep":
        return fold_sweep_summaries(rows, experiment=selected)
    return fold_module_summaries(rows)
