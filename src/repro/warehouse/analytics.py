"""Analytics reports over warehouse rows.

Every report is a fold over record mappings — plain dicts (as a JSONL
fold produces via ``dataclasses.asdict``) or ``sqlite3.Row`` objects (as
:meth:`repro.warehouse.db.Warehouse.iter_rows` yields) — using the
aggregation primitives from :mod:`repro.characterization.results`
(``sorted_box_stats``, the ``DieAggregate`` mean/min/max math).  A warehouse
answer is byte-for-byte the answer a pure-Python fold over the same
JSONL records computes (``tests/test_warehouse_diff.py`` holds that
under hand-built and generated record sets), yet
:meth:`~repro.warehouse.db.Warehouse.analytics` reads no record row: it
answers from the groups each source stores when it becomes complete,
one row per (experiment, module, die, temperature, sweep point)
(:func:`grouped_report`).  The work is split by what stays exact in any
order:

* SQLite computes counts, integer sums, minima and maxima.  None of
  them depends on the order rows are visited in, so each source's
  ``acmin`` totals per group are stored in ``record_groups``, and
  ``sweep`` and ``temperature`` over ``acmin`` (an INTEGER column,
  their default experiment) re-group those rows: sums of counts and
  sums, the minimum of minima, the maximum of maxima.
* Python computes every float sum, in record order.  Float addition is
  not associative and ``GROUP BY`` feeds ``SUM`` in its sorter's order
  (SQLite 3.43+ also compensates REAL sums, as CPython 3.12's ``sum``
  does).  So each group's present observations and their record
  indexes are stored as packed arrays in ``group_values``, and the
  ``acmin``, ``ber`` and ``modules`` reports, and ``sweep`` and
  ``temperature`` over the REAL observables (``taggonmin``, ``ber``),
  merge them back into ``(source key, record_index)`` order — the JSONL
  record order — and fold them with the row fold's own helpers.  Python
  ``sum``, ``min`` and ``max`` then see the same ints and floats in the
  same order as the row fold, so the answers cannot differ; the
  ``modules`` report takes ``die_key`` from the group that holds the
  earliest record.  The ``acmin`` percentiles need the observations
  sorted, not merged: a stable numpy sort of the stored arrays gives
  ``sorted_box_stats`` the floats the row fold's ``sorted`` gives it.
* The stored path falls back to the row fold (:func:`run_report`) when
  a matching group is flagged inexact: an ``acmin`` total over a value
  not stored as INTEGER (an ingested non-integral ``acmin`` is stored
  as REAL) or past 64 bits, a group whose observations mix INTEGER and
  REAL storage, or a ``bitflips`` total that could not be stored.

Both paths reduce a group to the same numbers — count, observed, sum,
minimum, maximum, or a count and the present observations — and one
payload builder per report turns them into the answer, so each report's
shape is written once.

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

import itertools
import math
from typing import Callable, Iterable, Mapping

import numpy as np

from repro.characterization.results import sorted_box_stats

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


def _column(values: list[float | None]) -> tuple[int, list[float]]:
    """A group's record count and present observations, in record order."""
    return len(values), _present(values)


def _tally(count: int, present: list[float]) -> tuple:
    """A group's five totals from its record count and its present
    observations, folded in record order.

    ``(count, observed, total, minimum, maximum)``: every record, the
    present observations, their sum and extremes (``None`` when nothing
    is present) — the numbers a SQL ``GROUP BY`` returns per group.
    """
    if not present:
        return count, 0, None, None, None
    return count, len(present), sum(present), min(present), max(present)


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


def _box(ascending: list[float]) -> dict | None:
    """Box-and-whiskers percentiles (paper footnote 2) of floats in
    ascending order, or ``None``."""
    if not ascending:
        return None
    stats = sorted_box_stats(ascending)
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
    columns = {}
    for die_key, values in groups.items():
        count, present = _column(values)
        columns[die_key] = (count, present, sorted(float(v) for v in present))
    return _acmin_payload(columns)


def _acmin_payload(columns: Mapping[str, tuple[int, list, list[float]]]) -> dict:
    """The ``acmin`` report from per-die ``(count, present, present as
    ascending floats)``."""
    dies = {}
    for die_key in sorted(columns):
        count, present, ascending = columns[die_key]
        entry = _finish(*_tally(count, present))
        entry["percentiles"] = _box(ascending)
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
        {key: _tally(*_column(values)) for key, values in groups.items()},
        experiment,
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
    groups: dict[tuple[str, float], list[Mapping]] = {}
    for row in rows:
        key = (row["die_key"], float(row["t_aggon"]))
        groups.setdefault(key, []).append(row)
    return _ber_payload(
        {
            key: (
                *_column([entry["ber"] for entry in bucket]),
                sum(int(entry["bitflips"]) for entry in bucket),
                sum(int(entry["one_to_zero"]) for entry in bucket),
            )
            for key, bucket in groups.items()
        }
    )


def _ber_payload(curves: Mapping[tuple[str, float], tuple]) -> dict:
    """The ``ber`` report from per-(die, t_AggON) ``(count, present
    BERs, bitflips, one_to_zero)``."""
    dies: dict[str, list[dict]] = {}
    for die_key, sweep in sorted(curves):
        count, present, bitflips, one_to_zero = curves[(die_key, sweep)]
        dies.setdefault(die_key, []).append(
            {
                "t_aggon": sweep,
                "count": count,
                "mean_ber": sum(present) / len(present) if present else None,
                "max_ber": max(present) if present else None,
                "bitflips": bitflips,
                "one_to_zero_fraction": (
                    one_to_zero / bitflips if bitflips else None
                ),
            }
        )
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
        {key: _tally(*_column(values)) for key, values in groups.items()},
        experiment,
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
    entries = {}
    for (module_id, experiment), bucket in groups.items():
        field = observable_field(experiment)
        values = [
            entry[field] if field is not None else None for entry in bucket
        ]
        entries[(module_id, experiment)] = (
            *_column(values),
            bucket[0]["die_key"],
        )
    return _modules_payload(entries)


def _modules_payload(entries: Mapping[tuple[str, str], tuple]) -> dict:
    """The ``modules`` report from per-(module, experiment) ``(count,
    present, die_key of the first record)``."""
    modules: dict[str, dict] = {}
    for module_id, experiment in sorted(entries):
        count, present, die_key = entries[(module_id, experiment)]
        entry = _finish(*_tally(count, present))
        entry["die_key"] = die_key
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


def _merged(groups: list) -> list:
    """The present observations of stored groups, in record order.

    ``groups`` are :class:`~repro.warehouse.db.StoredGroup` rows in
    source-key order, as :meth:`~repro.warehouse.db.Warehouse.stored_groups`
    returns them, so the sources are already in the order the row fold
    visits them; only a source that holds several of the groups needs
    their observations interleaved by record index.
    """
    merged: list = []
    for _, parts in itertools.groupby(groups, key=lambda group: group.source):
        parts = [part for part in parts if len(part.indexes)]
        if len(parts) == 1:
            merged.extend(parts[0].observations.tolist())
        elif parts:
            merged.extend(_interleaved(parts))
    return merged


def _interleaved(groups: list) -> list:
    """One source's groups' observations, merged by record index.

    Values keep their Python type — an INTEGER group's ints, a REAL
    group's floats — also where groups of both kinds meet.
    """
    order = np.argsort(np.concatenate([group.indexes for group in groups]))
    arrays = [group.observations for group in groups]
    if len({array.dtype for array in arrays}) > 1:
        arrays = [array.astype(object) for array in arrays]
    return np.concatenate(arrays)[order].tolist()


def _observed(groups: list) -> tuple[int, list]:
    """Stored groups' record count and present observations."""
    return sum(group.records for group in groups), _merged(groups)


def _ascending(groups: list) -> list[float]:
    """Stored groups' present observations as floats in ascending order.

    A stable numpy sort gives the floats ``sorted(float(v) for v in
    _merged(groups))`` gives, in the same order, without the merge.
    """
    values = np.concatenate([group.observations for group in groups])
    return np.sort(values, kind="stable").astype(np.float64).tolist()


def _buckets(groups: list, key: Callable) -> dict:
    """Stored groups by report group."""
    buckets: dict = {}
    for group in groups:
        buckets.setdefault(key(group), []).append(group)
    return buckets


def _earliest(groups: list):
    """The stored group, of groups in source order, that holds the first
    of their records."""
    first = groups[0].source
    return min(
        (group for group in groups if group.source == first),
        key=lambda group: group.first_index,
    )


def _group_totals_report(
    warehouse, report: str, selected: str, module_id, die_key
) -> dict | None:
    """``sweep``/``temperature`` over an INTEGER observable from SQL
    group totals (:meth:`~repro.warehouse.db.Warehouse.group_totals`)."""
    keys: tuple[str, ...] = ("die_key", "temperature_c")
    if report == "sweep":
        keys += (_SWEEP_AXES[selected],)
    rows = warehouse.group_totals(
        selected,
        keys,
        observable_field(selected),
        module_id=module_id,
        die_key=die_key,
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


def grouped_report(
    warehouse,
    report: str,
    experiment: str | None = None,
    module_id: str | None = None,
    die_key: str | None = None,
) -> dict | None:
    """``report`` from the stored groups, or ``None`` for the row fold.

    ``sweep`` and ``temperature`` over an INTEGER observable re-group
    the SQL group totals; every other report merges the stored
    observations (:meth:`~repro.warehouse.db.Warehouse.stored_groups`)
    back into record order and folds them with the row fold's helpers.
    ``None`` — the caller folds rows with :func:`run_report` — for an
    unknown report, or when the warehouse declines: totals not stored as
    INTEGER or past 64 bits, observations of both storage classes in
    one group, or (``ber``) a bitflip total it could not store.
    """
    if report not in REPORTS:
        return None
    selected = _selected_experiment(report, experiment)
    if report in ("temperature", "sweep") and (
        observable_field(selected) in _INTEGER_OBSERVABLES
    ):
        return _group_totals_report(
            warehouse, report, selected, module_id, die_key
        )
    groups = warehouse.stored_groups(
        selected, module_id=module_id, die_key=die_key
    )
    if groups is None:
        return None
    if report == "acmin":
        buckets = _buckets(groups, lambda group: group.die_key)
        return _acmin_payload(
            {
                die: (*_observed(bucket), _ascending(bucket))
                for die, bucket in buckets.items()
            }
        )
    if report == "ber":
        if any(
            group.bitflips is None or group.one_to_zero is None
            for group in groups
        ):
            return None
        buckets = _buckets(
            groups, lambda group: (group.die_key, float(group.sweep_value))
        )
        return _ber_payload(
            {
                key: (
                    *_observed(bucket),
                    sum(group.bitflips for group in bucket),
                    sum(group.one_to_zero for group in bucket),
                )
                for key, bucket in buckets.items()
            }
        )
    if report == "modules":
        buckets = _buckets(
            groups, lambda group: (group.module_id, group.experiment)
        )
        return _modules_payload(
            {
                key: (*_observed(bucket), _earliest(bucket).die_key)
                for key, bucket in buckets.items()
            }
        )
    if report == "sweep":
        axis = _SWEEP_AXES.get(selected)
        buckets = _buckets(
            groups,
            lambda group: (
                group.die_key,
                float(group.temperature_c),
                float(group.sweep_value) if axis is not None else 0.0,
            ),
        )
        return _sweep_payload(
            {key: _tally(*_observed(bucket)) for key, bucket in buckets.items()},
            selected,
        )
    buckets = _buckets(
        groups, lambda group: (group.die_key, float(group.temperature_c))
    )
    return _temperature_payload(
        {key: _tally(*_observed(bucket)) for key, bucket in buckets.items()},
        selected,
    )


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
