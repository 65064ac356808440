"""Result records and aggregation for characterization campaigns.

Records are flat dataclasses so campaigns can be dumped to CSV-ish text
and re-aggregated by die revision, matching how the paper groups its
plots ("aggregate the ACmin values from all the rows we test in all chips
with the same die revision").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence


@dataclass(frozen=True)
class AcminRecord:
    """One ACmin observation (Figs. 1, 6-7, 13, 17-18)."""

    module_id: str
    die_key: str
    access: str
    temperature_c: float
    t_aggon: float
    site_row: int
    acmin: int | None  # None: no bitflip within the budget


@dataclass(frozen=True)
class TaggonminRecord:
    """One t_AggONmin observation (Figs. 9, 15)."""

    module_id: str
    die_key: str
    temperature_c: float
    activation_count: int
    site_row: int
    taggonmin: float | None


@dataclass(frozen=True)
class BerRecord:
    """One BER observation (Figs. 22, 25-26; Table 6)."""

    module_id: str
    die_key: str
    access: str
    temperature_c: float
    t_aggon: float
    t_aggoff: float
    site_row: int
    ber: float
    bitflips: int
    one_to_zero: int


@dataclass
class BoxStats:
    """Box-and-whiskers summary (footnote 2 of the paper)."""

    count: int
    minimum: float
    first_quartile: float
    median: float
    third_quartile: float
    maximum: float
    mean: float

    @property
    def iqr(self) -> float:
        """Interquartile range (box size)."""
        return self.third_quartile - self.first_quartile


def _median(sorted_values: Sequence[float]) -> float:
    n = len(sorted_values)
    mid = n // 2
    if n % 2:
        return float(sorted_values[mid])
    return (sorted_values[mid - 1] + sorted_values[mid]) / 2.0


def box_stats(values: Iterable[float]) -> BoxStats:
    """Quartiles computed the way the paper's footnote 2 defines them."""
    return sorted_box_stats(sorted(float(v) for v in values))


def sorted_box_stats(data: Sequence[float]) -> BoxStats:
    """:func:`box_stats` of floats already in ascending order.

    The mean is the left-to-right sum of ``data`` over its length, so
    callers that sort elsewhere get :func:`box_stats`'s answer bit for
    bit.
    """
    if not data:
        raise ValueError("box_stats needs at least one value")
    n = len(data)
    half = n // 2
    lower = data[:half]
    upper = data[half + (n % 2) :]
    q1 = _median(lower) if lower else data[0]
    q3 = _median(upper) if upper else data[-1]
    return BoxStats(
        count=n,
        minimum=data[0],
        first_quartile=q1,
        median=_median(data),
        third_quartile=q3,
        maximum=data[-1],
        mean=sum(data) / n,
    )


@dataclass
class DieAggregate:
    """Per-die summary of a numeric observable."""

    die_key: str
    count: int
    observed: int  # observations with a value (bitflips found)
    mean: float | None
    minimum: float | None
    maximum: float | None

    @property
    def hit_fraction(self) -> float:
        """Fraction of observations that produced a value (Fig. 8/14)."""
        return self.observed / self.count if self.count else 0.0


def aggregate_by_die(
    records: Iterable[object],
    value: Callable[[object], float | None],
    die_key: Callable[[object], str] = lambda record: record.die_key,
) -> dict[str, DieAggregate]:
    """Group records by die revision and summarize ``value``."""
    groups: dict[str, list[float | None]] = {}
    for record in records:
        groups.setdefault(die_key(record), []).append(value(record))
    aggregates: dict[str, DieAggregate] = {}
    for key, values in sorted(groups.items()):
        present = [v for v in values if v is not None and not math.isnan(v)]
        aggregates[key] = DieAggregate(
            die_key=key,
            count=len(values),
            observed=len(present),
            mean=sum(present) / len(present) if present else None,
            minimum=min(present) if present else None,
            maximum=max(present) if present else None,
        )
    return aggregates


def loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x) (Obsv. 3/5 trend lines)."""
    pairs = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pairs) < 2:
        raise ValueError("need at least two positive points")
    n = len(pairs)
    sx = sum(p[0] for p in pairs)
    sy = sum(p[1] for p in pairs)
    sxx = sum(p[0] * p[0] for p in pairs)
    sxy = sum(p[0] * p[1] for p in pairs)
    denominator = n * sxx - sx * sx
    if denominator == 0:
        raise ValueError("degenerate x values")
    return (n * sxy - sx * sy) / denominator
