"""Weak-cell threshold populations.

Per-row cell thresholds are drawn lazily and deterministically from a
per-(rank, bank, row) RNG substream, so that results are reproducible
bit-for-bit (like re-testing the same physical chip) and materializing one
row never perturbs another.

Three populations exist per row, matching the paper's finding (Takeaway 2)
that RowHammer, RowPress, and retention failures affect almost disjoint
cell sets:

* hammer cells — threshold ``H`` in *reference aggressor activations*,
* press cells — threshold ``P`` in *effective on-time nanoseconds*,
* retention cells — retention time ``R`` in nanoseconds at 80 degC.

Threshold distributions are **piecewise power-law tails** described by
log-log anchor points ``(threshold, expected count per 65536-bit row below
that threshold)``.  This lets :mod:`repro.dram.catalog` calibrate each die
revision *directly* from the paper's Tables 5 and 6: the row-minimum
anchor (count ~ 0.56 puts the expected per-row minimum at that threshold)
and the bit-error-rate anchors at the doses reachable within the 60 ms
experiment budget.  A per-row lognormal strength factor reproduces the
row-to-row spread of the paper's min/mean statistics.

Press cells flip by *losing* charge (charge attraction; Obsv. 8), hammer
cells by *gaining* charge (injection), so a cell's stored value and its
true-/anti-cell polarity decide both eligibility and bitflip direction.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.rng import SeedTree

#: Row size the anchor counts are defined at (the paper's 8 KiB row).
REFERENCE_ROW_BITS = 65536

#: Expected count below a threshold that makes that threshold the expected
#: per-row minimum (Euler-Mascheroni-ish order-statistics constant).
MIN_ANCHOR_COUNT = 0.56

#: Rows whose :class:`RowSummary` a population keeps, least recently used
#: out first.  A summary takes about 1.2 KB with its table entry, so a
#: full table holds about 40 MB; an ACmin sweep over the paper's 3,072
#: sites of a module senses about 28k rows (9 per site).
SUMMARY_ROWS = 32768


@dataclass(frozen=True)
class TailAnchor:
    """One calibration point: ``count`` expected cells below ``threshold``.

    Counts are per :data:`REFERENCE_ROW_BITS` bits.
    """

    threshold: float
    count: float

    def __post_init__(self) -> None:
        if self.threshold <= 0 or self.count <= 0:
            raise ValueError("anchor threshold and count must be positive")


@dataclass(frozen=True)
class PopulationSpec:
    """Piecewise power-law tail of one weak-cell population.

    ``anchors`` must be strictly increasing in both threshold and count.
    Below the first anchor and above the last one, the curve extrapolates
    with the slope of the adjacent segment (a single anchor uses
    ``default_slope``).  Cells are materialized up to ``cap``; thresholds
    beyond it can never fail within the experiment budget.
    ``row_sigma`` is the lognormal sigma of a per-row strength multiplier
    applied to every threshold in a row.
    """

    anchors: tuple[TailAnchor, ...]
    cap: float
    row_sigma: float = 0.0
    cluster_size_mean: float = 1.0
    default_slope: float = 6.0
    #: The per-row strength factor applies only to thresholds below this
    #: value (the deep tail that sets the row minimum).  ``None`` = all.
    #: Without this, a weak row would also multiply its *bulk* cell count
    #: through the steep tail slope, inflating worst-row BER far beyond
    #: the paper's Table 6.
    row_sigma_boundary: float | None = None

    def __post_init__(self) -> None:
        if self.cap <= 0:
            raise ValueError("cap must be positive")
        if self.cluster_size_mean < 1.0:
            raise ValueError("cluster_size_mean must be >= 1")
        if self.row_sigma < 0.0:
            raise ValueError("row_sigma must be >= 0")
        thresholds = [a.threshold for a in self.anchors]
        counts = [a.count for a in self.anchors]
        if sorted(thresholds) != thresholds or sorted(counts) != counts:
            raise ValueError("anchors must increase in threshold and count")
        if len(set(thresholds)) != len(thresholds):
            raise ValueError("anchor thresholds must be distinct")

    @property
    def empty(self) -> bool:
        """Whether this spec produces no cells."""
        return not self.anchors

    def count_below(self, threshold: float) -> float:
        """Expected cells per reference row with threshold below ``threshold``."""
        if self.empty or threshold <= 0:
            return 0.0
        threshold = min(threshold, self.cap)
        anchors = self.anchors
        if len(anchors) == 1:
            base = anchors[0]
            return base.count * (threshold / base.threshold) ** self.default_slope
        # Locate the segment (log-log linear interpolation / extrapolation).
        if threshold <= anchors[0].threshold:
            lo, hi = anchors[0], anchors[1]
        elif threshold >= anchors[-1].threshold:
            lo, hi = anchors[-2], anchors[-1]
        else:
            lo = anchors[0]
            hi = anchors[-1]
            for left, right in zip(anchors, anchors[1:]):
                if left.threshold <= threshold <= right.threshold:
                    lo, hi = left, right
                    break
        slope = math.log(hi.count / lo.count) / math.log(hi.threshold / lo.threshold)
        return lo.count * (threshold / lo.threshold) ** slope

    def inverse_count(self, count: float) -> float:
        """Threshold at which ``count_below`` equals ``count``."""
        if self.empty or count <= 0:
            return math.inf
        anchors = self.anchors
        if len(anchors) == 1:
            base = anchors[0]
            value = base.threshold * (count / base.count) ** (1.0 / self.default_slope)
            return min(value, self.cap)
        if count <= anchors[0].count:
            lo, hi = anchors[0], anchors[1]
        elif count >= anchors[-1].count:
            lo, hi = anchors[-2], anchors[-1]
        else:
            lo = anchors[0]
            hi = anchors[-1]
            for left, right in zip(anchors, anchors[1:]):
                if left.count <= count <= right.count:
                    lo, hi = left, right
                    break
        slope = math.log(hi.count / lo.count) / math.log(hi.threshold / lo.threshold)
        value = lo.threshold * (count / lo.count) ** (1.0 / slope)
        return min(value, self.cap)

    def expected_min(self) -> float:
        """Expected per-row minimum threshold (the ACmin/t_AggONmin anchor)."""
        return self.inverse_count(MIN_ANCHOR_COUNT)

    def scaled(self, threshold_factor: float) -> "PopulationSpec":
        """A copy with every threshold scaled by ``threshold_factor``.

        Used to model specimen-to-specimen strength variation (e.g. the
        paper's real-system demo DIMM resists RowHammer far better than
        the fleet's Table 5 population statistics).
        """
        if threshold_factor <= 0:
            raise ValueError("threshold_factor must be positive")
        if self.empty:
            return self
        boundary = self.row_sigma_boundary
        return PopulationSpec(
            anchors=tuple(
                TailAnchor(a.threshold * threshold_factor, a.count) for a in self.anchors
            ),
            cap=self.cap * threshold_factor,
            row_sigma=self.row_sigma,
            cluster_size_mean=self.cluster_size_mean,
            default_slope=self.default_slope,
            row_sigma_boundary=boundary * threshold_factor if boundary else None,
        )

    @cached_property
    def _segment_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(anchor counts, anchor thresholds, inverse slopes) for sampling."""
        counts = np.array([a.count for a in self.anchors], dtype=np.float64)
        thresholds = np.array([a.threshold for a in self.anchors], dtype=np.float64)
        if len(self.anchors) == 1:
            inv_slopes = np.array([1.0 / self.default_slope])
        else:
            slopes = np.log(counts[1:] / counts[:-1]) / np.log(
                thresholds[1:] / thresholds[:-1]
            )
            inv_slopes = 1.0 / slopes
        return counts, thresholds, inv_slopes

    def inverse_count_array(self, counts: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`inverse_count` (used by the row sampler)."""
        if self.empty:
            return np.full(counts.shape, math.inf)
        anchor_counts, anchor_thresholds, inv_slopes = self._segment_arrays
        if len(self.anchors) == 1:
            values = anchor_thresholds[0] * (counts / anchor_counts[0]) ** inv_slopes[0]
            return np.minimum(values, self.cap)
        # Segment index: how many interior anchor counts lie below each
        # count (below the first anchor or past the last, the end segment
        # extrapolates).
        lo = np.zeros(counts.shape, dtype=np.intp)
        for anchor_count in anchor_counts[1:-1]:
            lo += counts > anchor_count
        values = anchor_thresholds[lo] * (counts / anchor_counts[lo]) ** inv_slopes[lo]
        return np.minimum(values, self.cap)


#: A spec that produces no cells (dies immune to a mechanism, e.g. Mfr. M
#: 8Gb B-die for RowPress, Table 5).
EMPTY_SPEC = PopulationSpec(anchors=(), cap=1.0)


@dataclass
class CellSet:
    """One population's materialized cells in a row."""

    columns: np.ndarray  # bit positions: uint16 in rows of up to 65536 bits, else int64
    thresholds: np.ndarray  # float64
    anti: np.ndarray  # bool: True for anti-cells (charged encodes 0)

    @property
    def size(self) -> int:
        """Number of materialized cells."""
        return int(self.columns.size)

    @property
    def min_threshold(self) -> float:
        """Smallest threshold (inf when empty)."""
        return float(self.thresholds.min()) if self.thresholds.size else math.inf


def _empty_cellset(column_dtype: type) -> CellSet:
    return CellSet(
        columns=np.empty(0, dtype=column_dtype),
        thresholds=np.empty(0, dtype=np.float64),
        anti=np.empty(0, dtype=bool),
    )


@dataclass
class WeakCells:
    """All materialized weak cells of one row.

    The device's sense reads these arrays to commit each flip; a search
    probe's sense needs only the row's :class:`RowSummary`.
    """

    row_bits: int
    hammer: CellSet
    press: CellSet
    retention: CellSet

    @property
    def min_hammer_threshold(self) -> float:
        """Smallest hammer threshold in the row (inf when none)."""
        return self.hammer.min_threshold

    @property
    def min_press_threshold(self) -> float:
        """Smallest press threshold in the row (inf when none)."""
        return self.press.min_threshold


#: Bit (``column & 7``) and polarity of each of the 16 cell classes a
#: :class:`RowSummary` keeps per population, class ``2 * (column & 7) + anti``.
_CLASS_BIT = np.repeat(np.arange(8), 2)
_CLASS_ANTI = np.tile(np.array([False, True]), 8)


class RowSummary:
    """A row's weak cells reduced to what decides a sense under a uniform fill.

    ``classes[p, 2 * (column & 7) + anti]`` is the smallest threshold of
    population ``p`` (hammer, press, retention) among the row's cells of
    that bit and polarity, inf when there are none: 48 floats.  Under a
    row filled with one byte, a cell's stored bit is bit ``column & 7``
    of that byte, so whether the cell can flip depends on its class
    alone (docs/MODEL.md section 4), and the smallest eligible threshold
    of a population is the smallest of 8 of its 16 classes.
    :meth:`eligible_minima` memoizes that pick per byte.
    """

    __slots__ = ("classes", "_minima")

    def __init__(self, cells: WeakCells) -> None:
        self.classes = np.stack(
            [_class_minima(cells.hammer), _class_minima(cells.press), _class_minima(cells.retention)]
        )
        self._minima: dict[int, tuple[float, float, float]] = {}

    def eligible_minima(self, byte_value: int) -> tuple[float, float, float]:
        """Smallest (hammer, press, retention) threshold that can flip.

        Only cells eligible under a row filled with ``byte_value``
        count: hammer cells flip only when discharged, press and
        retention cells only when charged (inf when none is eligible).
        """
        minima = self._minima.get(byte_value)
        if minima is None:
            minima = self._minima[byte_value] = _eligible_minima(self.classes, byte_value)
        return minima


def _class_minima(cells: CellSet) -> np.ndarray:
    """Smallest threshold in each of the 16 (``column & 7``, polarity) classes."""
    minima = np.full(16, math.inf)
    np.minimum.at(minima, 2 * (cells.columns & 7) + cells.anti, cells.thresholds)
    return minima


def _eligible_minima(classes: np.ndarray, byte_value: int) -> tuple[float, float, float]:
    """The (hammer, press, retention) minima over the classes a fill lets flip."""
    holding_charge = charged_mask((byte_value >> _CLASS_BIT) & 1, _CLASS_ANTI)  # LSB-first
    hammer, press, retention = classes
    return (
        float(hammer[~holding_charge].min()),
        float(press[holding_charge].min()),
        float(retention[holding_charge].min()),
    )


def _sample_columns(
    rng: np.random.Generator,
    count: int,
    row_bits: int,
    cluster_size_mean: float,
    forbidden: np.ndarray | None = None,
) -> np.ndarray:
    """Sample ``count`` distinct columns, optionally word-clustered."""
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    allowed = np.ones(row_bits, dtype=bool)
    if forbidden is not None and forbidden.size:
        allowed[forbidden] = False
    pool_size = int(allowed.sum())
    count = min(count, pool_size)
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    if count >= pool_size:
        # Saturated population: every allowed column is weak, so the
        # draw is the whole pool no matter how it would be clustered.
        # (Skips the coupon-collector batches below, which previously
        # cost ~100 ms per saturated row.)
        return np.flatnonzero(allowed).astype(np.int64)
    if cluster_size_mean <= 1.0:
        pool = np.flatnonzero(allowed)
        return np.sort(rng.choice(pool, size=count, replace=False))
    # Clustered sampling: group cells into 64-bit words so that multi-bit
    # ECC words appear (Fig. 25/26).  Each batch draws a word, a geometric
    # size and a row of 64 random keys per cluster, marks the offsets
    # the clusters take, and keeps the lowest ``need`` marked columns
    # that are still free.  Batches shrink with ``need``, so a row takes
    # several: 3-7 on S0/S1/S6/S7, but 14-17 on M1/M2 and 20-29 on S3-S5,
    # where hammer cells leave few free columns.  On H2/H3 every row
    # reaches the 32-batch bound and silently returns about 200 fewer
    # press cells than its Poisson draw; that truncation is part of the
    # pinned random stream (docs/MODEL.md section 2).
    words = row_bits // 64
    free = allowed.copy()
    geometric_p = 1.0 / cluster_size_mean
    need = count
    for _ in range(32):
        n_clusters = max(int(need / cluster_size_mean), 1) + 4
        sizes = np.minimum(rng.geometric(geometric_p, size=n_clusters), 32)
        cluster_words = rng.integers(0, words, size=n_clusters)
        taken = np.zeros(row_bits, dtype=bool)
        _mark_cluster_offsets(taken, rng.random((n_clusters, 64)), sizes, cluster_words * 64)
        taken &= free
        columns = np.flatnonzero(taken)[:need]
        free[columns] = False
        need -= columns.size
        if need <= 0:
            break
    return np.flatnonzero(allowed & ~free).astype(np.int64)


def _mark_cluster_offsets(
    taken: np.ndarray, keys: np.ndarray, sizes: np.ndarray, bases: np.ndarray
) -> None:
    """Set ``taken[bases[i] + offset]`` for every offset cluster ``i`` takes.

    Cluster ``i`` takes the ranks, within its row of 64 ``keys``, of its
    first ``sizes[i]`` keys: the offsets at which those keys sit once the
    row is put in increasing order.  A rank is a count of smaller keys, so
    key 0 is ranked for every cluster, key ``k`` only for the clusters
    with ``sizes > k``, and no row is sorted.  Equal keys (about 2e-13
    of rows) rank by key index, as a stable sort orders them.
    """
    taken[bases + _key_ranks(keys, 0)] = True
    top = int(sizes.max())
    if top == 1:
        return
    # The clusters of two or more cells, largest first, so that those
    # with sizes > k are a prefix of one gathered block for every k.
    by_size = np.concatenate([np.flatnonzero(sizes == size) for size in range(top, 1, -1)])
    rows, bases = keys[by_size], bases[by_size]
    larger = sizes.size - np.cumsum(np.bincount(sizes))  # larger[k]: clusters with sizes > k
    for k in range(1, top):
        rows = rows[: larger[k]]
        taken[bases[: larger[k]] + _key_ranks(rows, k)] = True


def _key_ranks(rows: np.ndarray, k: int) -> np.ndarray:
    """Rank of each row's key ``k`` among its 64 keys (ties: lower index first)."""
    key = rows[:, k : k + 1]
    smaller = rows < key
    np.less_equal(rows[:, :k], key, out=smaller[:, :k])
    return smaller.sum(axis=1, dtype=np.uint8)


def _sample_thresholds(
    rng: np.random.Generator, spec: PopulationSpec, count: int, row_factor: float
) -> np.ndarray:
    """Inverse-CDF sample of ``count`` thresholds, scaled by ``row_factor``."""
    total = spec.count_below(spec.cap)
    quantiles = rng.random(count) * total
    thresholds = spec.inverse_count_array(quantiles)
    if row_factor != 1.0:
        if spec.row_sigma_boundary is None:
            thresholds = thresholds * row_factor
        else:
            tail = thresholds < spec.row_sigma_boundary
            thresholds = thresholds.copy()
            thresholds[tail] *= row_factor
    return thresholds


class CellPopulation:
    """Per-module lazy factory of :class:`WeakCells`, keyed by (rank, bank, row).

    :meth:`row` is the only sampler.  It keeps the last ``cache_rows``
    rows' cell arrays, the device's working set.  :meth:`summary` keeps
    the last :data:`SUMMARY_ROWS` rows' :class:`RowSummary`, all that
    search probes read: a row it samples leaves the array cache again
    once summarized, unless :meth:`row` had cached it before, and a
    later :meth:`row` of it samples the same cells from the same
    per-row stream.
    """

    def __init__(
        self,
        seed_tree: SeedTree,
        row_bits: int,
        hammer: PopulationSpec,
        press: PopulationSpec,
        retention: PopulationSpec,
        true_cell_fraction: float = 1.0,
        cache_rows: int = 2048,
    ) -> None:
        if not 0.0 <= true_cell_fraction <= 1.0:
            raise ValueError("true_cell_fraction must be in [0, 1]")
        if row_bits < 64:
            raise ValueError("row_bits must be at least 64")
        self._seed_tree = seed_tree
        self.row_bits = row_bits
        self.hammer_spec = hammer
        self.press_spec = press
        self.retention_spec = retention
        self.true_cell_fraction = true_cell_fraction
        self._cache: OrderedDict[tuple[int, int, int], WeakCells] = OrderedDict()
        self._cache_rows = cache_rows
        self._summaries: OrderedDict[tuple[int, int, int], RowSummary] = OrderedDict()
        self._column_dtype = np.uint16 if row_bits <= 1 << 16 else np.int64

    def _row_scale(self) -> float:
        return self.row_bits / REFERENCE_ROW_BITS

    def _sample_set(
        self,
        rng: np.random.Generator,
        spec: PopulationSpec,
        forbidden: np.ndarray | None = None,
    ) -> CellSet:
        if spec.empty:
            return _empty_cellset(self._column_dtype)
        row_factor = 1.0
        if spec.row_sigma > 0.0:
            row_factor = float(
                np.exp(rng.normal(-0.5 * spec.row_sigma**2, spec.row_sigma))
            )
        expected = spec.count_below(spec.cap) * self._row_scale()
        expected = min(expected, float(self.row_bits))  # physical ceiling
        count = int(rng.poisson(expected)) if expected > 0 else 0
        count = min(count, self.row_bits - (forbidden.size if forbidden is not None else 0))
        if count <= 0:
            return _empty_cellset(self._column_dtype)
        columns = _sample_columns(rng, count, self.row_bits, spec.cluster_size_mean, forbidden)
        thresholds = _sample_thresholds(rng, spec, columns.size, row_factor)
        anti = rng.random(columns.size) >= self.true_cell_fraction
        return CellSet(
            columns=columns.astype(self._column_dtype), thresholds=thresholds, anti=anti
        )

    def row(self, rank: int, bank: int, row: int) -> WeakCells:
        """Materialize (or fetch cached) weak cells of one row."""
        key = (rank, bank, row)
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            return cached
        rng = self._seed_tree.generator("cells", rank, bank, row)
        hammer = self._sample_set(rng, self.hammer_spec)
        # Press and retention cells avoid hammer columns: the paper finds
        # the vulnerable populations are (almost) disjoint (Obsv. 7).
        press = self._sample_set(rng, self.press_spec, forbidden=hammer.columns)
        occupied = np.concatenate([hammer.columns, press.columns])
        retention = self._sample_set(rng, self.retention_spec, forbidden=occupied)
        cells = WeakCells(
            row_bits=self.row_bits, hammer=hammer, press=press, retention=retention
        )
        self._cache[key] = cells
        if len(self._cache) > self._cache_rows:
            self._cache.popitem(last=False)
        return cells

    def summary(self, rank: int, bank: int, row: int) -> RowSummary:
        """The :class:`RowSummary` of one row, sampled through :meth:`row` once."""
        key = (rank, bank, row)
        summary = self._summaries.get(key)
        if summary is not None:
            self._summaries.move_to_end(key)
            return summary
        cached = key in self._cache
        summary = RowSummary(self.row(rank, bank, row))
        if not cached:
            self._cache.pop(key, None)
        self._summaries[key] = summary
        if len(self._summaries) > SUMMARY_ROWS:
            self._summaries.popitem(last=False)
        return summary


def charged_mask(bits: np.ndarray, anti: np.ndarray) -> np.ndarray:
    """Whether each cell stores charge: true cells encode 1 as charged."""
    return (bits == 1) ^ anti
