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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.rng import SeedTree

#: Row size the anchor counts are defined at (the paper's 8 KiB row).
REFERENCE_ROW_BITS = 65536

#: Expected count below a threshold that makes that threshold the expected
#: per-row minimum (Euler-Mascheroni-ish order-statistics constant).
MIN_ANCHOR_COUNT = 0.56


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
        segment = np.clip(np.searchsorted(anchor_counts, counts), 1, len(self.anchors) - 1)
        lo = segment - 1
        values = anchor_thresholds[lo] * (counts / anchor_counts[lo]) ** inv_slopes[lo]
        return np.minimum(values, self.cap)


#: A spec that produces no cells (dies immune to a mechanism, e.g. Mfr. M
#: 8Gb B-die for RowPress, Table 5).
EMPTY_SPEC = PopulationSpec(anchors=(), cap=1.0)


@dataclass
class CellSet:
    """One population's materialized cells in a row."""

    columns: np.ndarray  # int64 bit positions
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


def _empty_cellset() -> CellSet:
    return CellSet(
        columns=np.empty(0, dtype=np.int64),
        thresholds=np.empty(0, dtype=np.float64),
        anti=np.empty(0, dtype=bool),
    )


@dataclass
class WeakCells:
    """All materialized weak cells of one row."""

    row_bits: int
    hammer: CellSet
    press: CellSet
    retention: CellSet
    #: :meth:`eligible_minima` per fill byte; lives and dies with the row.
    _minima: dict[int, tuple[float, float, float]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def eligible_minima(self, byte_value: int) -> tuple[float, float, float]:
        """Smallest (hammer, press, retention) threshold that can flip.

        Only cells eligible under a row filled with ``byte_value``
        count: hammer cells flip only when discharged, press and
        retention cells only when charged (inf when none is eligible).
        """
        minima = self._minima.get(byte_value)
        if minima is None:
            minima = (
                _eligible_min(self.hammer, byte_value, charged=False),
                _eligible_min(self.press, byte_value, charged=True),
                _eligible_min(self.retention, byte_value, charged=True),
            )
            self._minima[byte_value] = minima
        return minima

    @property
    def min_hammer_threshold(self) -> float:
        """Smallest hammer threshold in the row (inf when none)."""
        return self.hammer.min_threshold

    @property
    def min_press_threshold(self) -> float:
        """Smallest press threshold in the row (inf when none)."""
        return self.press.min_threshold


def _eligible_min(cells: CellSet, byte_value: int, charged: bool) -> float:
    """Smallest threshold among cells that hold (or lack) charge under a fill."""
    bits = (byte_value >> (cells.columns & 7)) & 1  # LSB-first, as bits_from_bytes
    holding_charge = charged_mask(bits, cells.anti)
    thresholds = cells.thresholds[holding_charge if charged else ~holding_charge]
    return float(thresholds.min()) if thresholds.size else math.inf


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
    # ECC words appear (Fig. 25/26).  Draw whole batches of clusters at a
    # time: words, geometric sizes, and per-cluster offset subsets via a
    # random ranking matrix.
    words = row_bits // 64
    chosen = np.zeros(row_bits, dtype=bool)
    geometric_p = 1.0 / cluster_size_mean
    need = count
    for _ in range(32):  # safety bound; converges in 1-2 batches
        n_clusters = max(int(need / cluster_size_mean), 1) + 4
        sizes = np.minimum(rng.geometric(geometric_p, size=n_clusters), 32)
        cluster_words = rng.integers(0, words, size=n_clusters)
        ranks = np.argsort(rng.random((n_clusters, 64)), axis=1)
        take = ranks < sizes[:, None]
        columns = (cluster_words[:, None] * 64 + np.arange(64)[None, :])[take]
        columns = columns[allowed[columns] & ~chosen[columns]]
        columns = np.unique(columns)[:need]
        chosen[columns] = True
        need = count - int(chosen.sum())
        if need <= 0:
            break
    return np.flatnonzero(chosen).astype(np.int64)


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
    """Per-module lazy factory of :class:`WeakCells`, keyed by (rank, bank, row)."""

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

    def _row_scale(self) -> float:
        return self.row_bits / REFERENCE_ROW_BITS

    def _sample_set(
        self,
        rng: np.random.Generator,
        spec: PopulationSpec,
        forbidden: np.ndarray | None = None,
    ) -> CellSet:
        if spec.empty:
            return _empty_cellset()
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
            return _empty_cellset()
        columns = _sample_columns(rng, count, self.row_bits, spec.cluster_size_mean, forbidden)
        thresholds = _sample_thresholds(rng, spec, columns.size, row_factor)
        anti = rng.random(columns.size) >= self.true_cell_fraction
        return CellSet(columns=columns, thresholds=thresholds, anti=anti)

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


def charged_mask(bits: np.ndarray, anti: np.ndarray) -> np.ndarray:
    """Whether each cell stores charge: true cells encode 1 as charged."""
    return (bits == 1) ^ anti
