"""Differential oracle: the cell sampler against the code it replaced.

``_sample_columns`` once ranked each press cluster's 64 random keys
with a full argsort, built an n x 64 column matrix and deduplicated it
with ``np.unique``; ``PopulationSpec.inverse_count_array`` once found
each quantile's tail segment with ``np.searchsorted``.  Both are kept
below as test-local references, verbatim, and the production code must
return the same arrays and leave its generator in the same state after
every call: a difference in either would change every cell population
downstream, so "same output" alone is not enough.

The sampler cases are seeded and span row widths from 64 to 65,536
bits, counts from 1 past the pool size, forbidden sets up to near
saturation and cluster means 1.0 (unclustered), 1.5, 2.5 and 4.0.  The
inverse cases put quantiles at 0, at every anchor count, between and
beyond them, and past the cap.

Equal keys within a row occur about 2e-13 of the time, and the old
argsort left their order unspecified.  The new ranks break ties by key
index, which the last test checks against a stable argsort on keys
drawn with many ties.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.dram.catalog import MODULE_CATALOG, calibration_for
from repro.dram.cells import (
    PopulationSpec,
    TailAnchor,
    _mark_cluster_offsets,
    _sample_columns,
)


def reference_sample_columns(rng, count, row_bits, cluster_size_mean, forbidden=None):
    """The argsort sampler ``_sample_columns`` replaced, unchanged."""
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
        return np.flatnonzero(allowed).astype(np.int64)
    if cluster_size_mean <= 1.0:
        pool = np.flatnonzero(allowed)
        return np.sort(rng.choice(pool, size=count, replace=False))
    words = row_bits // 64
    chosen = np.zeros(row_bits, dtype=bool)
    geometric_p = 1.0 / cluster_size_mean
    need = count
    for _ in range(32):
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


def reference_inverse_count_array(spec: PopulationSpec, counts: np.ndarray) -> np.ndarray:
    """The ``searchsorted`` segment lookup ``inverse_count_array`` replaced."""
    if spec.empty:
        return np.full(counts.shape, math.inf)
    anchor_counts, anchor_thresholds, inv_slopes = spec._segment_arrays
    if len(spec.anchors) == 1:
        values = anchor_thresholds[0] * (counts / anchor_counts[0]) ** inv_slopes[0]
        return np.minimum(values, spec.cap)
    segment = np.clip(np.searchsorted(anchor_counts, counts), 1, len(spec.anchors) - 1)
    lo = segment - 1
    values = anchor_thresholds[lo] * (counts / anchor_counts[lo]) ** inv_slopes[lo]
    return np.minimum(values, spec.cap)


def philox(seed: int) -> np.random.Generator:
    """The bit generator the cell populations draw from (``repro.rng``)."""
    return np.random.Generator(np.random.Philox(key=seed))


def state(rng: np.random.Generator):
    """The generator's full state, comparable with ``==``.

    Philox keeps its counter, key and output buffer as arrays.
    """

    def plain(value):
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        if isinstance(value, np.ndarray):
            return value.tolist()
        return value

    return plain(rng.bit_generator.state)


def forbidden_columns(case: np.random.Generator, row_bits: int, fraction: float):
    """Random forbidden columns, in the two shapes production passes.

    Press cells avoid the sorted hammer columns; retention cells avoid
    the hammer and press columns concatenated, which is not sorted.
    """
    if fraction == 0.0:
        return None
    taken = case.choice(row_bits, size=int(fraction * row_bits), replace=False)
    if case.random() < 0.5:
        return np.sort(taken).astype(np.int64)
    split = taken.size // 3
    return np.concatenate([np.sort(taken[:split]), np.sort(taken[split:])]).astype(np.int64)


ROW_WIDTHS = (64, 128, 512, 4096, 65536)
CLUSTER_MEANS = (1.0, 1.5, 2.5, 4.0)
FORBIDDEN_FRACTIONS = (0.0, 0.3, 0.7, 0.95, 0.995)


@pytest.mark.parametrize("row_bits", ROW_WIDTHS)
@pytest.mark.parametrize("cluster_mean", CLUSTER_MEANS)
def test_sample_columns_matches_the_argsort_sampler(row_bits, cluster_mean):
    case = np.random.default_rng([row_bits, int(cluster_mean * 10)])
    cases = 12 if row_bits < 65536 else 3
    for index in range(cases):
        fraction = FORBIDDEN_FRACTIONS[index % len(FORBIDDEN_FRACTIONS)]
        forbidden = forbidden_columns(case, row_bits, fraction)
        pool = row_bits - (0 if forbidden is None else forbidden.size)
        # From one cell through the pool size (the saturated early
        # return) to past it.
        count = int(
            case.choice(
                [1, 2, max(pool // 16, 1), max(pool // 2, 1), max(pool - 1, 1), pool, pool + 5]
            )
        )
        seed = int(case.integers(2**32))
        old_rng, new_rng = philox(seed), philox(seed)
        expected = reference_sample_columns(old_rng, count, row_bits, cluster_mean, forbidden)
        actual = _sample_columns(new_rng, count, row_bits, cluster_mean, forbidden)
        where = f"row_bits={row_bits} mean={cluster_mean} count={count} seed={seed}"
        assert actual.dtype == expected.dtype, where
        assert np.array_equal(actual, expected), where
        assert state(new_rng) == state(old_rng), where


def test_sample_columns_matches_on_a_thirty_two_batch_row():
    """Many batches over a narrow pool, as on H2/H3 where the bound truncates."""
    case = np.random.default_rng(38069)
    row_bits = 65536
    forbidden = np.sort(case.choice(row_bits, size=21_073, replace=False)).astype(np.int64)
    old_rng, new_rng = philox(100), philox(100)
    expected = reference_sample_columns(old_rng, 38_268, row_bits, 2.5, forbidden)
    actual = _sample_columns(new_rng, 38_268, row_bits, 2.5, forbidden)
    assert expected.size < 38_268  # the bound was reached
    assert np.array_equal(actual, expected)
    assert state(new_rng) == state(old_rng)


def catalog_specs() -> list[PopulationSpec]:
    """Every distinct population spec the module catalog calibrates."""
    specs = {}
    for module_id in sorted(MODULE_CATALOG):
        calibration = calibration_for(MODULE_CATALOG[module_id])
        for spec in (
            calibration.hammer_spec(),
            calibration.press_spec(),
            calibration.retention_spec(),
        ):
            specs[repr(spec)] = spec
    return list(specs.values())


SYNTHETIC_SPECS = [
    PopulationSpec(anchors=(TailAnchor(100.0, 1.0),), cap=1e3, default_slope=2.0),
    PopulationSpec(anchors=(TailAnchor(1e4, 0.56), TailAnchor(1e6, 100.0)), cap=3e6),
    PopulationSpec(
        anchors=(
            TailAnchor(1e3, 0.1),
            TailAnchor(1e4, 2.0),
            TailAnchor(3e4, 40.0),
            TailAnchor(1e5, 900.0),
        ),
        cap=2e5,
    ),
]


@pytest.mark.parametrize(
    "spec", catalog_specs() + SYNTHETIC_SPECS, ids=lambda spec: f"{len(spec.anchors)}-anchor"
)
def test_inverse_count_array_matches_the_searchsorted_lookup(spec):
    anchor_counts = np.array([a.count for a in spec.anchors], dtype=np.float64)
    total = spec.count_below(spec.cap)
    case = np.random.default_rng(len(spec.anchors))
    quantiles = np.concatenate(
        [
            [0.0, total, total * 1.5, 1e12],
            anchor_counts,
            np.nextafter(anchor_counts, 0.0),
            np.nextafter(anchor_counts, np.inf),
            anchor_counts * 0.5,
            case.random(4096) * max(total, 1.0),
        ]
    )
    expected = reference_inverse_count_array(spec, quantiles)
    actual = spec.inverse_count_array(quantiles)
    assert actual.tobytes() == expected.tobytes()


def stable_argsort_offsets(keys, sizes, bases, row_bits):
    """Offsets a *stable* argsort of each row assigns to its first keys."""
    taken = np.zeros(row_bits, dtype=bool)
    order = np.argsort(keys, axis=1, kind="stable")
    take = order < sizes[:, None]
    taken[(bases[:, None] + np.arange(64)[None, :])[take]] = True
    return taken


@pytest.mark.parametrize("levels", [2, 8, 64])
def test_equal_keys_rank_by_key_index(levels):
    """With ties everywhere, the ranks match a stable argsort exactly."""
    case = np.random.default_rng(levels)
    row_bits = 4096
    n_clusters = 400
    keys = case.integers(0, levels, size=(n_clusters, 64)) / levels
    sizes = np.minimum(case.geometric(0.3, size=n_clusters), 32)
    bases = case.integers(0, row_bits // 64, size=n_clusters) * 64
    taken = np.zeros(row_bits, dtype=bool)
    _mark_cluster_offsets(taken, keys, sizes, bases)
    expected = stable_argsort_offsets(keys, sizes, bases, row_bits)
    assert np.array_equal(taken, expected)
    # Each cluster alone: its taken offsets are exactly ``sizes`` many.
    for index in range(0, n_clusters, 37):
        alone = np.zeros(row_bits, dtype=bool)
        one = slice(index, index + 1)
        _mark_cluster_offsets(alone, keys[one], sizes[one], bases[one])
        assert int(alone.sum()) == sizes[index]
