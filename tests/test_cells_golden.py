"""Golden rows: the weak-cell sampler's random stream is pinned.

Every statistic the model reports rests on which cells a row holds, so
a faster sampler must draw the same cells.  Each module below is
materialized at the default geometry (65,536-bit rows, seed 2023) on a
fixed list of rows, and a sha256 over every population's ``columns``,
``thresholds`` and ``anti`` bytes must match the digest recorded
before the clustered press sampler stopped argsorting.  The modules
cover each branch of ``_sample_columns``:

* S3 and M1: clustered press cells over many batches (23-25 per row on
  S3, 15 on M1), drawn around the hammer columns they must avoid;
* H0: a saturated press population (every free column is weak, the
  early return);
* H2: a row that reaches the 32-batch bound and returns fewer press
  cells than its Poisson draw (the known truncation; see
  ``docs/MODEL.md`` section 2);
* M0: an empty press spec (a RowPress-immune die).

A deliberate change to the stream (drawing cells in threshold order,
which also removes the truncation) must re-record these digests and
say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro.dram.cells as cells_module
from repro.dram.catalog import build_module

GOLDEN_ROWS = ((0, 0, 100), (0, 3, 7), (0, 15, 65535))

GOLDEN_DIGESTS = {
    "S3": "33cfc589223f8c475dd13b87ebbed46197fde211368a30f8ceeec7ab2adbcc14",
    "M1": "9084123e2774d077b8f8b0452c78c9d1c4053159daaaad4df751d3c72c4f9491",
    "H0": "cf913cc01d9b6346f6d4a925cecaf72d39e18b4bafa77982ec596ad16d796dae",
    "H2": "6bea72ac3691945f645c138742a9b09b91e22fc773b3d32114fedef98f5d4df8",
    "M0": "89933c56706bc36318bc378a8707a128ce490918c29c9d5e2ad740c2c101366d",
}


def population_digest(module_id: str) -> str:
    """sha256 over the golden rows' cells, with explicit byte order.

    Columns and polarities are hashed exactly.  Thresholds are hashed
    rounded to float32: they pass through numpy's float64 power, whose
    AVX-512 and generic kernels disagree in the last bit or two on about
    5% of these values, and rounded they agree on every host.  A changed
    stream or tail formula moves thresholds far more than that.
    """
    population = build_module(module_id).device.population
    digest = hashlib.sha256()
    for address in GOLDEN_ROWS:
        cells = population.row(*address)
        for cellset in (cells.hammer, cells.press, cells.retention):
            digest.update(np.int64(cellset.size).astype("<i8").tobytes())
            digest.update(cellset.columns.astype("<i8").tobytes())
            digest.update(cellset.thresholds.astype("<f4").tobytes())
            digest.update(cellset.anti.astype(np.uint8).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("module_id", sorted(GOLDEN_DIGESTS))
def test_golden_rows_keep_their_digest(module_id):
    assert population_digest(module_id) == GOLDEN_DIGESTS[module_id]


def test_branches_the_golden_rows_cover():
    s3 = build_module("S3").device.population
    assert 0 < s3.row(0, 0, 100).press.size < s3.row_bits
    h0 = build_module("H0").device.population.row(0, 0, 100)
    assert h0.hammer.size + h0.press.size == h0.row_bits  # saturated
    m0 = build_module("M0").device.population
    assert m0.press_spec.empty and m0.row(0, 0, 100).press.size == 0


def test_h2_press_count_stays_below_its_poisson_draw(monkeypatch):
    """The 32-batch bound drops press cells on H2; the drop is pinned.

    Stage (b) of the cell-sampling work (threshold-ordered draws) is
    where this truncation is fixed; until then it must not change.
    """
    requests = []
    sample_columns = cells_module._sample_columns

    def recording(rng, count, row_bits, cluster_size_mean, forbidden=None):
        columns = sample_columns(rng, count, row_bits, cluster_size_mean, forbidden)
        requests.append((cluster_size_mean, count, columns.size))
        return columns

    monkeypatch.setattr(cells_module, "_sample_columns", recording)
    cells = build_module("H2").device.population.row(0, 0, 100)
    ((_, drawn, returned),) = [r for r in requests if r[0] > 1.0]
    assert returned == cells.press.size == 38_069
    assert returned < drawn
