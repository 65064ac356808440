"""Search probes keep a row's eligibility summary, not its cell arrays.

A search probe's sense under a uniform fill needs, per population, only
the smallest threshold among the cells that fill lets flip
(docs/MODEL.md section 4).  ``CellPopulation.summary`` reduces a row to
the smallest threshold per (``column & 7``, polarity) class, 48 floats,
and drops the row's cell arrays again unless the device had cached
them.  These tests hold:

* every byte's minima from the summary to an independent fold over the
  row's arrays, on rows of every catalog die;
* a population after ACmin sweeps through the dose-only twin: no cell
  arrays, one summary per sensed row, one ``CellPopulation.row`` call
  per row;
* a summarized row read later by the device to the flips a fresh bench
  reports;
* the bound on the summaries a population keeps, and the cell arrays'
  column dtype.
"""

from __future__ import annotations

import collections
import math

import numpy as np
import pytest

from repro.bender.infrastructure import TestingInfrastructure
from repro.characterization.acmin import probe_payload
from repro.characterization.patterns import AccessPattern, ExperimentConfig, RowSite
from repro.characterization.runner import DEFAULT_TAGGON_SWEEP, CharacterizationRunner
from repro.dram.catalog import MODULE_CATALOG, build_module
import repro.dram.cells as cells_module
from repro.dram.cells import CellPopulation, CellSet, WeakCells
from repro.dram.device import DoseTwin
from repro.dram.geometry import Geometry
from repro.obs import Observer
from tests.conftest import small_geometry

#: One module of every catalog die.
DIE_MODULES = sorted(
    {info.die_key: module_id for module_id, info in sorted(MODULE_CATALOG.items())}.values()
)
SWEEP_MODULES = ("S3", "H0", "M4")


def _fold_minimum(cells: CellSet, byte_value: int, charged: bool) -> float:
    """Smallest threshold of the cells that hold (or lack) charge under a fill."""
    bits = (byte_value >> (cells.columns.astype(np.int64) % 8)) & 1
    holding_charge = (bits == 1) != cells.anti
    eligible = cells.thresholds[holding_charge if charged else ~holding_charge]
    return float(eligible.min()) if eligible.size else math.inf


def _folded_minima(cells: WeakCells, byte_value: int) -> tuple[float, float, float]:
    return (
        _fold_minimum(cells.hammer, byte_value, charged=False),
        _fold_minimum(cells.press, byte_value, charged=True),
        _fold_minimum(cells.retention, byte_value, charged=True),
    )


@pytest.mark.parametrize("module_id", DIE_MODULES)
def test_summary_minima_equal_a_fold_over_the_row_arrays(module_id):
    population = build_module(module_id).device.population
    for row in (100, 65535):
        summary = population.summary(0, 3, row)
        cells = population.row(0, 3, row)
        for byte_value in range(256):
            assert summary.eligible_minima(byte_value) == _folded_minima(cells, byte_value), (
                module_id,
                row,
                byte_value,
            )


def test_summary_minima_cover_empty_classes_and_populations():
    """Narrow rows leave classes empty (inf); a RowPress-immune die has no press cells."""
    population = build_module("M0", geometry=small_geometry(row_bits=512)).device.population
    assert population.press_spec.empty
    for row in range(8):
        summary = population.summary(0, 0, row)
        cells = population.row(0, 0, row)
        assert np.isinf(summary.classes[1]).all()
        for byte_value in range(256):
            assert summary.eligible_minima(byte_value) == _folded_minima(cells, byte_value)


class _SweepLog:
    """What the twin senses and samples during a run."""

    def __init__(self, monkeypatch) -> None:
        self.sensed: dict[int, set] = collections.defaultdict(set)
        self.sampled: collections.Counter = collections.Counter()
        self.summaries = 0
        restore_on_sense = DoseTwin._restore_on_sense
        row = CellPopulation.row
        summary = CellPopulation.summary

        def sensing(twin, key, time_ns):
            exposure = restore_on_sense(twin, key, time_ns)
            if exposure is not None:
                self.sensed[id(twin.population)].add(key)
            return exposure

        def sampling(population, rank, bank, row_index):
            self.sampled[(id(population), rank, bank, row_index)] += 1
            return row(population, rank, bank, row_index)

        def summarizing(population, rank, bank, row_index):
            self.summaries += 1
            return summary(population, rank, bank, row_index)

        monkeypatch.setattr(DoseTwin, "_restore_on_sense", sensing)
        monkeypatch.setattr(CellPopulation, "row", sampling)
        monkeypatch.setattr(CellPopulation, "summary", summarizing)


def _acmin_sweeps(observer: Observer) -> CharacterizationRunner:
    runner = CharacterizationRunner(
        module_ids=list(SWEEP_MODULES), sites_per_module=2, observer=observer
    )
    for access in AccessPattern:
        runner.acmin_sweep(DEFAULT_TAGGON_SWEEP, access=access)
    return runner


def test_acmin_sweeps_leave_summaries_and_no_cell_arrays(monkeypatch):
    log = _SweepLog(monkeypatch)
    observer = Observer.create()
    runner = _acmin_sweeps(observer)
    assert observer.metrics.value("acmin.device_probes") == 0
    for module_id in SWEEP_MODULES:
        population = runner.bench(module_id).module.device.population
        sensed = log.sensed[id(population)]
        assert sensed
        assert not population._cache  # no cell arrays
        assert set(population._summaries) == sensed  # one summary per sensed row


def test_the_twin_samples_each_row_once(monkeypatch):
    log = _SweepLog(monkeypatch)
    _acmin_sweeps(Observer.create())
    assert log.sampled and set(log.sampled.values()) == {1}
    assert log.summaries > 10 * len(log.sampled)  # repeat senses read the summary


def test_a_summarized_row_read_by_the_device_flips_as_on_a_fresh_bench():
    site = RowSite(rank=0, bank=0, row=40)
    config = ExperimentConfig(access=AccessPattern.DOUBLE_SIDED)
    payload = probe_payload(site, 36.0, 200_000, config)

    def bench() -> TestingInfrastructure:
        return TestingInfrastructure(build_module("S3", geometry=small_geometry(rows=64)))

    replayed = bench()
    population = replayed.module.device.population
    assert replayed.any_bitflip(payload)
    assert replayed.log.programs_run == 0  # the twin answered
    victim = (0, 0, site.row)
    assert victim in population._summaries and victim not in population._cache

    replayed.fresh_experiment()
    flips = replayed.execute(payload).bitflips
    fresh = bench()
    fresh.fresh_experiment()
    assert flips and flips == fresh.execute(payload).bitflips


def test_a_row_the_device_cached_stays_cached_when_summarized():
    population = build_module("S3", geometry=small_geometry()).device.population
    cells = population.row(0, 0, 5)
    population.summary(0, 0, 5)
    population.summary(0, 0, 6)
    assert list(population._cache) == [(0, 0, 5)]
    assert population.row(0, 0, 5) is cells


def test_summaries_are_kept_for_the_last_summary_rows(monkeypatch):
    monkeypatch.setattr(cells_module, "SUMMARY_ROWS", 2)
    population = build_module("S3", geometry=small_geometry()).device.population
    first = population.summary(0, 0, 1)
    population.summary(0, 0, 2)
    assert population.summary(0, 0, 1) is first  # a hit refreshes the row
    population.summary(0, 0, 3)
    assert list(population._summaries) == [(0, 0, 1), (0, 0, 3)]
    fresh = build_module("S3", geometry=small_geometry()).device.population
    # Row 2 was evicted: it is sampled and summarized again, to the same minima.
    assert np.array_equal(population.summary(0, 0, 2).classes, fresh.summary(0, 0, 2).classes)


@pytest.mark.parametrize(("row_bits", "dtype"), [(65536, np.uint16), (131072, np.int64)])
def test_columns_are_uint16_in_rows_of_up_to_65536_bits(row_bits, dtype):
    geometry = Geometry(ranks=1, bank_groups=1, banks_per_group=1, rows_per_bank=8, row_bits=row_bits)
    cells = build_module("S3", geometry=geometry).device.population.row(0, 0, 3)
    for cellset in (cells.hammer, cells.press, cells.retention):
        assert cellset.columns.dtype == dtype
    assert cells.hammer.size and int(cells.hammer.columns.max()) < row_bits
