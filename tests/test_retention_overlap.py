"""Retention test and cell-set overlap analysis (§4.3)."""

from repro import units
from repro.dram.geometry import RowAddress
from repro.bender.isa import compile_program
from repro.characterization.overlap import cell_set, overlap_ratio
from repro.characterization.retention_test import retention_failures
from repro.characterization.ber import measure_ber
from repro.characterization.patterns import RowSite


def test_retention_failures_at_80c(s3_module):
    rows = [RowAddress(0, 0, r) for r in range(20, 60)]
    failures = retention_failures(s3_module, rows)
    total = sum(len(flips) for flips in failures.values())
    assert total > 0  # weak cells exist at 4 s / 80 degC
    assert all(f.mechanism == "retention" for flips in failures.values() for f in flips)


def test_retention_restores_temperature(s3_module):
    before = s3_module.device.temperature_c
    retention_failures(s3_module, [RowAddress(0, 0, 30)])
    assert s3_module.device.temperature_c == before


def test_retention_short_idle_no_failures(s3_module):
    rows = [RowAddress(0, 0, r) for r in range(20, 40)]
    failures = retention_failures(s3_module, rows, idle_time_ns=60 * units.MS)
    assert sum(len(f) for f in failures.values()) == 0


def test_overlap_ratio_definitions():
    from repro.dram.device import Bitflip

    def flip(row, column):
        return Bitflip(RowAddress(0, 0, row), column, 1, 0, "press")

    target = [flip(1, 10), flip(1, 20)]
    reference = [flip(1, 10), flip(2, 99)]
    assert overlap_ratio(target, reference) == 0.5
    assert overlap_ratio([], reference) == 0.0
    assert len(cell_set(target + target)) == 2  # dedup


def test_press_hammer_overlap_is_tiny(s3_bench):
    """Obsv. 7: RowPress and RowHammer flip (almost) disjoint cells."""
    site = RowSite(0, 0, 60)
    hammer = measure_ber(s3_bench, site, t_aggon=36.0).flips_by_victim
    # gather raw flips by re-running with direct collection
    s3_bench.fresh_experiment()
    from repro.characterization.patterns import build_disturb_program, max_activations

    program, _ = build_disturb_program(site, 36.0, max_activations(36.0))
    hammer_flips = s3_bench.execute(
        compile_program(program, s3_bench.module.device.timing)
    ).bitflips
    s3_bench.fresh_experiment()
    program, _ = build_disturb_program(site, units.TREFI, max_activations(units.TREFI))
    press_flips = s3_bench.execute(
        compile_program(program, s3_bench.module.device.timing)
    ).bitflips
    assert press_flips and hammer_flips
    assert overlap_ratio(press_flips, hammer_flips) < 0.013  # paper bound


def test_press_retention_overlap_is_tiny(s3_bench, s3_module):
    site = RowSite(0, 0, 60)
    from repro.characterization.patterns import build_disturb_program, max_activations

    s3_bench.fresh_experiment()
    program, victims = build_disturb_program(site, units.TREFI, max_activations(units.TREFI))
    press_flips = s3_bench.execute(
        compile_program(program, s3_bench.module.device.timing)
    ).bitflips
    retention = retention_failures(s3_module, victims)
    retention_flips = [f for flips in retention.values() for f in flips]
    assert press_flips
    assert overlap_ratio(press_flips, retention_flips) < 0.0034 + 0.01
