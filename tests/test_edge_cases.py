"""Edge cases and failure injection across modules."""

import numpy as np
import pytest

from repro import units
from repro.dram.catalog import build_module
from repro.dram.datapattern import DataPattern, aggressor_bytes, victim_bytes
from repro.dram.geometry import Geometry, RowAddress
from repro.bender.executor import ProgramExecutor
from repro.bender.infrastructure import TestingInfrastructure
from repro.bender.program import Act, Loop, Pre, Program, Wait
from repro.characterization.acmin import find_acmin
from repro.characterization.patterns import RowSite
from repro.mitigation.para import Para
from repro.mitigation.security import VictimExposureTracker
from repro.sim import Simulator

from tests.conftest import full_width_geometry, small_geometry


# --------------------------------------------------------------- bank edges


def test_aggressor_at_bank_edge_clips_victims():
    device = build_module("S3", geometry=small_geometry()).device
    bits = device.geometry.row_bits
    edge = RowAddress(0, 0, 0)
    device.write_row(edge, aggressor_bytes(DataPattern.CHECKERBOARD, bits), 0.0)
    device.write_row(
        RowAddress(0, 0, 1), victim_bytes(DataPattern.CHECKERBOARD, bits), 0.0
    )
    # Must not raise despite rows -1..-3 not existing.
    device.deposit_episodes(edge, 7800.0, 15.0, 1e6, 5000)
    assert device.dose_of(RowAddress(0, 0, 1), now=1.1e6)[1] > 0


def test_aggressor_at_top_edge():
    geometry = small_geometry(rows=64)
    device = build_module("S3", geometry=geometry).device
    top = RowAddress(0, 0, geometry.rows_per_bank - 1)
    device.deposit_episodes(top, 7800.0, 15.0, 1e6, 100)  # no exception


def test_site_near_bank_edge_still_searchable(s3_bench):
    acmin = find_acmin(s3_bench, RowSite(0, 0, 3), t_aggon=units.TREFI)
    assert acmin is None or acmin > 0


# ----------------------------------------------------------- zero/tiny loops


def test_zero_iteration_loop_is_noop():
    device = build_module("S3", geometry=small_geometry()).device
    executor = ProgramExecutor(device)
    address = RowAddress(0, 0, 10)
    program = Program([Loop(0, (Act(address), Wait(36.0), Pre(0, 0), Wait(15.0)))])
    result = executor.interpret(program)
    assert result.activations == 0
    assert result.duration == 0.0


def test_deposit_zero_count_is_noop():
    device = build_module("S3", geometry=small_geometry()).device
    before = device.activation_count
    device.deposit_episodes(RowAddress(0, 0, 10), 36.0, 15.0, 100.0, 0)
    assert device.activation_count == before


# ----------------------------------------------------------- empty workloads


def test_simulator_with_empty_stream_finishes():
    sim = Simulator(["429.mcf"], requests_per_core=1)
    result = sim.run()
    assert result.duration_ns >= 0


def test_zero_temperature_sweep_rejected():
    bench = TestingInfrastructure(build_module("S3", geometry=small_geometry()))
    with pytest.raises(ValueError):
        bench.set_temperature(500.0)


# --------------------------------------------------------------- mitigation


def test_para_probabilistic_protection_bound():
    """PARA keeps a hammered victim's exposure bounded w.h.p. (seeded)."""
    para = Para(probability=0.05, seed=9)
    tracker = VictimExposureTracker(dose_ratio=1.0)
    for _ in range(20_000):
        victims = para.on_activation(0, 0, 100, 0.0)
        tracker.on_activation(0, 0, 100)
        for victim in victims:
            tracker.on_refresh(0, 0, victim)
    # p=0.05 picking each distance-1 neighbor ~1.9% of activations =>
    # mean exposure run ~107 acts; a 1000-act run has probability ~1e-9.
    assert tracker.max_exposure_seen < 1000


def test_exposure_tracker_distance_two_weighting():
    tracker = VictimExposureTracker(dose_ratio=1.0)
    tracker.on_activation(0, 0, 100)
    assert tracker.exposure[(0, 0, 102)] == pytest.approx(0.02)


# --------------------------------------------------------------- data noise


def test_custom_victim_content_still_flips():
    """Non-uniform victim data: flips occur on eligible cells only."""
    device = build_module("S3", geometry=full_width_geometry()).device
    bits = device.geometry.row_bits
    aggressor = RowAddress(0, 0, 20)
    victim = RowAddress(0, 0, 21)
    device.write_row(aggressor, aggressor_bytes(DataPattern.CHECKERBOARD, bits), 0.0)
    rng = np.random.default_rng(4)
    payload = rng.integers(0, 256, bits // 8, dtype=np.uint8)
    device.write_row(victim, payload, 0.0)
    count = int(units.EXPERIMENT_BUDGET // (units.TREFI + 15))
    device.deposit_episodes(aggressor, units.TREFI, 15.0, 60e6, count)
    _, flips = device.read_row(victim, 60e6 + 1)
    for flip in flips:
        original = (payload[flip.column >> 3] >> (flip.column & 7)) & 1
        assert flip.bit_before == original


def test_all_zero_victim_yields_no_press_flips_on_true_cell_die():
    """Press drains charge; an all-discharged (0x00, true-cell) victim
    has nothing to drain."""
    device = build_module("S3", geometry=full_width_geometry()).device
    bits = device.geometry.row_bits
    aggressor = RowAddress(0, 0, 20)
    victim = RowAddress(0, 0, 21)
    device.write_row(aggressor, aggressor_bytes(DataPattern.CHECKERBOARD, bits), 0.0)
    device.write_row(victim, np.zeros(bits // 8, dtype=np.uint8), 0.0)
    count = int(units.EXPERIMENT_BUDGET // (units.TREFI + 15))
    device.deposit_episodes(aggressor, units.TREFI, 15.0, 60e6, count)
    _, flips = device.read_row(victim, 60e6 + 1)
    assert all(f.mechanism != "press" for f in flips)


# ------------------------------------------------- distance-2 (Half-Double)


def test_distance_two_victims_flip_under_extreme_hammering():
    """Far victims (±2) receive ~1.5% of the dose; an extreme double-sided
    barrage can still flip the weakest of them (Half-Double-adjacent
    behavior; the paper's victim set spans ±3 for this reason)."""
    device = build_module("S3", geometry=full_width_geometry()).device
    bits = device.geometry.row_bits
    aggressor = RowAddress(0, 0, 40)
    device.write_row(aggressor, aggressor_bytes(DataPattern.CHECKERBOARD, bits), 0.0)
    flips_far = []
    for row in (38, 42):
        device.write_row(
            RowAddress(0, 0, row), victim_bytes(DataPattern.CHECKERBOARD, bits), 0.0
        )
    # far beyond any realistic budget: pure model exercise of the ±2 path
    device.deposit_episodes(aggressor, 36.0, 15.0, 1e9, 20_000_000)
    for row in (38, 42):
        _, flips = device.read_row(RowAddress(0, 0, row), 1e9 + 1)
        flips_far.extend(flips)
    assert flips_far  # the distance-2 channel is live
    device.reset_disturbance()


def test_distance_three_press_is_zero():
    device = build_module("S3", geometry=full_width_geometry()).device
    aggressor = RowAddress(0, 0, 40)
    device.deposit_episodes(aggressor, 30 * units.MS, 15.0, 60e6, 2)
    assert device.dose_of(RowAddress(0, 0, 43), now=60e6 + 1)[1] == 0.0
