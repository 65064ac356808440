"""Search probes: the dose-only replay answers exactly as the device would.

``TestingInfrastructure.any_bitflip`` answers each ACmin / t_AggONmin
probe from a dose-only replay of its payload and runs the device only
where that replay cannot be exact.  These tests hold whole sweeps to
the device walk (the fallback forced by monkeypatching), exercise every
fallback condition, and pin the t_AggONmin budget fix.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import units
from repro.bender.builder import single_sided_pattern
from repro.bender.infrastructure import TestingInfrastructure
from repro.bender.isa import compile_program
from repro.bender.program import FillRow, Program, ReadRow, Wait
from repro.characterization.campaign import CampaignSpec, run_campaign
from repro.characterization.patterns import (
    AccessPattern,
    ExperimentConfig,
    RowSite,
    build_disturb_program,
)
from repro.characterization.runner import DEFAULT_TAGGON_SWEEP, CharacterizationRunner
from repro.characterization.taggonmin import _max_taggon
from repro.dram.catalog import MODULE_CATALOG, build_module
from repro.dram.datapattern import DataPattern
from repro.dram.device import DramDevice
from repro.dram.geometry import RowAddress
from repro.obs import Observer
from tests.conftest import small_geometry

#: (data pattern, temperature) conditions of the sweep differentials.
CONDITIONS = (
    (DataPattern.CHECKERBOARD, 50.0),
    (DataPattern.ROWSTRIPE_I, 80.0),
    (DataPattern.COLSTRIPE, 65.0),
)

ROW = 40


def _device_walk_only(monkeypatch) -> None:
    """Force every probe onto the device, as before the replay existed."""
    monkeypatch.setattr(DramDevice, "dose_twin", lambda self: None)


def _bench(module_id: str = "S3") -> TestingInfrastructure:
    return TestingInfrastructure(build_module(module_id, geometry=small_geometry(rows=64)))


def _device_answer(bench: TestingInfrastructure, payload) -> bool:
    bench.fresh_experiment()
    return len(bench.execute(payload).bitflips) > 0


def _address(row: int) -> RowAddress:
    return RowAddress(0, 0, row)


def _hammer_payload(fills: dict[int, int], reads: list[int], count: int, tail=()):
    """Fill rows, hammer ``ROW`` ``count`` times, run ``tail``, read rows."""
    program = Program()
    for row, byte in fills.items():
        program.append(FillRow(_address(row), byte))
    program.extend(single_sided_pattern(_address(ROW), 36.0, count).instructions)
    program.extend(list(tail))
    for row in reads:
        program.append(ReadRow(_address(row)))
    return compile_program(program)


def _standard_fills() -> dict[int, int]:
    fills = {row: 0x55 for row in range(ROW - 3, ROW + 5)}
    fills[ROW] = 0xAA
    return fills


# ----------------------------------------------------------------------
# whole sweeps: replay == device walk
# ----------------------------------------------------------------------


def _acmin_sweeps(observer: Observer) -> list:
    runner = CharacterizationRunner(
        module_ids=sorted(MODULE_CATALOG),
        sites_per_module=1,
        geometry=small_geometry(rows=64),
        bank=0,
        observer=observer,
    )
    records = []
    for access in AccessPattern:
        for data, temperature in CONDITIONS:
            records += runner.acmin_sweep(
                DEFAULT_TAGGON_SWEEP, access=access, temperature_c=temperature, data=data
            )
    return records


def test_replayed_acmin_sweep_matches_the_device_walk(monkeypatch):
    """All 21 modules, single- and double-sided, three conditions."""
    replay_obs = Observer.create()
    replayed = _acmin_sweeps(replay_obs)
    probes = replay_obs.metrics.value("acmin.probes")
    assert replay_obs.metrics.value("acmin.device_probes") < probes

    _device_walk_only(monkeypatch)
    walk_obs = Observer.create()
    walked = _acmin_sweeps(walk_obs)
    assert walk_obs.metrics.value("acmin.device_probes") == probes
    assert replayed == walked
    assert any(record.acmin is not None for record in replayed)


def _taggonmin_sweeps() -> list:
    runner = CharacterizationRunner(
        module_ids=sorted(MODULE_CATALOG),
        sites_per_module=1,
        geometry=small_geometry(rows=64),
        bank=0,
    )
    records = []
    for access in AccessPattern:
        for temperature in (50.0, 80.0):
            records += runner.taggonmin_sweep(
                (1, 10, 100, 1000, 10000), temperature_c=temperature, access=access
            )
    return records


def test_replayed_taggonmin_sweep_matches_the_device_walk(monkeypatch):
    replayed = _taggonmin_sweeps()
    _device_walk_only(monkeypatch)
    assert replayed == _taggonmin_sweeps()
    assert any(record.taggonmin is not None for record in replayed)


# ----------------------------------------------------------------------
# the bench method
# ----------------------------------------------------------------------


def test_standard_probe_is_replayed_and_counted_as_executor_work():
    observer = Observer.create()
    bench = TestingInfrastructure(
        build_module("S3", geometry=small_geometry(rows=64)), observer=observer
    )
    site = RowSite(0, 0, ROW)
    for count in (1, 50_000, 1_000_000):
        program, _ = build_disturb_program(site, 36.0, count, ExperimentConfig())
        payload = compile_program(program)
        assert bench.any_bitflip(payload) == _device_answer(_bench(), payload)
    assert bench.log.programs_run == 0  # no device execute
    assert observer.metrics.value("executor.programs") == 3


def test_retention_flips_are_replayed():
    """At 150 C a wait inside the budget flips charged cells by retention alone."""
    answers = []
    for wait_ms in (10.0, 20.0, 59.0):
        for byte in (0x00, 0x55, 0xFF):
            program = Program()
            rows = range(ROW - 5, ROW + 5)
            for row in rows:
                program.append(FillRow(_address(row), byte))
            program.append(Wait(wait_ms * units.MS))
            for row in rows:
                program.append(ReadRow(_address(row)))
            payload = compile_program(program)
            bench, truth = _bench(), _bench()
            for each in (bench, truth):
                each.module.device.set_temperature(150.0)
            answer = bench.any_bitflip(payload)
            flips = truth.execute(payload).bitflips
            assert answer == bool(flips), (wait_ms, byte)
            assert {flip.mechanism for flip in flips} <= {"retention"}
            assert bench.log.programs_run == 0
            answers.append(answer)
    assert True in answers and False in answers


def test_any_bitflip_keeps_the_budget_check():
    program, _ = build_disturb_program(RowSite(0, 0, ROW), 36.0, 2_000_000, ExperimentConfig())
    with pytest.raises(ValueError, match="experiment budget"):
        _bench().any_bitflip(compile_program(program))


# ----------------------------------------------------------------------
# fallback conditions: each answers what the device answers
# ----------------------------------------------------------------------


def _assert_fell_back_to_the_device(bench: TestingInfrastructure, payload, truth) -> None:
    assert bench.any_bitflip(payload) == _device_answer(truth, payload)
    assert bench.log.programs_run == 1


def test_unfilled_row_falls_back():
    fills = _standard_fills()
    del fills[ROW + 1]  # read and dosed, never filled
    payload = _hammer_payload(fills, [ROW - 1, ROW + 1], count=1_000_000)
    _assert_fell_back_to_the_device(_bench(), payload, _bench())


def test_mixed_content_row_falls_back():
    image = np.random.default_rng(7).integers(0, 256, 8192 // 8, dtype=np.uint8)
    bench, truth = _bench(), _bench()
    for each in (bench, truth):
        each.module.device.write_row(_address(ROW + 1), image, 0.0)
    fills = _standard_fills()
    del fills[ROW + 1]
    payload = _hammer_payload(fills, [ROW - 1, ROW + 1], count=1_000_000)
    _assert_fell_back_to_the_device(bench, payload, truth)


def test_flipped_aggressor_falls_back():
    """ROW+1 flips when it is activated after ROW's hammering; its own
    episode then disturbs ROW+2 with content no fill set."""
    tail = single_sided_pattern(_address(ROW + 1), 36.0, 1).instructions
    payload = _hammer_payload(
        _standard_fills(), [ROW + 2, ROW - 1], count=1_000_000, tail=tail
    )
    truth = _bench()
    _assert_fell_back_to_the_device(_bench(), payload, truth)
    aggressor = truth.module.device.peek_row(_address(ROW + 1))
    assert len(set(aggressor.tolist())) > 1  # the walk did flip it


def test_on_activate_hook_falls_back():
    bench, truth = _bench(), _bench()
    seen = []
    for each in (bench, truth):
        each.module.device.on_activate = lambda address, time_ns: seen.append(address)
    payload = _hammer_payload(_standard_fills(), [ROW - 1, ROW + 1], count=200_000)
    _assert_fell_back_to_the_device(bench, payload, truth)
    assert seen  # the hook ran on the device


def test_row_left_open_falls_back_and_raises_like_the_device():
    bench = _bench()
    bench.module.device.act(_address(5), 0.0)
    payload = _hammer_payload(_standard_fills(), [ROW - 1], count=10)
    with pytest.raises(RuntimeError, match="already open"):
        bench.any_bitflip(payload)
    assert bench.log.programs_run == 0  # the device raised inside execute


# ----------------------------------------------------------------------
# t_AggONmin's largest on-time fits the budget
# ----------------------------------------------------------------------


@pytest.mark.parametrize("count", [1, 3, 7, 10, 100, 333, 1000, 4444, 10000, 77777])
def test_max_taggon_fits_the_budget(count):
    config = ExperimentConfig()
    t_max = _max_taggon(count, config)
    if count in (1, 10, 100, 1000, 10000):  # the paper's counts divide evenly
        assert t_max == config.budget_ns / count - config.timing.tRP
    for access in AccessPattern:
        access_config = ExperimentConfig(access=access)
        program, _ = build_disturb_program(RowSite(0, 0, ROW), t_max, count, access_config)
        assert compile_program(program).duration_ns <= units.EXPERIMENT_BUDGET


def test_taggonmin_campaign_runs_at_uneven_activation_counts():
    spec = CampaignSpec(
        name="uneven-counts",
        module_ids=("S3",),
        experiment="taggonmin",
        activation_counts=(3, 7, 333, 4444, 77777),
        sites_per_module=1,
    )
    records = run_campaign(spec)
    assert [record.activation_count for record in records] == [3, 7, 333, 4444, 77777]
    for record in records:
        if record.taggonmin is not None:
            assert record.taggonmin * record.activation_count <= units.EXPERIMENT_BUDGET
