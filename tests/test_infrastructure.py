"""Test-bench assembly (temperature + refresh-window guard)."""

import pytest

from repro import units
from repro.dram.geometry import RowAddress
from repro.bender.infrastructure import TestingInfrastructure
from repro.bender.isa import compile_program
from repro.bender.program import Act, Loop, Pre, Program, Wait


def test_set_temperature_applies_to_device(s3_module):
    bench = TestingInfrastructure(s3_module)
    bench.set_temperature(80.0)
    assert s3_module.device.temperature_c == 80.0
    assert bench.log.settle_events and bench.log.settle_events[0][0] == 80.0


def test_budget_guard_rejects_long_programs(s3_bench):
    address = RowAddress(0, 0, 10)
    too_long = Program(
        [Loop(3, (Act(address), Wait(30 * units.MS), Pre(0, 0), Wait(15.0)))]
    )
    with pytest.raises(ValueError):
        s3_bench.execute(compile_program(too_long, s3_bench.module.device.timing))


def test_budget_guard_can_be_disabled(s3_module):
    bench = TestingInfrastructure(s3_module, enforce_refresh_window=False)
    address = RowAddress(0, 0, 10)
    program = Program(
        [Loop(3, (Act(address), Wait(30 * units.MS), Pre(0, 0), Wait(15.0)))]
    )
    bench.execute(compile_program(program, bench.module.device.timing))  # allowed


def test_run_accounting(s3_bench):
    address = RowAddress(0, 0, 10)
    program = Program([Loop(50, (Act(address), Wait(36.0), Pre(0, 0), Wait(15.0)))])
    s3_bench.execute(compile_program(program, s3_bench.module.device.timing))
    assert s3_bench.log.programs_run == 1
    assert s3_bench.log.total_activations == 50


def test_fresh_experiment_clears_dose(s3_bench):
    address = RowAddress(0, 0, 10)
    program = Program([Loop(100, (Act(address), Wait(36.0), Pre(0, 0), Wait(15.0)))])
    s3_bench.execute(compile_program(program, s3_bench.module.device.timing))
    s3_bench.fresh_experiment()
    victim = RowAddress(0, 0, 11)
    assert s3_bench.module.device.dose_of(victim) == (0.0, 0.0)
