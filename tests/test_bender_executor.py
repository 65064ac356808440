"""Program executor: timing checks and bulk-loop equivalence."""

import pytest

from repro.dram.catalog import build_module
from repro.dram.geometry import RowAddress
from repro.bender.executor import ProgramExecutor, TimingViolation
from repro.bender.program import Act, FillRow, Loop, Pre, Program, ReadRow, Wait

from tests.conftest import full_width_geometry


def executor(module_id="S3"):
    module = build_module(module_id, geometry=full_width_geometry())
    return ProgramExecutor(module.device)


def hammer_program(row, t_on, count, read_rows=(None,)):
    address = RowAddress(0, 0, row)
    program = Program(
        [
            FillRow(address, 0xAA),
            FillRow(RowAddress(0, 0, row - 1), 0x55),
            FillRow(RowAddress(0, 0, row + 1), 0x55),
            Loop(count, (Act(address), Wait(t_on), Pre(0, 0), Wait(15.0))),
            ReadRow(RowAddress(0, 0, row + 1)),
            ReadRow(RowAddress(0, 0, row - 1)),
        ]
    )
    return program


def test_trp_violation_detected():
    runner = executor()
    program = Program(
        [
            Act(RowAddress(0, 0, 5)),
            Wait(36.0),
            Pre(0, 0),
            Wait(5.0),  # < tRP
            Act(RowAddress(0, 0, 6)),
        ]
    )
    with pytest.raises(TimingViolation):
        runner.interpret(program)


def test_tras_violation_detected():
    runner = executor()
    program = Program([Act(RowAddress(0, 0, 5)), Wait(10.0), Pre(0, 0)])
    with pytest.raises(TimingViolation):
        runner.interpret(program)


def test_timing_checks_can_be_disabled():
    runner = executor()
    runner.check_timing = False
    program = Program([Act(RowAddress(0, 0, 5)), Wait(10.0), Pre(0, 0)])
    runner.interpret(program)  # no exception


def test_activation_counting():
    runner = executor()
    result = runner.interpret(hammer_program(20, 36.0, 1234))
    assert result.activations == 1234


def test_duration_reflects_loop():
    runner = executor()
    result = runner.interpret(hammer_program(20, 36.0, 1000))
    # loop duration plus the fixed fill/read housekeeping costs
    assert result.duration == pytest.approx(1000 * 51.0, abs=1000.0)


def test_reads_collected_with_flips():
    runner = executor()
    result = runner.interpret(hammer_program(20, 36.0, 900_000))
    assert len(result.reads) == 2
    assert result.bitflips  # 900K reference activations exceed row minima


def test_bulk_loop_matches_literal_execution():
    geometry = full_width_geometry()
    module_literal = build_module("S3", geometry=geometry)
    module_bulk = build_module("S3", geometry=geometry)
    program = hammer_program(20, 7800.0, 120)
    literal_result = ProgramExecutor(module_literal.device).interpret(
        Program(
            [
                instruction
                if not isinstance(instruction, Loop)
                else Loop(1, instruction.body * 120)
                for instruction in program.instructions
            ]
        )
    )
    bulk_result = ProgramExecutor(module_bulk.device).interpret(program)
    literal_flips = {(f.address.row, f.column) for f in literal_result.bitflips}
    bulk_flips = {(f.address.row, f.column) for f in bulk_result.bitflips}
    assert literal_flips == bulk_flips
    assert literal_result.activations == bulk_result.activations


def test_unbalanced_loop_falls_back_to_literal():
    runner = executor()
    address = RowAddress(0, 0, 20)
    # Row opened in one iteration, closed in the next: not bulk-safe.
    program = Program(
        [
            Loop(
                10,
                (
                    Act(address),
                    Wait(36.0),
                    Pre(0, 0),
                    Wait(15.0),
                    Act(address),
                    Wait(60.0),
                    Pre(0, 0),
                    Wait(15.0),
                ),
            )
        ]
    )
    result = runner.interpret(program)
    assert result.activations == 20


def test_runs_are_isolated_in_time():
    runner = executor()
    runner.interpret(hammer_program(20, 36.0, 1000))
    # A second run restarting at time zero must not trip timing checks.
    runner.interpret(hammer_program(40, 36.0, 1000))


def test_flushed_metrics_match_the_results_exactly():
    """Cached instruments record what per-execute lookups recorded: the
    exact sums, only the series a run touched, and a swapped registry
    gets its own instruments."""
    from repro.obs import MetricsRegistry, Observer

    module = build_module("S3", geometry=full_width_geometry())
    observer = Observer(metrics=MetricsRegistry())
    runner = ProgramExecutor(module.device, observer=observer)
    # No loop, no fill, no read: those series must not appear.
    bare = Program([Act(RowAddress(0, 0, 5)), Wait(36.0), Pre(0, 0)])
    results = [
        runner.interpret(bare),
        runner.interpret(hammer_program(20, 36.0, 500)),
        runner.interpret(hammer_program(40, 636.0, 70)),
    ]
    metrics = observer.metrics
    assert metrics.value("executor.programs") == 3
    for opcode in ("act", "pre", "wait", "fill", "read"):
        assert metrics.value("executor.commands", opcode=opcode) == sum(
            result.commands_by_opcode[opcode] for result in results
        )
    assert metrics.value("executor.loop_iterations") == sum(
        result.loop_iterations for result in results
    )
    walls = metrics.histogram("executor.wall_s")
    assert walls.count == len(results)
    assert walls.total == sum(result.wall_seconds for result in results)

    # The first execute created exactly the series a lookup per call did.
    fresh = MetricsRegistry()
    runner = ProgramExecutor(module.device, observer=Observer(metrics=fresh))
    first = runner.interpret(bare)
    assert first.loop_iterations == first.fill_commands == 0
    names = {
        (counter["name"], tuple(counter["labels"].items()))
        for counter in fresh.to_dict()["counters"]
    }
    assert names == {
        ("executor.timing_violations", ()),
        ("executor.programs", ()),
        ("executor.commands", (("opcode", "act"),)),
        ("executor.commands", (("opcode", "pre"),)),
        ("executor.commands", (("opcode", "wait"),)),
    }

    # A new registry on the same observer receives the next execute.
    swapped = MetricsRegistry()
    runner.observer.metrics = swapped
    runner.interpret(bare)
    assert swapped.value("executor.programs") == 1
    assert fresh.value("executor.programs") == 1
    assert swapped.value("executor.commands", opcode="act") == 1
