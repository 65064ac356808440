"""Compiled payload ISA: packing round-trips, loop edges, decode safety."""

import pytest

from repro import units
from repro.bender.builder import single_sided_pattern
from repro.bender.executor import ProgramExecutor
from repro.bender.infrastructure import TestingInfrastructure
from repro.bender.isa import (
    MAX_LOOP_COUNT,
    MAX_LOOP_DEPTH,
    CompileError,
    Payload,
    compile_program,
    disassemble,
    execute,
    _payload_from_words,
)
from repro.bender.program import Act, FillRow, Loop, Pre, Program, ReadRow, Wait
from repro.dram.catalog import build_module
from repro.dram.geometry import RowAddress
from repro.dram.timing import DDR4_3200W

from tests.conftest import full_width_geometry


def hammer_program(row, t_on, count):
    address = RowAddress(0, 0, row)
    return Program(
        [
            FillRow(address, 0xAA),
            FillRow(RowAddress(0, 0, row - 1), 0x55),
            FillRow(RowAddress(0, 0, row + 1), 0x55),
            Loop(count, (Act(address), Wait(t_on), Pre(0, 0), Wait(15.0))),
            ReadRow(RowAddress(0, 0, row + 1)),
            ReadRow(RowAddress(0, 0, row - 1)),
        ]
    )


def fresh_device():
    return build_module("S3", geometry=full_width_geometry()).device


# ----------------------------------------------------------------------
# word packing round-trips
# ----------------------------------------------------------------------


def test_compile_round_trips_every_instruction_kind():
    program = hammer_program(20, 36.0, 500)
    payload = compile_program(program)
    assert payload.program == program
    assert payload.duration_ns == program.duration()
    assert len(payload.top_level_loops) == 1


def test_wait_packs_as_timeslices_only_when_bit_exact():
    period = DDR4_3200W.command_period
    exact = compile_program(Program([Wait(424 * period)]))
    assert exact.constants == ()
    # 100 ns is not an exact multiple of the 1.5 ns slot: constant pool.
    inexact = compile_program(Program([Wait(100.0)]))
    assert inexact.constants == (100.0,)
    assert inexact.program.instructions[0].duration == 100.0


def test_constant_pool_deduplicates_repeated_durations():
    payload = compile_program(Program([Wait(100.0), Wait(100.0), Wait(212.3)]))
    assert payload.constants == (100.0, 212.3)


def test_compile_rejects_out_of_range_fields():
    with pytest.raises(CompileError, match="row"):
        compile_program(Program([Act(RowAddress(0, 0, 1 << 20))]))
    with pytest.raises(CompileError, match="bank"):
        compile_program(Program([Act(RowAddress(0, 64, 1))]))
    with pytest.raises(CompileError, match="rank"):
        compile_program(Program([Act(RowAddress(4, 0, 1))]))
    with pytest.raises(CompileError, match="loop count"):
        compile_program(Program([Loop(MAX_LOOP_COUNT + 1, (Wait(15.0),))]))


def test_compile_rejects_too_deep_nesting():
    body = (Wait(15.0),)
    for _ in range(MAX_LOOP_DEPTH + 1):
        body = (Loop(2, body),)
    with pytest.raises(CompileError, match="nested deeper"):
        compile_program(Program(list(body)))


# ----------------------------------------------------------------------
# loop-bound edge cases
# ----------------------------------------------------------------------


def test_zero_iteration_loop_is_elided_at_compile_time():
    program = Program([Loop(0, (Act(RowAddress(0, 0, 5)), Wait(36.0), Pre(0, 0)))])
    payload = compile_program(program)
    assert len(payload) == 1  # just the END word
    assert execute(payload, fresh_device()).activations == 0


def test_with_loop_count_zero_executes_nothing():
    payload = compile_program(single_sided_pattern(RowAddress(0, 1, 100), 36.0, 50))
    empty = payload.with_loop_count(0)
    decoded = empty.program.instructions
    assert len(decoded) == 1 and decoded[0].count == 0
    assert execute(empty, fresh_device()).activations == 0


def test_with_loop_count_patches_a_single_word():
    payload = compile_program(single_sided_pattern(RowAddress(0, 1, 100), 36.0, 50))
    patched = payload.with_loop_count(120)
    assert sum(a != b for a, b in zip(payload, patched)) == 1
    assert execute(patched, fresh_device()).activations == 120
    with pytest.raises(CompileError, match="24-bit"):
        payload.with_loop_count(MAX_LOOP_COUNT + 1)
    with pytest.raises(CompileError, match="no loop index"):
        payload.with_loop_count(10, loop_index=1)


def test_nested_loops_round_trip_and_count_activations():
    inner = Loop(3, (Act(RowAddress(0, 0, 7)), Wait(36.0), Pre(0, 0), Wait(15.0)))
    program = Program([Loop(4, (inner,))])
    payload = compile_program(program)
    assert payload.program == program
    assert execute(payload, fresh_device()).activations == 12


def test_loop_crossing_the_refresh_window_is_rejected_by_the_bench():
    bench = TestingInfrastructure(build_module("S3", geometry=full_width_geometry()))
    # 2M episodes x 51 ns exceeds the refresh-window experiment budget.
    payload = compile_program(single_sided_pattern(RowAddress(0, 1, 100), 36.0, 50))
    too_long = payload.with_loop_count(2_000_000)
    assert too_long.duration_ns > units.EXPERIMENT_BUDGET
    with pytest.raises(ValueError, match="experiment budget"):
        bench.execute(too_long)
    bench.enforce_refresh_window = False
    assert bench.execute(too_long).activations == 2_000_000


# ----------------------------------------------------------------------
# compiled-vs-interpreted equivalence
# ----------------------------------------------------------------------


def test_compiled_payload_matches_interpreter_bit_for_bit():
    program = hammer_program(20, 7800.0, 90_000)
    interpreted = ProgramExecutor(fresh_device()).interpret(program)
    compiled = execute(compile_program(program), fresh_device())
    assert compiled.end_time == interpreted.end_time
    assert compiled.activations == interpreted.activations
    assert [read.data.tobytes() for read in compiled.reads] == [
        read.data.tobytes() for read in interpreted.reads
    ]
    assert compiled.bitflips == interpreted.bitflips


# ----------------------------------------------------------------------
# decode safety on malformed words
# ----------------------------------------------------------------------


def decode(words, constants=()):
    return _payload_from_words(words, constants, DDR4_3200W.command_period, ())


def test_decode_rejects_malformed_payloads():
    end = 0xF << 28
    act = (0x1 << 28) | (1 << 20) | 5
    with pytest.raises(CompileError, match="empty payload"):
        decode([])
    with pytest.raises(CompileError, match="without an END"):
        decode([act])
    with pytest.raises(CompileError, match="after END"):
        decode([end, act])
    with pytest.raises(CompileError, match="unknown opcode"):
        decode([0x0 << 28, end])
    with pytest.raises(CompileError, match="closes no open loop"):
        decode([(0x9 << 28) | 1, end])
    with pytest.raises(CompileError, match="IMM not followed"):
        decode([(0x8 << 28) | 0xAA, end])
    with pytest.raises(CompileError, match="FILL without"):
        decode([(0x5 << 28) | 5, end])
    with pytest.raises(CompileError, match="constant pool"):
        decode([(0x4 << 28) | 3, end])
    with pytest.raises(CompileError, match="END inside an open loop"):
        decode([(0x7 << 28) | 2, act, end])
    with pytest.raises(CompileError, match="does not span"):
        decode([(0x7 << 28) | 2, act, (0x9 << 28) | 7, end])


# ----------------------------------------------------------------------
# disassembly
# ----------------------------------------------------------------------


def test_disassembly_lists_words_and_constants():
    program = Program(
        [
            FillRow(RowAddress(0, 1, 100), 0xAA),
            Loop(5000, (Act(RowAddress(0, 1, 100)), Wait(636.0), Pre(0, 1), Wait(15.0))),
            Wait(100.0),
            ReadRow(RowAddress(0, 1, 100)),
        ]
    )
    listing = disassemble(compile_program(program))
    assert "SETCNT r0, 5000" in listing
    assert "ACT    rank=0 bank=1 row=100" in listing
    assert "WAIT   424 slices" in listing
    assert "JBNZ   r0, -4" in listing
    assert "IMM    0xAA" in listing
    assert "WAITC  c0" in listing
    assert "const c0 = 100.0 ns" in listing
    assert listing.splitlines()[0].startswith("0000  0x8")
