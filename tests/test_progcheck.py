"""Static program verifier vs. every builder pattern, plus mutations."""

from __future__ import annotations

import pytest

from repro import units
from repro.dram.catalog import build_module
from repro.dram.geometry import RowAddress
from repro.dram.timing import DDR4_3200W
from repro.bender.builder import (
    double_sided_pattern,
    onoff_pattern,
    single_sided_pattern,
)
from repro.bender.executor import ProgramExecutor
from repro.bender.program import Act, FillRow, Loop, Pre, Program, ReadRow, Wait
from repro.lint.progcheck import (
    ProgramVerificationError,
    check_program,
    verify_program,
)

from tests.conftest import full_width_geometry

TIMING = DDR4_3200W
LOW = RowAddress(0, 0, 100)
HIGH = RowAddress(0, 0, 102)

#: Boundary on-times: the tRAS floor, one tREFI, the 9 x tREFI ceiling.
BOUNDARY_T_AGGON = (TIMING.tRAS, units.TREFI, units.TAGGON_MAX)
#: Boundary off-times: the tRP floor and one tREFI.
BOUNDARY_T_AGGOFF = (TIMING.tRP, units.TREFI)


def fitting_count(t_on: float, t_off: float, episodes_per_iter: int = 1) -> int:
    """A loop count that keeps the program inside the experiment budget."""
    episode = (t_on + t_off) * episodes_per_iter
    return max(1, int(units.EXPERIMENT_BUDGET * 0.9 // episode))


# ----------------------------------------------------------------------
# clean builder patterns pass, at every boundary value
# ----------------------------------------------------------------------


@pytest.mark.parametrize("t_aggon", BOUNDARY_T_AGGON)
def test_single_sided_pattern_verifies_clean(t_aggon):
    count = fitting_count(t_aggon, TIMING.tRP)
    program = single_sided_pattern(LOW, t_aggon, count, TIMING)
    report = check_program(program, TIMING)
    assert report.ok, [d.render() for d in report.diagnostics]
    assert report.duration_ns <= units.EXPERIMENT_BUDGET


@pytest.mark.parametrize("t_aggon", BOUNDARY_T_AGGON)
@pytest.mark.parametrize("total_count", (8, 9))  # even and odd (leftover episode)
def test_double_sided_pattern_verifies_clean(t_aggon, total_count):
    program = double_sided_pattern(LOW, HIGH, t_aggon, total_count, TIMING)
    report = check_program(program, TIMING)
    assert report.ok, [d.render() for d in report.diagnostics]


@pytest.mark.parametrize("t_aggon", BOUNDARY_T_AGGON)
@pytest.mark.parametrize("t_aggoff", BOUNDARY_T_AGGOFF)
def test_onoff_pattern_verifies_clean(t_aggon, t_aggoff):
    count = fitting_count(t_aggon, t_aggoff, episodes_per_iter=2)
    program = onoff_pattern([LOW, HIGH], t_aggon, t_aggoff, count, TIMING)
    report = check_program(program, TIMING)
    assert report.ok, [d.render() for d in report.diagnostics]


def test_characterization_open_times_pass_with_refresh_disabled():
    """30 ms open times (Fig. 9 sweeps) are legal on the §3.1 bench."""
    program = single_sided_pattern(LOW, 30 * units.MS, 1, TIMING)
    assert "row-open-too-long" in check_program(program, TIMING).codes()
    assert check_program(program, TIMING, refresh_disabled=True).ok


# ----------------------------------------------------------------------
# mutations fail with the right diagnostic codes
# ----------------------------------------------------------------------


def drop_pres(program: Program) -> Program:
    """The classic payload-encoder bug: PREs silently dropped."""
    def strip(instructions):
        out = []
        for instruction in instructions:
            if isinstance(instruction, Pre):
                continue
            if isinstance(instruction, Loop):
                instruction = Loop(instruction.count, tuple(strip(instruction.body)))
            out.append(instruction)
        return out

    return Program(strip(list(program)))


def test_dropped_pre_is_double_act():
    program = drop_pres(single_sided_pattern(LOW, TIMING.tRAS, 1000, TIMING))
    report = check_program(program, TIMING)
    assert not report.ok
    assert "double-act" in report.codes()
    assert "row-left-open" in report.codes()
    # The cross-iteration hazard is reported once, not once per iteration.
    assert sum(1 for d in report.diagnostics if d.code == "double-act") == 1


def test_dropped_pre_in_double_sided_hits_both_aggressors():
    program = drop_pres(double_sided_pattern(LOW, HIGH, TIMING.tRAS, 10, TIMING))
    report = check_program(program, TIMING)
    assert "double-act" in report.codes()


def test_over_budget_loop_rejected():
    count = int(units.EXPERIMENT_BUDGET // (TIMING.tRAS + TIMING.tRP)) + 1000
    program = single_sided_pattern(LOW, TIMING.tRAS, count, TIMING)
    report = check_program(program, TIMING)
    assert "over-budget" in report.codes()
    diagnostic = next(d for d in report.diagnostics if d.code == "over-budget")
    assert "60ms" in diagnostic.message


def test_refresh_window_violation_reported_separately():
    count = int((TIMING.tREFW * 2) // (units.TREFI + TIMING.tRP))
    program = onoff_pattern([LOW], units.TREFI, TIMING.tRP, count, TIMING)
    report = check_program(program, TIMING, budget=None)
    assert report.codes() == {"exceeds-refresh-window"}


def test_pre_of_closed_bank_rejected():
    report = check_program(Program([Pre(0, 0)]), TIMING)
    assert report.codes() == {"pre-closed-bank"}


def test_row_open_too_short_rejected():
    program = Program([Act(LOW), Wait(20.0), Pre(0, 0)])
    report = check_program(program, TIMING)
    assert "row-open-too-short" in report.codes()
    diagnostic = next(d for d in report.diagnostics if d.code == "row-open-too-short")
    assert "20ns" in diagnostic.message and "36ns" in diagnostic.message


def test_act_too_soon_after_pre_rejected():
    program = Program(
        [Act(LOW), Wait(36.0), Pre(0, 0), Wait(5.0), Act(LOW), Wait(36.0), Pre(0, 0)]
    )
    report = check_program(program, TIMING)
    assert "act-too-soon" in report.codes()


def test_cross_iteration_act_too_soon_detected():
    # One iteration is fine; the loop-boundary PRE->ACT gap (5 ns) is not.
    body = (Act(LOW), Wait(36.0), Pre(0, 0), Wait(5.0))
    report = check_program(Program([Loop(100, body)]), TIMING)
    assert "act-too-soon" in report.codes()


def test_fill_and_read_against_open_row_rejected():
    program = Program(
        [
            Act(LOW),
            Wait(36.0),
            FillRow(HIGH, 0xAA),
            ReadRow(HIGH),
            Pre(0, 0),
        ]
    )
    report = check_program(program, TIMING)
    assert sum(1 for d in report.diagnostics if d.code == "access-while-open") == 2


def test_fills_and_reads_on_closed_banks_pass():
    program = Program(
        [
            FillRow(LOW, 0xAA),
            Loop(10, (Act(LOW), Wait(36.0), Pre(0, 0), Wait(15.0))),
            ReadRow(LOW.neighbor(1)),
        ]
    )
    assert check_program(program, TIMING).ok


# ----------------------------------------------------------------------
# loops are analyzed, not unrolled
# ----------------------------------------------------------------------


def test_huge_loop_is_not_unrolled():
    period = 36.0 + 15.0
    program = Program([Loop(10**9, (Act(LOW), Wait(36.0), Pre(0, 0), Wait(15.0)))])
    report = check_program(program, TIMING, budget=None, refresh_disabled=True)
    assert report.ok
    assert report.duration_ns == pytest.approx(10**9 * period)


def test_nested_loops_multiply_out():
    inner = Loop(10, (Act(LOW), Wait(36.0), Pre(0, 0), Wait(15.0)))
    program = Program([Loop(5, (inner,))])
    report = check_program(program, TIMING)
    assert report.ok
    assert report.duration_ns == pytest.approx(50 * 51.0)


def test_zero_count_loop_contributes_nothing():
    program = Program([Loop(0, (Act(LOW), Wait(1.0), Pre(0, 0)))])
    report = check_program(program, TIMING)
    assert report.ok and report.duration_ns == 0.0


# ----------------------------------------------------------------------
# executor integration and error-message consistency
# ----------------------------------------------------------------------


def _executor() -> ProgramExecutor:
    module = build_module("S3", geometry=full_width_geometry())
    return ProgramExecutor(module.device)


def test_executor_verify_rejects_malformed_program_before_running():
    runner = _executor()
    program = drop_pres(single_sided_pattern(LOW, TIMING.tRAS, 100, TIMING))
    with pytest.raises(ProgramVerificationError) as error:
        runner.interpret(program, verify=True)
    assert "double-act" in str(error.value)
    assert runner.device.activation_count == 0  # nothing executed


def test_executor_verify_passes_clean_program():
    runner = _executor()
    program = single_sided_pattern(LOW, TIMING.tRAS, 10, TIMING)
    result = runner.interpret(program, verify=True)
    assert result.act_commands == 10


def test_verify_program_raises_with_structured_report():
    with pytest.raises(ProgramVerificationError) as error:
        verify_program(Program([Pre(0, 0)]), TIMING)
    assert error.value.report.codes() == {"pre-closed-bank"}


def test_wait_and_loop_errors_include_value_and_units():
    with pytest.raises(ValueError, match=r"-5\.0 \(-5ns\)"):
        Wait(-5.0)
    with pytest.raises(ValueError, match=r"got -3"):
        Loop(-3, (Wait(36.0),))
