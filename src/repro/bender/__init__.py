"""Programmable DRAM testing infrastructure (DRAM Bender / SoftMC analog).

The paper drives real chips with an FPGA that executes arbitrary DRAM
command sequences at 1.5 ns granularity with refresh disabled (§3.1).
This package provides the same capability against the behavioral device:

* :mod:`repro.bender.program` — command IR (ACT/PRE/WAIT/FILL/READ, loops),
* :mod:`repro.bender.builder` — access-pattern builders (single-sided,
  double-sided, RowPress-ONOFF),
* :mod:`repro.bender.executor` — timing-checked execution with a fast bulk
  path for high-iteration hammer loops,
* :mod:`repro.bender.isa` — the packed 32-bit payload ISA behind the
  unified ``compile_program(...)`` / ``execute(...)`` surface,
* :mod:`repro.bender.temperature` — heater-pad + PID controller model,
* :mod:`repro.bender.infrastructure` — the full test bench.

Programs run *compile once, execute many*::

    payload = compile_program(program)      # -> Payload (packed words)
    result = execute(payload, device)       # loop-summarized execution

:func:`disassemble` prints a payload's words, the one program text.
``ProgramExecutor.interpret(program)`` runs a program uncompiled: it is
the reference interpreter that the ``isa-equivalence`` oracle holds
``execute`` to.
"""

from repro.bender.program import Act, FillRow, Loop, Pre, Program, ReadRow, Wait
from repro.bender.builder import (
    double_sided_pattern,
    onoff_pattern,
    round_to_command_period,
    single_sided_pattern,
)
from repro.bender.executor import ExecutionResult, ProgramExecutor, RowRead, TimingViolation
from repro.bender.isa import CompileError, Payload, compile_program, disassemble, execute
from repro.bender.temperature import TemperatureController
from repro.bender.infrastructure import TestingInfrastructure

__all__ = [
    "Act",
    "Pre",
    "Wait",
    "FillRow",
    "ReadRow",
    "Loop",
    "Program",
    "single_sided_pattern",
    "double_sided_pattern",
    "onoff_pattern",
    "round_to_command_period",
    "ProgramExecutor",
    "ExecutionResult",
    "RowRead",
    "TimingViolation",
    "compile_program",
    "execute",
    "Payload",
    "CompileError",
    "disassemble",
    "TemperatureController",
    "TestingInfrastructure",
]
