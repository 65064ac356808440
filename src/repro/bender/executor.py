"""Timing-checked execution of DRAM test programs.

The executor plays a :class:`repro.bender.program.Program` against a
:class:`repro.dram.device.DramDevice`, enforcing the command timing minima
(tRP/tRC/tRAS) that DRAM Bender programs must respect, with refresh
disabled exactly like the paper's methodology (§3.1).

Steady command-only loops take a **bulk path**: a couple of warm-up
iterations run literally (so sandwich detection and episode bookkeeping
reach steady state), then the remaining iterations are deposited
analytically in one call per aggressor episode.  This is what makes
ACmin bisection over hundreds of thousands of activations tractable.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro import units
from repro.dram.device import Bitflip, DramDevice
from repro.dram.geometry import RowAddress
from repro.bender.loops import LoopSummary, summarize_steady_loop
from repro.bender.program import Act, FillRow, Instruction, Loop, Pre, Program, ReadRow, Wait
from repro.obs import NULL_OBSERVER, Observer, monotonic_s

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (isa imports us)
    from repro.bender.isa import Payload


class TimingViolation(Exception):
    """A command was issued before its minimum-interval constraint."""


@dataclass
class RowRead:
    """Result of one ReadRow instruction."""

    address: RowAddress
    data: np.ndarray
    bitflips: list[Bitflip]


@dataclass
class ExecutionResult:
    """Outcome of one program execution."""

    reads: list[RowRead] = field(default_factory=list)
    start_time: float = 0.0
    end_time: float = 0.0
    activations: int = 0
    #: Commands issued, by opcode.  Bulk-deposited loop iterations count
    #: as if run literally, so these match the command stream a real
    #: DRAM Bender board would see.
    act_commands: int = 0
    pre_commands: int = 0
    wait_commands: int = 0
    fill_commands: int = 0
    read_commands: int = 0
    #: Loop iterations executed (literal + bulk), over all loops.
    loop_iterations: int = 0
    #: Host wall-clock seconds spent executing the program.
    wall_seconds: float = 0.0

    @property
    def duration(self) -> float:
        """Program wall-clock duration in nanoseconds."""
        return self.end_time - self.start_time

    @property
    def commands_by_opcode(self) -> dict[str, int]:
        """Issued command counts keyed by opcode."""
        return {
            "act": self.act_commands,
            "pre": self.pre_commands,
            "wait": self.wait_commands,
            "fill": self.fill_commands,
            "read": self.read_commands,
        }

    @property
    def total_commands(self) -> int:
        """Total commands issued across all opcodes."""
        return (
            self.act_commands
            + self.pre_commands
            + self.wait_commands
            + self.fill_commands
            + self.read_commands
        )

    @property
    def bitflips(self) -> list[Bitflip]:
        """All bitflips observed across the program's row reads."""
        return [flip for read in self.reads for flip in read.bitflips]


@dataclass
class _BankTiming:
    last_act: float = -1e18
    last_pre: float = -1e18


#: Fixed model cost of housekeeping instructions (ns).  Public because the
#: static verifier (repro.lint.progcheck) mirrors them when it computes a
#: program's duration without executing it.
FILL_COST = 100.0
READ_COST = 200.0
_FILL_COST = FILL_COST
_READ_COST = READ_COST

#: Loop iterations executed literally before switching to the bulk path.
_WARMUP_ITERATIONS = 2


class ProgramExecutor:
    """Executes test programs against one DRAM device."""

    def __init__(
        self,
        device: DramDevice,
        check_timing: bool = True,
        observer: Observer | None = None,
    ) -> None:
        self.device = device
        self.check_timing = check_timing
        self.observer = observer or NULL_OBSERVER
        self._banks: dict[tuple[int, int], _BankTiming] = {}
        #: Precomputed loop summaries of the payload being executed
        #: (``id(loop) -> LoopSummary | None``); None between payloads.
        self._summaries: dict[int, LoopSummary | None] | None = None
        # Bound once: hot paths touch inert singletons under NULL_OBSERVER.
        self._violation_counter = self.observer.metrics.counter(
            "executor.timing_violations"
        )

    def _bank(self, rank: int, bank: int) -> _BankTiming:
        return self._banks.setdefault((rank, bank), _BankTiming())

    def run(
        self, program: Program, start_time: float = 0.0, verify: bool = False
    ) -> ExecutionResult:
        """Deprecated spelling of the compile/execute surface.

        .. deprecated::
            Compile once and execute the payload instead::

                from repro.bender import compile_program, execute

                result = execute(compile_program(program), device)

            or, holding an executor, ``executor.execute_payload(payload)``.
        """
        warnings.warn(
            "ProgramExecutor.run(...) is deprecated; compile the program with "
            "repro.bender.compile_program(...) and run the payload via "
            "repro.bender.execute(...) or ProgramExecutor.execute_payload(...)",
            DeprecationWarning,
            stacklevel=2,
        )
        return self._execute(program, start_time=start_time, verify=verify)

    def execute_payload(
        self, payload: Payload, start_time: float = 0.0, verify: bool = False
    ) -> ExecutionResult:
        """Execute a compiled :class:`repro.bender.isa.Payload`.

        Identical semantics to interpreting the payload's decoded
        program, but steady loops reuse the summaries precomputed at
        compile time instead of re-analyzing the body on every run.
        """
        self.observer.metrics.counter("executor.payloads").inc()
        return self._execute(
            payload.program,
            start_time=start_time,
            verify=verify,
            summaries=payload.summaries,
        )

    def _execute(
        self,
        program: Program,
        start_time: float = 0.0,
        verify: bool = False,
        summaries: dict[int, LoopSummary | None] | None = None,
    ) -> ExecutionResult:
        """Execute ``program``; returns reads, bitflips, and timing.

        Each run is a fresh command session: per-bank timing history from
        earlier programs is discarded (the device's disturbance state is
        managed separately via ``reset_disturbance``).

        With ``verify=True`` the program is first checked by the static
        verifier (:mod:`repro.lint.progcheck`, refresh-disabled mode to
        match this executor's §3.1 methodology) and a
        :class:`repro.lint.progcheck.ProgramVerificationError` is raised
        before any instruction runs if it is malformed.
        """
        if verify:
            # Imported lazily: repro.lint.progcheck imports this module.
            from repro.lint.progcheck import verify_program

            verify_program(
                program, self.device.timing, budget=None, refresh_disabled=True
            )
        self._banks.clear()
        self._summaries = summaries
        result = ExecutionResult(start_time=start_time)
        activations_before = self.device.activation_count
        # Host-time profiling is intentional (observability, not simulated
        # time); monotonic_s is the codebase's one sanctioned clock read.
        wall_start = monotonic_s()
        try:
            end_time = self._run_block(list(program), start_time, result)
        finally:
            self._summaries = None
        result.wall_seconds = monotonic_s() - wall_start
        result.end_time = end_time
        result.activations = self.device.activation_count - activations_before
        self._flush_metrics(result)
        return result

    def _flush_metrics(self, result: ExecutionResult) -> None:
        """Push one run's bookkeeping into the observer (no-op if null)."""
        metrics = self.observer.metrics
        metrics.counter("executor.programs").inc()
        for opcode, count in result.commands_by_opcode.items():
            if count:
                metrics.counter("executor.commands", opcode=opcode).inc(count)
        if result.loop_iterations:
            metrics.counter("executor.loop_iterations").inc(result.loop_iterations)
        if result.wall_seconds > 0:
            # Simulated nanoseconds per wall second: the executor's speed.
            metrics.histogram("executor.ns_per_wall_s").record(
                result.duration / result.wall_seconds
            )
            metrics.histogram("executor.wall_s").record(result.wall_seconds)

    # ------------------------------------------------------------------

    def _run_block(
        self, instructions: list[Instruction], time_ns: float, result: ExecutionResult
    ) -> float:
        for instruction in instructions:
            time_ns = self._run_one(instruction, time_ns, result)
        return time_ns

    def _run_one(
        self, instruction: Instruction, time_ns: float, result: ExecutionResult
    ) -> float:
        device = self.device
        timing = device.timing
        if isinstance(instruction, Wait):
            result.wait_commands += 1
            return time_ns + instruction.duration
        if isinstance(instruction, Act):
            address = instruction.address
            bank = self._bank(address.rank, address.bank)
            if self.check_timing:
                if time_ns - bank.last_pre < timing.tRP - 1e-9:
                    self._violation_counter.inc()
                    raise TimingViolation(
                        f"ACT at {units.format_time(time_ns)} violates tRP: "
                        f"{units.format_time(time_ns - bank.last_pre)} since PRE "
                        f"< {units.format_time(timing.tRP)}"
                    )
                if time_ns - bank.last_act < timing.tRC - 1e-9:
                    self._violation_counter.inc()
                    raise TimingViolation(
                        f"ACT at {units.format_time(time_ns)} violates tRC: "
                        f"{units.format_time(time_ns - bank.last_act)} since ACT "
                        f"< {units.format_time(timing.tRC)}"
                    )
            device.act(address, time_ns)
            bank.last_act = time_ns
            result.act_commands += 1
            return time_ns
        if isinstance(instruction, Pre):
            bank = self._bank(instruction.rank, instruction.bank)
            if self.check_timing and time_ns - bank.last_act < timing.tRAS - 1e-9:
                self._violation_counter.inc()
                raise TimingViolation(
                    f"PRE at {units.format_time(time_ns)} violates tRAS: "
                    f"{units.format_time(time_ns - bank.last_act)} since ACT "
                    f"< {units.format_time(timing.tRAS)}"
                )
            device.precharge(instruction.rank, instruction.bank, time_ns)
            bank.last_pre = time_ns
            result.pre_commands += 1
            return time_ns
        if isinstance(instruction, FillRow):
            device.fill_row(instruction.address, instruction.byte_value, time_ns)
            result.fill_commands += 1
            return time_ns + _FILL_COST
        if isinstance(instruction, ReadRow):
            data, flips = device.read_row(instruction.address, time_ns)
            result.reads.append(RowRead(instruction.address, data, flips))
            result.read_commands += 1
            return time_ns + _READ_COST
        if isinstance(instruction, Loop):
            return self._run_loop(instruction, time_ns, result)
        raise TypeError(f"unknown instruction {instruction!r}")

    # ------------------------------------------------------------------

    def _run_loop(self, loop: Loop, time_ns: float, result: ExecutionResult) -> float:
        body = list(loop.body)
        if not loop.is_steady or loop.count <= _WARMUP_ITERATIONS + 2:
            result.loop_iterations += loop.count
            for _ in range(loop.count):
                time_ns = self._run_block(body, time_ns, result)
            return time_ns
        result.loop_iterations += loop.count
        for _ in range(_WARMUP_ITERATIONS):
            time_ns = self._run_block(body, time_ns, result)
        remaining = loop.count - _WARMUP_ITERATIONS
        summary = self._loop_summary(loop)
        if summary is None:
            # Unbalanced body (e.g. row left open): run literally.
            for _ in range(remaining):
                time_ns = self._run_block(body, time_ns, result)
            return time_ns
        period = summary.period
        # Bulk-deposited iterations still count as issued commands.
        for instruction in body:
            if isinstance(instruction, Act):
                result.act_commands += remaining
            elif isinstance(instruction, Pre):
                result.pre_commands += remaining
            elif isinstance(instruction, Wait):
                result.wait_commands += remaining
        base = time_ns + (remaining - 1) * period
        for episode in summary.episodes:
            self.device.deposit_episodes(
                episode.address,
                t_on=episode.t_on,
                t_off=episode.t_off,
                end_time=base + episode.pre_offset,
                count=remaining,
            )
        bank_keys = {
            (episode.address.rank, episode.address.bank)
            for episode in summary.episodes
        }
        for rank, bank in bank_keys:
            state = self._bank(rank, bank)
            state.last_act += remaining * period
            state.last_pre += remaining * period
        return time_ns + remaining * period

    def _loop_summary(self, loop: Loop) -> LoopSummary | None:
        """Summary of the loop body, from the payload cache if compiled."""
        cache = self._summaries
        if cache is not None:
            try:
                return cache[id(loop)]
            except KeyError:
                pass
        return summarize_steady_loop(loop.body)
