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

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro import units
from repro.dram.device import (
    Bitflip,
    DoseTwin,
    DramDevice,
    PlanSkeleton,
    PlanStep,
    ProbePlan,
)
from repro.dram.geometry import RowAddress
from repro.bender.loops import LoopSummary, summarize_steady_loop
from repro.bender.program import Act, FillRow, Instruction, Loop, Pre, Program, ReadRow, Wait
from repro.obs import (
    NULL_OBSERVER,
    Counter,
    Histogram,
    MetricsRegistry,
    Observer,
    monotonic_s,
)

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
#: Loops of at most this many iterations run literally, warm-up and all.
LITERAL_LOOP_MAX = _WARMUP_ITERATIONS + 2


class _FlushInstruments:
    """The ``executor.*`` instruments one metrics registry hands out.

    A registry lookup builds a label key on every call, so the executor
    resolves each instrument once per registry.  Each is resolved on
    its first use, which keeps the registry's series exactly those a
    lookup per execute would have created (no zero-valued opcode or
    loop series for programs without them).
    """

    __slots__ = ("registry", "programs", "commands", "loop_iterations", "histograms")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.programs = registry.counter("executor.programs")
        self.commands: dict[str, Counter] = {}
        self.loop_iterations: Counter | None = None
        self.histograms: tuple[Histogram, Histogram] | None = None

    def command(self, opcode: str) -> Counter:
        counter = self.commands.get(opcode)
        if counter is None:
            counter = self.registry.counter("executor.commands", opcode=opcode)
            self.commands[opcode] = counter
        return counter


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
        self._instruments: _FlushInstruments | None = None

    def _bank(self, rank: int, bank: int) -> _BankTiming:
        return self._banks.setdefault((rank, bank), _BankTiming())

    def interpret(
        self, program: Program, start_time: float = 0.0, verify: bool = False
    ) -> ExecutionResult:
        """Run ``program`` uncompiled: the reference interpreter.

        Steady loops are summarized afresh on every run instead of
        coming from a payload, and nothing passes through the compiler,
        so programs it would reject or elide (``Loop(0, ...)``) run as
        written.  The ``isa-equivalence`` oracle holds
        :meth:`execute_payload` to this path bit for bit.
        """
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

    def plan_payload(self, template: Payload) -> ProbePlan | None:
        """Replay ``template``'s count-independent prefix; plan its bulk probes.

        :meth:`replay_prefix`, then :meth:`ProbePrefix.plan` for the
        template itself.  None where either gives none.
        """
        prefix = self.replay_prefix(template)
        return None if prefix is None else prefix.plan(template)

    def replay_prefix(self, template: Payload) -> ProbePrefix | None:
        """Replay ``template``'s count-independent prefix once on the dose twin.

        The device must be a fresh :class:`repro.dram.device.DoseTwin`.
        The prefix is everything before the first top-level loop (the
        one :meth:`Payload.with_loop_count` patches by default) plus
        that loop's warm-up iterations, run here as one ordinary
        program.  None when the template has no such loop, its body is
        not summarizable, or a loop follows it; errors the prefix raises
        are the walk's own.
        """
        if not isinstance(self.device, DoseTwin):
            raise TypeError("probe plans replay on a dose twin")
        instructions = template.program.instructions
        position = next(
            (i for i, instruction in enumerate(instructions) if isinstance(instruction, Loop)),
            None,
        )
        if position is None:
            return None
        loop = instructions[position]
        summary = template.summaries.get(id(loop))
        if not loop.is_steady or summary is None:
            return None
        if _plan_steps(instructions[position + 1 :]) is None:
            return None
        head = list(instructions[:position])
        start = self.interpret(Program(head + [Loop(_WARMUP_ITERATIONS, loop.body)])).end_time
        banks = {bank: (state.last_act, state.last_pre) for bank, state in self._banks.items()}
        return ProbePrefix(self, template, head, loop.body, summary, start, banks)

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
        if not metrics.enabled:
            return
        bound = self._instruments
        if bound is None or bound.registry is not metrics:
            bound = self._instruments = _FlushInstruments(metrics)
        bound.programs.inc()
        for opcode, count in result.commands_by_opcode.items():
            if count:
                bound.command(opcode).inc(count)
        if result.loop_iterations:
            if bound.loop_iterations is None:
                bound.loop_iterations = metrics.counter("executor.loop_iterations")
            bound.loop_iterations.inc(result.loop_iterations)
        if result.wall_seconds > 0:
            if bound.histograms is None:
                bound.histograms = (
                    metrics.histogram("executor.ns_per_wall_s"),
                    metrics.histogram("executor.wall_s"),
                )
            ns_per_wall_s, wall_s = bound.histograms
            # Simulated nanoseconds per wall second: the executor's speed.
            ns_per_wall_s.record(result.duration / result.wall_seconds)
            wall_s.record(result.wall_seconds)

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
        if not loop.is_steady or loop.count <= LITERAL_LOOP_MAX:
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


def _plan_steps(suffix: list[Instruction]) -> tuple[list[PlanStep], set[tuple[int, int]]] | None:
    """A plan's walk of ``suffix`` as steps, and the banks those touch.

    None when ``suffix`` holds an instruction a plan does not model (a
    loop).
    """
    steps: list[PlanStep] = []
    touched: set[tuple[int, int]] = set()
    for instruction in suffix:
        if isinstance(instruction, Wait):
            steps.append(("wait", instruction.duration))
        elif isinstance(instruction, Act):
            steps.append(("act", instruction.address))
            touched.add((instruction.address.rank, instruction.address.bank))
        elif isinstance(instruction, Pre):
            steps.append(("pre", (instruction.rank, instruction.bank)))
            touched.add((instruction.rank, instruction.bank))
        elif isinstance(instruction, FillRow):
            steps.append(("fill", instruction.address, instruction.byte_value))
            steps.append(("wait", _FILL_COST))
        elif isinstance(instruction, ReadRow):
            steps.append(("read", instruction.address))
            steps.append(("wait", _READ_COST))
        else:
            return None
    return steps, touched


class ProbePrefix:
    """One replay of a probe template's count-independent prefix on a dose twin.

    The prefix is everything before the template's first top-level loop
    plus that loop's warm-up iterations.  Templates with the same
    instructions before that loop and the same loop body share it — the
    two count parities of a double-sided ACmin probe do, for their
    trailing half-episode comes after the loop — so one replay serves
    them all: :meth:`plan` binds each one's plan to the twin as the
    prefix left it, and :meth:`literal_flips` answers a loop count the
    executor runs literally.  Neither changes the twin.

    Plans bind a :class:`repro.dram.device.PlanSkeleton`, compiled once
    per template and kept in its ``plan_skeletons``; one that does not
    fit the twin (:meth:`PlanSkeleton.fits`) is compiled anew.
    """

    def __init__(
        self,
        executor: ProgramExecutor,
        template: Payload,
        head: list[Instruction],
        body: tuple[Instruction, ...],
        summary: LoopSummary,
        start: float,
        banks: dict[tuple[int, int], tuple[float, float]],
    ) -> None:
        self.template = template
        self.twin = executor.device
        self._check_timing = executor.check_timing
        self._head = head
        self._body = body
        self._summary = summary
        self._start = start
        self._banks = banks
        self._serves: dict[Payload, bool] = {template: True}

    def serves(self, template: Payload) -> bool:
        """Whether ``template`` has this prefix: the same instructions before its first loop and the same body."""
        serves = self._serves.get(template)
        if serves is None:
            instructions = template.program.instructions
            position = len(self._head)
            serves = self._serves[template] = (
                len(instructions) > position
                and isinstance(instructions[position], Loop)
                and instructions[position].body == self._body
                and instructions[:position] == self._head
            )
        return serves

    def _duration(self, suffix: list[Instruction]) -> tuple[float, float, tuple[float, ...]]:
        """A plan's ``duration``: as ``Program.duration`` sums the payload's waits."""
        return (
            Program(self._head).duration(),
            Program(list(self._body)).duration(),
            tuple(i.duration for i in suffix if isinstance(i, Wait)),
        )

    def plan(self, template: Payload) -> ProbePlan | None:
        """``template``'s plan for loop counts above :data:`LITERAL_LOOP_MAX`.

        ``template`` must be one this prefix :meth:`serves`.  None when
        a loop follows its first one; raises
        :class:`repro.dram.device.ReplayInexact` where every bulk probe's
        walk would.
        """
        skeleton = template.plan_skeletons.get(None)
        if skeleton is None or not skeleton.fits(self.twin, self._check_timing):
            suffix = template.program.instructions[len(self._head) + 1 :]
            planned = _plan_steps(suffix)
            if planned is None:
                return None
            steps, touched = planned
            summary = self._summary
            touched |= {(e.address.rank, e.address.bank) for e in summary.episodes}
            skeleton = template.plan_skeletons[None] = PlanSkeleton(
                self.twin,
                warmup=_WARMUP_ITERATIONS,
                start=self._start,
                period=summary.period,
                episodes=[
                    (episode.address, episode.t_on, episode.t_off, episode.pre_offset)
                    for episode in summary.episodes
                ],
                banks={bank: self._banks.get(bank, (-1e18, -1e18)) for bank in touched},
                steps=steps,
                check_timing=self._check_timing,
                duration=self._duration(suffix),
            )
        return ProbePlan(skeleton, self.twin, prefix=self)

    def literal_flips(self, template: Payload, loop_count: int) -> bool:
        """``template`` at a ``loop_count`` the executor runs literally, as the twin walk answers it.

        ``template`` must be one this prefix :meth:`serves`, and
        ``loop_count`` at most :data:`LITERAL_LOOP_MAX`.  The answer
        comes from a skeleton of the whole walk (fills, ``loop_count``
        iterations, the rest) from a fresh twin, bound to this replay's
        dose model; it raises :class:`repro.dram.device.ReplayInexact`
        where that walk would not end in a twin verdict.
        """
        skeleton = template.plan_skeletons.get(loop_count)
        if skeleton is None or not skeleton.fits(self.twin, self._check_timing):
            suffix = template.program.instructions[len(self._head) + 1 :]
            steps, touched = _plan_steps(self._head + list(self._body) * loop_count + suffix)
            skeleton = template.plan_skeletons[loop_count] = PlanSkeleton(
                DoseTwin(self.twin),
                warmup=loop_count,
                start=0.0,
                period=0.0,
                episodes=(),
                banks={bank: (-1e18, -1e18) for bank in touched},
                steps=steps,
                check_timing=self._check_timing,
                duration=self._duration(suffix),
                fresh=True,
            )
        return ProbePlan(skeleton, self.twin).flips(loop_count)
