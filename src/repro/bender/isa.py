"""Compiled payload ISA: packed 32-bit words with JMP-encoded loops.

DRAM Bender-lineage testers ship programs to the FPGA as a flat array
of packed instruction words; loops are a count register plus a bounded
backward jump, never unrolled.  This module mirrors that encoding so a
:class:`repro.bender.program.Program` compiles once into a compact
binary :class:`Payload` and executes many times through the
loop-summarized engine (:meth:`ProgramExecutor.execute_payload`).

Word format (32 bits, opcode in bits 31:28)::

    ACT    0x1  | rank[27:26] | bank[25:20] | row[19:0]
    PRE    0x2  | rank[27:26] | bank[25:20] | 0
    WAIT   0x3  | timeslices[27:0]          (duration = n x command_period)
    WAITC  0x4  | constant-pool index[27:0] (exact-float duration)
    FILL   0x5  | rank[27:26] | bank[25:20] | row[19:0]  (follows an IMM)
    READ   0x6  | rank[27:26] | bank[25:20] | row[19:0]
    SETCNT 0x7  | reg[27:24]  | count[23:0]
    IMM    0x8  | immediate[27:0]           (fill byte for the next FILL)
    JBNZ   0x9  | reg[27:24]  | offset[23:0] (backward, decrement+branch)
    END    0xF

A WAIT's duration is stored as a count of ``command_period`` timeslices
only when that product is *bit-exact* in float arithmetic; any other
duration goes through the constant pool (WAITC), so a decoded program
is always float-identical to its source.  Loops nest through the count
register file (one register per nesting depth, 16 deep); a loop with a
statically-zero count or an empty body is elided at compile time.

The packed words are the single source of truth: :func:`compile_program`
encodes and immediately decodes them back, so every payload proves its
own round-trip.  :meth:`Payload.with_loop_count` patches one SETCNT word
and swaps the matching loop in the decoded program; the
``isa-equivalence`` oracle holds that equal to decoding the patched
words.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro import units
from repro.bender.executor import ExecutionResult, ProgramExecutor
from repro.bender.loops import LoopSummary, summarize_steady_loop
from repro.bender.program import (
    Act,
    FillRow,
    Instruction,
    Loop,
    Pre,
    Program,
    ReadRow,
    Wait,
)
from repro.dram.device import DramDevice
from repro.dram.geometry import RowAddress
from repro.dram.timing import DDR4_3200W, TimingParameters
from repro.obs import Observer

__all__ = [
    "CompileError",
    "Payload",
    "compile_program",
    "disassemble",
    "execute",
]

OP_ACT = 0x1
OP_PRE = 0x2
OP_WAIT = 0x3
OP_WAITC = 0x4
OP_FILL = 0x5
OP_READ = 0x6
OP_SETCNT = 0x7
OP_IMM = 0x8
OP_JBNZ = 0x9
OP_END = 0xF

_MNEMONICS = {
    OP_ACT: "ACT",
    OP_PRE: "PRE",
    OP_WAIT: "WAIT",
    OP_WAITC: "WAITC",
    OP_FILL: "FILL",
    OP_READ: "READ",
    OP_SETCNT: "SETCNT",
    OP_IMM: "IMM",
    OP_JBNZ: "JBNZ",
    OP_END: "END",
}

#: Field capacities of the packed word.
MAX_RANK = (1 << 2) - 1
MAX_BANK = (1 << 6) - 1
MAX_ROW = (1 << 20) - 1
MAX_LOOP_COUNT = (1 << 24) - 1
MAX_TIMESLICES = (1 << 28) - 1
MAX_LOOP_DEPTH = 16

_OPERAND_MASK = (1 << 28) - 1
_IMM24_MASK = (1 << 24) - 1


class CompileError(Exception):
    """A program cannot be encoded into (or decoded from) the ISA."""


# ----------------------------------------------------------------------
# Word packing
# ----------------------------------------------------------------------


def _pack_address(opcode: int, rank: int, bank: int, row: int) -> int:
    if not 0 <= rank <= MAX_RANK:
        raise CompileError(f"rank {rank} exceeds the {MAX_RANK + 1}-rank ISA field")
    if not 0 <= bank <= MAX_BANK:
        raise CompileError(f"bank {bank} exceeds the {MAX_BANK + 1}-bank ISA field")
    if not 0 <= row <= MAX_ROW:
        raise CompileError(f"row {row} exceeds the 20-bit ISA row field")
    return (opcode << 28) | (rank << 26) | (bank << 20) | row


def _unpack_address(word: int) -> tuple[int, int, int]:
    return (word >> 26) & 0x3, (word >> 20) & 0x3F, word & 0xFFFFF


def _pack_setcnt(reg: int, count: int) -> int:
    return (OP_SETCNT << 28) | (reg << 24) | count


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------


class _Encoder:
    """Accumulates packed words and the exact-float constant pool."""

    def __init__(self, timeslice_ns: float) -> None:
        self.timeslice_ns = timeslice_ns
        self.words: list[int] = []
        self.constants: list[float] = []
        self._constant_index: dict[float, int] = {}
        self.top_level_loops: list[int] = []

    def _constant(self, value: float) -> int:
        index = self._constant_index.get(value)
        if index is None:
            index = len(self.constants)
            if index > _OPERAND_MASK:
                raise CompileError("constant pool exceeds the 28-bit index field")
            self.constants.append(value)
            self._constant_index[value] = index
        return index

    def encode_block(self, instructions: Sequence[Instruction], depth: int) -> None:
        for instruction in instructions:
            self.encode(instruction, depth)

    def encode(self, instruction: Instruction, depth: int) -> None:
        if isinstance(instruction, Wait):
            duration = instruction.duration
            slices = int(round(duration / self.timeslice_ns))
            if 0 <= slices <= MAX_TIMESLICES and slices * self.timeslice_ns == duration:
                self.words.append((OP_WAIT << 28) | slices)
            else:
                self.words.append((OP_WAITC << 28) | self._constant(duration))
        elif isinstance(instruction, Act):
            address = instruction.address
            self.words.append(
                _pack_address(OP_ACT, address.rank, address.bank, address.row)
            )
        elif isinstance(instruction, Pre):
            self.words.append(
                _pack_address(OP_PRE, instruction.rank, instruction.bank, 0)
            )
        elif isinstance(instruction, FillRow):
            address = instruction.address
            self.words.append((OP_IMM << 28) | instruction.byte_value)
            self.words.append(
                _pack_address(OP_FILL, address.rank, address.bank, address.row)
            )
        elif isinstance(instruction, ReadRow):
            address = instruction.address
            self.words.append(
                _pack_address(OP_READ, address.rank, address.bank, address.row)
            )
        elif isinstance(instruction, Loop):
            self._encode_loop(instruction, depth)
        else:
            raise CompileError(f"unknown instruction {instruction!r}")

    def _encode_loop(self, loop: Loop, depth: int) -> None:
        if loop.count == 0 or not loop.body:
            return  # statically elided: executes nothing either way
        if loop.count > MAX_LOOP_COUNT:
            raise CompileError(
                f"loop count {loop.count} exceeds the 24-bit SETCNT field"
            )
        if depth >= MAX_LOOP_DEPTH:
            raise CompileError(
                f"loops nested deeper than the {MAX_LOOP_DEPTH}-register file"
            )
        setcnt_index = len(self.words)
        self.words.append(_pack_setcnt(depth, loop.count))
        body_start = len(self.words)
        self.encode_block(loop.body, depth + 1)
        body_length = len(self.words) - body_start
        if body_length == 0:
            # Body held only elided loops: drop the dangling SETCNT too.
            del self.words[setcnt_index:]
            return
        if body_length > _IMM24_MASK:
            raise CompileError("loop body exceeds the 24-bit JBNZ offset field")
        if depth == 0:
            self.top_level_loops.append(setcnt_index)
        self.words.append((OP_JBNZ << 28) | (depth << 24) | body_length)


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------


def _decode_block(
    words: Sequence[int],
    index: int,
    constants: Sequence[float],
    timeslice_ns: float,
    closing_reg: int | None,
) -> tuple[list[Instruction], int]:
    """Decode until the JBNZ closing ``closing_reg`` (or END at top level).

    Returns the decoded instructions and the index of the terminating
    word (the caller consumes the JBNZ/END itself).
    """
    out: list[Instruction] = []
    while index < len(words):
        word = words[index]
        opcode = word >> 28
        operand = word & _OPERAND_MASK
        if opcode == OP_JBNZ:
            reg = (word >> 24) & 0xF
            if reg != closing_reg:
                raise CompileError(
                    f"JBNZ on register {reg} closes no open loop "
                    f"(expected {closing_reg})"
                )
            return out, index
        if opcode == OP_END:
            if closing_reg is not None:
                raise CompileError("END inside an open loop")
            return out, index
        index += 1
        if opcode == OP_ACT:
            rank, bank, row = _unpack_address(word)
            out.append(Act(RowAddress(rank, bank, row)))
        elif opcode == OP_PRE:
            rank, bank, _row = _unpack_address(word)
            out.append(Pre(rank, bank))
        elif opcode == OP_WAIT:
            out.append(Wait(operand * timeslice_ns))
        elif opcode == OP_WAITC:
            if operand >= len(constants):
                raise CompileError(f"WAITC index {operand} outside the constant pool")
            out.append(Wait(constants[operand]))
        elif opcode == OP_IMM:
            if index >= len(words) or words[index] >> 28 != OP_FILL:
                raise CompileError("IMM not followed by a FILL word")
            rank, bank, row = _unpack_address(words[index])
            index += 1
            out.append(FillRow(RowAddress(rank, bank, row), operand & 0xFF))
        elif opcode == OP_FILL:
            raise CompileError("FILL without a preceding IMM word")
        elif opcode == OP_READ:
            rank, bank, row = _unpack_address(word)
            out.append(ReadRow(RowAddress(rank, bank, row)))
        elif opcode == OP_SETCNT:
            reg = (word >> 24) & 0xF
            count = word & _IMM24_MASK
            body_start = index
            body, jbnz_index = _decode_block(
                words, index, constants, timeslice_ns, closing_reg=reg
            )
            offset = words[jbnz_index] & _IMM24_MASK
            if offset != jbnz_index - body_start:
                raise CompileError(
                    f"JBNZ offset {offset} does not span its loop body "
                    f"({jbnz_index - body_start} words)"
                )
            index = jbnz_index + 1
            out.append(Loop(count, tuple(body)))
        else:
            raise CompileError(f"unknown opcode 0x{opcode:X}")
    raise CompileError("payload ran off the end without an END word")


def _decode_payload(
    words: Sequence[int], constants: Sequence[float], timeslice_ns: float
) -> Program:
    if not words:
        raise CompileError("empty payload")
    instructions, end_index = _decode_block(
        words, 0, constants, timeslice_ns, closing_reg=None
    )
    if words[end_index] >> 28 != OP_END:
        raise CompileError("payload must terminate with an END word")
    if end_index != len(words) - 1:
        raise CompileError("instruction words after END")
    return Program(instructions)


def _collect_summaries(
    instructions: Sequence[Instruction],
    into: dict[int, LoopSummary | None],
) -> None:
    for instruction in instructions:
        if isinstance(instruction, Loop):
            into[id(instruction)] = (
                summarize_steady_loop(instruction.body)
                if instruction.is_steady
                else None
            )
            _collect_summaries(instruction.body, into)


# ----------------------------------------------------------------------
# Payload
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Payload:
    """A compiled DRAM test program: packed words plus execution cache.

    ``words``/``constants``/``timeslice_ns`` are the binary artifact;
    ``program``/``summaries``/``duration_ns`` are decoded from the words
    by :func:`compile_program`, and patched alongside them by
    :meth:`with_loop_count`, so the binary stays the single source of
    truth.
    """

    words: tuple[int, ...]
    #: Exact-float durations referenced by WAITC words.
    constants: tuple[float, ...]
    #: Nanoseconds per WAIT timeslice (the timing's command period).
    timeslice_ns: float
    #: Simulated duration of the decoded program (wait time only, loops
    #: multiplied) — what the refresh-window budget check consumes.
    duration_ns: float
    #: Word indices of the top-level SETCNTs, for ``with_loop_count``.
    top_level_loops: tuple[int, ...]
    program: Program = field(compare=False, repr=False)
    summaries: dict[int, LoopSummary | None] = field(compare=False, repr=False)
    #: The walks probe plans of this payload bind, compiled at its first
    #: plan (:class:`repro.bender.executor.ProbePrefix`): keyed by the
    #: literal loop count they walk, None for the bulk one.
    plan_skeletons: dict = field(default_factory=dict, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[int]:
        return iter(self.words)

    def with_loop_count(self, count: int, loop_index: int = 0) -> Payload:
        """This payload with one top-level loop's count replaced.

        Patches that loop's SETCNT word, then derives the rest from this
        payload's decoded program instead of decoding the words again:
        the same instruction objects with the loop replaced by
        ``Loop(count, body)``, the loop's summary moved to the new loop
        (a summary depends only on the body), and ``duration_ns``
        recomputed by :meth:`Program.duration`.  The ``isa-equivalence``
        oracle holds the result equal to decoding the patched words.
        Sweeps that vary only the iteration count (ACmin bisection,
        activation-count sweeps) recompile and re-decode nothing.
        """
        if not 0 <= count <= MAX_LOOP_COUNT:
            raise CompileError(
                f"loop count {count} exceeds the 24-bit SETCNT field"
            )
        try:
            word_index = self.top_level_loops[loop_index]
        except IndexError:
            raise CompileError(
                f"payload has {len(self.top_level_loops)} top-level "
                f"loop(s); no loop index {loop_index}"
            ) from None
        words = list(self.words)
        words[word_index] = (words[word_index] & ~_IMM24_MASK) | count
        instructions = list(self.program.instructions)
        # Every top-level SETCNT decodes to one top-level Loop, in order.
        position = [
            index
            for index, instruction in enumerate(instructions)
            if isinstance(instruction, Loop)
        ][loop_index]
        old = instructions[position]
        loop = instructions[position] = Loop(count, old.body)
        summaries = dict(self.summaries)
        summaries[id(loop)] = summaries.pop(id(old))
        program = Program(instructions)
        return Payload(
            words=tuple(words),
            constants=self.constants,
            timeslice_ns=self.timeslice_ns,
            duration_ns=program.duration(),
            top_level_loops=self.top_level_loops,
            program=program,
            summaries=summaries,
        )


def _payload_from_words(
    words: Sequence[int],
    constants: Sequence[float],
    timeslice_ns: float,
    top_level_loops: Sequence[int],
) -> Payload:
    program = _decode_payload(words, constants, timeslice_ns)
    summaries: dict[int, LoopSummary | None] = {}
    _collect_summaries(program.instructions, summaries)
    return Payload(
        words=tuple(words),
        constants=tuple(constants),
        timeslice_ns=timeslice_ns,
        duration_ns=program.duration(),
        top_level_loops=tuple(top_level_loops),
        program=program,
        summaries=summaries,
    )


# ----------------------------------------------------------------------
# The unified API
# ----------------------------------------------------------------------


def compile_program(
    program: Program | Sequence[Instruction],
    timing: TimingParameters = DDR4_3200W,
) -> Payload:
    """Compile a program into a packed-word :class:`Payload`.

    The encoder's output is immediately decoded back (words are the
    source of truth), so every successful compile is a proven
    encode/decode round-trip.
    """
    encoder = _Encoder(timing.command_period)
    encoder.encode_block(list(program), depth=0)
    encoder.words.append(OP_END << 28)
    return _payload_from_words(
        encoder.words,
        encoder.constants,
        encoder.timeslice_ns,
        encoder.top_level_loops,
    )


def execute(
    payload: Payload,
    device: DramDevice,
    *,
    start_time: float = 0.0,
    check_timing: bool = True,
    verify: bool = False,
    observer: Observer | None = None,
) -> ExecutionResult:
    """Execute a compiled payload against a device.

    The module-level entry point of the unified surface; hot loops that
    reuse one executor across payloads should prefer
    :meth:`repro.bender.executor.ProgramExecutor.execute_payload` (or
    :meth:`repro.bender.infrastructure.TestingInfrastructure.execute`).
    """
    executor = ProgramExecutor(device, check_timing=check_timing, observer=observer)
    return executor.execute_payload(payload, start_time=start_time, verify=verify)


# ----------------------------------------------------------------------
# Disassembly
# ----------------------------------------------------------------------


def _describe(word: int, payload: Payload) -> str:
    opcode = word >> 28
    operand = word & _OPERAND_MASK
    mnemonic = _MNEMONICS.get(opcode, f"OP_{opcode:X}")
    if opcode in (OP_ACT, OP_FILL, OP_READ):
        rank, bank, row = _unpack_address(word)
        return f"{mnemonic:<6} rank={rank} bank={bank} row={row}"
    if opcode == OP_PRE:
        rank, bank, _row = _unpack_address(word)
        return f"{mnemonic:<6} rank={rank} bank={bank}"
    if opcode == OP_WAIT:
        duration = operand * payload.timeslice_ns
        return f"{mnemonic:<6} {operand} slices ({units.format_time(duration)})"
    if opcode == OP_WAITC:
        duration = (
            units.format_time(payload.constants[operand])
            if operand < len(payload.constants)
            else "?"
        )
        return f"{mnemonic:<6} c{operand} ({duration})"
    if opcode == OP_IMM:
        return f"{mnemonic:<6} 0x{operand & 0xFF:02X}"
    if opcode == OP_SETCNT:
        return f"{mnemonic:<6} r{(word >> 24) & 0xF}, {word & _IMM24_MASK}"
    if opcode == OP_JBNZ:
        return f"{mnemonic:<6} r{(word >> 24) & 0xF}, -{word & _IMM24_MASK}"
    return mnemonic


def disassemble(payload: Payload) -> str:
    """Human-readable listing: ``index  hex-word  mnemonic operands``."""
    lines = [
        f"{index:04d}  0x{word:08X}  {_describe(word, payload)}"
        for index, word in enumerate(payload.words)
    ]
    for index, constant in enumerate(payload.constants):
        lines.append(f"const c{index} = {constant!r} ns")
    return "\n".join(lines)
