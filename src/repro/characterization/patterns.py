"""Experiment composition: row sites, access patterns, test programs.

A :class:`RowSite` is one tested row position in a bank; the access
pattern decides which physical rows act as aggressors and which as
victims, following the paper's §4.1/§5.2 definitions:

* single-sided — aggressor R0; victims R0±1..3 (Fig. 5),
* double-sided — aggressors R0 and R2; victims R1 (sandwiched) and the
  three rows outside each aggressor (Fig. 16).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro import units
from repro.dram.datapattern import AGGRESSOR_BYTE, VICTIM_BYTE, DataPattern
from repro.dram.geometry import RowAddress
from repro.dram.timing import DDR4_3200W, TimingParameters
from repro.bender.builder import (
    double_sided_pattern,
    onoff_pattern,
    round_to_command_period,
    single_sided_pattern,
)
from repro.bender.program import FillRow, Program, ReadRow


class AccessPattern(str, Enum):
    """Aggressor arrangement."""

    SINGLE_SIDED = "single"
    DOUBLE_SIDED = "double"


@dataclass(frozen=True)
class RowSite:
    """One tested row position (physical row space, one bank)."""

    rank: int
    bank: int
    row: int  # R0, the (first) aggressor row

    def aggressors(self, access: AccessPattern) -> list[RowAddress]:
        """Aggressor rows of this site under an access pattern."""
        base = RowAddress(self.rank, self.bank, self.row)
        if access is AccessPattern.SINGLE_SIDED:
            return [base]
        return [base, RowAddress(self.rank, self.bank, self.row + 2)]

    def victims(self, access: AccessPattern) -> list[RowAddress]:
        """Victim rows checked for bitflips."""
        rows: list[int]
        if access is AccessPattern.SINGLE_SIDED:
            rows = [self.row + d for d in (-3, -2, -1, 1, 2, 3)]
        else:
            rows = [self.row + d for d in (-3, -2, -1, 1, 3, 4, 5)]
        return [RowAddress(self.rank, self.bank, r) for r in rows if r >= 0]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by the characterization experiments."""

    access: AccessPattern = AccessPattern.SINGLE_SIDED
    data: DataPattern = DataPattern.CHECKERBOARD
    timing: TimingParameters = DDR4_3200W
    budget_ns: float = units.EXPERIMENT_BUDGET


def max_activations(
    t_aggon: float, config: ExperimentConfig | None = None
) -> int:
    """Largest aggressor activation count fitting the experiment budget."""
    config = config or ExperimentConfig()
    timing = config.timing
    period = round_to_command_period(t_aggon, timing) + round_to_command_period(
        timing.tRP, timing
    )
    return max(int(config.budget_ns // period), 1)


def build_disturb_program(
    site: RowSite,
    t_aggon: float,
    activation_count: int,
    config: ExperimentConfig | None = None,
) -> tuple[Program, list[RowAddress]]:
    """Full test program: initialize, disturb, read victims.

    Returns the program and the victim addresses read at the end.
    """
    config = config or ExperimentConfig()
    aggressors = site.aggressors(config.access)
    victims = site.victims(config.access)
    program = Program()
    for victim in victims:
        program.append(FillRow(victim, VICTIM_BYTE[config.data]))
    for aggressor in aggressors:
        program.append(FillRow(aggressor, AGGRESSOR_BYTE[config.data]))
    if config.access is AccessPattern.SINGLE_SIDED:
        core = single_sided_pattern(aggressors[0], t_aggon, activation_count, config.timing)
    else:
        core = double_sided_pattern(
            aggressors[0], aggressors[1], t_aggon, activation_count, config.timing
        )
    program.extend(core.instructions)
    for victim in victims:
        program.append(ReadRow(victim))
    return program, victims


def build_onoff_program(
    site: RowSite,
    t_aggon: float,
    t_aggoff: float,
    config: ExperimentConfig | None = None,
    activation_count: int | None = None,
) -> tuple[Program, list[RowAddress]]:
    """RowPress-ONOFF program (§5.4): fixed t_A2A = t_aggon + t_aggoff.

    When ``activation_count`` is omitted, the aggressors are activated as
    many times as fit the 60 ms budget (the paper's methodology).
    """
    config = config or ExperimentConfig()
    aggressors = site.aggressors(config.access)
    victims = site.victims(config.access)
    t_a2a = round_to_command_period(t_aggon, config.timing) + round_to_command_period(
        t_aggoff, config.timing
    )
    if activation_count is None:
        activation_count = max(int(config.budget_ns // (t_a2a * len(aggressors))), 1)
    program = Program()
    for victim in victims:
        program.append(FillRow(victim, VICTIM_BYTE[config.data]))
    for aggressor in aggressors:
        program.append(FillRow(aggressor, AGGRESSOR_BYTE[config.data]))
    core = onoff_pattern(aggressors, t_aggon, t_aggoff, activation_count, config.timing)
    program.extend(core.instructions)
    for victim in victims:
        program.append(ReadRow(victim))
    return program, victims


def site_grid(
    rows_per_bank: int,
    count: int,
    rank: int = 0,
    bank: int = 1,
    margin: int = 8,
) -> list[RowSite]:
    """Evenly spread ``count`` non-interfering sites across a bank.

    Sites are spaced at least 12 rows apart so neighboring experiments
    never share victims (mirrors the paper's first/middle/last sampling
    at reduced scale).
    """
    if count < 1:
        raise ValueError("need at least one site")
    usable = rows_per_bank - 2 * margin
    spacing = max(usable // count, 12)
    rows = [margin + i * spacing for i in range(count)]
    rows = [r for r in rows if r + 8 < rows_per_bank]
    return [RowSite(rank, bank, row) for row in rows]
