"""DDR4 bank state machine for the performance simulator.

Tracks, per bank: the open row, when it was opened, and the earliest time
the next command can issue.  The paper's Table 7 system (DDR4-3200, one
channel, two ranks, 16 banks) is the default; timing comes from
:class:`repro.dram.timing.TimingParameters`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dram.timing import DDR4_3200W, TimingParameters


@dataclass
class BankState:
    """One DRAM bank as the memory controller sees it."""

    open_row: int | None = None
    open_since: float = 0.0
    last_act: float = -1e18
    ready: float = 0.0  # earliest time the next command may issue

    def close(self, time_ns: float, timing: TimingParameters) -> float:
        """Precharge the bank; returns when the bank can ACT again."""
        if self.open_row is None:
            return max(self.ready, time_ns)
        pre_time = max(time_ns, self.last_act + timing.tRAS, self.ready)
        self.open_row = None
        self.ready = pre_time + timing.tRP
        return self.ready


@dataclass
class DramState:
    """All banks of the simulated channel."""

    ranks: int = 2
    banks_per_rank: int = 16
    timing: TimingParameters = DDR4_3200W
    banks: dict[tuple[int, int], BankState] = field(default_factory=dict)
    #: Recent ACT times per rank (tFAW / tRRD enforcement).
    _recent_acts: dict[int, list[float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for rank in range(self.ranks):
            for bank in range(self.banks_per_rank):
                self.banks[(rank, bank)] = BankState()
            self._recent_acts[rank] = []

    def bank(self, rank: int, bank: int) -> BankState:
        """Bank state accessor."""
        return self.banks[(rank, bank)]

    def earliest_act(self, rank: int, desired_ns: float) -> float:
        """Earliest legal ACT time on a rank (tRRD and four-ACT window)."""
        recent = self._recent_acts[rank]
        time_ns = desired_ns
        if recent:
            time_ns = max(time_ns, recent[-1] + self.timing.tRRD)
            if len(recent) >= 4:
                time_ns = max(time_ns, recent[-4] + self.timing.tFAW)
        return time_ns

    def record_act(self, rank: int, time_ns: float) -> None:
        """Register an issued ACT for the rank-level windows."""
        recent = self._recent_acts[rank]
        recent.append(time_ns)
        if len(recent) > 4:
            del recent[0]

    def refresh_rank(self, rank: int, time_ns: float) -> None:
        """REF: close all rows of a rank and block it for tRFC."""
        for (r, _b), state in self.banks.items():
            if r != rank:
                continue
            if state.open_row is not None:
                state.close(time_ns, self.timing)
            state.ready = max(state.ready, time_ns) + self.timing.tRFC
