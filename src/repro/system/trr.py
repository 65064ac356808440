"""In-DRAM target-row-refresh (TRR) model.

Vendor TRR implementations track a small number of candidate aggressor
rows and piggyback victim refreshes on REF commands (U-TRR [43],
TRRespass [32]).  The demo DIMM's behavior is modeled as a
*proximity-to-REF sampler*: the last few distinct rows activated before a
REF are treated as aggressors and their neighbors refreshed.  This is the
mechanism the paper's dummy-row access pattern bypasses — dummy rows are
activated right before the refresh boundary, so the sampler only ever
sees dummies and the true aggressors stay hidden.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.dram.geometry import RowAddress


@dataclass
class TrrSampler:
    """Tracks the most recent distinct activations per bank."""

    table_size: int = 2
    neighborhood: int = 2  # victims refreshed on each side of a target
    sampled_activations: int = 0
    preventive_refreshes: int = 0
    _tables: dict[tuple[int, int], deque] = field(default_factory=dict, repr=False)

    def _table(self, rank: int, bank: int) -> deque:
        key = (rank, bank)
        if key not in self._tables:
            self._tables[key] = deque(maxlen=self.table_size)
        return self._tables[key]

    def observe(self, address: RowAddress, time_ns: float) -> None:
        """Record one activation (hooked to the device's ACT path)."""
        table = self._table(address.rank, address.bank)
        if address.row in table:
            table.remove(address.row)
        table.append(address.row)
        self.sampled_activations += 1

    def targets_for_refresh(self, rank: int, bank: int) -> list[RowAddress]:
        """Victim rows to refresh on the next REF of a bank (and reset)."""
        table = self._table(rank, bank)
        victims: list[RowAddress] = []
        for row in table:
            for distance in range(1, self.neighborhood + 1):
                for victim_row in (row - distance, row + distance):
                    if victim_row >= 0:
                        victims.append(RowAddress(rank, bank, victim_row))
        table.clear()
        self.preventive_refreshes += len(victims)
        return victims
