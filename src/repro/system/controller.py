"""Real-system memory controller: open-row policy + auto-refresh + TRR.

Models the architectural behavior the demonstration depends on (§6.2/6.3):

* an **open-row policy** — after serving a request the row stays open, so
  back-to-back accesses to different cache blocks of the same row are row
  hits and keep the row open (this is exactly what gives the attacker a
  large t_AggON),
* **auto-refresh** — REF every tREFI; all open rows are closed first; a
  fractional per-bank pointer sweeps every row once per tREFW,
* **in-DRAM TRR** — the device's activation stream feeds the sampler and
  victim refreshes piggyback on REF.

Latencies are drawn from a small noise model so the Fig. 24 histogram has
realistic spread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dram.device import Bitflip
from repro.dram.geometry import RowAddress
from repro.dram.module import DramModule
from repro.rng import stream
from repro.system.address import AddressMapping
from repro.system.trr import TrrSampler


@dataclass(frozen=True)
class LatencyModel:
    """Cache-miss-to-DRAM latencies in nanoseconds (before CPU overhead)."""

    row_hit: float = 67.5  # open-row CAS
    row_closed: float = 72.0  # ACT + CAS
    row_conflict: float = 75.0  # PRE + ACT + CAS (~30 TSC cycles over a hit)
    noise_sigma: float = 1.5


@dataclass
class _OpenRow:
    row: int
    since_ns: float


class RealSystemMemoryController:
    """One-channel memory controller in front of a :class:`DramModule`."""

    def __init__(
        self,
        module: DramModule,
        mapping: AddressMapping | None = None,
        trr: TrrSampler | None = None,
        latency: LatencyModel | None = None,
        rng: np.random.Generator | None = None,
        refresh_enabled: bool = True,
        max_postponed_refreshes: int = 0,
    ) -> None:
        """``max_postponed_refreshes`` models JEDEC refresh postponement:
        while a row is open and serving requests, up to this many REF
        commands may be deferred (8 allowed by DDR4 §4.26), which is what
        lets an attacker-controlled row stay open for up to 9 x tREFI =
        70.2 us instead of one tREFI (§2.3, footnote 7)."""
        self.module = module
        self.mapping = mapping or AddressMapping()
        self.trr = trr
        self.latency = latency or LatencyModel()
        self.rng = rng or stream(7, "system", "controller")
        self.refresh_enabled = refresh_enabled
        self.max_postponed_refreshes = max_postponed_refreshes
        self._postponed = 0
        self._last_access_ns = 0.0
        self._open: dict[tuple[int, int], _OpenRow] = {}
        self._refresh_accum: dict[tuple[int, int], float] = {}
        self._refresh_pointer: dict[tuple[int, int], int] = {}
        self.next_refresh_ns = module.device.timing.tREFI
        self.refresh_bitflips: list[Bitflip] = []
        self.stats = {"hits": 0, "closed": 0, "conflicts": 0, "refreshes": 0}
        if trr is not None:
            module.device.on_activate = trr.observe

    # ------------------------------------------------------------------

    def _catch_up_refresh(self, now_ns: float) -> None:
        timing = self.module.device.timing
        while self.refresh_enabled and self.next_refresh_ns <= now_ns:
            # JEDEC postponement: with a row actively serving requests
            # (accessed within the last tREFI), the controller may defer
            # up to max_postponed_refreshes REF commands.
            busy = (
                self._open
                and now_ns - self._last_access_ns < timing.tREFI
                and self._postponed < self.max_postponed_refreshes
            )
            if busy:
                self._postponed += 1
                self.next_refresh_ns += timing.tREFI
                continue
            catch_up = 1 + self._postponed
            for _ in range(catch_up):
                self._refresh_all(self.next_refresh_ns)
            self._postponed = 0
            self.next_refresh_ns += timing.tREFI

    def _refresh_all(self, time_ns: float) -> None:
        device = self.module.device
        geometry = self.module.geometry
        # Close every open row (REF requires precharged banks).
        for (rank, bank), state in list(self._open.items()):
            device.precharge(rank, bank, time_ns)
        self._open.clear()
        refs_per_window = device.timing.tREFW / device.timing.tREFI
        rows_per_ref = geometry.rows_per_bank / refs_per_window
        for rank in range(geometry.ranks):
            for bank in range(geometry.banks):
                key = (rank, bank)
                accum = self._refresh_accum.get(key, 0.0) + rows_per_ref
                pointer = self._refresh_pointer.get(key, 0)
                while accum >= 1.0:
                    address = RowAddress(rank, bank, pointer)
                    self.refresh_bitflips.extend(device.refresh_row(address, time_ns))
                    pointer = (pointer + 1) % geometry.rows_per_bank
                    accum -= 1.0
                self._refresh_accum[key] = accum
                self._refresh_pointer[key] = pointer
                if self.trr is not None:
                    for victim in self.trr.targets_for_refresh(rank, bank):
                        if geometry.valid_row(victim):
                            self.refresh_bitflips.extend(
                                device.refresh_row(victim, time_ns)
                            )
        self.stats["refreshes"] += 1

    # ------------------------------------------------------------------

    def access(self, physical: int, now_ns: float) -> tuple[float, str]:
        """Serve one memory read; returns (latency_ns, access kind)."""
        self._catch_up_refresh(now_ns)
        rank, bank, row, _column = self.mapping.dram_address(physical)
        row %= self.module.geometry.rows_per_bank
        return self.access_row(rank, bank, row, now_ns)

    def access_row(self, rank: int, bank: int, row: int, now_ns: float) -> tuple[float, str]:
        """Serve a read addressed directly by DRAM coordinates."""
        self._last_access_ns = now_ns
        self._catch_up_refresh(now_ns)
        device = self.module.device
        key = (rank, bank)
        state = self._open.get(key)
        address = RowAddress(rank, bank, row)
        noise = abs(float(self.rng.normal(0.0, self.latency.noise_sigma)))
        if state is not None and state.row == row:
            self.stats["hits"] += 1
            return self.latency.row_hit + noise, "hit"
        if state is None:
            device.act(address, now_ns)
            self._open[key] = _OpenRow(row=row, since_ns=now_ns)
            self.stats["closed"] += 1
            return self.latency.row_closed + noise, "closed"
        device.precharge(rank, bank, now_ns)
        act_time = now_ns + device.timing.tRP
        device.act(address, act_time)
        self._open[key] = _OpenRow(row=row, since_ns=act_time)
        self.stats["conflicts"] += 1
        return self.latency.row_conflict + noise, "conflict"

    def open_row_of(self, rank: int, bank: int) -> int | None:
        """Currently open row of a bank, if any."""
        state = self._open.get((rank, bank))
        return state.row if state else None
