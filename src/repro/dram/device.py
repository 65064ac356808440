"""Command-level DRAM device with disturbance bookkeeping.

:class:`DramDevice` models one rank-set of chips operating in lock step
(i.e. a module as seen by the memory controller).  It accepts the DRAM
command stream — ``act`` / ``precharge`` / ``read_row`` / ``write_row``
(or ``fill_row``) / ``refresh`` — with explicit nanosecond timestamps,
and keeps, per row:

* the stored data (lazily allocated byte arrays),
* accumulated hammer and press dose (cleared whenever the row's charge is
  restored: on its own activation, a refresh, or a write),
* the time of the last charge restoration (drives retention failures).

Bitflips materialize when a row's charge is sensed (activation, refresh,
or an explicit :meth:`read_row`), exactly like real DRAM: the flipped value
is then restored and sticks until overwritten.

The device does not enforce inter-command timing minima — like real
silicon, it executes whatever it is told; legality checks belong to the
issuer (:mod:`repro.bender.executor` and :mod:`repro.sim.dram_model`).

:class:`DoseTwin` is a dose-only twin of a device: it keeps the same
doses but no row data, and only decides whether a sense would flip any
cell.  Search probes replay their payloads on it (docs/MODEL.md §4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import units
from repro.dram import retention as retention_model
from repro.dram.cells import CellPopulation, charged_mask
from repro.dram.datapattern import (
    bits_from_bytes,
    classify_fill_pair,
    uniform_fill_byte,
)
from repro.dram.disturb import (
    DisturbanceModel,
    HAMMER_DISTANCE_FACTOR,
    PRESS_DISTANCE_FACTOR,
)
from repro.dram.geometry import Geometry, RowAddress
from repro.dram.timing import DDR4_3200W, TimingParameters

RowKey = tuple[int, int, int]


@dataclass(frozen=True)
class Bitflip:
    """One observed bitflip."""

    address: RowAddress
    column: int
    bit_before: int
    bit_after: int
    mechanism: str  # "hammer" | "press" | "retention"

    @property
    def direction(self) -> str:
        """``"1->0"`` or ``"0->1"``."""
        return f"{self.bit_before}->{self.bit_after}"


@dataclass
class DeviceConfig:
    """Operating configuration of a :class:`DramDevice`."""

    temperature_c: float = 50.0
    #: How many rows on each side of an aggressor receive dose.
    neighbor_distance: int = 3
    #: Floor of the sandwich-detection window (ns); see `_sandwich_window`.
    sandwich_window_floor: float = 20.0 * units.US
    #: Rows refreshed per REF command per bank (8192 REFs cover the bank).
    refresh_rows_per_ref: int | None = None


@dataclass
class _BankState:
    open_row: int | None = None
    act_time: float = 0.0
    refresh_pointer: int = 0


@dataclass
class _Episode:
    act_time: float
    pre_time: float


class DramDevice:
    """Behavioral DRAM module with a read-disturbance fault model."""

    def __init__(
        self,
        geometry: Geometry,
        population: CellPopulation,
        disturb: DisturbanceModel,
        timing: TimingParameters = DDR4_3200W,
        config: DeviceConfig | None = None,
    ) -> None:
        self.geometry = geometry
        self.population = population
        self.disturb = disturb
        self.timing = timing
        self.config = config or DeviceConfig()
        self._banks: dict[tuple[int, int], _BankState] = {
            (rank, bank): _BankState() for rank, bank in geometry.iter_banks()
        }
        self._data: dict[RowKey, np.ndarray] = {}
        #: Cached uniform fill byte per row (None = mixed content), kept
        #: in sync with every ``_data`` mutation so dose classification
        #: never re-scans a full row on the deposit hot path.
        self._uniform_byte: dict[RowKey, int | None] = {}
        self._hammer_dose: dict[RowKey, float] = {}
        self._press_dose: dict[RowKey, float] = {}
        self._last_restore: dict[RowKey, float] = {}
        self._pending: dict[RowKey, _Episode] = {}
        self._last_episode_end: dict[RowKey, float] = {}
        self._start_time = 0.0
        self.activation_count = 0
        #: Optional hook called on every activation: fn(address, time_ns).
        #: Used by the in-DRAM TRR model (repro.system.trr).
        self.on_activate: Callable[[RowAddress, float], None] | None = None

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _key(address: RowAddress) -> RowKey:
        return (address.rank, address.bank, address.row)

    def set_temperature(self, temperature_c: float) -> None:
        """Change the chip temperature (thermal chamber / heater pads)."""
        self.config.temperature_c = float(temperature_c)

    @property
    def temperature_c(self) -> float:
        """Current chip temperature."""
        return self.config.temperature_c

    def _check_address(self, address: RowAddress) -> None:
        if not self.geometry.valid_row(address):
            raise ValueError(f"row address out of range: {address}")

    def _row_data(self, key: RowKey) -> np.ndarray:
        data = self._data.get(key)
        if data is None:
            data = np.zeros(self.geometry.row_bits // 8, dtype=np.uint8)
            self._data[key] = data
            self._uniform_byte[key] = 0
        return data

    def _fill_byte(self, key: RowKey) -> int | None:
        """Uniform fill byte of a row (cached; None for mixed content)."""
        try:
            return self._uniform_byte[key]
        except KeyError:
            value = uniform_fill_byte(self._data.get(key))
            self._uniform_byte[key] = value
            return value

    def _sandwich_window(self, t_on: float) -> float:
        return max(self.config.sandwich_window_floor, 64.0 * (t_on + self.timing.tRC))

    # ------------------------------------------------------------------
    # dose deposit
    # ------------------------------------------------------------------

    def _flush_pending(self, key: RowKey, now: float) -> None:
        """Apply a row's not-yet-deposited episode using the elapsed off-time."""
        episode = self._pending.pop(key, None)
        if episode is None:
            return
        t_on = episode.pre_time - episode.act_time
        t_off = max(now - episode.pre_time, 0.0)
        self._deposit(key, t_on, t_off, episode.pre_time, count=1)

    def _flush_neighborhood(self, key: RowKey, now: float) -> None:
        """Flush pending episodes of every aggressor that can dose ``key``."""
        rank, bank, row = key
        for distance in range(1, self.config.neighbor_distance + 1):
            for neighbor in (row - distance, row + distance):
                nkey = (rank, bank, neighbor)
                if nkey in self._pending:
                    self._flush_pending(nkey, now)

    def _deposit(
        self, aggressor: RowKey, t_on: float, t_off: float, end_time: float, count: int
    ) -> None:
        """Deposit ``count`` identical episodes of ``aggressor`` onto victims."""
        rank, bank, row = aggressor
        aggressor_byte = self._fill_byte(aggressor)
        window = self._sandwich_window(t_on)
        temperature = self.config.temperature_c
        for distance in range(1, self.config.neighbor_distance + 1):
            if (
                HAMMER_DISTANCE_FACTOR.get(distance, 0.0) == 0.0
                and PRESS_DISTANCE_FACTOR.get(distance, 0.0) == 0.0
            ):
                continue
            for direction in (-1, 1):
                victim = row + direction * distance
                if not 0 <= victim < self.geometry.rows_per_bank:
                    continue
                vkey = (rank, bank, victim)
                sandwiched = False
                if distance == 1:
                    other = (rank, bank, victim + direction)
                    last_end = self._last_episode_end.get(other)
                    sandwiched = last_end is not None and end_time - last_end <= window
                pattern = classify_fill_pair(aggressor_byte, self._fill_byte(vkey))
                hammer, press = self.disturb.loop_doses(
                    t_on, t_off, temperature, pattern, distance, sandwiched, count
                )
                if hammer:
                    self._hammer_dose[vkey] = self._hammer_dose.get(vkey, 0.0) + hammer
                if press:
                    self._press_dose[vkey] = self._press_dose.get(vkey, 0.0) + press
        self._last_episode_end[aggressor] = end_time

    def deposit_episodes(
        self, address: RowAddress, t_on: float, t_off: float, end_time: float, count: int
    ) -> None:
        """Bulk-apply ``count`` steady-state ACT->PRE episodes of a row.

        Used by the test-program executor to run characterization loops with
        hundreds of thousands of iterations without iterating in Python.
        Each episode deposits the dose of one act/precharge pair whose
        off-time is ``t_off``.  That is not what literal execution
        deposits: the row's pending episode is flushed here with an
        off-time that spans the whole bulk, and in a double-sided loop
        literal execution closes each episode after about tRP, at the
        other aggressor's ACT.  docs/MODEL.md §6 lists the measured
        ratios.
        """
        self._check_address(address)
        if count <= 0:
            return
        key = self._key(address)
        self._flush_pending(key, end_time)
        self.activation_count += count
        # The aggressor's own charge is restored by each activation.
        self._hammer_dose.pop(key, None)
        self._press_dose.pop(key, None)
        self._last_restore[key] = end_time
        self._deposit(key, t_on, t_off, end_time, count)

    # ------------------------------------------------------------------
    # command interface
    # ------------------------------------------------------------------

    def act(self, address: RowAddress, time_ns: float) -> list[Bitflip]:
        """Open ``address``; senses (and therefore materializes) its flips."""
        self._check_address(address)
        key = self._key(address)
        bank = self._banks[(address.rank, address.bank)]
        if bank.open_row is not None:
            raise RuntimeError(
                f"ACT to bank {(address.rank, address.bank)} with row "
                f"{bank.open_row} already open"
            )
        self._flush_pending(key, time_ns)
        flips = self._sense(key, time_ns)
        bank.open_row = address.row
        bank.act_time = time_ns
        self.activation_count += 1
        if self.on_activate is not None:
            self.on_activate(address, time_ns)
        return flips

    def precharge(self, rank: int, bank: int, time_ns: float) -> None:
        """Close the open row of a bank, recording the episode."""
        state = self._banks[(rank, bank)]
        if state.open_row is None:
            return  # precharging an idle bank is a no-op
        key = (rank, bank, state.open_row)
        self._pending[key] = _Episode(act_time=state.act_time, pre_time=time_ns)
        state.open_row = None

    def open_row(self, rank: int, bank: int) -> int | None:
        """Row currently open in a bank (None when precharged)."""
        return self._banks[(rank, bank)].open_row

    def write_row(self, address: RowAddress, data: np.ndarray, time_ns: float) -> None:
        """Store a full row image (restores charge, clears dose)."""
        self._check_address(address)
        expected = self.geometry.row_bits // 8
        if data.size != expected:
            raise ValueError(f"row data must be {expected} bytes, got {data.size}")
        key = self._key(address)
        self._data[key] = np.array(data, dtype=np.uint8, copy=True)
        self._written(key, uniform_fill_byte(self._data[key]), time_ns)

    def fill_row(self, address: RowAddress, byte_value: int, time_ns: float) -> None:
        """Fill every byte of a row with ``byte_value`` (restores charge, clears dose).

        Same effect as :meth:`write_row` with a uniform image, but the
        row's byte is known up front: no image is built, copied or
        re-scanned.
        """
        self._check_address(address)
        if not 0 <= byte_value <= 0xFF:
            raise ValueError("byte value out of range")
        key = self._key(address)
        data = self._data.get(key)
        if data is None:
            self._data[key] = np.full(self.geometry.row_bits // 8, byte_value, dtype=np.uint8)
        else:
            data.fill(byte_value)  # callers only ever get copies of row data
        self._written(key, byte_value, time_ns)

    def _written(self, key: RowKey, fill_byte: int | None, time_ns: float) -> None:
        """Bookkeeping of a row write: new content, charge fully restored."""
        self._uniform_byte[key] = fill_byte
        self._hammer_dose.pop(key, None)
        self._press_dose.pop(key, None)
        self._pending.pop(key, None)
        self._last_restore[key] = time_ns

    def read_row(self, address: RowAddress, time_ns: float) -> tuple[np.ndarray, list[Bitflip]]:
        """Sense a row: returns (data after flips, the new flips).

        Equivalent to ACT + reading every column + PRE on an idle bank,
        including the charge restoration side effect.
        """
        self._check_address(address)
        key = self._key(address)
        self._flush_pending(key, time_ns)
        flips = self._sense(key, time_ns)
        return self._row_data(key).copy(), flips

    def peek_row(self, address: RowAddress) -> np.ndarray:
        """Stored data *without* sensing (testing/debug only)."""
        self._check_address(address)
        return self._row_data(self._key(address)).copy()

    def refresh(self, rank: int, bank: int, time_ns: float) -> list[Bitflip]:
        """One REF command's worth of row refreshes on a bank."""
        state = self._banks[(rank, bank)]
        if state.open_row is not None:
            raise RuntimeError("REF issued with a row open; precharge first")
        per_ref = self.config.refresh_rows_per_ref
        if per_ref is None:
            per_ref = max(self.geometry.rows_per_bank // 8192, 1)
        flips: list[Bitflip] = []
        for _ in range(per_ref):
            row = state.refresh_pointer
            state.refresh_pointer = (state.refresh_pointer + 1) % self.geometry.rows_per_bank
            flips.extend(self.refresh_row(RowAddress(rank, bank, row), time_ns))
        return flips

    def refresh_row(self, address: RowAddress, time_ns: float) -> list[Bitflip]:
        """Refresh a single row (also used for TRR preventive refreshes)."""
        self._check_address(address)
        key = self._key(address)
        self._flush_pending(key, time_ns)
        return self._sense(key, time_ns)

    # ------------------------------------------------------------------
    # bitflip evaluation
    # ------------------------------------------------------------------

    #: Below this unrefreshed time no retention cell can plausibly fail
    #: (the tail count at 100 ms is ~1e-6 cells/row), so undisturbed rows
    #: skip weak-cell materialization entirely on refresh sweeps.
    _RETENTION_FLOOR_NS = 100.0 * units.MS

    def _sense(self, key: RowKey, time_ns: float) -> list[Bitflip]:
        """Evaluate accumulated disturbance, commit flips, restore charge."""
        exposure = self._restore_on_sense(key, time_ns)
        if exposure is None:
            return []
        flips = self._commit_disturbance(key, *exposure)
        if flips:
            # Data mutated: the uniform-byte cache recomputes lazily.
            self._uniform_byte.pop(key, None)
        return flips

    def _restore_on_sense(
        self, key: RowKey, time_ns: float
    ) -> tuple[float, float, float, float] | None:
        """Restore a sensed row's charge; returns what it was exposed to.

        The exposure is ``(hammer dose, press dose, unrefreshed ns,
        retention scale)``.  None means no cell can flip: the row holds
        no dose and has gone unrefreshed for less than the retention
        floor.
        """
        self._flush_neighborhood(key, time_ns)
        hammer_dose = self._hammer_dose.pop(key, 0.0)
        press_dose = self._press_dose.pop(key, 0.0)
        unrefreshed = time_ns - self._last_restore.get(key, self._start_time)
        self._last_restore[key] = time_ns
        scale = retention_model.retention_scale(self.config.temperature_c)
        if (
            hammer_dose == 0.0
            and press_dose == 0.0
            and unrefreshed < self._RETENTION_FLOOR_NS * scale
        ):
            return None
        return hammer_dose, press_dose, unrefreshed, scale

    def _commit_disturbance(
        self,
        key: RowKey,
        hammer_dose: float,
        press_dose: float,
        unrefreshed: float,
        scale: float,
    ) -> list[Bitflip]:
        """Flip every eligible cell whose threshold the exposure reached."""
        cells = self.population.row(*key)
        flips: list[Bitflip] = []
        address = RowAddress(*key)

        if hammer_dose > 0.0 and cells.hammer.size:
            failing = cells.hammer.thresholds <= hammer_dose
            if failing.any():
                data = self._row_data(key)
                columns = cells.hammer.columns[failing]
                anti = cells.hammer.anti[failing]
                bits = bits_from_bytes(data, columns)
                eligible = ~charged_mask(bits, anti)  # hammer charges cells
                flips.extend(
                    self._commit_flips(address, data, columns[eligible], bits[eligible], "hammer")
                )

        if press_dose > 0.0 and cells.press.size:
            failing = cells.press.thresholds <= press_dose
            if failing.any():
                data = self._row_data(key)
                columns = cells.press.columns[failing]
                anti = cells.press.anti[failing]
                bits = bits_from_bytes(data, columns)
                eligible = charged_mask(bits, anti)  # press drains charge
                flips.extend(
                    self._commit_flips(address, data, columns[eligible], bits[eligible], "press")
                )

        if cells.retention.size:
            failing = cells.retention.thresholds * scale <= unrefreshed
            if failing.any():
                data = self._row_data(key)
                columns = cells.retention.columns[failing]
                anti = cells.retention.anti[failing]
                bits = bits_from_bytes(data, columns)
                eligible = charged_mask(bits, anti)  # leakage drains charge
                flips.extend(
                    self._commit_flips(
                        address, data, columns[eligible], bits[eligible], "retention"
                    )
                )
        return flips

    @staticmethod
    def _commit_flips(
        address: RowAddress,
        data: np.ndarray,
        columns: np.ndarray,
        bits: np.ndarray,
        mechanism: str,
    ) -> list[Bitflip]:
        if columns.size == 0:
            return []
        byte_index = columns >> 3
        masks = (1 << (columns & 7)).astype(np.uint8)
        setting = bits == 0  # the flip writes the complement bit
        # Columns are distinct, so bulk |=/&= per index is exact.
        np.bitwise_or.at(data, byte_index[setting], masks[setting])
        np.bitwise_and.at(data, byte_index[~setting], ~masks[~setting])
        return [
            Bitflip(address, column, bit, 1 - bit, mechanism)
            for column, bit in zip(columns.tolist(), bits.tolist())
        ]

    # ------------------------------------------------------------------
    # inspection (used by tests and the security analysis)
    # ------------------------------------------------------------------

    def dose_of(self, address: RowAddress, now: float | None = None) -> tuple[float, float]:
        """(hammer, press) dose currently accumulated on a row."""
        key = self._key(address)
        if now is not None:
            self._flush_neighborhood(key, now)
        return self._hammer_dose.get(key, 0.0), self._press_dose.get(key, 0.0)

    def reset_disturbance(self) -> None:
        """Clear all accumulated dose and episode history (new experiment)."""
        self._hammer_dose.clear()
        self._press_dose.clear()
        self._pending.clear()
        self._last_episode_end.clear()

    def dose_twin(self) -> DoseTwin | None:
        """A fresh dose-only twin of this device (see :class:`DoseTwin`).

        None when a replay on the twin could differ from this device: an
        ``on_activate`` hook (TRR) acts on activations the twin never
        shows it, and a row left open here would change what the
        payload's first ACT or PRE does.
        """
        if self.on_activate is not None or any(
            bank.open_row is not None for bank in self._banks.values()
        ):
            return None
        return DoseTwin(self)


#: What a :class:`DoseTwin` returns as row data: it keeps none.
_NO_DATA = np.empty(0, dtype=np.uint8)
_NO_DATA.flags.writeable = False


class ReplayInexact(Exception):
    """A dose-only replay met a row whose content it does not know."""


class DoseTwin(DramDevice):
    """Dose-only twin of a :class:`DramDevice`, for search probes.

    It shares the device's geometry, cell population, dose model, timing
    and configuration, and starts as the device stands after
    :meth:`~DramDevice.reset_disturbance` with every bank closed.  The
    dose bookkeeping (``_deposit``, ``_flush_pending``,
    ``_flush_neighborhood``, :meth:`~DramDevice.deposit_episodes`) is
    inherited unchanged; only filling and sensing differ:

    * a fill records the row's byte and keeps no row image;
    * a sense decides whether *any* cell flips, by comparing the row's
      hammer dose, press dose and unrefreshed time with the row's
      smallest eligible hammer, press and retention thresholds for that
      byte, read from the row's 48-float summary
      (:meth:`repro.dram.cells.CellPopulation.summary`).  The three
      populations are column-disjoint and every per-cell test is
      monotone in the threshold, so this is the device's verdict; no
      cell array is scanned or kept and no :class:`Bitflip` is built.

    :attr:`read_flipped` then equals ``bool(bitflips)`` over the device's
    row reads.  Sensing or classifying a row whose content the twin does
    not know — not filled by the payload, mixed, or changed by an
    earlier flip — raises :class:`ReplayInexact`.
    """

    def __init__(self, device: DramDevice) -> None:
        super().__init__(
            device.geometry, device.population, device.disturb, device.timing, device.config
        )
        #: Whether a row read sensed a flip (the device would report one).
        self.read_flipped = False

    def fill_row(self, address: RowAddress, byte_value: int, time_ns: float) -> None:
        """Record a filled row's byte (no row image is kept)."""
        self._check_address(address)
        self._written(self._key(address), byte_value, time_ns)

    def read_row(self, address: RowAddress, time_ns: float) -> tuple[np.ndarray, list[Bitflip]]:
        """Sense a row into :attr:`read_flipped`; returns no data and no flips."""
        self._check_address(address)
        key = self._key(address)
        self._flush_pending(key, time_ns)
        if self._flips_on_sense(key, time_ns):
            self.read_flipped = True
        return _NO_DATA, []

    def _fill_byte(self, key: RowKey) -> int:
        byte = self._uniform_byte.get(key)
        if byte is None:
            raise ReplayInexact(
                f"row {key}: not filled by the payload, or its content changed"
            )
        return byte

    def _sense(self, key: RowKey, time_ns: float) -> list[Bitflip]:
        self._flips_on_sense(key, time_ns)  # an ACT reports no flips
        return []

    def _flips_on_sense(self, key: RowKey, time_ns: float) -> bool:
        """Whether sensing a row flips any of its cells."""
        byte = self._fill_byte(key)
        exposure = self._restore_on_sense(key, time_ns)
        if exposure is None:
            return False
        hammer_dose, press_dose, unrefreshed, scale = exposure
        hammer, press, retention = self.population.summary(*key).eligible_minima(byte)
        if (
            (hammer_dose > 0.0 and hammer <= hammer_dose)
            or (press_dose > 0.0 and press <= press_dose)
            or retention * scale <= unrefreshed
        ):
            self._uniform_byte.pop(key)  # the flip changed the row's content
            return True
        return False
