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
A :class:`PlanSkeleton` is a payload's walk after its count-independent
prefix, compiled once; a :class:`ProbePlan` binds it to a twin that has
replayed that prefix and answers the payload's bulk probes by dose
arithmetic alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

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
        minima = _sense_minima(self.population, key, byte, scale)
        if _flips_under(minima, hammer_dose, press_dose, unrefreshed):
            self._uniform_byte.pop(key)  # the flip changed the row's content
            return True
        return False


def _sense_minima(
    population: CellPopulation, key: RowKey, byte: int, scale: float
) -> tuple[float, float, float]:
    """A row's smallest thresholds that can flip under ``byte``.

    The (hammer, press, retention) minima of its summary, the retention
    one times the retention ``scale``.
    """
    hammer, press, retention = population.summary(*key).eligible_minima(byte)
    return hammer, press, retention * scale


def _flips_under(
    minima: tuple[float, float, float],
    hammer_dose: float,
    press_dose: float,
    unrefreshed: float,
) -> bool:
    """Whether a row with these :func:`_sense_minima` flips a cell under an exposure."""
    hammer, press, retention = minima
    return (
        (hammer_dose > 0.0 and hammer <= hammer_dose)
        or (press_dose > 0.0 and press <= press_dose)
        or retention <= unrefreshed
    )


#: One step of a plan's walk, in the executor's order: ``("wait", ns)``,
#: ``("act", address)``, ``("pre", (rank, bank))``, ``("fill", address,
#: byte)`` or ``("read", address)``.  Fills and reads are followed by the
#: executor's cost as a wait.
PlanStep = tuple

# What a compiled plan does per probe (ProbePlan.flips), one tuple each.
# Operands are slots of the probe's values, which start as a copy of the
# plan's (times the prefix fixed, the doses it left); the probe writes
# the times and doses its loop count decides into further slots.
_END = 0  # (_END, slot, pre_offset): a bulk episode's end time
_SHIFT = 1  # (_SHIFT, slot, time): a bank's last ACT or PRE, moved by the bulk
_WAIT = 2  # (_WAIT, ns)
_STORE = 3  # (_STORE, slot): the time now
_AFTER = 4  # (_AFTER, slot, minimum, what): an executor timing check
_ZERO = 5  # (_ZERO, hammer, press): a bulk aggressor's doses cleared
_FILL = 6  # (_FILL, key, hammer, press, restored): a fill's charge restore
_BULK = 7  # (_BULK, end, targets, doses): one bulk episode's doses
_FLUSH = 8  # (_FLUSH, flush, now or None): a pending episode's doses
_SENSE = 9  # (_SENSE, key, hammer, press, restore, restored, minima, read, check, final)


class PlanSkeleton:
    """A probe template's walk, compiled once for every plan that binds it.

    Building walks, once, what the executor's bulk path and the steps
    after the loop do to a :class:`DoseTwin` that has replayed the
    template's count-independent prefix (``deposit_episodes`` →
    ``_flush_pending`` / ``_deposit``, then ``_restore_on_sense`` →
    ``_flips_on_sense``), and keeps what depends on neither the loop
    count nor the dose model: each sensed row's restore time and fill
    byte, each dose target's fill pattern, spatial factors and sandwich
    state where the prefix's times decide it, and the rest as a flat
    list of operations over slots.  What the model decides — the
    prefix's doses, the bulk's one-episode doses, a flushed episode's
    off-time-free factors, the rows' eligible minima — a
    :class:`ProbePlan` binds per bench and temperature.

    The walk after the prefix is a function of the template, the
    executor's settings and the device's geometry, configuration and
    timing, given the twin's state after the prefix: its fill bytes,
    episode ends, pending episodes, restore times and open rows.  Those
    times and bytes come out the same on every replay of the template
    unless a sense of the prefix flipped, so one skeleton serves a
    template's plans on every bench and at every temperature;
    :meth:`fits` checks a twin against what it was built from.

    With ``fresh`` the skeleton walks the whole payload at one literal
    loop count instead: ``start`` 0, no bulk episodes and ``steps`` the
    instructions of the payload, on a twin as :meth:`DramDevice.dose_twin`
    hands it out (no doses, every bank closed).

    Building raises :class:`ReplayInexact` where every probe's walk
    would meet a row of unknown content, a row or bank out of range or
    an ACT to an open bank.
    """

    def __init__(
        self,
        twin: DoseTwin,
        *,
        warmup: int,
        start: float,
        period: float,
        episodes: Sequence[tuple[RowAddress, float, float, float]],
        banks: dict[tuple[int, int], tuple[float, float]],
        steps: Sequence[PlanStep],
        check_timing: bool,
        duration: tuple[float, float, tuple[float, ...]],
        fresh: bool = False,
    ) -> None:
        """Compile from ``twin`` as the prefix left it at ``start``.

        ``episodes`` are the bulk loop's ``(address, t_on, t_off,
        pre_offset)`` and ``period`` its iteration time, ``warmup`` the
        iterations the prefix ran literally, ``banks`` the executor's
        ``(last ACT, last PRE)`` per bank the loop or ``steps`` touch,
        and ``duration`` the payload's ``(wait time before the loop,
        one iteration's wait time, each later wait)``.  The twin is
        read, not changed.
        """
        self.warmup = warmup
        self.start = start
        self.period = period
        self.duration = duration
        self.fresh = fresh
        compiler = _PlanCompiler(twin, check_timing, steps, fresh)
        compiler.bulk(episodes)
        compiler.walk(steps, banks, {(address.rank, address.bank) for address, *_ in episodes})
        self.values = compiler.values
        self.ops = compiler.finished_ops()
        self.dose_slots = tuple(compiler.dose_inits)
        self.bulk_doses = tuple(compiler.bulk_doses)
        self.flushes = tuple(compiler.flushes)
        self.minima_keys = tuple(compiler.minima_keys)
        self._device = _device_settings(twin, check_timing)
        self._state = None if fresh else _prefix_state(twin)

    def fits(self, twin: DoseTwin, check_timing: bool) -> bool:
        """Whether this skeleton is ``twin``'s walk: same settings, same state after the prefix."""
        return self._device == _device_settings(twin, check_timing) and (
            self._state is None or self._state == _prefix_state(twin)
        )


def _device_settings(twin: DoseTwin, check_timing: bool) -> tuple:
    """What a skeleton takes from the device and executor besides the twin's state."""
    config = twin.config
    return (
        twin.geometry,
        twin.timing,
        config.neighbor_distance,
        config.sandwich_window_floor,
        check_timing,
    )


def _prefix_state(twin: DoseTwin) -> tuple:
    """What a skeleton takes from the twin's state, doses aside (copied)."""
    return (
        dict(twin._uniform_byte),
        dict(twin._last_episode_end),
        dict(twin._pending),
        dict(twin._last_restore),
        {
            bank: (state.open_row, state.act_time)
            for bank, state in twin._banks.items()
            if state.open_row is not None
        },
        twin._start_time,
    )


class ProbePlan:
    """The probes of one payload template, answered by dose arithmetic.

    A search probes one compiled template at many loop counts.  Past
    the executor's warm-up iterations those probes differ only in how
    many iterations the bulk deposit applies and in the times that
    follow from it.  A plan binds the template's :class:`PlanSkeleton`
    to a :class:`DoseTwin` that has replayed the count-independent
    prefix: the doses the prefix left on each sensed row, the bulk's
    one-episode doses (``episode_doses``), each flushed episode's
    off-time-free factors (``episode_factors``), the temperature's
    retention scale and the bench's cell population.  :meth:`flips`
    then runs only the skeleton's operations — the end times and the
    sequential time sums, the warm-up flush's off-time and recovery
    terms, ``doses × remaining``, the sandwich tests against times the
    count moves, the executor's timing checks and the sense verdicts —
    in the walk's order and with its floats.  The model's dose
    functions run only for an episode whose on-time the probe's own
    commands set (the odd double-sided total's trailing half-episode),
    once per on-time.  No payload, program, executor or twin is built
    per probe.

    :meth:`flips` raises :class:`ReplayInexact` where the probe's walk
    would not end in a twin verdict: a row whose content a sense of the
    probe changed, an ACT or PRE the executor's timing checks reject.
    The caller then walks the probe.  A plan is valid while the bench it
    came from keeps its temperature: for one search.
    """

    def __init__(self, skeleton: PlanSkeleton, twin: DoseTwin, prefix: object = None) -> None:
        """Bind ``skeleton`` to ``twin``'s doses and dose model.

        ``prefix`` is kept for the builder: the replay the plan came
        from.  A skeleton built ``fresh`` takes no doses from the twin.
        """
        self.warmup = skeleton.warmup
        self.prefix = prefix
        self._skeleton = skeleton
        self._ops = skeleton.ops
        self._population = twin.population
        temperature = twin.config.temperature_c
        self._scale = retention_model.retention_scale(temperature)
        self._floor = twin._RETENTION_FLOOR_NS * self._scale
        self._flipped = not skeleton.fresh and twin.read_flipped  # a read of the prefix flipped
        values = self._values = list(skeleton.values)
        hammer_doses, press_doses = twin._hammer_dose, twin._press_dose
        for h, p, key in skeleton.dose_slots:
            values[h] = hammer_doses.get(key, 0.0)
            values[p] = press_doses.get(key, 0.0)
        episode_doses = twin.disturb.episode_doses
        self._bulk_doses = [
            tuple(
                (
                    episode_doses(t_on, t_off, temperature, pattern, distance, sandwiched),
                    episode_doses(t_on, t_off, temperature, pattern, distance, True)
                    if tested
                    else None,
                )
                for t_on, t_off, pattern, distance, sandwiched, tested in targets
            )
            for targets in skeleton.bulk_doses
        ]
        self._flushes = [_Flush(shape, twin) for shape in skeleton.flushes]
        self._minima: list[tuple[float, float, float] | None] = [None] * len(
            skeleton.minima_keys
        )

    def duration_ns(self, loop_count: int) -> float:
        """The payload's duration at ``loop_count``, summed as ``Program.duration``."""
        head, body, tail = self._skeleton.duration
        total = head + loop_count * body
        for wait in tail:
            total += wait
        return total

    def _sense_minima(self, key: RowKey, byte: int) -> tuple[float, float, float]:
        """The minima a sense of row ``key`` filled with ``byte`` compares with."""
        return _sense_minima(self._population, key, byte, self._scale)

    def flips(self, loop_count: int) -> bool:
        """Whether the payload at ``loop_count`` flips a bit it reads.

        ``loop_count`` must exceed :attr:`warmup` by more than two, so
        the executor runs it in bulk (or, for a ``fresh`` skeleton, be
        the count it walks); the answer equals the twin walk's
        :attr:`DoseTwin.read_flipped`.
        """
        skeleton = self._skeleton
        remaining = loop_count - self.warmup
        period = skeleton.period
        base = skeleton.start + (remaining - 1) * period
        shift = remaining * period
        time_ns = skeleton.start + shift
        v = self._values.copy()
        changed: set[RowKey] = set()  # rows a sense of this probe flipped
        flipped = self._flipped
        for op in self._ops:
            code = op[0]
            if code == _SENSE:
                # DoseTwin._flips_on_sense with _restore_on_sense.
                _, key, h, p, restore, restored, index, read, check, final = op
                if check and key in changed:
                    raise ReplayInexact(f"row {key}: its content changed")
                hammer_dose = v[h]
                press_dose = v[p]
                v[h] = v[p] = 0.0
                unrefreshed = time_ns - v[restore]
                v[restored] = time_ns
                if hammer_dose == 0.0 and press_dose == 0.0 and unrefreshed < self._floor:
                    continue
                minima = self._minima[index]
                if minima is None:
                    key_byte = skeleton.minima_keys[index]
                    minima = self._minima[index] = self._sense_minima(*key_byte)
                if _flips_under(minima, hammer_dose, press_dose, unrefreshed):
                    changed.add(key)
                    if read:
                        if final:
                            return True
                        flipped = True
            elif code == _WAIT:
                time_ns = time_ns + op[1]
            elif code == _BULK:
                # The bulk half of deposit_episodes: doses × remaining.
                end = v[op[1]]
                for (h, p, other, window), (doses, sandwiched) in zip(
                    op[2], self._bulk_doses[op[3]]
                ):
                    if other >= 0 and end - v[other] <= window:
                        doses = sandwiched
                    v[h] += doses[0] * remaining
                    v[p] += doses[1] * remaining
            elif code == _FLUSH:
                self._flushes[op[1]].deposit(v, time_ns if op[2] is None else v[op[2]], changed)
            elif code == _END:
                v[op[1]] = base + op[2]
            elif code == _STORE:
                v[op[1]] = time_ns
            elif code == _AFTER:
                if time_ns - v[op[1]] < op[2]:
                    raise ReplayInexact(f"{op[3]} fails the executor's timing check")
            elif code == _ZERO:
                v[op[1]] = v[op[2]] = 0.0
            elif code == _FILL:
                _, key, h, p, restored = op
                changed.discard(key)
                v[h] = v[p] = 0.0
                v[restored] = time_ns
            else:  # _SHIFT
                v[op[1]] = op[2] + shift
        return flipped


@dataclass(frozen=True)
class _FlushShape:
    """One pending episode's deposit in a skeleton (``_flush_pending`` → ``_deposit``).

    ``act`` and ``pre`` are the slots of the episode's times, ``t_on``
    its on-time where the prefix fixed both (None: the probe computes
    it), ``groups`` the (fill pattern, sandwiched) shapes its targets
    take, ``targets`` per sensed victim ``(hammer slot, press slot,
    group alone, group sandwiched, sandwiching row's end slot or -1,
    hammer spatial factor, press spatial factor)``, and ``checks`` the
    rows whose content a sense of the probe may have changed before.
    """

    act: int
    pre: int
    t_on: float | None
    groups: tuple[tuple[object, bool], ...]
    targets: tuple[tuple[int, int, int, int, int, float, float], ...]
    checks: tuple[RowKey, ...]


class _Flush:
    """A :class:`_FlushShape` bound to a dose model at one temperature.

    Its doses are :meth:`DoseParameters.hammer_dose` and
    :meth:`~DoseParameters.press_dose` taken apart: the off-time-free
    factors come once per on-time and group
    (:meth:`DisturbanceModel.episode_factors`), so a probe computes the
    off-time terms once per episode and multiplies them out in the dose
    functions' order.
    """

    __slots__ = ("shape", "params", "factors_of", "temperature", "window_of", "terms", "_memo")

    def __init__(self, shape: _FlushShape, twin: DoseTwin) -> None:
        self.shape = shape
        self.params = twin.disturb.params
        self.factors_of = twin.disturb.episode_factors
        self.temperature = twin.config.temperature_c
        self.window_of = twin._sandwich_window
        self._memo: dict[float, tuple] = {}
        #: (t_on, window, per-group factors) where the prefix fixed the on-time.
        self.terms = None if shape.t_on is None else self._terms(shape.t_on)

    def _terms(self, t_on: float) -> tuple:
        factors_of, temperature = self.factors_of, self.temperature
        terms = self._memo[t_on] = (
            t_on,
            self.window_of(t_on),
            tuple(
                (*factors_of(t_on, temperature, pattern, sandwiched), sandwiched)
                for pattern, sandwiched in self.shape.groups
            ),
        )
        return terms

    def deposit(self, v: list[float], now: float, changed: set[RowKey]) -> None:
        """Add this episode's doses, flushed at ``now``, to ``v``."""
        shape = self.shape
        for key in shape.checks:
            if key in changed:
                raise ReplayInexact(f"row {key}: its content changed")
        pre_time = v[shape.pre]
        terms = self.terms
        if terms is None:  # an episode the probe's own commands made
            t_on = pre_time - v[shape.act]
            terms = self._memo.get(t_on) or self._terms(t_on)
        t_on, window, groups = terms
        t_off = max(now - pre_time, 0.0)
        params = self.params
        off_ratio = params.hammer_off_ratio(t_off)
        recovery: list[float | None] = [None, None]
        doses = []
        for factors, onset, sandwiched in groups:
            hammer = off_ratio
            for factor in factors:
                hammer *= factor
            if recovery[sandwiched] is None:
                recovery[sandwiched] = params.press_off_recovery(
                    params.press_rest(t_on, t_off, sandwiched)
                )
            press = onset
            press *= recovery[sandwiched]
            doses.append((hammer, press))
        for h, p, alone, sandwiched, other, hammer_spatial, press_spatial in shape.targets:
            if other >= 0 and pre_time - v[other] <= window:
                alone = sandwiched
            hammer, press = doses[alone]
            if hammer_spatial:
                v[h] += hammer * hammer_spatial
            if press_spatial:
                v[p] += press * press_spatial


class _PlanCompiler:
    """Walks a probe after its prefix once, keeping count-dependent values as slots.

    Each step does to a symbolic copy of the twin what the twin's method
    it is named after does, and emits the operations a probe must run
    for what the loop count or the dose model decides.  A slot in
    :attr:`constant` holds a time the prefix fixed; tests between two
    such times are decided here.
    """

    def __init__(
        self, twin: DoseTwin, check_timing: bool, steps: Sequence[PlanStep], fresh: bool
    ) -> None:
        self.twin = twin
        self.check_timing = check_timing
        self.fresh = fresh
        self.values: list[float] = []
        self.constant: dict[int, float] = {}
        self.ops: list[tuple] = []
        self.dose_inits: list[tuple[int, int, RowKey]] = []
        self.bulk_doses: list[tuple] = []
        self.flushes: list[_FlushShape] = []
        self.minima_keys: list[tuple[RowKey, int]] = []
        self.known = dict(twin._uniform_byte)  # row -> fill byte
        self.changing: set[RowKey] = set()  # rows a sense of the probe may have flipped
        self.last_end = {key: self.const(end) for key, end in twin._last_episode_end.items()}
        self.restore: dict[RowKey, int] = {}
        self.pending = {
            key: (self.const(episode.act_time), self.const(episode.pre_time))
            for key, episode in twin._pending.items()
        }
        self.open_rows = {
            bank: ((*bank, state.open_row), self.const(state.act_time))
            for bank, state in twin._banks.items()
            if state.open_row is not None
        }
        self.bank_times: dict[tuple[int, int], list[int]] = {}
        #: Rows the walk senses: only their doses decide anything.
        self.sensed = {
            twin._key(step[1])
            for step in steps
            if step[0] in ("read", "act") and twin.geometry.valid_row(step[1])
        }
        self.doses: dict[RowKey, tuple[int, int]] = {}
        self._minima_index: dict[tuple[RowKey, int], int] = {}
        self._targets: dict[RowKey, tuple[tuple[RowKey, int, RowKey | None], ...]] = {}

    # -- slots ----------------------------------------------------------

    def slot(self, value: float = 0.0) -> int:
        self.values.append(value)
        return len(self.values) - 1

    def const(self, value: float) -> int:
        slot = self.slot(value)
        self.constant[slot] = value
        return slot

    def dose_slots(self, key: RowKey) -> tuple[int, int]:
        """The (hammer, press) accumulators of a row, bound to the prefix's doses."""
        slots = self.doses.get(key)
        if slots is None:
            slots = self.doses[key] = (self.slot(), self.slot())
            if not self.fresh:
                self.dose_inits.append((*slots, key))
        return slots

    def restore_slot(self, key: RowKey) -> int:
        slot = self.restore.get(key)
        if slot is None:
            twin = self.twin
            slot = self.restore[key] = self.const(twin._last_restore.get(key, twin._start_time))
        return slot

    # -- the twin's bookkeeping -----------------------------------------

    def byte(self, key: RowKey, checks: list[RowKey] | None = None) -> int:
        """``DoseTwin._fill_byte``; a row a sense may have flipped joins ``checks``."""
        byte = self.known.get(key)
        if byte is None:
            raise ReplayInexact(f"row {key}: not filled by the payload, or its content changed")
        if checks is not None and key in self.changing and key not in checks:
            checks.append(key)
        return byte

    def targets_of(self, aggressor: RowKey) -> tuple[tuple[RowKey, int, RowKey | None], ...]:
        """``(victim, distance, sandwiching row)`` in ``_deposit``'s order."""
        targets = self._targets.get(aggressor)
        if targets is None:
            twin = self.twin
            rank, bank, row = aggressor
            found = []
            for distance in range(1, twin.config.neighbor_distance + 1):
                if (
                    HAMMER_DISTANCE_FACTOR.get(distance, 0.0) == 0.0
                    and PRESS_DISTANCE_FACTOR.get(distance, 0.0) == 0.0
                ):
                    continue
                for direction in (-1, 1):
                    victim = row + direction * distance
                    if not 0 <= victim < twin.geometry.rows_per_bank:
                        continue
                    other = (rank, bank, victim + direction) if distance == 1 else None
                    found.append(((rank, bank, victim), distance, other))
            targets = self._targets[aggressor] = tuple(found)
        return targets

    def sandwich_test(
        self, end: int, other: RowKey | None, window: float | None
    ) -> tuple[bool, int]:
        """``_deposit``'s sandwich check: (its answer, -1) if decided here, else (False, slot).

        The slot holds the sandwiching row's last episode end, which the
        probe compares with ``end``.
        """
        last = None if other is None else self.last_end.get(other)
        if last is None:
            return False, -1
        constant = self.constant
        if window is not None and end in constant and last in constant:
            return constant[end] - constant[last] <= window, -1
        return False, last

    def flush(self, key: RowKey, now: int | None) -> None:
        """``_flush_pending``: deposit ``key``'s pending episode at ``now`` (None: the time then)."""
        act, pre = self.pending.pop(key)
        constant = self.constant
        checks: list[RowKey] = []
        aggressor_byte = self.byte(key, checks)
        t_on = window = None
        if act in constant and pre in constant:
            t_on = constant[pre] - constant[act]
            window = self.twin._sandwich_window(t_on)
        groups: list[tuple[object, bool]] = []
        targets = []
        for victim, distance, other in self.targets_of(key):
            pattern = classify_fill_pair(aggressor_byte, self.byte(victim, checks))
            if victim not in self.sensed:
                continue
            sandwiched, test = self.sandwich_test(pre, other, window)
            shapes = [(pattern, sandwiched)] if test < 0 else [(pattern, False), (pattern, True)]
            for shape in shapes:
                if shape not in groups:
                    groups.append(shape)
            targets.append(
                (
                    *self.dose_slots(victim),
                    groups.index(shapes[0]),
                    groups.index(shapes[-1]),
                    test,
                    HAMMER_DISTANCE_FACTOR.get(distance, 0.0),
                    PRESS_DISTANCE_FACTOR.get(distance, 0.0),
                )
            )
        self.last_end[key] = pre
        self.flushes.append(
            _FlushShape(act, pre, t_on, tuple(groups), tuple(targets), tuple(checks))
        )
        self.ops.append((_FLUSH, len(self.flushes) - 1, now))

    def sense(self, key: RowKey, read: bool) -> None:
        """``DoseTwin._flips_on_sense``, with ``_restore_on_sense`` and its flushes."""
        check = key in self.changing
        byte = self.byte(key)
        if self.pending:  # _flush_neighborhood
            rank, bank, row = key
            for distance in range(1, self.twin.config.neighbor_distance + 1):
                for neighbor in (row - distance, row + distance):
                    if (rank, bank, neighbor) in self.pending:
                        self.flush((rank, bank, neighbor), None)
        h, p = self.dose_slots(key)
        restore = self.restore_slot(key)
        restored = self.restore[key] = self.slot()
        index = self._minima_index.get((key, byte))
        if index is None:
            index = self._minima_index[(key, byte)] = len(self.minima_keys)
            self.minima_keys.append((key, byte))
        self.ops.append((_SENSE, key, h, p, restore, restored, index, read, check, False))
        self.changing.add(key)

    def bank_slots(
        self, bank: tuple[int, int], banks: dict, bulk_banks: set[tuple[int, int]]
    ) -> list[int]:
        """The executor's [last ACT, last PRE] of a bank after the loop, as slots."""
        slots = self.bank_times.get(bank)
        if slots is None:
            times = banks[bank]
            if bank in bulk_banks:
                slots = [self.slot(), self.slot()]
                for slot, time_ns in zip(slots, times):
                    self.ops.append((_SHIFT, slot, time_ns))
            else:
                slots = [self.const(time_ns) for time_ns in times]
            self.bank_times[bank] = slots
        return slots

    # -- the walk -------------------------------------------------------

    def bulk(self, episodes: Sequence[tuple[RowAddress, float, float, float]]) -> None:
        """``deposit_episodes`` of each bulk episode, as the executor's bulk path calls it."""
        twin = self.twin
        for address, t_on, t_off, pre_offset in episodes:
            key = twin._key(address)
            end = self.slot()
            self.ops.append((_END, end, pre_offset))
            aggressor_byte = self.byte(key)
            if key in self.pending:  # the last warm-up episode, flushed at the bulk's end
                self.flush(key, end)
            if key in self.sensed:  # the aggressor's own charge is restored
                self.ops.append((_ZERO, *self.dose_slots(key)))
            self.restore[key] = end
            window = twin._sandwich_window(t_on)
            targets = []
            doses = []
            for victim, distance, other in self.targets_of(key):
                pattern = classify_fill_pair(aggressor_byte, self.byte(victim))
                if victim not in self.sensed:
                    continue
                sandwiched, test = self.sandwich_test(end, other, window)
                targets.append((*self.dose_slots(victim), test, window))
                doses.append((t_on, t_off, pattern, distance, sandwiched, test >= 0))
            self.bulk_doses.append(tuple(doses))
            self.ops.append((_BULK, end, tuple(targets), len(self.bulk_doses) - 1))
            self.last_end[key] = end

    def walk(
        self, steps: Sequence[PlanStep], banks: dict, bulk_banks: set[tuple[int, int]]
    ) -> None:
        """The steps after the loop, as the executor runs them on the twin."""
        twin = self.twin
        timing = twin.timing
        ops = self.ops
        for step in steps:
            op = step[0]
            if op == "wait":
                ops.append((_WAIT, step[1]))
                continue
            if op == "pre":
                bank = step[1]
                if bank not in twin._banks:
                    raise ReplayInexact(f"no bank {bank}")
                slots = self.bank_slots(bank, banks, bulk_banks)
                if self.check_timing:
                    ops.append((_AFTER, slots[0], timing.tRAS - 1e-9, f"PRE of bank {bank}"))
                opened = self.open_rows.pop(bank, None)
                pre = self.slot()
                ops.append((_STORE, pre))
                if opened is not None:
                    self.pending[opened[0]] = (opened[1], pre)
                slots[1] = pre
                continue
            if not twin.geometry.valid_row(step[1]):
                raise ReplayInexact(f"row address out of range: {step[1]}")
            key = twin._key(step[1])
            if op == "read":
                if key in self.pending:
                    self.flush(key, None)
                self.sense(key, read=True)
            elif op == "act":
                bank = key[:2]
                slots = self.bank_slots(bank, banks, bulk_banks)
                if self.check_timing:
                    what = f"ACT of row {key}"
                    ops.append((_AFTER, slots[1], timing.tRP - 1e-9, what))
                    ops.append((_AFTER, slots[0], timing.tRC - 1e-9, what))
                if bank in self.open_rows:
                    raise ReplayInexact(f"ACT of row {key} to an open bank")
                if key in self.pending:
                    self.flush(key, None)
                self.sense(key, read=False)
                act = self.slot()
                ops.append((_STORE, act))
                self.open_rows[bank] = (key, act)
                slots[0] = act
            else:  # "fill": DramDevice._written
                self.known[key] = step[2]
                self.changing.discard(key)
                self.pending.pop(key, None)
                restored = self.restore[key] = self.slot()
                ops.append((_FILL, key, *self.dose_slots(key), restored))

    def finished_ops(self) -> tuple[tuple, ...]:
        """The operations, with a read's flip final where no timing check follows it.

        Past the last check nothing a probe does can end in anything
        but a flip the walk sees too (a row whose content changed sends
        the probe to the walk, which reads that flip on the device).
        """
        ops = list(self.ops)
        for index in range(len(ops) - 1, -1, -1):
            op = ops[index]
            if op[0] == _AFTER:
                break
            if op[0] == _SENSE and op[7]:
                ops[index] = (*op[:9], True)
        return tuple(ops)
