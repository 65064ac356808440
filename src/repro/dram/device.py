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
A :class:`ProbePlan` keeps a twin's state after a payload's
count-independent prefix and answers the payload's bulk probes by dose
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
        if _exposure_flips(self.population, key, byte, *exposure):
            self._uniform_byte.pop(key)  # the flip changed the row's content
            return True
        return False


def _exposure_flips(
    population: CellPopulation,
    key: RowKey,
    byte: int,
    hammer_dose: float,
    press_dose: float,
    unrefreshed: float,
    scale: float,
) -> bool:
    """Whether a row filled with ``byte`` flips a cell under an exposure."""
    hammer, press, retention = population.summary(*key).eligible_minima(byte)
    return (
        (hammer_dose > 0.0 and hammer <= hammer_dose)
        or (press_dose > 0.0 and press <= press_dose)
        or retention * scale <= unrefreshed
    )


#: One step after a plan's bulk loop, in the executor's order:
#: ``("wait", ns)``, ``("act", address)``, ``("pre", (rank, bank))``,
#: ``("fill", address, byte)`` or ``("read", address)``.  Fills and
#: reads are followed by the executor's cost as a wait.
PlanStep = tuple


class ProbePlan:
    """The bulk probes of one payload template, answered by dose arithmetic.

    A search probes one compiled template at many loop counts.  Past
    the executor's warm-up iterations those probes differ only in how
    many iterations the bulk deposit applies and in the times that
    follow from it; the fills, the warm-up ACT/PRE, their timing checks
    and every fill byte come out the same.  A plan is built from a
    :class:`DoseTwin` that has replayed that count-independent prefix
    through the ordinary executor, and keeps the twin's state there.
    :meth:`flips` answers a probe by redoing, on a copy of that state,
    what the executor's bulk path and the steps after the loop do to
    the twin: the same :meth:`DisturbanceModel.loop_doses` terms added
    in the same order (``deposit_episodes`` → ``_flush_pending`` /
    ``_deposit``), the same sequential time sums, and the same sense
    verdicts (``_restore_on_sense`` → ``_flips_on_sense``).  No payload,
    program, executor or twin is built per probe.

    :meth:`flips` raises :class:`ReplayInexact` wherever the walk would
    not end in a twin verdict: a row of unknown content, an ACT or PRE
    the executor's timing checks reject, an ACT to an open bank.  The
    caller then walks the probe.  A plan is valid while the bench it
    came from keeps its temperature: for one search.
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
    ) -> None:
        """Plan from ``twin`` as the prefix left it at ``start``.

        ``episodes`` are the bulk loop's ``(address, t_on, t_off,
        pre_offset)`` and ``period`` its iteration time, ``warmup`` the
        iterations the prefix ran literally, ``banks`` the executor's
        ``(last ACT, last PRE)`` per bank the loop or ``steps`` touch,
        and ``duration`` the payload's ``(wait time before the loop,
        one iteration's wait time, each later wait)``.  Raises
        :class:`ReplayInexact` when every bulk probe's walk would meet
        a row of unknown content or a row or bank out of range.
        """
        self.twin = twin
        self.warmup = warmup
        self.temperature = twin.config.temperature_c
        self.scale = retention_model.retention_scale(self.temperature)
        self.retention_floor = twin._RETENTION_FLOOR_NS * self.scale
        self.loop_doses = twin.disturb.loop_doses
        self.population = twin.population
        self.neighbor_distance = twin.config.neighbor_distance
        self._start = start
        self._period = period
        self._targets: dict[RowKey, tuple[tuple[RowKey, int, RowKey | None], ...]] = {}
        # Per bulk episode: the warm-up episode its deposit flushes, and
        # each target's fill pattern and one-episode doses alone and
        # sandwiched.  The bulk meets the same fill bytes at every count.
        self._pending = dict(twin._pending)
        bulk = []
        for address, t_on, t_off, pre_offset in episodes:
            key = twin._key(address)
            aggressor_byte = twin._fill_byte(key)
            targets = []
            for victim, distance, other in self._targets_of(key):
                pattern = classify_fill_pair(aggressor_byte, twin._fill_byte(victim))
                doses = [
                    twin.disturb.episode_doses(
                        t_on, t_off, self.temperature, pattern, distance, sandwiched
                    )
                    for sandwiched in ((False, True) if other is not None else (False,))
                ]
                targets.append((victim, distance, other, pattern, *doses))
            warm = self._pending.pop(key, None)
            if warm is not None:
                t_on_warm = warm.pre_time - warm.act_time
                warm = (t_on_warm, warm.pre_time, twin._sandwich_window(t_on_warm))
            bulk.append(
                (key, pre_offset, warm, twin._sandwich_window(t_on), tuple(targets))
            )
        self._bulk = tuple(bulk)
        self._bulk_banks = frozenset((key[0], key[1]) for key, *_ in bulk)
        self._banks = banks
        self._open_rows = {
            bank: ((*bank, state.open_row), state.act_time)
            for bank, state in twin._banks.items()
            if state.open_row is not None
        }
        plan_steps: list[PlanStep] = []
        for step in steps:
            if step[0] in ("act", "fill", "read"):
                if not twin.geometry.valid_row(step[1]):
                    raise ReplayInexact(f"row address out of range: {step[1]}")
                step = (step[0], twin._key(step[1]), *step[2:])
            elif step[0] == "pre" and step[1] not in twin._banks:
                raise ReplayInexact(f"no bank {step[1]}")
            plan_steps.append(step)
        self._steps = tuple(plan_steps)
        self._commands = any(step[0] in ("act", "pre") for step in plan_steps)
        self._check_timing = check_timing
        self._duration = duration

    def duration_ns(self, loop_count: int) -> float:
        """The payload's duration at ``loop_count``, summed as ``Program.duration``."""
        head, body, tail = self._duration
        total = head + loop_count * body
        for wait in tail:
            total += wait
        return total

    def _targets_of(self, aggressor: RowKey) -> tuple[tuple[RowKey, int, RowKey | None], ...]:
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

    def flips(self, loop_count: int) -> bool:
        """Whether the payload at ``loop_count`` flips a bit it reads.

        ``loop_count`` must exceed :attr:`warmup` by more than two, so
        the executor runs it in bulk; the answer equals the twin walk's
        :attr:`DoseTwin.read_flipped`.
        """
        remaining = loop_count - self.warmup
        period = self._period
        state = _ProbeState(self)
        hammer_dose, press_dose, last_end = state.hammer, state.press, state.last_end
        loop_doses, temperature = self.loop_doses, self.temperature
        base = self._start + (remaining - 1) * period
        for key, pre_offset, warm, window, targets in self._bulk:
            # DramDevice.deposit_episodes: flush the warm-up episode, then
            # _deposit the bulk, with the fill patterns and doses planned.
            end_time = base + pre_offset
            if warm is not None:
                t_on, pre_time, warm_window = warm
                t_off = max(end_time - pre_time, 0.0)
                for victim, distance, other, pattern, *_ in targets:
                    sandwiched = False
                    if other is not None:
                        last = last_end.get(other)
                        sandwiched = last is not None and pre_time - last <= warm_window
                    hammer, press = loop_doses(
                        t_on, t_off, temperature, pattern, distance, sandwiched, 1
                    )
                    if hammer:
                        hammer_dose[victim] = hammer_dose.get(victim, 0.0) + hammer
                    if press:
                        press_dose[victim] = press_dose.get(victim, 0.0) + press
                last_end[key] = pre_time
            hammer_dose.pop(key, None)
            press_dose.pop(key, None)
            state.restore[key] = end_time
            for victim, _, other, _, alone, *sandwiched in targets:
                doses = alone
                if other is not None:
                    last = last_end.get(other)
                    if last is not None and end_time - last <= window:
                        doses = sandwiched[0]
                hammer = doses[0] * remaining
                press = doses[1] * remaining
                if hammer:
                    hammer_dose[victim] = hammer_dose.get(victim, 0.0) + hammer
                if press:
                    press_dose[victim] = press_dose.get(victim, 0.0) + press
            last_end[key] = end_time
        time_ns = self._start + remaining * period
        banks: dict[tuple[int, int], list[float]] = {}
        open_rows: dict[tuple[int, int], tuple[RowKey, float]] = {}
        if self._commands:
            shift = remaining * period
            banks = {
                bank: [last_act + shift, last_pre + shift]
                if bank in self._bulk_banks
                else [last_act, last_pre]
                for bank, (last_act, last_pre) in self._banks.items()
            }
            open_rows.update(self._open_rows)
        timing = self.twin.timing
        flipped = False
        for step in self._steps:
            op = step[0]
            if op == "wait":
                time_ns = time_ns + step[1]
            elif op == "read":
                if state.pending:
                    state.flush_pending(step[1], time_ns)
                if state.sense(step[1], time_ns):
                    flipped = True
            elif op == "act":
                key = step[1]
                bank = banks[key[:2]]
                if self._check_timing and (
                    time_ns - bank[1] < timing.tRP - 1e-9
                    or time_ns - bank[0] < timing.tRC - 1e-9
                ):
                    raise ReplayInexact(f"ACT of row {key} fails the executor's timing check")
                if key[:2] in open_rows:
                    raise ReplayInexact(f"ACT of row {key} to an open bank")
                state.flush_pending(key, time_ns)
                state.sense(key, time_ns)
                open_rows[key[:2]] = (key, time_ns)
                bank[0] = time_ns
            elif op == "pre":
                bank = banks[step[1]]
                if self._check_timing and time_ns - bank[0] < timing.tRAS - 1e-9:
                    raise ReplayInexact(f"PRE of bank {step[1]} fails the executor's timing check")
                opened = open_rows.pop(step[1], None)
                if opened is not None:
                    state.pending[opened[0]] = _Episode(act_time=opened[1], pre_time=time_ns)
                bank[1] = time_ns
            else:  # "fill"
                state.written(step[1], step[2], time_ns)
        return flipped


class _ProbeState:
    """One probe's copy of a plan's prefix state, and the twin's bookkeeping on it.

    Each method does what the :class:`DoseTwin` method it names does to
    the twin's dictionaries.
    """

    __slots__ = ("plan", "hammer", "press", "pending", "last_end", "restore", "known")

    def __init__(self, plan: ProbePlan) -> None:
        twin = plan.twin
        self.plan = plan
        self.hammer = dict(twin._hammer_dose)
        self.press = dict(twin._press_dose)
        self.pending = dict(plan._pending)
        self.last_end = dict(twin._last_episode_end)
        self.restore = dict(twin._last_restore)
        self.known = dict(twin._uniform_byte)

    def byte(self, key: RowKey) -> int:
        """``DoseTwin._fill_byte``."""
        byte = self.known.get(key)
        if byte is None:
            raise ReplayInexact(f"row {key}: not filled by the payload, or its content changed")
        return byte

    def flush_pending(self, key: RowKey, now: float) -> None:
        """``DramDevice._flush_pending``."""
        episode = self.pending.pop(key, None)
        if episode is not None:
            t_on = episode.pre_time - episode.act_time
            t_off = max(now - episode.pre_time, 0.0)
            self.deposit(key, t_on, t_off, episode.pre_time, 1)

    def deposit(
        self, aggressor: RowKey, t_on: float, t_off: float, end_time: float, count: int
    ) -> None:
        """``DramDevice._deposit``."""
        plan = self.plan
        aggressor_byte = self.byte(aggressor)
        window = plan.twin._sandwich_window(t_on)
        hammer_dose, press_dose, last_end = self.hammer, self.press, self.last_end
        for victim, distance, other in plan._targets_of(aggressor):
            sandwiched = False
            if other is not None:
                last = last_end.get(other)
                sandwiched = last is not None and end_time - last <= window
            pattern = classify_fill_pair(aggressor_byte, self.byte(victim))
            hammer, press = plan.loop_doses(
                t_on, t_off, plan.temperature, pattern, distance, sandwiched, count
            )
            if hammer:
                hammer_dose[victim] = hammer_dose.get(victim, 0.0) + hammer
            if press:
                press_dose[victim] = press_dose.get(victim, 0.0) + press
        last_end[aggressor] = end_time

    def sense(self, key: RowKey, now: float) -> bool:
        """``DoseTwin._flips_on_sense`` (with ``_restore_on_sense``)."""
        plan = self.plan
        byte = self.byte(key)
        if self.pending:  # _flush_neighborhood
            rank, bank, row = key
            for distance in range(1, plan.neighbor_distance + 1):
                for neighbor in (row - distance, row + distance):
                    if (rank, bank, neighbor) in self.pending:
                        self.flush_pending((rank, bank, neighbor), now)
        hammer_dose = self.hammer.pop(key, 0.0)
        press_dose = self.press.pop(key, 0.0)
        unrefreshed = now - self.restore.get(key, plan.twin._start_time)
        self.restore[key] = now
        if hammer_dose == 0.0 and press_dose == 0.0 and unrefreshed < plan.retention_floor:
            return False
        if _exposure_flips(
            plan.population, key, byte, hammer_dose, press_dose, unrefreshed, plan.scale
        ):
            self.known.pop(key)
            return True
        return False

    def written(self, key: RowKey, byte: int, now: float) -> None:
        """``DramDevice._written`` (a fill)."""
        self.known[key] = byte
        self.hammer.pop(key, None)
        self.press.pop(key, None)
        self.pending.pop(key, None)
        self.restore[key] = now
