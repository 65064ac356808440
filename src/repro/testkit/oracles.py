"""Metamorphic oracles: the paper's laws, checked on random inputs.

Each oracle states a relationship the reproduction must satisfy for
*any* input — ACmin falls as t_AggON grows (§5.1), dose and bitflips
accumulate with activation count, RowPress worsens with temperature
while RowHammer eases (§5.2), the static program verifier agrees with
the timing-checked executor, compiled-payload execution is bit-identical
to interpretation, a search probe answered by the dose-only replay
agrees with the device walk, sharded engine output equals sequential
output, and results survive serialization round-trips.

Every oracle ships with a deliberately planted **model mutation** (a
context manager that temporarily breaks the production code in a
plausible way).  The mutation self-check — ``repro fuzz all
--self-check`` and ``tests/test_testkit_oracles.py`` — runs each
oracle clean (must pass) and mutated (must fail): an oracle that
cannot catch its own planted bug has no teeth and fails the build.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro import units
from repro.testkit import gen
from repro.testkit.gen import Gen, assume

__all__ = ["Oracle", "ORACLES", "names", "get"]

#: Small device geometry shared by the device-level oracles: weak-cell
#: statistics scale per bit, so 64 narrow rows behave like a slice of a
#: real bank while staying fast enough for hundreds of examples.
_SMALL_ROWS = 64
_SMALL_BITS = 8192

#: progcheck codes whose presence must coincide with an executor error.
_TIMING_CODES = frozenset({"double-act", "act-too-soon", "row-open-too-short"})


@dataclass(frozen=True)
class Oracle:
    """One metamorphic property plus its planted mutation."""

    name: str
    title: str
    gens: dict[str, Gen] = field(default_factory=dict)
    check: Callable = lambda: None
    mutate: Callable = None
    mutation_note: str = ""
    max_examples: int = 25
    self_check_examples: int = 15
    shrink_calls: int = 200


def _small_geometry():
    from repro.dram.geometry import Geometry

    return Geometry(
        ranks=1,
        bank_groups=1,
        banks_per_group=1,
        rows_per_bank=_SMALL_ROWS,
        row_bits=_SMALL_BITS,
    )


def _fresh_device(temperature_c: float | None = None):
    from repro.dram.catalog import build_module

    device = build_module("S3", geometry=_small_geometry()).device
    if temperature_c is not None:
        device.set_temperature(temperature_c)
    return device


def _setup_rows(device, aggressor_row: int):
    from repro.dram.datapattern import DataPattern, aggressor_bytes, victim_bytes
    from repro.dram.geometry import RowAddress

    aggressor = RowAddress(0, 0, aggressor_row)
    victim = RowAddress(0, 0, aggressor_row + 1)
    device.write_row(
        aggressor, aggressor_bytes(DataPattern.CHECKERBOARD, _SMALL_BITS), 0.0
    )
    device.write_row(victim, victim_bytes(DataPattern.CHECKERBOARD, _SMALL_BITS), 0.0)
    return aggressor, victim


def _flip_set(device, victim, now: float) -> set:
    _, flips = device.read_row(victim, now)
    return {(flip.column, flip.bit_before) for flip in flips}


# ----------------------------------------------------------------------
# 1. ACmin monotone in t_AggON (§5.1, Fig. 6)
# ----------------------------------------------------------------------


def _check_acmin_monotone(t_lo: float, ratio: float, row: int) -> None:
    """A longer row-open time never needs *more* activations to flip."""
    from repro.bender.infrastructure import TestingInfrastructure
    from repro.characterization.acmin import find_acmin
    from repro.characterization.patterns import RowSite, max_activations
    from repro.dram.catalog import build_module

    t_hi = min(t_lo * ratio, 50.0 * units.US)
    bench = TestingInfrastructure(build_module("S3", geometry=_small_geometry()))
    bench.set_temperature(80.0)
    site = RowSite(rank=0, bank=0, row=row)
    acmin_lo = find_acmin(bench, site, t_lo)
    if acmin_lo is None:
        return  # site has no reachable weak cells at all — vacuous
    if acmin_lo > max_activations(t_hi):
        return  # t_hi's budget can't even replay acmin_lo — vacuous
    acmin_hi = find_acmin(bench, site, t_hi)
    assert acmin_hi is not None, (
        f"ACmin({t_lo:.0f}ns)={acmin_lo} but no flips at t_AggON="
        f"{t_hi:.0f}ns within budget"
    )
    assert acmin_hi <= acmin_lo, (
        f"ACmin rose from {acmin_lo} to {acmin_hi} as t_AggON grew "
        f"{t_lo:.0f}ns -> {t_hi:.0f}ns"
    )


@contextlib.contextmanager
def _mutate_press_saturation() -> Iterator[None]:
    """Bug: press accumulation resets for openings past one tREFI."""
    from repro.dram.disturb import DoseParameters

    original = DoseParameters.press_effective_on_time

    def mutated(self, t_on: float, sandwiched: bool = False) -> float:
        if t_on > units.TREFI:
            t_on = self.ref_tras
        return original(self, t_on, sandwiched)

    DoseParameters.press_effective_on_time = mutated
    try:
        yield
    finally:
        DoseParameters.press_effective_on_time = original


# ----------------------------------------------------------------------
# 2. dose / bitflip superset in activation count
# ----------------------------------------------------------------------


def _check_dose_superset(t_on: float, counts: tuple[int, int], row: int) -> None:
    """More activations: doses never shrink, flips are a superset."""
    count_lo, count_hi = sorted(counts)
    device_lo = _fresh_device()
    device_hi = _fresh_device()
    aggressor, victim = _setup_rows(device_lo, row)
    _setup_rows(device_hi, row)
    device_lo.deposit_episodes(aggressor, t_on, 15.0, 1e6, count_lo)
    device_hi.deposit_episodes(aggressor, t_on, 15.0, 1e6, count_hi)
    hammer_lo, press_lo = device_lo.dose_of(victim, now=1.1e6)
    hammer_hi, press_hi = device_hi.dose_of(victim, now=1.1e6)
    assert hammer_hi >= hammer_lo * (1.0 - 1e-9), (
        f"hammer dose fell {hammer_lo} -> {hammer_hi} as count grew "
        f"{count_lo} -> {count_hi}"
    )
    assert press_hi >= press_lo * (1.0 - 1e-9), (
        f"press dose fell {press_lo} -> {press_hi} as count grew "
        f"{count_lo} -> {count_hi}"
    )
    flips_lo = _flip_set(device_lo, victim, 1.1e6)
    flips_hi = _flip_set(device_hi, victim, 1.1e6)
    assert flips_lo <= flips_hi, (
        f"flips at count={count_lo} are not a subset of count={count_hi}: "
        f"lost {sorted(flips_lo - flips_hi)}"
    )


@contextlib.contextmanager
def _mutate_count_overflow() -> Iterator[None]:
    """Bug: the episode counter wraps at 1024 (a 10-bit counter)."""
    from repro.dram.device import DramDevice

    original = DramDevice.deposit_episodes

    def mutated(self, address, t_on, t_off, end_time, count):
        return original(self, address, t_on, t_off, end_time, count % 1024)

    DramDevice.deposit_episodes = mutated
    try:
        yield
    finally:
        DramDevice.deposit_episodes = original


# ----------------------------------------------------------------------
# 3. temperature direction (§5.2, Obsv. 9-10)
# ----------------------------------------------------------------------


def _check_temperature_direction(
    temps: tuple[float, float], t_on: float, count: int, row: int
) -> None:
    """Hotter: press dose never falls, hammer dose never rises."""
    temp_lo, temp_hi = sorted(temps)
    assume(temp_hi - temp_lo >= 1.0)
    device_cold = _fresh_device(temp_lo)
    device_hot = _fresh_device(temp_hi)
    aggressor, victim = _setup_rows(device_cold, row)
    _setup_rows(device_hot, row)
    device_cold.deposit_episodes(aggressor, t_on, 15.0, 1e6, count)
    device_hot.deposit_episodes(aggressor, t_on, 15.0, 1e6, count)
    hammer_cold, press_cold = device_cold.dose_of(victim, now=1.1e6)
    hammer_hot, press_hot = device_hot.dose_of(victim, now=1.1e6)
    assert press_hot >= press_cold * (1.0 - 1e-9), (
        f"press dose fell {press_cold} -> {press_hot} going "
        f"{temp_lo:.1f}C -> {temp_hi:.1f}C"
    )
    assert hammer_hot <= hammer_cold * (1.0 + 1e-9), (
        f"hammer dose rose {hammer_cold} -> {hammer_hot} going "
        f"{temp_lo:.1f}C -> {temp_hi:.1f}C"
    )


@contextlib.contextmanager
def _mutate_temperature_inverted() -> Iterator[None]:
    """Bug: the press temperature exponent has its sign flipped."""
    from repro.dram.disturb import DoseParameters

    original = DoseParameters.press_temp_factor

    def mutated(self, temperature_c: float) -> float:
        return original(self, 2.0 * self.ref_temperature - temperature_c)

    DoseParameters.press_temp_factor = mutated
    try:
        yield
    finally:
        DoseParameters.press_temp_factor = original


# ----------------------------------------------------------------------
# 4. progcheck-vs-executor differential
# ----------------------------------------------------------------------


def _check_progcheck_differential(program) -> None:
    """The static verifier and the executor agree on timing legality.

    Restricted to programs without redundant PREs ("pre-closed-bank"):
    there the verifier deliberately does not start a tRP window (the
    PRE is a no-op protocol-wise), while the executor's conservative
    device model does — both are defensible, so the differential claim
    excludes them.
    """
    from repro.bender.executor import TimingViolation
    from repro.bender.isa import compile_program, execute
    from repro.dram.timing import DDR4_3200W
    from repro.lint.progcheck import check_program

    report = check_program(program, DDR4_3200W, budget=None, refresh_disabled=True)
    codes = report.codes()
    assume("pre-closed-bank" not in codes)
    device = _fresh_device()
    try:
        execute(compile_program(program), device)
        dynamic_error = None
    except (TimingViolation, RuntimeError) as error:
        dynamic_error = error
    if dynamic_error is None:
        assert not codes & _TIMING_CODES, (
            f"progcheck flags {sorted(codes & _TIMING_CODES)} but the "
            "executor ran the program without error"
        )
        return
    # map the executor's *first* failure to the code progcheck must
    # have found somewhere in the program (tRC == tRAS + tRP, so a tRC
    # break always shows up as one of the two component windows).
    message = str(dynamic_error)
    if isinstance(dynamic_error, RuntimeError):
        required = {"double-act"}
    elif "tRP" in message:
        required = {"act-too-soon"}
    elif "tRAS" in message:
        required = {"row-open-too-short"}
    else:
        # tRC: ACT-to-ACT too soon — through a PRE it decomposes into
        # the tRAS/tRP windows; without one it is statically double-act.
        required = {"act-too-soon", "row-open-too-short", "double-act"}
    assert codes & required, (
        f"executor rejected the program ({dynamic_error}) but progcheck "
        f"reports none of {sorted(required)} (only {sorted(codes)})"
    )


@contextlib.contextmanager
def _mutate_progcheck_blind() -> Iterator[None]:
    """Bug: the verifier stops reporting tRP (act-too-soon) violations."""
    from repro.lint import progcheck

    original = progcheck._Walker.report

    def mutated(self, code, message, location, time_ns):
        if code == "act-too-soon":
            return
        original(self, code, message, location, time_ns)

    progcheck._Walker.report = mutated
    try:
        yield
    finally:
        progcheck._Walker.report = original


# ----------------------------------------------------------------------
# 5. compiled payload == interpreted program (PR 8 ISA differential)
# ----------------------------------------------------------------------


def _check_isa_equivalence(program) -> None:
    """Compiled-payload execution is byte-identical to interpretation.

    The reference side drives the executor's internal entry point
    directly (no payload, per-run loop analysis) so the differential is
    against the interpreter engine itself, not the deprecation shim.
    Every observable of the run must match bit-for-bit: end time,
    per-opcode command counts, loop iterations, activations, and each
    row read's bytes and bitflips — or, when the program is illegal,
    both sides must fail with the very same error.
    """
    from repro.bender.executor import ProgramExecutor, TimingViolation
    from repro.bender.isa import compile_program, execute

    interpreted_device = _fresh_device()
    compiled_device = _fresh_device()
    payload = compile_program(program)
    interpreted = compiled = None
    interpreted_error = compiled_error = None
    try:
        interpreted = ProgramExecutor(interpreted_device)._execute(program)
    except (TimingViolation, RuntimeError, ValueError) as error:
        interpreted_error = error
    try:
        compiled = execute(payload, compiled_device)
    except (TimingViolation, RuntimeError, ValueError) as error:
        compiled_error = error
    assert (
        interpreted_device.activation_count == compiled_device.activation_count
    ), (
        f"activation counts diverge: interpreted "
        f"{interpreted_device.activation_count}, compiled "
        f"{compiled_device.activation_count}"
    )
    if interpreted_error is not None or compiled_error is not None:
        assert type(interpreted_error) is type(compiled_error) and str(
            interpreted_error
        ) == str(compiled_error), (
            f"error divergence: interpreted raised {interpreted_error!r}, "
            f"compiled raised {compiled_error!r}"
        )
        return
    assert compiled.end_time == interpreted.end_time, (
        f"end times diverge: {compiled.end_time} != {interpreted.end_time}"
    )
    assert compiled.commands_by_opcode == interpreted.commands_by_opcode, (
        f"command counts diverge: {compiled.commands_by_opcode} != "
        f"{interpreted.commands_by_opcode}"
    )
    assert compiled.loop_iterations == interpreted.loop_iterations, (
        f"loop iterations diverge: {compiled.loop_iterations} != "
        f"{interpreted.loop_iterations}"
    )
    assert len(compiled.reads) == len(interpreted.reads)
    for mine, reference in zip(compiled.reads, interpreted.reads):
        assert mine.address == reference.address
        assert bytes(mine.data) == bytes(reference.data), (
            f"read bytes of {mine.address} diverge"
        )
        assert mine.bitflips == reference.bitflips, (
            f"bitflips of {mine.address} diverge: {mine.bitflips} != "
            f"{reference.bitflips}"
        )


@contextlib.contextmanager
def _mutate_setcnt_off_by_one() -> Iterator[None]:
    """Bug: the compiler packs every loop count one iteration too high."""
    from repro.bender import isa

    original = isa._pack_setcnt

    def mutated(reg: int, count: int) -> int:
        return original(reg, count + 1)

    isa._pack_setcnt = mutated
    try:
        yield
    finally:
        isa._pack_setcnt = original


# ----------------------------------------------------------------------
# 6. replayed search probe == device walk
# ----------------------------------------------------------------------


def _module_ids() -> Gen:
    """One Table 1 module id (shrinks toward the first)."""

    def draw(ctx) -> object:
        from repro.dram.catalog import MODULE_CATALOG

        ids = sorted(MODULE_CATALOG)
        return ids[ctx.draw_index(len(ids))]

    return Gen(draw, "module_ids")


def _probe_bench(module_id: str, temperature_c: float):
    from repro.bender.infrastructure import TestingInfrastructure
    from repro.dram.catalog import build_module

    bench = TestingInfrastructure(build_module(module_id, geometry=_small_geometry()))
    bench.module.device.set_temperature(temperature_c)
    return bench


def _check_probe_equivalence(
    module_id: str,
    row: int,
    t_aggon: float,
    count_fraction: float,
    access: str,
    data,
    temperature_c: float,
) -> None:
    """A probe the dose-only replay answers is answered as the device would.

    Checks the drawn activation count, then bisects the count to the
    flip boundary, where a wrong threshold shows first, checking every
    probe.  The reference is the device walk (``fresh_experiment()`` +
    ``execute()``) on a bench of its own; probes the replay hands to the
    device are not compared.
    """
    from repro.bender.isa import compile_program
    from repro.characterization.patterns import (
        AccessPattern,
        ExperimentConfig,
        RowSite,
        build_disturb_program,
        max_activations,
    )

    config = ExperimentConfig(access=AccessPattern(access), data=data)
    site = RowSite(rank=0, bank=0, row=row)
    bench = _probe_bench(module_id, temperature_c)
    device = _probe_bench(module_id, temperature_c)

    def probe(count: int) -> bool:
        program, _ = build_disturb_program(site, t_aggon, count, config)
        payload = compile_program(program, config.timing)
        executes = bench.log.programs_run
        answer = bench.any_bitflip(payload)
        if bench.log.programs_run == executes:  # the replay answered
            device.fresh_experiment()
            walked = len(device.execute(payload).bitflips) > 0
            assert answer == walked, (
                f"replay says {'a' if answer else 'no'} bitflip, the device "
                f"{'a' if walked else 'no'} bitflip: {module_id} row {row}, "
                f"{access}-sided {data.value}, {temperature_c:.1f}C, "
                f"t_AggON {t_aggon:.1f}ns x {count}"
            )
        return answer

    acmax = max_activations(t_aggon, config)
    count = min(max(round(count_fraction * acmax), 1), acmax)
    low, high = (0, count) if probe(count) else (count, acmax + 1)
    while high - low > 1:  # low: no flip; high: flips (or past the budget)
        mid = (low + high) // 2
        if probe(mid):
            high = mid
        else:
            low = mid


@contextlib.contextmanager
def _mutate_ineligible_minima() -> Iterator[None]:
    """Bug: the replay's row minima ignore which cells the data lets flip."""
    from repro.dram import cells

    original = cells._eligible_min

    def mutated(cell_set, byte_value: int, charged: bool) -> float:
        return cell_set.min_threshold

    cells._eligible_min = mutated
    try:
        yield
    finally:
        cells._eligible_min = original


# ----------------------------------------------------------------------
# 7. sharded engine == sequential campaign
# ----------------------------------------------------------------------


def _check_engine_equivalence(spec, shard_size: int) -> None:
    """Sharded execution is invisible in the results."""
    from repro.characterization.campaign import run_campaign
    from repro.characterization.engine import run_engine

    sequential = run_campaign(spec)
    result = run_engine(spec, workers=1, shard_size=shard_size)
    assert not result.failures, f"engine shards failed: {result.failures}"
    assert result.records == sequential, (
        f"sharded records (shard_size={shard_size}) differ from "
        f"sequential run for spec {spec.name!r}"
    )


@contextlib.contextmanager
def _mutate_unit_order() -> Iterator[None]:
    """Bug: shard unit indices are corrupted, scrambling merge order."""
    from repro.characterization import engine

    original = engine._run_shard_units

    def mutated(runner, spec, shard, observer, fault_hook=None, attempt=0):
        units_list, flips = original(
            runner, spec, shard, observer, fault_hook, attempt
        )
        return [(-index, record) for index, record in units_list], flips

    engine._run_shard_units = mutated
    try:
        yield
    finally:
        engine._run_shard_units = original


# ----------------------------------------------------------------------
# 8. results round-trip
# ----------------------------------------------------------------------


def _check_results_roundtrip(case) -> None:
    """dumps -> loads reproduces the spec and every record exactly."""
    from repro.characterization import campaign
    from repro.service.store import spec_key

    spec, records = case
    text = campaign.dumps_results(spec, records)
    loaded_spec, loaded_records = campaign.loads_results(text)
    assert loaded_spec == spec, f"spec changed in round-trip: {loaded_spec} != {spec}"
    assert loaded_records == list(records), (
        f"records changed in round-trip: {len(loaded_records)} back, "
        f"{len(records)} in"
    )
    assert spec_key(loaded_spec) == spec_key(spec)


@contextlib.contextmanager
def _mutate_drop_last_record() -> Iterator[None]:
    """Bug: serialization silently drops the final record."""
    from repro.characterization import campaign

    original = campaign.results_payload

    def mutated(spec, records):
        payload = original(spec, records)
        payload["records"] = payload["records"][:-1]
        return payload

    campaign.results_payload = mutated
    try:
        yield
    finally:
        campaign.results_payload = original


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------

_ROW_GEN = gen.integers(8, _SMALL_ROWS - 10)

ORACLES: dict[str, Oracle] = {
    oracle.name: oracle
    for oracle in (
        Oracle(
            name="acmin-monotone",
            title="ACmin never rises as t_AggON grows (§5.1)",
            gens={
                "t_lo": gen.log_floats(2.0 * units.US, 20.0 * units.US),
                "ratio": gen.log_floats(1.05, 2.5),
                "row": _ROW_GEN,
            },
            check=_check_acmin_monotone,
            mutate=_mutate_press_saturation,
            mutation_note="press accumulation resets past one tREFI",
            max_examples=10,
            self_check_examples=8,
            shrink_calls=40,
        ),
        Oracle(
            name="dose-superset",
            title="more activations: doses grow, flips are a superset",
            gens={
                "t_on": gen.log_floats(1.0 * units.US, 20.0 * units.US),
                "counts": gen.tuples(
                    gen.integers(1, 3000), gen.integers(1, 3000)
                ),
                "row": _ROW_GEN,
            },
            check=_check_dose_superset,
            mutate=_mutate_count_overflow,
            mutation_note="episode counter wraps at 1024",
            max_examples=25,
            self_check_examples=20,
            shrink_calls=150,
        ),
        Oracle(
            name="temperature-direction",
            title="hotter: press dose grows, hammer dose shrinks (§5.2)",
            gens={
                "temps": gen.tuples(gen.floats(30.0, 85.0), gen.floats(30.0, 85.0)),
                "t_on": gen.log_floats(2.0 * units.US, 50.0 * units.US),
                "count": gen.integers(50, 2000),
                "row": _ROW_GEN,
            },
            check=_check_temperature_direction,
            mutate=_mutate_temperature_inverted,
            mutation_note="press temperature exponent sign flipped",
            max_examples=25,
            self_check_examples=10,
            shrink_calls=150,
        ),
        Oracle(
            name="progcheck-differential",
            title="static verifier == timing-checked executor",
            gens={"program": gen.command_programs(banks=1, rows=_SMALL_ROWS)},
            check=_check_progcheck_differential,
            mutate=_mutate_progcheck_blind,
            mutation_note="act-too-soon diagnostics suppressed",
            max_examples=40,
            self_check_examples=60,
            shrink_calls=300,
        ),
        Oracle(
            name="isa-equivalence",
            title="compiled payload == interpreted program, bit for bit",
            gens={"program": gen.command_programs(banks=1, rows=_SMALL_ROWS)},
            check=_check_isa_equivalence,
            mutate=_mutate_setcnt_off_by_one,
            mutation_note="compiled loop counts off by one",
            max_examples=40,
            self_check_examples=60,
            shrink_calls=300,
        ),
        Oracle(
            name="probe-equivalence",
            title="replayed search probe == device walk",
            gens={
                "module_id": _module_ids(),
                "row": _ROW_GEN,
                "t_aggon": gen.log_floats(36.0, 30.0 * units.MS),
                "count_fraction": gen.log_floats(1e-6, 1.0),
                "access": gen.sampled_from(("single", "double")),
                "data": gen.data_patterns(),
                "temperature_c": gen.floats(50.0, 90.0),
            },
            check=_check_probe_equivalence,
            mutate=_mutate_ineligible_minima,
            mutation_note="replay minima taken over ineligible cells too",
            max_examples=25,
            self_check_examples=15,
            shrink_calls=60,
        ),
        Oracle(
            name="engine-equivalence",
            title="sharded engine output == sequential campaign",
            gens={
                "spec": gen.campaign_specs(experiments=("acmin", "ber")),
                "shard_size": gen.integers(1, 3),
            },
            check=_check_engine_equivalence,
            mutate=_mutate_unit_order,
            mutation_note="shard unit indices corrupted before merge",
            max_examples=3,
            self_check_examples=2,
            shrink_calls=25,
        ),
        Oracle(
            name="results-roundtrip",
            title="results survive dumps/loads byte-exactly",
            gens={
                "case": gen.campaign_specs().bind(
                    lambda spec: gen.tuples(
                        gen.just(spec),
                        gen.lists(gen.experiment_records(spec.experiment), 1, 5),
                    )
                ),
            },
            check=_check_results_roundtrip,
            mutate=_mutate_drop_last_record,
            mutation_note="serialization drops the final record",
            max_examples=25,
            self_check_examples=10,
            shrink_calls=150,
        ),
    )
}


def names() -> tuple[str, ...]:
    """All oracle names, in registry order."""
    return tuple(ORACLES)


def get(name: str) -> Oracle:
    """Look up one oracle; raises ``KeyError`` with the known names."""
    try:
        return ORACLES[name]
    except KeyError:
        raise KeyError(
            f"unknown oracle {name!r}; known: {', '.join(ORACLES)}"
        ) from None
