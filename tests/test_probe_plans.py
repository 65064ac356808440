"""Probe plans: bulk search probes answered by dose arithmetic, as the replay would.

An ACmin search keeps one ``ProbePlan`` per probe template
(``TestingInfrastructure.probe_plan``), built by replaying the
template's count-independent prefix on the dose-only twin, and answers
each bulk probe from it (``TestingInfrastructure.probe_bitflip``).
These tests hold:

* every plan verdict to ``any_bitflip`` (the replay walk) on every
  catalog die, single- and double-sided, under three data-pattern and
  temperature conditions, at every standard t_AggON, on every count of
  a full bisection, on loop counts 1-8 of both parities and on the
  largest count the budget allows;
* one prefix replay per search for both count parities' plans, and the
  counts the executor runs literally (the count-1 probe) answered from
  a plan's prefix replay with no walk, equal to ``any_bitflip`` in the
  same matrix;
* the budget check, the fallbacks (no twin, a prefix or a probe the
  twin cannot replay exactly, a suffix command the executor rejects);
* whole sweeps on the plan path to the replay path and the device
  walk, and the row-summary footprint of plan-path sweeps to the walk's.
"""

from __future__ import annotations

import math

import pytest

from repro import units
from repro.bender.builder import single_sided_pattern
from repro.bender.executor import (
    LITERAL_LOOP_MAX,
    ProbePrefix,
    ProgramExecutor,
    TimingViolation,
)
from repro.bender.infrastructure import TestingInfrastructure
from repro.bender.isa import compile_program
from repro.bender.program import Act, FillRow, Loop, Pre, Program, ReadRow, Wait
from repro.characterization.acmin import AcminSearch, probe_template
from repro.characterization.patterns import (
    AccessPattern,
    ExperimentConfig,
    RowSite,
    max_activations,
)
from repro.characterization.runner import DEFAULT_TAGGON_SWEEP, CharacterizationRunner
from repro.dram.catalog import build_module
from repro.dram.cells import CellPopulation
from repro.dram.device import DoseTwin, DramDevice
from repro.dram.geometry import RowAddress
from repro.obs import Observer
from tests.conftest import small_geometry
from tests.test_row_summaries import DIE_MODULES, SWEEP_MODULES, _SweepLog, _acmin_sweeps
from tests.test_search_probes import CONDITIONS

ROW = 40
SITE = RowSite(0, 0, ROW)


def _bench(module_id: str = "S3") -> TestingInfrastructure:
    return TestingInfrastructure(build_module(module_id, geometry=small_geometry(rows=64)))


def _no_plans(monkeypatch) -> None:
    """Answer every probe by replaying its payload, as before plans existed."""
    monkeypatch.setattr(TestingInfrastructure, "probe_plan", lambda self, template: None)


def _bisection_counts(answer, acmax: int) -> list[int]:
    """Every count a full bisection from ``acmax`` to 1 % probes."""
    counts = [acmax]
    if not answer(acmax):
        return counts
    low, high = 0, acmax
    while high - low > max(math.ceil(0.01 * high), 1):
        mid = (low + high) // 2
        if mid in (low, high):
            break
        counts.append(mid)
        if answer(mid):
            high = mid
        else:
            low = mid
    return counts


def _probe_counts(access: AccessPattern, acmax: int, answer) -> list[int]:
    """Loop counts 1-8 of both parities, the largest count, and a bisection."""
    if access is AccessPattern.DOUBLE_SIDED:
        small = [2 * loops + parity for loops in range(9) for parity in (0, 1)][1:]
    else:
        small = list(range(1, 9))
    return [count for count in small if count <= acmax] + _bisection_counts(answer, acmax)


# ----------------------------------------------------------------------
# every plan verdict == the replay's
# ----------------------------------------------------------------------


@pytest.mark.parametrize("module_id", DIE_MODULES)
def test_plan_verdicts_equal_the_replay(module_id):
    bench = _bench(module_id)
    for access in AccessPattern:
        for data, temperature in CONDITIONS:
            config = ExperimentConfig(access=access, data=data)
            bench.set_temperature(temperature)
            for t_aggon in DEFAULT_TAGGON_SWEEP:

                def replayed(count: int) -> bool:
                    template, loops = probe_template(SITE, t_aggon, count, config)
                    return bench.any_bitflip(template.with_loop_count(loops))

                plans: dict = {}
                acmax = max_activations(t_aggon, config)
                for count in _probe_counts(access, acmax, replayed):
                    template, loops = probe_template(SITE, t_aggon, count, config)
                    planned_before = bench.log.plan_probes
                    answer = bench.probe_bitflip(template, loops, plans)
                    assert answer == replayed(count), (module_id, access, data, t_aggon, count)
                    bulk = loops > LITERAL_LOOP_MAX
                    assert bench.log.plan_probes - planned_before == int(bulk)
    assert bench.log.programs_run == 0  # neither path needed the device


@pytest.mark.parametrize("row", [0, 1, 58])
def test_plans_at_the_bank_edges(row):
    """Victims and dose targets past the first or last row are skipped alike."""
    site = RowSite(0, 0, row)
    for module_id in ("S3", "H1", "M6"):
        bench = _bench(module_id)
        for access in AccessPattern:
            config = ExperimentConfig(access=access)
            for t_aggon in (36.0, units.TREFI, 300_000.0):
                plans: dict = {}
                acmax = max_activations(t_aggon, config)
                for count in (acmax, acmax // 3, 41, 40, 12, 11, 10, 9):
                    template, loops = probe_template(site, t_aggon, count, config)
                    assert bench.probe_bitflip(template, loops, plans) == bench.any_bitflip(
                        template.with_loop_count(loops)
                    )


def test_a_count_over_the_budget_raises_the_replays_error():
    bench = _bench()
    for access in AccessPattern:
        config = ExperimentConfig(access=access)
        plans: dict = {}
        acmax = max_activations(36.0, config)
        template, loops = probe_template(SITE, 36.0, acmax, config)
        bench.probe_bitflip(template, loops, plans)
        assert plans[template] is not None
        for count in (acmax + 1, acmax + 2, 2 * acmax):
            template, loops = probe_template(SITE, 36.0, count, config)
            with pytest.raises(ValueError) as replayed:
                bench.any_bitflip(template.with_loop_count(loops))
            with pytest.raises(ValueError, match="experiment budget") as planned:
                bench.probe_bitflip(template, loops, plans)
            assert str(planned.value) == str(replayed.value)


def test_plan_durations_are_the_payloads():
    for access in AccessPattern:
        config = ExperimentConfig(access=access)
        for t_aggon in DEFAULT_TAGGON_SWEEP:
            acmax = max_activations(t_aggon, config)
            for count in {acmax, acmax - 1, acmax // 2, 10, 11}:
                template, loops = probe_template(SITE, t_aggon, count, config)
                plan = _bench().probe_plan(template)
                assert plan.duration_ns(loops) == template.with_loop_count(loops).duration_ns


# ----------------------------------------------------------------------
# one prefix replay per search, and literal counts from it
# ----------------------------------------------------------------------


def _counting_replays(monkeypatch) -> list:
    """Record every template whose prefix a bench replays."""
    replayed = []
    replay_prefix = ProgramExecutor.replay_prefix

    def counting(executor, template):
        replayed.append(template)
        return replay_prefix(executor, template)

    monkeypatch.setattr(ProgramExecutor, "replay_prefix", counting)
    return replayed


def test_both_parity_plans_come_from_one_prefix_replay(monkeypatch):
    replayed = _counting_replays(monkeypatch)
    config = ExperimentConfig(access=AccessPattern.DOUBLE_SIDED)
    bench = _bench()
    for t_aggon in (36.0, units.TREFI):
        plans: dict = {}
        even, loops = probe_template(SITE, t_aggon, 2000, config)
        odd, _ = probe_template(SITE, t_aggon, 2001, config)
        bench.probe_bitflip(even, loops, plans)
        bench.probe_bitflip(odd, loops, plans)
        bench.probe_bitflip(odd, loops // 2, plans)
        assert plans[even] is not None and plans[odd] is not None
        assert plans[odd].prefix is plans[even].prefix
    assert len(replayed) == 2  # one per search

    # Whole searches: one replay each, though plans of both parities are bound.
    bound = []
    plan = ProbePrefix.plan

    def binding(prefix, template):
        bound.append(template)
        return plan(prefix, template)

    monkeypatch.setattr(ProbePrefix, "plan", binding)
    searcher = AcminSearch(infra=bench, config=config)
    both = 0
    for t_aggon in DEFAULT_TAGGON_SWEEP[:6]:
        replayed.clear()
        bound.clear()
        searcher.search(SITE, t_aggon)
        assert len(replayed) <= 1
        both += len(set(bound)) == 2
    assert both >= 3


def _walks(monkeypatch) -> list:
    """Record every probe a bench answers by walking its payload."""
    walked = []
    any_bitflip = TestingInfrastructure.any_bitflip

    def counting(bench, payload):
        walked.append(payload)
        return any_bitflip(bench, payload)

    monkeypatch.setattr(TestingInfrastructure, "any_bitflip", counting)
    return walked


@pytest.mark.parametrize("module_id", DIE_MODULES)
def test_literal_counts_from_the_prefix_equal_the_replay(monkeypatch, module_id):
    """Count 1 (and every other count run literally) from the plan's prefix == any_bitflip."""
    walked = _walks(monkeypatch)
    bench = _bench(module_id)
    literal = range(1, 2 * LITERAL_LOOP_MAX + 2)
    for access in AccessPattern:
        for data, temperature in CONDITIONS:
            config = ExperimentConfig(access=access, data=data)
            bench.set_temperature(temperature)
            for t_aggon in DEFAULT_TAGGON_SWEEP:
                # A plan exists whether or not the budget allows a bulk count.
                template, _ = probe_template(SITE, t_aggon, 2 * LITERAL_LOOP_MAX + 2, config)
                plans = {template: bench.probe_plan(template)}
                assert plans[template] is not None
                for count in literal:
                    template, loops = probe_template(SITE, t_aggon, count, config)
                    if (
                        loops > LITERAL_LOOP_MAX
                        or template.with_loop_count(loops).duration_ns > units.EXPERIMENT_BUDGET
                    ):
                        continue
                    before = len(walked)
                    answer = bench.probe_bitflip(template, loops, plans)
                    assert len(walked) == before  # no walk: the prefix answered
                    assert answer == bench.any_bitflip(template.with_loop_count(loops)), (
                        module_id,
                        access,
                        data,
                        t_aggon,
                        count,
                    )
                assert len(plans) == (2 if access is AccessPattern.DOUBLE_SIDED else 1)
    assert bench.log.programs_run == 0 and bench.log.plan_probes == 0


def test_a_literal_count_without_a_plan_walks(monkeypatch):
    """A search's first probe of a literal count makes no replay of its own."""
    replayed = _counting_replays(monkeypatch)
    walked = _walks(monkeypatch)
    bench = _bench()
    template, loops = probe_template(SITE, 36.0, 1, ExperimentConfig())
    plans: dict = {}
    bench.probe_bitflip(template, loops, plans)
    assert plans == {} and not replayed and len(walked) == 1


# ----------------------------------------------------------------------
# fallbacks
# ----------------------------------------------------------------------


def _search(bench: TestingInfrastructure, config: ExperimentConfig, observer: Observer):
    searcher = AcminSearch(infra=bench, config=config, observer=observer)
    return [searcher.search(SITE, t_aggon) for t_aggon in (36.0, units.TREFI, units.TAGGON_MAX)]


@pytest.mark.parametrize("access", list(AccessPattern))
def test_no_twin_falls_back_to_the_device(monkeypatch, access):
    config = ExperimentConfig(access=access)
    planned_obs = Observer.create()
    planned = _search(_bench(), config, planned_obs)
    assert planned_obs.metrics.value("acmin.plan_probes") > 0
    assert planned_obs.metrics.value("acmin.device_probes") == 0

    monkeypatch.setattr(DramDevice, "dose_twin", lambda self: None)
    walk_obs = Observer.create()
    bench = _bench()
    assert bench.probe_plan(probe_template(SITE, 36.0, 1000, config)[0]) is None
    assert _search(bench, config, walk_obs) == planned
    probes = walk_obs.metrics.value("acmin.probes")
    assert walk_obs.metrics.value("acmin.device_probes") == probes > 0
    assert walk_obs.metrics.value("acmin.plan_probes") == 0


@pytest.mark.parametrize("access", list(AccessPattern))
def test_a_prefix_the_twin_cannot_replay_falls_back_to_the_device(monkeypatch, access):
    """The twin forgets the fill of R0-1: the prefix meets a row of unknown content."""
    config = ExperimentConfig(access=access)
    truth = _search(_bench(), config, Observer.create())
    fill_row = DoseTwin.fill_row

    def forgetful(twin, address, byte_value, time_ns):
        if address.row != ROW - 1:
            fill_row(twin, address, byte_value, time_ns)

    monkeypatch.setattr(DoseTwin, "fill_row", forgetful)
    observer = Observer.create()
    bench = _bench()
    assert bench.probe_plan(probe_template(SITE, 36.0, 1000, config)[0]) is None
    assert _search(bench, config, observer) == truth
    probes = observer.metrics.value("acmin.probes")
    assert observer.metrics.value("acmin.device_probes") == probes > 0
    assert observer.metrics.value("acmin.plan_probes") == 0


def _address(row: int) -> RowAddress:
    return RowAddress(0, 0, row)


def _template(tail) -> object:
    """Fill R0-3..R0+4, hammer R0 in a loop, run ``tail``, read R0+2 and R0-1."""
    program = Program()
    for row in range(ROW - 3, ROW + 5):
        program.append(FillRow(_address(row), 0xAA if row == ROW else 0x55))
    program.extend(single_sided_pattern(_address(ROW), 36.0, 1).instructions)
    program.extend(list(tail))
    for row in (ROW + 2, ROW - 1):
        program.append(ReadRow(_address(row)))
    return compile_program(program)


def test_a_probe_the_plan_cannot_finish_falls_back_to_the_device():
    """R0+1 flips when activated after the bulk; its episode then meets
    content no fill set, so only some counts reach the device."""
    template = _template([Act(_address(ROW + 1)), Wait(36.0), Pre(0, 0), Wait(15.0)])
    bench, truth = _bench(), _bench()
    plans: dict = {}
    devices = set()
    for loops in (1_000_000, 500_000, 200_000, 100_000, 10_000, 1000, 10):
        executes = bench.log.programs_run
        answer = bench.probe_bitflip(template, loops, plans)
        truth.fresh_experiment()
        assert answer == bool(truth.execute(template.with_loop_count(loops)).bitflips)
        devices.add(bench.log.programs_run - executes)
    assert plans[template] is not None
    assert devices == {0, 1}


def test_literal_counts_the_prefix_cannot_finish_fall_back_too():
    """Counts the executor runs literally, answered from the prefix or walked as the replay would."""
    template = _template([Act(_address(ROW + 1)), Wait(36.0), Pre(0, 0), Wait(15.0)])
    bench, truth = _bench(), _bench()
    plans: dict = {}
    bench.probe_bitflip(template, 1_000_000, plans)
    for loops in range(LITERAL_LOOP_MAX + 1):
        answer = bench.probe_bitflip(template, loops, plans)
        truth.fresh_experiment()
        assert answer == bool(truth.execute(template.with_loop_count(loops)).bitflips)
    # A PRE right after an ACT: the compiled walk gives up, the walk raises.
    template = _template([Act(_address(ROW + 1)), Pre(0, 0)])
    plans = {}
    with pytest.raises(TimingViolation, match="tRAS"):
        bench.probe_bitflip(template, 1000, plans)
    assert plans[template] is not None
    for loops in range(LITERAL_LOOP_MAX + 1):
        with pytest.raises(TimingViolation, match="tRAS"):
            bench.probe_bitflip(template, loops, plans)


def test_a_suffix_command_the_executor_rejects_raises_as_in_the_replay():
    """A PRE right after an ACT behind the loop violates tRAS at every count."""
    template = _template([Act(_address(ROW + 1)), Pre(0, 0)])
    bench = _bench()
    plans: dict = {}
    with pytest.raises(TimingViolation, match="tRAS"):
        bench.any_bitflip(template.with_loop_count(1000))
    with pytest.raises(TimingViolation, match="tRAS"):
        bench.probe_bitflip(template, 1000, plans)
    assert plans[template] is not None


def test_templates_the_plan_does_not_model_have_none():
    """No loop, or a loop after the bulk loop: every probe replays."""
    program = Program([FillRow(_address(ROW), 0x55), ReadRow(_address(ROW))])
    assert _bench().probe_plan(compile_program(program)) is None
    template = _template(single_sided_pattern(_address(ROW + 1), 36.0, 3).instructions)
    assert any(isinstance(i, Loop) for i in template.program.instructions[-3:])
    bench, plans = _bench(), {}
    assert bench.probe_bitflip(template, 100_000, plans) == bench.any_bitflip(
        template.with_loop_count(100_000)
    )
    assert plans == {template: None} and bench.log.plan_probes == 0


# ----------------------------------------------------------------------
# whole sweeps: plan == replay == device walk
# ----------------------------------------------------------------------


def _sweeps(observer: Observer) -> list:
    runner = CharacterizationRunner(
        module_ids=list(SWEEP_MODULES),
        sites_per_module=2,
        geometry=small_geometry(rows=64),
        bank=0,
        observer=observer,
    )
    records = []
    for access in AccessPattern:
        for data, temperature in CONDITIONS:
            records += runner.acmin_sweep(
                DEFAULT_TAGGON_SWEEP, access=access, temperature_c=temperature, data=data
            )
    return records


def test_plan_path_sweeps_equal_the_replay_and_the_device_walk(monkeypatch):
    planned_obs = Observer.create()
    planned = _sweeps(planned_obs)
    probes = planned_obs.metrics.value("acmin.probes")
    assert planned_obs.metrics.value("acmin.plan_probes") > probes // 2
    assert planned_obs.metrics.value("acmin.device_probes") == 0

    _no_plans(monkeypatch)
    replay_obs = Observer.create()
    assert _sweeps(replay_obs) == planned
    assert replay_obs.metrics.value("acmin.probes") == probes
    assert replay_obs.metrics.value("acmin.plan_probes") == 0

    monkeypatch.setattr(DramDevice, "dose_twin", lambda self: None)
    assert _sweeps(Observer.create()) == planned
    assert any(record.acmin is not None for record in planned)


def test_plan_path_sweeps_summarize_only_rows_the_walk_senses(monkeypatch):
    """One summary per row the replay senses, no cell arrays, one sample per row."""
    sampled: dict = {}
    row = CellPopulation.row

    def sampling(population, rank, bank, row_index):
        key = (id(population), rank, bank, row_index)
        sampled[key] = sampled.get(key, 0) + 1
        return row(population, rank, bank, row_index)

    monkeypatch.setattr(CellPopulation, "row", sampling)
    observer = Observer.create()
    runner = _acmin_sweeps(observer)
    assert observer.metrics.value("acmin.plan_probes") > 0
    assert observer.metrics.value("acmin.device_probes") == 0
    assert sampled and set(sampled.values()) == {1}
    summarized = {}
    for module_id in SWEEP_MODULES:
        population = runner.bench(module_id).module.device.population
        assert not population._cache  # no cell arrays
        summarized[module_id] = set(population._summaries)

    _no_plans(monkeypatch)
    log = _SweepLog(monkeypatch)
    runner = _acmin_sweeps(Observer.create())
    for module_id in SWEEP_MODULES:
        population = runner.bench(module_id).module.device.population
        assert summarized[module_id] == log.sensed[id(population)]
