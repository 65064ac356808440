"""Patched probe payloads: the cache hands out what a compile would.

Every ACmin probe is a cached template (compiled once per site, t_AggON,
count parity, access, data pattern and timing) with its loop count
patched by ``Payload.with_loop_count``.  These tests hold a patched
payload to the decode of its own words, and its run to the run of the
probe program compiled from scratch, including the double-sided
count-1 probe whose compiled program has no loop at all.  They also pin
that searchers share the cache and that it is bounded.
"""

from __future__ import annotations

import pytest

from repro import units
from repro.bender.executor import ProgramExecutor
from repro.bender.isa import _payload_from_words, compile_program
from repro.bender.program import Loop
from repro.characterization import acmin
from repro.characterization.acmin import (
    PROBE_CACHE_SIZE,
    AcminSearch,
    _probe_template,
    find_acmin,
    probe_payload,
)
from repro.characterization.patterns import (
    AccessPattern,
    ExperimentConfig,
    RowSite,
    build_disturb_program,
    max_activations,
)
from repro.characterization.runner import CharacterizationRunner
from repro.dram.catalog import build_module
from repro.dram.datapattern import DataPattern
from repro.testkit.oracles import _summaries_in_order
from tests.conftest import small_geometry

SITE = RowSite(0, 0, 40)
CONFIGS = (
    ExperimentConfig(),
    ExperimentConfig(access=AccessPattern.DOUBLE_SIDED, data=DataPattern.ROWSTRIPE_I),
)
T_AGGONS = (36.0, units.TREFI, 30.0 * units.MS)


def _counts(t_aggon: float, config: ExperimentConfig) -> list[int]:
    """Probe counts 1-5 (both parities, loops run literally), 1,001, the budget."""
    acmax = max_activations(t_aggon, config)
    return sorted({min(count, acmax) for count in (1, 2, 3, 4, 5, 1001, acmax)})


def _run(payload):
    device = build_module("S3", geometry=small_geometry(rows=64)).device
    device.set_temperature(80.0)
    return ProgramExecutor(device).execute_payload(payload)


@pytest.fixture
def compiles(monkeypatch):
    """Counts compiles made by the searcher's module, from a cold cache."""
    calls = []
    original = acmin.compile_program

    def counting(program, timing):
        calls.append(program)
        return original(program, timing)

    monkeypatch.setattr(acmin, "compile_program", counting)
    _probe_template.cache_clear()
    yield calls
    _probe_template.cache_clear()


@pytest.mark.parametrize("config", CONFIGS, ids=["single", "double"])
@pytest.mark.parametrize("t_aggon", T_AGGONS)
def test_probe_payload_is_the_compiled_probe(config, t_aggon):
    """The decode of its own words, and the compiled probe's run."""
    for count in _counts(t_aggon, config):
        patched = probe_payload(SITE, t_aggon, count, config)
        decoded = _payload_from_words(
            patched.words,
            patched.constants,
            patched.timeslice_ns,
            patched.top_level_loops,
        )
        assert patched.program == decoded.program
        assert _summaries_in_order(patched) == _summaries_in_order(decoded)
        assert patched.duration_ns == decoded.duration_ns
        program, _ = build_disturb_program(SITE, t_aggon, count, config)
        compiled = compile_program(program, config.timing)
        assert patched.duration_ns == compiled.duration_ns  # the budget check
        mine, reference = _run(patched), _run(compiled)
        assert mine.end_time == reference.end_time
        assert mine.commands_by_opcode == reference.commands_by_opcode
        assert mine.loop_iterations == reference.loop_iterations
        assert mine.activations == reference.activations == count
        assert [bytes(r.data) for r in mine.reads] == [
            bytes(r.data) for r in reference.reads
        ]
        assert mine.bitflips == reference.bitflips


def test_double_sided_count_one_runs_a_zero_count_loop():
    """The compiler elides its loop; the patched template runs it zero times."""
    config = CONFIGS[1]
    program, _ = build_disturb_program(SITE, 36.0, 1, config)
    compiled = compile_program(program, config.timing)
    assert not compiled.top_level_loops
    patched = probe_payload(SITE, 36.0, 1, config)
    (loop,) = [i for i in patched.program.instructions if isinstance(i, Loop)]
    assert loop.count == 0
    rest = [i for i in patched.program.instructions if i is not loop]
    assert rest == compiled.program.instructions


def test_searchers_share_one_compile_per_probe_shape(compiles):
    """Two modules, two sweeps: each probe program is compiled once."""
    runner = CharacterizationRunner(
        module_ids=["S3", "H0"],
        sites_per_module=2,
        geometry=small_geometry(rows=64),
        bank=0,
    )
    sweep = (36.0, units.TREFI)
    first = runner.acmin_sweep(sweep, access=AccessPattern.DOUBLE_SIDED)
    shapes = len(compiles)
    assert 0 < shapes <= 2 * 2 * len(sweep)  # sites x points x parities
    assert runner.acmin_sweep(sweep, access=AccessPattern.DOUBLE_SIDED) == first
    bench = runner.bench("S3")
    config = ExperimentConfig(access=AccessPattern.DOUBLE_SIDED)
    site = runner.sites(bench.module)[0]
    AcminSearch(infra=bench, config=config).search(site, 36.0)
    find_acmin(bench, site, units.TREFI, config=config)
    assert len(compiles) == shapes  # nothing new to compile
    # The key holds the data pattern: a new one compiles anew.
    runner.acmin_sweep(
        sweep, access=AccessPattern.DOUBLE_SIDED, data=DataPattern.COLSTRIPE
    )
    assert len(compiles) > shapes


def test_the_cache_is_bounded():
    assert _probe_template.cache_info().maxsize == PROBE_CACHE_SIZE > 0
