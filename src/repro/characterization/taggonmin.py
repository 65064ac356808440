"""t_AggONmin search: minimum row-open time to flip at a fixed AC (§4.2).

For a given aggressor activation count, bisects t_AggON (log-spaced)
between tRAS and the largest value that keeps ``AC`` activations inside
the 60 ms experiment budget (a command-period multiple, so the builder's
rounding cannot push the payload past the budget).  Returns ``None``
when even the maximum on-time cannot induce a bitflip.

Probes go through
:meth:`repro.bender.infrastructure.TestingInfrastructure.any_bitflip`,
like ACmin's: a dose-only replay answers them, with the device as the
fallback (``taggonmin.device_probes``; docs/MODEL.md §4).
"""

from __future__ import annotations

import math

from repro.bender.builder import round_to_command_period
from repro.bender.infrastructure import TestingInfrastructure
from repro.bender.isa import compile_program
from repro.characterization.patterns import ExperimentConfig, RowSite, build_disturb_program
from repro.obs import Observer


def _flips_at(
    infra: TestingInfrastructure,
    site: RowSite,
    t_aggon: float,
    count: int,
    config: ExperimentConfig,
) -> bool:
    program, _ = build_disturb_program(site, t_aggon, count, config)
    return infra.any_bitflip(compile_program(program, config.timing))


def _max_taggon(activation_count: int, config: ExperimentConfig) -> float:
    """Largest on-time that keeps ``activation_count`` episodes in the budget.

    Rounded *down* to the command period: the builder rounds on-times up,
    so an unrounded bound would overshoot the budget.
    """
    timing = config.timing
    period = timing.command_period
    room = config.budget_ns / activation_count - round_to_command_period(timing.tRP, timing)
    return math.floor(room / period + 1e-9) * period


def find_taggonmin(
    infra: TestingInfrastructure,
    site: RowSite,
    activation_count: int,
    config: ExperimentConfig | None = None,
    accuracy: float = 0.02,
    observer: Observer | None = None,
) -> float | None:
    """Minimum t_AggON (ns) inducing a bitflip at ``activation_count``."""
    config = config or ExperimentConfig()
    obs = observer or infra.observer
    executes_before = infra.log.programs_run
    with obs.span(
        "taggonmin.search", bank=site.bank, row=site.row, activations=activation_count
    ) as span:
        probes = 0
        value = None
        timing = config.timing
        t_max = _max_taggon(activation_count, config)
        if t_max > timing.tRAS:
            probes += 1
            if _flips_at(infra, site, t_max, activation_count, config):
                low, high = timing.tRAS, t_max  # low: no flip; high: flips
                probes += 1
                if _flips_at(infra, site, low, activation_count, config):
                    value = low
                else:
                    while high / low > 1.0 + accuracy:
                        mid = math.sqrt(low * high)
                        probes += 1
                        if _flips_at(infra, site, mid, activation_count, config):
                            high = mid
                        else:
                            low = mid
                    value = high
        device_probes = infra.log.programs_run - executes_before
        span.set(taggonmin=value, probes=probes, device_probes=device_probes)
    obs.metrics.counter("taggonmin.searches").inc()
    obs.metrics.counter("taggonmin.probes").inc(probes)
    obs.metrics.counter("taggonmin.device_probes").inc(device_probes)
    if value is not None:
        obs.metrics.counter("taggonmin.sites_with_flips").inc()
    return value
