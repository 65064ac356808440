"""ACmin search: minimum total aggressor activations to cause a bitflip.

Implements the paper's modified bisection algorithm (§4.1): probe at the
largest activation count that fits the 60 ms budget; if any victim flips,
bisect down to a 1 % relative accuracy (rounded up to the next integer).
The paper repeats the search five times and keeps the minimum; the
behavioral device is deterministic for a fixed seed, so ``repeats``
defaults to 1 (the knob exists for noise-injection studies).

Probes of one site and t_AggON differ only in the loop count, so each
probe program is compiled once into a template (one bounded cache per
process); a search resolves each count parity's template once, and each
probe is one call of
:meth:`repro.bender.infrastructure.TestingInfrastructure.probe_bitflip`
with that template and count.  A search keeps one
:class:`repro.dram.device.ProbePlan` per template it uses, both count
parities' plans bound to one replay of their shared prefix, built at the
first bulk probe: it answers bulk probes by dose arithmetic and, from
its prefix replay, the count-1 probe.  Probes of a search with no plan
are replayed on the device's dose-only twin (``any_bitflip``), and the
device executes a probe only where neither can be exact (docs/MODEL.md
§4).  The ``acmin.search`` span's ``device_probes`` and the
``acmin.device_probes`` counter count those device executes, and
``acmin.plan_probes`` the bulk probes a plan answered.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

from repro.bender.infrastructure import TestingInfrastructure
from repro.bender.isa import Payload, compile_program
from repro.dram.device import ProbePlan
from repro.characterization.patterns import (
    AccessPattern,
    ExperimentConfig,
    RowSite,
    build_disturb_program,
    max_activations,
)
from repro.dram.datapattern import DataPattern
from repro.dram.timing import TimingParameters
from repro.obs import NULL_OBSERVER, Observer

#: Probe templates the cache holds, least recently used out first.  A
#: double-sided search uses two (one per count parity), a single-sided
#: one one; a sweep over S sites and P t_AggON points uses at most
#: 2 x S x P per access and data pattern.  A template takes about
#: 19.5 KB with the plan skeletons its searches compile and keep with it
#: (6.6 KB without), so a full cache holds under 20 MB.
PROBE_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=PROBE_CACHE_SIZE)
def _probe_template(
    site: RowSite,
    t_aggon: float,
    parity: int,
    access: AccessPattern,
    data: DataPattern,
    timing: TimingParameters,
) -> Payload:
    """The probe program compiled with one disturbance iteration.

    Keyed by everything a probe payload depends on except its loop
    count.  A double-sided total of ``2 + parity`` keeps the loop (a
    total below 2 would elide it) and the odd total's trailing
    half-episode.
    """
    count = 2 + parity if access is AccessPattern.DOUBLE_SIDED else 1
    config = ExperimentConfig(access=access, data=data, timing=timing)
    program, _ = build_disturb_program(site, t_aggon, count, config)
    return compile_program(program, timing)


def _loops_and_parity(count: int, access: AccessPattern) -> tuple[int, int]:
    """Loop count and count parity of a probe of ``count`` total activations.

    Double-sided patterns loop over aggressor *pairs* and append a
    trailing half-episode when the total is odd, so the loop count is
    ``count // 2`` and the parity is part of the compiled shape.
    """
    return divmod(count, 2) if access is AccessPattern.DOUBLE_SIDED else (count, 0)


def probe_template(
    site: RowSite, t_aggon: float, count: int, config: ExperimentConfig
) -> tuple[Payload, int]:
    """The template of one ACmin probe of ``count`` total activations, and its loop count."""
    loops, parity = _loops_and_parity(count, config.access)
    template = _probe_template(
        site, t_aggon, parity, config.access, config.data, config.timing
    )
    return template, loops


def probe_payload(
    site: RowSite, t_aggon: float, count: int, config: ExperimentConfig
) -> Payload:
    """The payload of one ACmin probe of ``count`` total activations.

    The cached template with its loop count patched
    (:func:`probe_template`): it issues the same commands as compiling
    the probe's program (for a double-sided total of 1, whose
    zero-count loop the compiler would elide, a loop that runs zero
    times).
    """
    template, loops = probe_template(site, t_aggon, count, config)
    return template.with_loop_count(loops)


@dataclass
class AcminSearch:
    """Bisection searcher bound to one test bench.

    Its probe templates come from :func:`probe_template`, whose cache
    every searcher in the process shares: a sweep that builds one
    searcher per module or per engine unit still compiles each (site,
    t_AggON, count parity) probe program once per access and data
    pattern.  Each :meth:`_search_once` keeps its own probe plans, one
    per template it uses (one single-sided, two double-sided, from one
    prefix replay), and drops them when it returns: no plan outlives its
    search.
    """

    infra: TestingInfrastructure
    config: ExperimentConfig
    accuracy: float = 0.01  # 1 % relative accuracy (paper's setting)
    observer: Observer = field(default_factory=Observer.null)
    _probes: int = field(default=0, repr=False)

    def _prober(self, site: RowSite, t_aggon: float) -> Callable[[int], bool]:
        """One search's probe: whether ``count`` activations flip any victim bit.

        Each count parity's template is resolved once, at its first
        probe, and the probes share one dict of plans (one per template).
        """
        config = self.config
        access = config.access
        templates: list[Payload | None] = [None, None]  # per count parity
        plans: dict[Payload, ProbePlan | None] = {}
        infra = self.infra

        def flips(count: int) -> bool:
            loops, parity = _loops_and_parity(count, access)
            template = templates[parity]
            if template is None:
                template = templates[parity] = _probe_template(
                    site, t_aggon, parity, access, config.data, config.timing
                )
            self._probes += 1
            return infra.probe_bitflip(template, loops, plans)

        return flips

    def _flips_at(self, site: RowSite, t_aggon: float, count: int) -> bool:
        """Whether ``count`` activations flip any victim bit (one probe, outside a search)."""
        return self._prober(site, t_aggon)(count)

    def search(self, site: RowSite, t_aggon: float, repeats: int = 1) -> int | None:
        """ACmin for one site and t_AggON; ``None`` when no bitflip occurs."""
        obs = self.observer or NULL_OBSERVER
        best: int | None = None
        probes_before = self._probes
        log = self.infra.log
        executes_before, planned_before = log.programs_run, log.plan_probes
        with obs.span(
            "acmin.search", bank=site.bank, row=site.row, t_aggon=t_aggon
        ) as span:
            for _ in range(max(repeats, 1)):
                value = self._search_once(site, t_aggon)
                if value is not None and (best is None or value < best):
                    best = value
            probes = self._probes - probes_before
            device_probes = log.programs_run - executes_before
            plan_probes = log.plan_probes - planned_before
            span.set(
                acmin=best, probes=probes, device_probes=device_probes, plan_probes=plan_probes
            )
        obs.metrics.counter("acmin.searches").inc()
        obs.metrics.counter("acmin.probes").inc(probes)
        obs.metrics.counter("acmin.device_probes").inc(device_probes)
        obs.metrics.counter("acmin.plan_probes").inc(plan_probes)
        if best is not None:
            obs.metrics.counter("acmin.sites_with_flips").inc()
        return best

    def _search_once(self, site: RowSite, t_aggon: float) -> int | None:
        flips = self._prober(site, t_aggon)
        acmax = max_activations(t_aggon, self.config)
        if not flips(acmax):
            return None
        low, high = 0, acmax  # low: no flip; high: flips
        if acmax > 1 and flips(1):
            return 1
        low = 1 if acmax > 1 else 0
        while high - low > max(math.ceil(self.accuracy * high), 1):
            mid = (low + high) // 2
            if mid in (low, high):
                break
            if flips(mid):
                high = mid
            else:
                low = mid
        return high


def find_acmin(
    infra: TestingInfrastructure,
    site: RowSite,
    t_aggon: float,
    config: ExperimentConfig | None = None,
    repeats: int = 1,
    observer: Observer | None = None,
) -> int | None:
    """Convenience wrapper around :class:`AcminSearch`."""
    searcher = AcminSearch(
        infra=infra,
        config=config or ExperimentConfig(),
        observer=observer or infra.observer,
    )
    return searcher.search(site, t_aggon, repeats=repeats)
