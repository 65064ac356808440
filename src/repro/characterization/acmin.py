"""ACmin search: minimum total aggressor activations to cause a bitflip.

Implements the paper's modified bisection algorithm (§4.1): probe at the
largest activation count that fits the 60 ms budget; if any victim flips,
bisect down to a 1 % relative accuracy (rounded up to the next integer).
The paper repeats the search five times and keeps the minimum; the
behavioral device is deterministic for a fixed seed, so ``repeats``
defaults to 1 (the knob exists for noise-injection studies).

Probes of one site and t_AggON differ only in the loop count, so each
probe payload is compiled once and patched per probe
(:func:`probe_payload`, one bounded cache per process).  Each probe is
one call of
:meth:`repro.bender.infrastructure.TestingInfrastructure.any_bitflip`:
a dose-only replay of the probe payload decides it exactly, and the
device executes the payload only where that replay cannot be exact
(docs/MODEL.md §4).  The ``acmin.search`` span's ``device_probes`` and
the ``acmin.device_probes`` counter count those device executes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from repro.bender.infrastructure import TestingInfrastructure
from repro.bender.isa import Payload, compile_program
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
#: 6.4 KB, so a full cache holds under 7 MB.
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


def probe_payload(
    site: RowSite, t_aggon: float, count: int, config: ExperimentConfig
) -> Payload:
    """The payload of one ACmin probe of ``count`` total activations.

    Double-sided patterns loop over aggressor *pairs* and append a
    trailing half-episode when the total is odd, so the loop count is
    ``count // 2`` and the parity is part of the compiled shape.  The
    payload is the cached template with its loop count patched: it
    issues the same commands as compiling the probe's program (for a
    double-sided total of 1, whose zero-count loop the compiler would
    elide, a loop that runs zero times).
    """
    double = config.access is AccessPattern.DOUBLE_SIDED
    loops, parity = divmod(count, 2) if double else (count, 0)
    template = _probe_template(
        site, t_aggon, parity, config.access, config.data, config.timing
    )
    return template.with_loop_count(loops)


@dataclass
class AcminSearch:
    """Bisection searcher bound to one test bench.

    Its probe payloads come from :func:`probe_payload`, whose cache every
    searcher in the process shares: a sweep that builds one searcher per
    module or per engine unit still compiles each (site, t_AggON, count
    parity) probe program once per access and data pattern.
    """

    infra: TestingInfrastructure
    config: ExperimentConfig
    accuracy: float = 0.01  # 1 % relative accuracy (paper's setting)
    observer: Observer = field(default_factory=Observer.null)
    _probes: int = field(default=0, repr=False)

    def _flips_at(self, site: RowSite, t_aggon: float, count: int) -> bool:
        """Whether ``count`` activations flip any victim bit (one probe)."""
        payload = probe_payload(site, t_aggon, count, self.config)
        flips = self.infra.any_bitflip(payload)
        self._probes += 1
        return flips

    def search(self, site: RowSite, t_aggon: float, repeats: int = 1) -> int | None:
        """ACmin for one site and t_AggON; ``None`` when no bitflip occurs."""
        obs = self.observer or NULL_OBSERVER
        best: int | None = None
        probes_before = self._probes
        executes_before = self.infra.log.programs_run
        with obs.span(
            "acmin.search", bank=site.bank, row=site.row, t_aggon=t_aggon
        ) as span:
            for _ in range(max(repeats, 1)):
                value = self._search_once(site, t_aggon)
                if value is not None and (best is None or value < best):
                    best = value
            probes = self._probes - probes_before
            device_probes = self.infra.log.programs_run - executes_before
            span.set(acmin=best, probes=probes, device_probes=device_probes)
        obs.metrics.counter("acmin.searches").inc()
        obs.metrics.counter("acmin.probes").inc(probes)
        obs.metrics.counter("acmin.device_probes").inc(device_probes)
        if best is not None:
            obs.metrics.counter("acmin.sites_with_flips").inc()
        return best

    def _search_once(self, site: RowSite, t_aggon: float) -> int | None:
        acmax = max_activations(t_aggon, self.config)
        if not self._flips_at(site, t_aggon, acmax):
            return None
        low, high = 0, acmax  # low: no flip; high: flips
        if acmax > 1 and self._flips_at(site, t_aggon, 1):
            return 1
        low = 1 if acmax > 1 else 0
        while high - low > max(math.ceil(self.accuracy * high), 1):
            mid = (low + high) // 2
            if mid in (low, high):
                break
            if self._flips_at(site, t_aggon, mid):
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
