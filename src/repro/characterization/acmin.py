"""ACmin search: minimum total aggressor activations to cause a bitflip.

Implements the paper's modified bisection algorithm (§4.1): probe at the
largest activation count that fits the 60 ms budget; if any victim flips,
bisect down to a 1 % relative accuracy (rounded up to the next integer).
The paper repeats the search five times and keeps the minimum; the
behavioral device is deterministic for a fixed seed, so ``repeats``
defaults to 1 (the knob exists for noise-injection studies).

Each probe is one call of
:meth:`repro.bender.infrastructure.TestingInfrastructure.any_bitflip`:
a dose-only replay of the probe payload decides it exactly, and the
device executes the payload only where that replay cannot be exact
(docs/MODEL.md §4).  The ``acmin.search`` span's ``device_probes`` and
the ``acmin.device_probes`` counter count those device executes.
"""

from __future__ import annotations

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
from repro.obs import NULL_OBSERVER, Observer


@dataclass
class AcminSearch:
    """Bisection searcher bound to one test bench."""

    infra: TestingInfrastructure
    config: ExperimentConfig
    accuracy: float = 0.01  # 1 % relative accuracy (paper's setting)
    observer: Observer = field(default_factory=Observer.null)
    _probes: int = field(default=0, repr=False)
    #: Compiled probe payloads keyed by (site, t_aggon, count parity);
    #: bisection probes differ only in iteration count, which is a
    #: single-word SETCNT patch on the cached payload.
    _payloads: dict[tuple[RowSite, float, int], Payload] = field(
        default_factory=dict, repr=False
    )

    def _payload(self, site: RowSite, t_aggon: float, count: int) -> Payload:
        """Compiled probe program for ``count`` total activations.

        Double-sided patterns loop over aggressor *pairs* and append a
        trailing half-episode when the total is odd, so the loop count
        is ``count // 2`` and the parity is part of the compiled shape.
        """
        double = self.config.access is AccessPattern.DOUBLE_SIDED
        loops, parity = divmod(count, 2) if double else (count, 0)
        cached = self._payloads.get((site, t_aggon, parity))
        if cached is not None and loops > 0:
            return cached.with_loop_count(loops)
        program, _ = build_disturb_program(site, t_aggon, count, self.config)
        payload = compile_program(program, self.config.timing)
        if loops > 0 and len(payload.top_level_loops) == 1:
            self._payloads[(site, t_aggon, parity)] = payload
        return payload

    def _flips_at(self, site: RowSite, t_aggon: float, count: int) -> bool:
        """Whether ``count`` activations flip any victim bit (one probe)."""
        flips = self.infra.any_bitflip(self._payload(site, t_aggon, count))
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
