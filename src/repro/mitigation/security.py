"""Security analysis of adapted mitigations (§7.4).

The adapted mechanism is secure iff every victim row's *equivalent
activation count* — actual activations scaled by the worst-case dose
ratio of the enforced t_mro — stays below the baseline RowHammer
threshold T_RH between consecutive refreshes of that victim.

:class:`VictimExposureTracker` performs this accounting over an
activation/refresh stream (the memory-controller hooks feed it), so the
property tests can drive adversarial patterns and assert the bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class VictimExposureTracker:
    """Tracks per-victim equivalent activation counts between refreshes."""

    #: Worst-case per-activation dose at the enforced t_mro, relative to
    #: one reference (tRAS) activation: ACmin(tRAS)/ACmin(t_mro).
    dose_ratio: float = 1.0
    neighborhood: int = 2
    exposure: dict[tuple[int, int, int], float] = field(default_factory=dict)
    max_exposure_seen: float = 0.0
    #: Per-victim activation counts of adjacent (distance 1) and farther
    #: aggressors. A victim's exposure is recomputed from these integers
    #: instead of adding ``dose_ratio`` once per activation, whose rounding
    #: error grows with the count (175 × 1.4 summed reads 245.0000000000007,
    #: above the true 175 × 1.4 = 244.99999999999997).
    hits: dict[tuple[int, int, int], list[int]] = field(default_factory=dict)

    def on_activation(self, rank: int, bank: int, row: int) -> None:
        """One (t_mro-capped) activation of ``row``."""
        for distance in range(1, self.neighborhood + 1):
            for victim in (row - distance, row + distance):
                if victim < 0:
                    continue
                key = (rank, bank, victim)
                counts = self.hits.setdefault(key, [0, 0])
                counts[distance != 1] += 1
                value = counts[0] * self.dose_ratio + counts[1] * (self.dose_ratio * 0.02)
                self.exposure[key] = value
                if value > self.max_exposure_seen:
                    self.max_exposure_seen = value

    def on_refresh(self, rank: int, bank: int, row: int) -> None:
        """Any refresh (preventive or periodic) of ``row``."""
        self.exposure.pop((rank, bank, row), None)
        self.hits.pop((rank, bank, row), None)

    def on_refresh_window(self) -> None:
        """Periodic refresh completed a full sweep: all rows restored."""
        self.exposure.clear()
        self.hits.clear()

    def is_secure(self, t_rh: int) -> bool:
        """Whether no victim ever exceeded the baseline threshold."""
        return self.max_exposure_seen < t_rh
