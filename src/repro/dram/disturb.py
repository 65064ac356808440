"""Read-disturbance dose model (RowHammer + RowPress phenomenology).

Every ACT→PRE episode of an aggressor row deposits *dose* into nearby
victim rows.  Two independent dose channels exist, matching the paper's
finding (Takeaway 2) that RowHammer and RowPress have different failure
mechanisms affecting (almost) disjoint cell sets:

* **Hammer dose** — one unit per aggressor activation at the reference
  condition (t_AggON = tRAS, t_AggOFF = tRP, 50 °C, single-sided,
  checkerboard).  It grows with the aggressor *off*-time (saturating; the
  charge-recombination behavior of prior device-level work reproduced in
  §5.4's small-Δt_A2A results), mildly with on-time (Obsv. 3's slow initial
  ACmin decrease), and strongly when the victim is sandwiched between two
  alternating aggressors (double-sided RowHammer).
* **Press dose** — the *effective on-time* of the episode in nanoseconds.
  A soft onset makes sub-microsecond openings disproportionately weak while
  preserving the log-log slope ≈ −1 beyond ~7.8 µs (Obsv. 3/5).  Sandwiched
  victims use a smaller onset but an efficiency < 1, which produces the
  single/double-sided crossover of Obsv. 13.  Temperature scales the dose
  up Arrhenius-like (Obsv. 9–11).

A weak cell fails under Miner's-rule accumulation: hammer_dose / H +
press_dose / P >= 1 (see :mod:`repro.dram.cells`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.dram.datapattern import DataPattern

#: Relative dose reaching a victim ``distance`` rows away from the aggressor.
HAMMER_DISTANCE_FACTOR: dict[int, float] = {1: 1.0, 2: 0.015, 3: 0.0005}
PRESS_DISTANCE_FACTOR: dict[int, float] = {1: 1.0, 2: 0.004, 3: 0.0}

# Aggressor data-pattern susceptibility tables, per behavior class.  Values
# are (hammer factor, press factor at 50 degC, press factor at 80 degC);
# press factors interpolate linearly in temperature.  Classes correspond to
# the three representative die revisions of Fig. 19 (§5.3): all other dies
# behave like one of them.
_PATTERN_TABLE: dict[str, dict[DataPattern, tuple[float, float, float]]] = {
    # Most dies: checkerboard is the best press pattern, rowstripe the best
    # hammer pattern but a weak press pattern.
    "generic": {
        DataPattern.CHECKERBOARD: (1.00, 1.00, 1.00),
        DataPattern.CHECKERBOARD_I: (1.00, 0.97, 0.97),
        DataPattern.ROWSTRIPE: (1.15, 0.55, 0.45),
        DataPattern.ROWSTRIPE_I: (1.10, 0.50, 0.42),
        DataPattern.COLSTRIPE: (0.90, 0.82, 0.70),
        DataPattern.COLSTRIPE_I: (0.92, 0.90, 0.75),
        DataPattern.CUSTOM: (1.00, 1.00, 1.00),
    },
    # Mfr. S 8Gb B-die / Mfr. H 16Gb A-die: rowstripe cannot induce press
    # bitflips at all beyond ~636 ns; ColStripeI is the best press pattern
    # at 50 degC but the worst at 80 degC (Obsv. 14).
    "rs_immune": {
        DataPattern.CHECKERBOARD: (1.00, 1.00, 1.00),
        DataPattern.CHECKERBOARD_I: (1.00, 0.97, 0.97),
        DataPattern.ROWSTRIPE: (1.15, 0.00, 0.00),
        DataPattern.ROWSTRIPE_I: (1.10, 0.00, 0.00),
        DataPattern.COLSTRIPE: (0.90, 1.10, 0.55),
        DataPattern.COLSTRIPE_I: (0.92, 1.40, 0.37),
        DataPattern.CUSTOM: (1.00, 1.00, 1.00),
    },
    # Mfr. M 16Gb E-die-like: milder pattern sensitivity.
    "m_e": {
        DataPattern.CHECKERBOARD: (1.00, 1.00, 1.00),
        DataPattern.CHECKERBOARD_I: (1.00, 0.98, 0.98),
        DataPattern.ROWSTRIPE: (1.12, 0.70, 0.60),
        DataPattern.ROWSTRIPE_I: (1.08, 0.65, 0.58),
        DataPattern.COLSTRIPE: (0.95, 0.90, 0.85),
        DataPattern.COLSTRIPE_I: (0.95, 0.95, 0.88),
        DataPattern.CUSTOM: (1.00, 1.00, 1.00),
    },
}

#: Additive shift of the CS/CSI press factors under a double-sided pattern
#: (Fig. 20: their effectiveness grows with t_AggON in double-sided tests).
_DOUBLE_SIDED_COLSTRIPE_SHIFT = 0.30


@dataclass(frozen=True)
class DoseParameters:
    """Per-die-revision constants of the disturbance dose model."""

    # --- Hammer channel ---
    #: Off-time recombination time constant (ns).
    hammer_tau_off: float = 100.0
    #: Hammer dose floor as t_AggOFF -> 0 (fraction of the saturated dose).
    #: Keeps the off-time dynamic range near 2x — prior device-level work
    #: saw recombination effects saturate within tens of ns (§5.4).
    hammer_off_floor: float = 0.5
    #: Amplitude of the mild on-time boost (sets Obsv. 3's 1.04-1.17x).
    hammer_beta: float = 0.15
    #: On-time boost time constant (ns).
    hammer_tau_on: float = 180.0
    #: Dose multiplier for a victim sandwiched between alternating
    #: aggressors (double-sided RowHammer effectiveness).
    hammer_sandwich_boost: float = 3.0
    #: ACmin(80 degC) / ACmin(50 degC) for the hammer channel (Table 5).
    hammer_temp_ratio_80: float = 1.0

    # --- Press channel ---
    #: Soft-onset constant for single-sided press (ns).
    press_soft_onset_single: float = 1200.0
    #: Soft-onset constant for the sandwiched (double-sided) case (ns).
    press_soft_onset_double: float = 80.0
    #: Efficiency of double-sided press relative to single-sided.
    press_double_efficiency: float = 0.82
    #: Temperature in degC per 2x press-dose increase.
    press_temp_halving_degc: float = 30.0
    #: Press disturbance partially anneals while the *victim* rests (no
    #: neighboring wordline high): an episode followed by rest time t
    #: only retains ``1 / (1 + t / tau)`` of its dose.  For single-sided
    #: patterns the rest time is the aggressor's off-time; for a
    #: sandwiched victim the other aggressor fills the gap, so the rest
    #: is only ``t_off - t_on`` (the precharge bubbles).  Negligible for
    #: the characterization patterns (rest = tRP), but it is what makes
    #: sparse-activation patterns (one activation per refresh-synced
    #: iteration) far less effective in the real-system demo, matching
    #: the paper's no-bitflips-at-NUM_AGGR_ACTS=1 result.
    press_off_recovery_tau: float = 1200.0

    #: Behavior class for the data-pattern tables (key of _PATTERN_TABLE).
    pattern_class: str = "generic"

    #: Reference timings the thresholds are calibrated at (ns).
    ref_tras: float = 36.0
    ref_trp: float = 15.0
    ref_temperature: float = 50.0

    def __post_init__(self) -> None:
        if self.pattern_class not in _PATTERN_TABLE:
            raise ValueError(f"unknown pattern class {self.pattern_class!r}")
        if not 0.0 <= self.hammer_off_floor <= 1.0:
            raise ValueError("hammer_off_floor must be in [0, 1]")
        if self.press_temp_halving_degc <= 0:
            raise ValueError("press_temp_halving_degc must be positive")

    # ---------------- hammer channel ----------------

    def _f_off(self, t_off: float) -> float:
        floor = self.hammer_off_floor
        return floor + (1.0 - floor) * (1.0 - math.exp(-max(t_off, 0.0) / self.hammer_tau_off))

    def _on_boost(self, t_on: float) -> float:
        excess = max(t_on - self.ref_tras, 0.0)
        return 1.0 + self.hammer_beta * (1.0 - math.exp(-excess / self.hammer_tau_on))

    def hammer_temp_factor(self, temperature_c: float) -> float:
        """Hammer dose multiplier at ``temperature_c`` (mild; Table 5)."""
        if self.hammer_temp_ratio_80 <= 0:
            return 1.0
        exponent = (temperature_c - self.ref_temperature) / 30.0
        return (1.0 / self.hammer_temp_ratio_80) ** exponent

    def hammer_off_ratio(self, t_off: float) -> float:
        """The off-time term of :meth:`hammer_dose`, relative to tRP."""
        return self._f_off(t_off) / self._f_off(self.ref_trp)

    def hammer_factors(
        self,
        t_on: float,
        temperature_c: float,
        aggressor_pattern: DataPattern,
        sandwiched: bool = False,
    ) -> tuple[float, ...]:
        """What :meth:`hammer_dose` multiplies the off-time term by, in order.

        None of them depends on the off-time, so a caller that meets one
        episode shape at many off-times computes them once.
        """
        factors = (
            self._on_boost(t_on) / self._on_boost(self.ref_tras),
            self.hammer_temp_factor(temperature_c),
            self.hammer_pattern_factor(aggressor_pattern),
        )
        return (*factors, self.hammer_sandwich_boost) if sandwiched else factors

    def hammer_dose(
        self,
        t_on: float,
        t_off: float,
        temperature_c: float,
        aggressor_pattern: DataPattern,
        distance: int = 1,
        sandwiched: bool = False,
    ) -> float:
        """Hammer dose of one ACT->PRE episode (reference units)."""
        spatial = HAMMER_DISTANCE_FACTOR.get(abs(distance), 0.0)
        if spatial == 0.0:
            return 0.0
        dose = self.hammer_off_ratio(t_off)
        for factor in self.hammer_factors(t_on, temperature_c, aggressor_pattern, sandwiched):
            dose *= factor
        return dose * spatial

    # ---------------- press channel ----------------

    @staticmethod
    def _soft_onset(excess_on: float, t_soft: float) -> float:
        if excess_on <= 0.0:
            return 0.0
        return excess_on * excess_on / (excess_on + t_soft)

    def press_effective_on_time(self, t_on: float, sandwiched: bool = False) -> float:
        """Effective on-time (ns) of one episode for the press channel."""
        excess = max(t_on - self.ref_tras, 0.0)
        if sandwiched:
            eff = self._soft_onset(excess, self.press_soft_onset_double)
            return self.press_double_efficiency * eff
        return self._soft_onset(excess, self.press_soft_onset_single)

    def press_temp_factor(self, temperature_c: float) -> float:
        """Press dose multiplier at ``temperature_c`` (Obsv. 9-11)."""
        return 2.0 ** ((temperature_c - self.ref_temperature) / self.press_temp_halving_degc)

    def press_off_recovery(self, rest_time: float) -> float:
        """Dose retained after ``rest_time`` with no neighbor open."""
        return 1.0 / (1.0 + max(rest_time, 0.0) / self.press_off_recovery_tau)

    def press_onset_dose(
        self,
        t_on: float,
        temperature_c: float,
        aggressor_pattern: DataPattern,
        sandwiched: bool = False,
    ) -> float:
        """Press dose of one episode before off-time recovery and distance."""
        dose = self.press_effective_on_time(t_on, sandwiched)
        dose *= self.press_temp_factor(temperature_c)
        dose *= self.press_pattern_factor(aggressor_pattern, temperature_c, sandwiched)
        return dose

    def press_rest(self, t_on: float, t_off: float, sandwiched: bool) -> float:
        """How long the victim rests after an episode (see press_off_recovery_tau)."""
        # Sandwiched victims only rest during the precharge bubbles: the
        # other aggressor's on-time fills the rest of the off interval.
        return max(t_off - t_on, self.ref_trp) if sandwiched else t_off

    def press_dose(
        self,
        t_on: float,
        temperature_c: float,
        aggressor_pattern: DataPattern,
        distance: int = 1,
        sandwiched: bool = False,
        t_off: float = 0.0,
    ) -> float:
        """Press dose (effective ns) of one ACT->PRE episode."""
        spatial = PRESS_DISTANCE_FACTOR.get(abs(distance), 0.0)
        if spatial == 0.0:
            return 0.0
        dose = self.press_onset_dose(t_on, temperature_c, aggressor_pattern, sandwiched)
        dose *= self.press_off_recovery(self.press_rest(t_on, t_off, sandwiched))
        return dose * spatial

    # ---------------- data-pattern factors ----------------

    def hammer_pattern_factor(self, pattern: DataPattern) -> float:
        """Hammer susceptibility multiplier for an aggressor pattern."""
        return _PATTERN_TABLE[self.pattern_class][pattern][0]

    def press_pattern_factor(
        self, pattern: DataPattern, temperature_c: float, sandwiched: bool = False
    ) -> float:
        """Press susceptibility multiplier (temperature-interpolated)."""
        _, at50, at80 = _PATTERN_TABLE[self.pattern_class][pattern]
        frac = (temperature_c - 50.0) / 30.0
        frac = min(max(frac, 0.0), 1.0)
        factor = at50 + (at80 - at50) * frac
        if sandwiched and pattern in (DataPattern.COLSTRIPE, DataPattern.COLSTRIPE_I):
            if factor > 0.0:
                factor += _DOUBLE_SIDED_COLSTRIPE_SHIFT
        return factor


class DisturbanceModel:
    """Convenience wrapper binding :class:`DoseParameters` to queries."""

    #: Memo entries kept before the per-episode cache resets; steady
    #: loops query a handful of distinct episode shapes, so this only
    #: guards against pathological churn.
    _CACHE_LIMIT = 4096

    def __init__(self, params: DoseParameters) -> None:
        self.params = params
        self._episode_cache: dict[tuple, tuple[float, float]] = {}
        self._factor_cache: dict[tuple, tuple[tuple[float, ...], float]] = {}

    def episode_doses(
        self,
        t_on: float,
        t_off: float,
        temperature_c: float,
        aggressor_pattern: DataPattern,
        distance: int,
        sandwiched: bool,
    ) -> tuple[float, float]:
        """(hammer, press) dose delivered by one episode at ``distance``.

        A pure function of its arguments (``params`` is frozen), so the
        result is memoized: bisection sweeps re-query the same few
        episode shapes hundreds of times per search.
        """
        key = (t_on, t_off, temperature_c, aggressor_pattern, distance, sandwiched)
        cached = self._episode_cache.get(key)
        if cached is None:
            hammer = self.params.hammer_dose(
                t_on, t_off, temperature_c, aggressor_pattern, distance, sandwiched
            )
            press = self.params.press_dose(
                t_on, temperature_c, aggressor_pattern, distance, sandwiched, t_off
            )
            if len(self._episode_cache) >= self._CACHE_LIMIT:
                self._episode_cache.clear()
            cached = (hammer, press)
            self._episode_cache[key] = cached
        return cached

    def episode_factors(
        self,
        t_on: float,
        temperature_c: float,
        aggressor_pattern: DataPattern,
        sandwiched: bool,
    ) -> tuple[tuple[float, ...], float]:
        """The off-time-free parts of one episode's doses (memoized).

        ``(hammer factors, press onset dose)``: at off-time ``t_off``
        the episode's hammer dose is
        :meth:`DoseParameters.hammer_off_ratio` times each factor in
        turn, and its press dose the onset dose times
        :meth:`DoseParameters.press_off_recovery` of
        :meth:`DoseParameters.press_rest`, each then times the distance
        factor, as :meth:`episode_doses` computes them.
        """
        key = (t_on, temperature_c, aggressor_pattern, sandwiched)
        cached = self._factor_cache.get(key)
        if cached is None:
            params = self.params
            cached = (
                params.hammer_factors(t_on, temperature_c, aggressor_pattern, sandwiched),
                params.press_onset_dose(t_on, temperature_c, aggressor_pattern, sandwiched),
            )
            if len(self._factor_cache) >= self._CACHE_LIMIT:
                self._factor_cache.clear()
            self._factor_cache[key] = cached
        return cached

    def loop_doses(
        self,
        t_on: float,
        t_off: float,
        temperature_c: float,
        aggressor_pattern: DataPattern,
        distance: int,
        sandwiched: bool,
        count: int,
    ) -> tuple[float, float]:
        """Closed-form dose of ``count`` identical episodes.

        One multiply per channel replaces per-activation accumulation;
        this is the per-loop update the compiled payload path applies
        after its warm-up iterations.
        """
        hammer, press = self.episode_doses(
            t_on, t_off, temperature_c, aggressor_pattern, distance, sandwiched
        )
        return hammer * count, press * count
