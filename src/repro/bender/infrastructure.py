"""The full DRAM testing bench (Fig. 4 of the paper).

Couples a module under test, a program executor, and the temperature
controller into one object that characterization code drives:

* refresh is never issued (disabled, like the paper's methodology),
* programs longer than the refresh window are rejected so retention
  failures cannot contaminate read-disturb results,
* temperature changes settle through the PID model and are then applied
  to the device,
* search probes ask :meth:`TestingInfrastructure.any_bitflip`, which
  replays a payload on the device's dose-only twin and executes it on
  the device only when the replay cannot be exact;
* a search that probes one template at many loop counts asks
  :meth:`TestingInfrastructure.probe_bitflip`, which answers bulk
  counts from the template's :class:`repro.dram.device.ProbePlan`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import units
from repro.dram.device import ProbePlan, ReplayInexact
from repro.dram.module import DramModule
from repro.bender.executor import LITERAL_LOOP_MAX, ExecutionResult, ProgramExecutor
from repro.bender.isa import MAX_LOOP_COUNT, Payload
from repro.bender.temperature import TemperatureController
from repro.obs import NULL_OBSERVER, Observer


@dataclass
class BenchLog:
    """Bookkeeping of one infrastructure session."""

    programs_run: int = 0
    total_activations: int = 0
    #: Probes :meth:`TestingInfrastructure.probe_bitflip` answered from a plan.
    plan_probes: int = 0
    settle_events: list[tuple[float, float]] = None  # (target, settle seconds)

    def __post_init__(self) -> None:
        if self.settle_events is None:
            self.settle_events = []


class TestingInfrastructure:
    """Host machine + FPGA board + thermal rig, as one test bench."""

    __test__ = False  # not a pytest test class despite the name

    def __init__(
        self,
        module: DramModule,
        controller: TemperatureController | None = None,
        enforce_refresh_window: bool = True,
        observer: Observer | None = None,
    ) -> None:
        self.module = module
        self.observer = observer or NULL_OBSERVER
        self.executor = ProgramExecutor(module.device, observer=self.observer)
        self.controller = controller or TemperatureController()
        self.enforce_refresh_window = enforce_refresh_window
        self.log = BenchLog()
        # Align the thermal model with the device's initial temperature.
        self.controller.plant.temperature_c = module.device.temperature_c
        self.controller.setpoint_c = module.device.temperature_c

    @property
    def temperature_c(self) -> float:
        """Current chip temperature."""
        return self.module.device.temperature_c

    def set_temperature(self, target_c: float, tolerance_c: float = 0.5) -> float:
        """Settle the rig at ``target_c``; returns settle time in seconds."""
        settle_s = self.controller.settle(target_c, tolerance_c)
        # Once settled, the device runs at the (controlled) set point.
        self.module.device.set_temperature(target_c)
        self.log.settle_events.append((target_c, settle_s))
        self.observer.metrics.counter("bench.settle_events").inc()
        self.observer.metrics.gauge("bench.temperature_c").set(target_c)
        return settle_s

    def _check_budget(self, duration: float) -> None:
        if self.enforce_refresh_window:
            if duration > units.EXPERIMENT_BUDGET:
                raise ValueError(
                    f"program duration {units.format_time(duration)} exceeds the "
                    f"{units.format_time(units.EXPERIMENT_BUDGET)} experiment budget "
                    "(would overlap retention failures)"
                )

    def execute(self, payload: Payload, start_time: float = 0.0) -> ExecutionResult:
        """Execute a compiled payload with refresh disabled."""
        self._check_budget(payload.duration_ns)
        result = self.executor.execute_payload(payload, start_time)
        self.log.programs_run += 1
        self.log.total_activations += result.activations
        return result

    def any_bitflip(self, payload: Payload) -> bool:
        """Whether ``payload``, run as a fresh experiment, flips a bit it reads.

        The answer always equals :meth:`fresh_experiment` followed by
        ``bool(execute(payload).bitflips)``.  It comes from replaying the
        payload through the executor against the device's dose-only twin
        (:meth:`repro.dram.device.DramDevice.dose_twin`), which leaves
        the device's rows untouched; the device itself runs the payload
        only when that replay cannot be exact (docs/MODEL.md §4).
        :attr:`log` counts device executes only; the observer's
        ``executor.*`` metrics count replays too.  It is the reference
        :meth:`probe_bitflip` is held to, and its fallback.
        """
        self._check_budget(payload.duration_ns)
        self.fresh_experiment()
        twin = self.module.device.dose_twin()
        if twin is not None:
            replay = ProgramExecutor(twin, self.executor.check_timing, self.observer)
            try:
                replay.execute_payload(payload)
            except ReplayInexact:
                pass
            else:
                return twin.read_flipped
        return bool(self.execute(payload).bitflips)

    def probe_plan(self, template: Payload) -> ProbePlan | None:
        """A plan answering ``template``'s bulk probes by dose arithmetic, or None.

        Replays the template's count-independent prefix once on the
        device's dose-only twin (:meth:`ProgramExecutor.plan_payload`).
        None where only a walk of each probe is exact: the device has
        no twin (a TRR hook, a row left open), the prefix meets a row
        of unknown content, or the template has no bulk loop to plan.
        """
        twin = self.module.device.dose_twin()
        if twin is None:
            return None
        replay = ProgramExecutor(twin, self.executor.check_timing, self.observer)
        try:
            return replay.plan_payload(template)
        except ReplayInexact:
            return None

    def probe_bitflip(
        self, template: Payload, loop_count: int, plans: dict[Payload, ProbePlan | None]
    ) -> bool:
        """``any_bitflip(template.with_loop_count(loop_count))``, from a plan where one applies.

        ``plans`` holds one search's plans, one per template, each
        built at the template's first bulk probe (:meth:`probe_plan`).
        A bulk probe with a plan keeps the budget check (the same
        ``ValueError``) and the fresh experiment, and builds no payload;
        counts the executor runs literally, templates without a plan
        and probes the plan cannot finish exactly go to
        :meth:`any_bitflip`.
        """
        if LITERAL_LOOP_MAX < loop_count <= MAX_LOOP_COUNT:
            try:
                plan = plans[template]
            except KeyError:
                plan = plans[template] = self.probe_plan(template)
            if plan is not None:
                self._check_budget(plan.duration_ns(loop_count))
                self.fresh_experiment()
                try:
                    flips = plan.flips(loop_count)
                except ReplayInexact:
                    pass
                else:
                    self.log.plan_probes += 1
                    return flips
        return self.any_bitflip(template.with_loop_count(loop_count))

    def fresh_experiment(self) -> None:
        """Clear accumulated disturbance between independent experiments."""
        self.module.device.reset_disturbance()
