"""Observability overhead guard.

Runs the same hammer-style program through the executor twice — once
with the default null observer and once fully instrumented (metrics +
tracing) — and asserts the instrumented run stays within a few percent.
The null path must be cheap enough to leave enabled everywhere, which
is the contract `bench_fig06_acmin_sweep` (and every other bench)
relies on after the instrumentation PR.

The sampling profiler gets the same treatment: attaching it at the
default 5 ms interval must not slow the profiled work beyond its
budget, since ``repro campaign --profile-out`` is meant to be safe on
production-sized campaigns.

One execute of the program takes only a fraction of a millisecond, so
a single preemption would swamp it.  Each timed sample therefore repeats
the execute until it has run for at least 20 ms, and the two
configurations alternate: each pair is one baseline sample and one
candidate sample run back to back, so load that drifts on a shared
runner over seconds hits both halves of a pair alike.  The guard takes
the median of the pairs' ratios.
"""

from __future__ import annotations

import statistics
import time
from collections.abc import Callable

from repro.bender.infrastructure import TestingInfrastructure
from repro.bender.isa import compile_program
from repro.characterization.patterns import (
    ExperimentConfig,
    RowSite,
    build_disturb_program,
)
from repro.dram.catalog import build_module
from repro.dram.geometry import Geometry
from repro.obs import Observer, SamplingProfiler

#: Allowed instrumented/null slowdown.  The ISSUE budget is ~5%; the
#: guard uses a small cushion on top because single-process timers on
#: shared CI machines jitter by a few percent on their own.
MAX_OVERHEAD = 1.15

#: Allowed profiled/unprofiled slowdown.  One stack walk per 5 ms is
#: bounded work, but each sample also forces a GIL handoff into the
#: sampler thread mid-loop, so the budget is a little looser than the
#: pure-instrumentation guard.
MAX_PROFILER_OVERHEAD = 1.25

#: Each timed sample lasts at least this long.
_SAMPLE_S = 0.020
_PAIRS = 21
_SITE = RowSite(0, 1, 100)


def _executor(observer: Observer | None) -> Callable[[int], float]:
    """A bench running the program; calling it times ``n`` executes.

    Only the executes are timed, not the resets between them.  One
    untimed execute first materializes the row's cells.
    """
    geometry = Geometry(
        ranks=1, bank_groups=1, banks_per_group=2, rows_per_bank=256, row_bits=8192
    )
    module = build_module("S3", geometry=geometry)
    bench = TestingInfrastructure(module, observer=observer)
    config = ExperimentConfig()
    program, _ = build_disturb_program(_SITE, 36.0, 20_000, config)
    payload = compile_program(program, config.timing)
    bench.execute(payload)

    def timed(executes: int) -> float:
        elapsed = 0.0
        for _ in range(executes):
            bench.fresh_experiment()
            start = time.perf_counter()
            bench.execute(payload)
            elapsed += time.perf_counter() - start
        return elapsed

    return timed


def _executes_per_sample(timed: Callable[[int], float]) -> int:
    """Smallest power of two of executes that lasts ``_SAMPLE_S``."""
    executes = 1
    while timed(executes) < _SAMPLE_S:
        executes *= 2
    return executes


def _paired_samples(
    baseline: Callable[[], float], candidate: Callable[[], float]
) -> tuple[float, float, float]:
    """Run ``_PAIRS`` back-to-back pairs; both medians and the median ratio."""
    baseline_samples, candidate_samples = [], []
    for _ in range(_PAIRS):
        baseline_samples.append(baseline())
        candidate_samples.append(candidate())
    ratios = [c / b for b, c in zip(baseline_samples, candidate_samples)]
    return (
        statistics.median(baseline_samples),
        statistics.median(candidate_samples),
        statistics.median(ratios),
    )


def test_null_observer_overhead(benchmark):
    null = _executor(None)
    instrumented = _executor(Observer.create(progress_sink=lambda event: None))
    executes = _executes_per_sample(null)
    null_median, instrumented_median, ratio = benchmark.pedantic(
        lambda: _paired_samples(lambda: null(executes), lambda: instrumented(executes)),
        rounds=1,
        iterations=1,
    )
    print(
        f"\nexecutor, {_PAIRS} pairs of {executes} executes (medians): "
        f"null={null_median * 1e3:.2f}ms instrumented={instrumented_median * 1e3:.2f}ms "
        f"ratio={ratio:.3f}"
    )
    assert ratio < MAX_OVERHEAD, (
        f"instrumentation overhead {ratio:.2f}x exceeds {MAX_OVERHEAD:.2f}x budget"
    )


def test_sampling_profiler_overhead(benchmark):
    plain = _executor(None)
    executes = _executes_per_sample(plain)
    profiler = SamplingProfiler(interval_s=0.005)

    def profiled() -> float:
        with profiler:
            return plain(executes)

    plain_median, profiled_median, ratio = benchmark.pedantic(
        lambda: _paired_samples(lambda: plain(executes), profiled),
        rounds=1,
        iterations=1,
    )
    print(
        f"\nexecutor, {_PAIRS} pairs of {executes} executes (medians): "
        f"plain={plain_median * 1e3:.2f}ms profiled={profiled_median * 1e3:.2f}ms "
        f"ratio={ratio:.3f} ({profiler.sample_count} samples)"
    )
    assert ratio < MAX_PROFILER_OVERHEAD, (
        f"profiler overhead {ratio:.2f}x exceeds {MAX_PROFILER_OVERHEAD:.2f}x budget"
    )
