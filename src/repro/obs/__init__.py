"""Observability: metrics, hierarchical spans, progress, and logging.

The package's instrumented layers (executor, simulator, characterization
campaigns, mitigations) all accept an :class:`Observer` — a bundle of a
:class:`~repro.obs.metrics.MetricsRegistry`, a
:class:`~repro.obs.tracing.Tracer`, and a
:class:`~repro.obs.progress.ProgressReporter`.  By default every layer
uses :data:`NULL_OBSERVER`, whose parts are inert no-ops, so the
instrumentation can live in hot paths permanently at negligible cost.

Typical use::

    from repro.obs import Observer

    observer = Observer.create(label="fig06")
    records = run_campaign(spec, observer=observer)
    observer.metrics.write_json("metrics.json")
    observer.tracer.write_chrome_trace("trace.json")   # chrome://tracing

Metric names and the trace schema are documented in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import logging
import sys
from dataclasses import dataclass, field
from typing import Callable

from repro.obs.clock import monotonic_s
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    Timer,
    atomic_write_text,
)
from repro.obs.names import METRIC_NAMES
from repro.obs.profiler import SamplingProfiler
from repro.obs.progress import NullProgress, ProgressEvent, ProgressReporter, log_sink
from repro.obs.tracing import TRACE_HEADER, NullTracer, Span, TraceContext, Tracer

__all__ = [
    "Observer",
    "NULL_OBSERVER",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_BUCKETS",
    "METRIC_NAMES",
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "Tracer",
    "NullTracer",
    "Span",
    "TraceContext",
    "TRACE_HEADER",
    "SamplingProfiler",
    "ProgressReporter",
    "ProgressEvent",
    "NullProgress",
    "log_sink",
    "atomic_write_text",
    "monotonic_s",
    "configure_logging",
    "get_logger",
    "declare_standard_metrics",
]


@dataclass
class Observer:
    """One run's observability context: metrics + tracer + progress."""

    metrics: MetricsRegistry = field(default_factory=lambda: NULL_REGISTRY)
    tracer: Tracer | NullTracer = field(default_factory=NullTracer)
    progress: ProgressReporter = field(default_factory=NullProgress)

    @classmethod
    def create(
        cls,
        label: str = "run",
        progress_sink: Callable[[ProgressEvent], None] | None = None,
        context: TraceContext | None = None,
    ) -> "Observer":
        """An active observer recording metrics, spans, and progress.

        ``context`` is a propagated :class:`TraceContext` from another
        process; the observer's tracer parents its root spans under it.
        """
        return cls(
            metrics=MetricsRegistry(),
            tracer=Tracer(context=context),
            progress=ProgressReporter(label=label, sink=progress_sink),
        )

    @classmethod
    def null(cls) -> "Observer":
        """The shared inert observer."""
        return NULL_OBSERVER

    @property
    def enabled(self) -> bool:
        """Whether this observer records anything."""
        return self.metrics.enabled or self.tracer.enabled

    def span(self, name: str, **attrs: object):
        """Open a span on the observer's tracer (see :class:`Tracer`)."""
        return self.tracer.span(name, **attrs)


#: Shared inert observer used wherever no observer was supplied.
NULL_OBSERVER = Observer()


# ----------------------------------------------------------------------
# logging
# ----------------------------------------------------------------------

_LOG_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"
_configured_handler: logging.Handler | None = None


def get_logger(name: str) -> logging.Logger:
    """A logger in the ``repro.*`` namespace."""
    if name == "repro" or name.startswith("repro."):
        return logging.getLogger(name)
    return logging.getLogger(f"repro.{name}")


def configure_logging(verbosity: int = 0, stream=None) -> logging.Logger:
    """Configure the ``repro`` logger tree from a ``-v`` count.

    ``0`` → WARNING, ``1`` → INFO, ``2+`` → DEBUG.  Idempotent: repeated
    calls adjust the level instead of stacking handlers.  Returns the
    root ``repro`` logger.
    """
    global _configured_handler
    level = (
        logging.WARNING
        if verbosity <= 0
        else logging.INFO
        if verbosity == 1
        else logging.DEBUG
    )
    root = logging.getLogger("repro")
    if (
        _configured_handler is None
        or _configured_handler not in root.handlers
        or (stream is not None and getattr(_configured_handler, "stream", None) is not stream)
    ):
        # Replace rather than re-stream: setStream() flushes the old
        # stream, which raises if the caller has since closed it.
        if _configured_handler is not None and _configured_handler in root.handlers:
            root.removeHandler(_configured_handler)
        handler = logging.StreamHandler(stream or sys.stderr)
        handler.setFormatter(logging.Formatter(_LOG_FORMAT))
        root.addHandler(handler)
        _configured_handler = handler
    root.setLevel(level)
    return root


# ----------------------------------------------------------------------
# standard metric families
# ----------------------------------------------------------------------

#: Well-known counters pre-declared at 0 so exported metrics files have
#: a stable shape even when a run never touches a subsystem.
STANDARD_COUNTERS: tuple[tuple[str, dict[str, str]], ...] = (
    ("executor.programs", {}),
    ("executor.commands", {"opcode": "act"}),
    ("executor.commands", {"opcode": "pre"}),
    ("executor.commands", {"opcode": "wait"}),
    ("executor.commands", {"opcode": "fill"}),
    ("executor.commands", {"opcode": "read"}),
    ("executor.loop_iterations", {}),
    ("executor.timing_violations", {}),
    ("memctrl.requests_served", {}),
    ("memctrl.row_hits", {}),
    ("memctrl.row_misses", {}),
    ("memctrl.row_conflicts", {}),
    ("memctrl.activations", {}),
    ("memctrl.refresh_commands", {}),
    ("memctrl.preventive_refreshes", {}),
    ("campaign.experiments", {}),
    ("campaign.bitflips", {}),
    ("engine.shards", {}),
    ("engine.shards_resumed", {}),
    ("engine.retries", {}),
    ("engine.shard_failures", {}),
    ("service.requests", {}),
    ("service.connections", {}),
    ("service.cache_hits", {}),
    ("service.jobs_submitted", {}),
    ("service.jobs_completed", {}),
    ("service.jobs_failed", {}),
    ("service.jobs_interrupted", {}),
    ("service.rate_limited", {}),
    ("service.backpressure", {}),
)


def declare_standard_metrics(registry: MetricsRegistry) -> None:
    """Pre-create the well-known counter families (at value 0)."""
    for name, labels in STANDARD_COUNTERS:
        registry.counter(name, **labels)
