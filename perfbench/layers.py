"""Percentiles, and per-layer metrics computed from recorded spans.

Definitions (see README.md):

* ``*_share`` is a layer's self time (its spans minus their child spans)
  divided by the timed host time of the run;
* ``*_ms`` values are normalized by the reference kernel
  (:class:`refkernel.DriftClock`);
* counts come from spans that start inside the timed window, so the
  fixture build, set-up and the output checks never count.
"""

from __future__ import annotations

import math

#: Every per-layer metric and its unit, in report order.
UNITS = {
    "dram.rows_sampled": "count",
    "dram.row_hit_ratio": "ratio",
    "dram.sample_ms_per_row": "ms",
    "dram.sample_share": "ratio",
    "dram.device_share": "ratio",
    "bender.executes": "count",
    "bender.sim_activations_per_s": "1/s",
    "bender.execute_share": "ratio",
    "bender.compiles": "count",
    "bender.compile_share": "ratio",
    "characterization.units": "count",
    "characterization.executes_per_unit": "count",
    "characterization.unit_ms_p50": "ms",
    "characterization.unit_ms_tail": "ms",
    "characterization.search_share": "ratio",
    "engine.shards": "count",
    "engine.checkpoint_ms_p50": "ms",
    "engine.self_share": "ratio",
    "fleet.lease_polls": "count",
    "fleet.empty_poll_ratio": "ratio",
    "fleet.lease_rtt_ms_p50": "ms",
    "fleet.complete_rtt_ms_p50": "ms",
    "fleet.idle_wait_ms_p50": "ms",
    "service.requests": "count",
    "service.submit_ms_p50": "ms",
    "service.results_ms_p50": "ms",
    "service.store_put_ms_p50": "ms",
    "service.persist_ms_p50": "ms",
    "warehouse.bulk_ingest_rows_per_s": "rows/s",
    "warehouse.shard_ingest_ms_p50": "ms",
    "warehouse.finalize_ms_p50": "ms",
    "warehouse.query_ms_p50": "ms",
    "warehouse.query_ms_tail": "ms",
    "trace.overhead": "ratio",
}

#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10

_TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(values: list[float], q: float) -> float:
    """Linearly interpolated ``q``-th percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int) -> float:
    """The highest percentile with at least ten samples beyond it."""
    for q in _TAIL_CANDIDATES:
        if count * (100.0 - q) / 100.0 >= TAIL_MIN_BEYOND:
            return q
    return 50.0


def latency(values: list[float]) -> dict:
    """p50 plus the named tail percentile of a latency sample."""
    q = tail_percentile(len(values))
    return {
        "p50": percentile(values, 50.0),
        "tail": percentile(values, q),
        "tail_percentile": q,
        "samples": len(values),
    }


def _self_times(spans: list[list]) -> list[float]:
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] >= 0:
            own[span[3]] -= span[2] - span[1]
    return own


class _Spans:
    """All processes' spans inside the timed window, with self times."""

    def __init__(self, processes: list[list[list]], window: tuple[float, float]):
        self.rows: list[tuple[list, float]] = []
        for spans in processes:
            own = _self_times(spans)
            for span, self_s in zip(spans, own):
                if window[0] <= span[1] <= window[1]:
                    self.rows.append((span, self_s))

    def named(self, *names: str) -> list[list]:
        return [span for span, _ in self.rows if span[0] in names]

    def self_s(self, prefix: str) -> float:
        return sum(s for span, s in self.rows if span[0].startswith(prefix))


def layer_metrics(
    processes: list[list[list]],
    window: tuple[float, float],
    host_s: float,
    normalize,
    bulk_ingest: list | None = None,
) -> dict[str, float]:
    """Every per-layer metric of one traced run.

    ``normalize(start, end)`` turns a host interval into reference
    seconds; ``bulk_ingest`` is the fixture-ingest span (outside the
    timed window) of ``service-fleet``.
    """
    spans = _Spans(processes, window)

    def ms(span: list) -> float:
        return normalize(span[1], span[2]) * 1000.0

    def p50_ms(*names: str) -> float:
        return percentile([ms(span) for span in spans.named(*names)], 50.0)

    def share(prefix: str) -> float:
        return spans.self_s(prefix) / host_s if host_s > 0 else 0.0

    out: dict[str, float] = {}

    rows = spans.named("dram.row")
    misses = [span for span in rows if span[4]]
    out["dram.rows_sampled"] = len(misses)
    out["dram.row_hit_ratio"] = (len(rows) - len(misses)) / len(rows) if rows else 0.0
    out["dram.sample_ms_per_row"] = (
        sum(ms(span) for span in misses) / len(misses) if misses else 0.0
    )
    miss_self = sum(s for span, s in spans.rows if span[0] == "dram.row" and span[4])
    out["dram.sample_share"] = miss_self / host_s if host_s > 0 else 0.0
    out["dram.device_share"] = share("dram.device")

    executes = spans.named("bender.execute")
    execute_s = sum(normalize(span[1], span[2]) for span in executes)
    out["bender.executes"] = len(executes)
    out["bender.sim_activations_per_s"] = (
        sum(span[4] or 0 for span in executes) / execute_s if execute_s > 0 else 0.0
    )
    out["bender.execute_share"] = share("bender.execute")
    out["bender.compiles"] = len(spans.named("bender.compile"))
    out["bender.compile_share"] = share("bender.compile")

    units = spans.named("characterization.unit")
    unit_ms = latency([ms(span) for span in units])
    out["characterization.units"] = len(units)
    out["characterization.executes_per_unit"] = len(executes) / len(units) if units else 0.0
    out["characterization.unit_ms_p50"] = unit_ms["p50"]
    out["characterization.unit_ms_tail"] = unit_ms["tail"]
    out["characterization.search_share"] = share("characterization.")

    out["engine.shards"] = len(spans.named("engine.checkpoint"))
    out["engine.checkpoint_ms_p50"] = p50_ms("engine.checkpoint")
    out["engine.self_share"] = share("engine.")

    polls = spans.named("fleet.lease")
    out["fleet.lease_polls"] = len(polls)
    out["fleet.empty_poll_ratio"] = (
        sum(1 for span in polls if not span[4]) / len(polls) if polls else 0.0
    )
    out["fleet.lease_rtt_ms_p50"] = p50_ms("fleet.lease")
    out["fleet.complete_rtt_ms_p50"] = p50_ms("fleet.complete")
    out["fleet.idle_wait_ms_p50"] = percentile(idle_waits_ms(spans, normalize), 50.0)

    out["service.requests"] = len(
        spans.named("service.submit", "service.events", "service.results", "service.analytics")
    )
    out["service.submit_ms_p50"] = p50_ms("service.submit")
    out["service.results_ms_p50"] = p50_ms("service.results")
    out["service.store_put_ms_p50"] = p50_ms("service.store_put")
    out["service.persist_ms_p50"] = p50_ms("service.persist")

    if bulk_ingest:
        bulk_s = normalize(bulk_ingest[1], bulk_ingest[2])
        out["warehouse.bulk_ingest_rows_per_s"] = (bulk_ingest[4] or 0) / bulk_s
    else:
        out["warehouse.bulk_ingest_rows_per_s"] = 0.0
    out["warehouse.shard_ingest_ms_p50"] = p50_ms("warehouse.shard_ingest")
    out["warehouse.finalize_ms_p50"] = p50_ms("warehouse.finalize")
    queries = latency([ms(span) for span in spans.named("warehouse.query")])
    out["warehouse.query_ms_p50"] = queries["p50"]
    out["warehouse.query_ms_tail"] = queries["tail"]
    return out


def idle_waits_ms(spans: _Spans, normalize) -> list[float]:
    """Per fleet job: from its opening to its first lease grant."""
    opened = {span[4]: span[2] for span in spans.named("fleet.open_job")}
    first_grant: dict[str, float] = {}
    for span in sorted(spans.named("fleet.acquire"), key=lambda s: s[2]):
        for job_id in span[4] or ():
            first_grant.setdefault(job_id, span[2])
    return [
        normalize(opened[job], first_grant[job]) * 1000.0
        for job in opened
        if job in first_grant
    ]


def determinism_counts(processes: list[list[list]], window: tuple[float, float]) -> dict:
    """The layer counts two traced runs of one seed must agree on."""
    spans = _Spans(processes, window)
    return {
        "dram.rows_sampled": sum(1 for span in spans.named("dram.row") if span[4]),
        "bender.executes": len(spans.named("bender.execute")),
        "characterization.units": len(spans.named("characterization.unit")),
        "engine.shards": len(spans.named("engine.checkpoint")),
        "fleet.grants": sum(len(span[4] or ()) for span in spans.named("fleet.acquire")),
        "warehouse.rows_ingested": sum(
            span[4] or 0 for span in spans.named("warehouse.shard_ingest")
        ),
    }


def job_layer_share(
    processes: list[list[list]], client: list[list], jobs: list[tuple[float, float]]
) -> float:
    """Fleet, service and warehouse self time plus the idle wait, per job.

    Returned as a share of the p50 job latency (all raw seconds).  The
    client's wait on the event stream is left out: only the server, the
    worker, and the client's submit and results fetch count.
    """
    prefixes = ("fleet.", "service.", "warehouse.")
    rows: list[tuple[list, float]] = []
    for spans in processes:
        for span, self_s in zip(spans, _self_times(spans)):
            if span[0].startswith(prefixes) and not (
                spans is client and span[0] == "service.events"
            ):
                rows.append((span, self_s))
    per_job = [sum(s for span, s in rows if a <= span[1] <= b) for a, b in jobs]
    window = (jobs[0][0], jobs[-1][1])
    idle_ms = idle_waits_ms(_Spans(processes, window), lambda a, b: b - a)
    latency = percentile([b - a for a, b in jobs], 50.0)
    return (percentile(per_job, 50.0) + percentile(idle_ms, 50.0) / 1000.0) / latency
