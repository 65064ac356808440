"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``fleet`` — list the calibrated module catalog (Table 1),
* ``acmin`` — ACmin of one module across a t_AggON sweep,
* ``attack`` — run the §6 real-system RowPress attack grid,
* ``campaign`` — run a JSON campaign spec through the sharded engine
  (``--workers N --shard-size K --resume``) and save the records,
* ``serve`` — run the campaign service daemon (job queue + result
  cache + streaming progress; see ``docs/SERVICE.md``),
* ``submit`` — submit a campaign spec to a running service and save
  the results (byte-identical to a local ``campaign`` run),
* ``obs-report`` — summarize (and merge) metrics or trace files from
  prior runs, with p50/p90/p99 latency tables,
* ``lint`` — static analysis: source rules and the program verifier
  (also installed standalone as ``reprolint``).

``repro --version`` prints the package version (single-sourced from
``repro.__version__``; the service advertises the same string).

Observability flags are global and go before the subcommand:
``repro [-v] [--trace-out FILE] [--metrics-out FILE] <command> ...``
works identically for every subcommand.  ``--trace-out`` writes Chrome
trace-event JSON (loadable in ``chrome://tracing``), ``--metrics-out``
a counter/gauge/histogram snapshot, and ``-v`` raises log verbosity
(``-vv`` for debug) and surfaces campaign progress lines.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro import __version__, units
from repro.analysis.tables import format_table
from repro.lint.cli import configure_parser as configure_lint_parser
from repro.lint.cli import run_lint
from repro.obs import Observer, configure_logging, declare_standard_metrics, get_logger

logger = get_logger("cli")


def _build_observer(args: argparse.Namespace) -> Observer | None:
    """An active observer when any observability output was requested."""
    if not (args.trace_out or args.metrics_out or args.verbose):
        return None
    observer = Observer.create(label=args.command or "run")
    declare_standard_metrics(observer.metrics)
    return observer


def _export_observability(args: argparse.Namespace, observer: Observer | None) -> None:
    """Write the trace/metrics files the flags asked for."""
    if observer is None:
        return
    if args.trace_out:
        observer.tracer.write_chrome_trace(args.trace_out)
        logger.info("trace written to %s", args.trace_out)
    if args.metrics_out:
        observer.metrics.write_json(args.metrics_out)
        logger.info("metrics written to %s", args.metrics_out)


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.dram.catalog import DIE_CALIBRATIONS, MODULE_CATALOG

    rows = []
    for info in sorted(MODULE_CATALOG.values(), key=lambda i: i.module_id):
        calibration = DIE_CALIBRATIONS[info.die_key]
        rows.append(
            [
                info.module_id,
                info.manufacturer,
                info.die_key,
                info.organization,
                info.num_chips,
                f"{calibration.hammer_acmin_mean:,.0f}",
                f"{calibration.press_taggonmin_mean_ms:.1f}ms"
                if calibration.press_taggonmin_mean_ms
                else "none@50C",
            ]
        )
    print(
        format_table(
            ["id", "mfr", "die", "org", "chips", "hammer ACmin", "press tAggONmin"],
            rows,
            "Module catalog (Table 1 fleet)",
        )
    )
    return 0


def _cmd_acmin(args: argparse.Namespace) -> int:
    from repro.bender import TestingInfrastructure
    from repro.characterization import find_acmin
    from repro.characterization.patterns import RowSite
    from repro.dram import build_module
    from repro.dram.geometry import Geometry

    observer = args.observer
    geometry = Geometry(
        ranks=1, bank_groups=1, banks_per_group=2, rows_per_bank=256, row_bits=65536
    )
    try:
        module = build_module(args.module, geometry=geometry)
    except KeyError:
        logger.error("unknown module id %r (see `repro fleet`)", args.module)
        return 2
    bench = TestingInfrastructure(module, observer=observer)
    bench.module.device.set_temperature(args.temperature)
    site = RowSite(0, 1, args.row)
    rows = []
    for t_aggon in (36.0, 636.0, units.TREFI, 9 * units.TREFI, 30 * units.MS):
        acmin = find_acmin(bench, site, t_aggon, observer=observer)
        rows.append([units.format_time(t_aggon), f"{acmin:,}" if acmin else "-"])
    print(
        format_table(
            ["t_AggON", "ACmin"],
            rows,
            f"{args.module} row {args.row} @ {args.temperature:.0f}C",
        )
    )
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    from repro.dram.geometry import RowAddress
    from repro.system import AttackParameters, build_demo_system, run_rowpress_attack

    observer = args.observer
    system = build_demo_system(rows_per_bank=4096)
    victims = [RowAddress(0, 1, 16 + 8 * i) for i in range(args.victims)]
    rows = []
    for acts in (1, 2, 3, 4):
        for reads in (1, 32, 64):
            params = AttackParameters(
                num_reads=reads, num_aggr_acts=acts, num_iterations=args.iterations
            )
            result = run_rowpress_attack(
                system, victims, params, max_windows=2, observer=observer
            )
            rows.append([acts, reads, result.total_bitflips, result.rows_with_bitflips])
    print(
        format_table(
            ["NUM_AGGR_ACTS", "NUM_READS", "bitflips", "rows"],
            rows,
            f"RowPress attack vs {args.victims} victims (TRR on)",
        )
    )
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.characterization.campaign import CampaignSpec, save_results
    from repro.characterization.engine import run_engine

    try:
        spec_text = Path(args.spec).read_text()
    except OSError as error:
        logger.error("cannot read campaign spec %s: %s", args.spec, error)
        return 2
    try:
        spec = CampaignSpec.from_json(spec_text)
    except (ValueError, TypeError, KeyError) as error:
        logger.error("invalid campaign spec %s: %s", args.spec, error)
        return 2
    checkpoint = args.checkpoint or f"{args.output}.checkpoint.jsonl"
    profiler = None
    if args.profile_out:
        from repro.obs import SamplingProfiler

        profiler = SamplingProfiler()
        profiler.start()
    try:
        result = run_engine(
            spec,
            workers=args.workers,
            shard_size=args.shard_size,
            checkpoint=checkpoint,
            resume=args.resume,
            observer=args.observer,
            profiler=profiler,
        )
    except ValueError as error:
        logger.error("cannot run campaign: %s", error)
        return 2
    finally:
        if profiler is not None:
            profiler.stop()
            profiler.write_collapsed(args.profile_out)
            logger.info(
                "profile written to %s (%d samples)",
                args.profile_out,
                profiler.sample_count,
            )
    save_results(args.output, spec, result.records)
    print(f"{len(result.records)} records written to {args.output}")
    print(
        f"shards {result.shards_total - len(result.failures)}/"
        f"{result.shards_total} complete "
        f"({result.shards_resumed} resumed, {result.retries} retried)"
    )
    if result.failures:
        logger.error(
            "%d shard(s) failed permanently; see %s", len(result.failures), checkpoint
        )
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ServiceConfig, serve

    config = ServiceConfig(
        data_dir=args.data_dir,
        host=args.host,
        port=args.port,
        engine_workers=args.workers,
        shard_size=args.shard_size,
        queue_limit=args.queue_limit,
        rate_per_s=args.rate_per_s,
        rate_burst=args.rate_burst,
        backend=args.backend,
        lease_ttl_s=args.lease_ttl_s,
        port_file=args.port_file,
    )
    return serve(config, observer=args.observer)


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.fleet.worker import FleetWorker

    worker = FleetWorker(
        server_url=args.server,
        worker_id=args.worker_id,
        concurrency=args.concurrency,
        poll_s=args.poll_s,
        max_idle_s=args.max_idle_s,
        max_shards=args.max_shards,
    )
    stats = worker.run()
    print(
        f"worker {worker.worker_id}: {stats.shards_executed} shard(s) "
        f"executed, {stats.shards_discarded} discarded, "
        f"{stats.shards_failed} failed"
    )
    return 0 if not stats.errors else 1


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.characterization.campaign import CampaignSpec
    from repro.obs import atomic_write_text
    from repro.service import ServiceClient, ServiceError

    try:
        spec_text = Path(args.spec).read_text()
    except OSError as error:
        logger.error("cannot read campaign spec %s: %s", args.spec, error)
        return 2
    try:
        spec = CampaignSpec.from_json(spec_text)
    except (ValueError, TypeError, KeyError) as error:
        logger.error("invalid campaign spec %s: %s", args.spec, error)
        return 2
    observer = args.observer
    client = ServiceClient(
        args.server,
        client_id=args.client_id,
        tracer=observer.tracer if observer is not None else None,
    )
    try:
        # The open span's context rides every request's X-Repro-Trace
        # header, so the server's spans (and the job's engine trace)
        # nest under this submission in the exported Chrome trace.
        with client.tracer.span(
            "cli.submit", campaign=spec.name, server=args.server
        ):
            submitted = client.submit(spec)
            print(f"job {submitted.job_id}: {submitted.outcome} ({submitted.state})")
            if args.follow and submitted.state not in ("done", "failed"):
                for event in client.stream_events(submitted.job_id):
                    if event.get("event") == "progress":
                        print(
                            f"  progress {event['done']}/{event['total']} "
                            f"({event['flips']} flips)"
                        )
                    elif event.get("event") in ("state", "done", "failed"):
                        print(f"  {event.get('event')}: "
                              f"{event.get('state', event.get('event'))}")
            final = client.wait(submitted.job_id, timeout_s=args.timeout)
            if final.state == "failed":
                logger.error("job %s failed: %s", final.job_id, final.error)
                return 1
            # Verbatim bytes: identical to a local `repro campaign` output.
            atomic_write_text(
                Path(args.output), client.fetch_results_text(final.job_id)
            )
    except ServiceError as error:
        logger.error("service request failed: %s", error)
        return 2
    except TimeoutError as error:
        logger.error("%s", error)
        return 1
    cached = " (served from result cache)" if final.cached else ""
    print(f"{final.records} records written to {args.output}{cached}")
    return 0


def _warehouse_db_path(args: argparse.Namespace) -> Path:
    """Resolve the warehouse file from ``--db`` / ``--data-dir``."""
    if args.db is not None:
        return Path(args.db)
    if args.data_dir is not None:
        return Path(args.data_dir) / "warehouse.sqlite3"
    raise SystemExit("one of --db or --data-dir is required")


def _cmd_warehouse(args: argparse.Namespace) -> int:
    from repro.warehouse import Warehouse, WarehouseError

    db_path = _warehouse_db_path(args)
    try:
        warehouse = Warehouse(db_path)
    except WarehouseError as error:
        if args.action != "rebuild":
            logger.error("%s", error)
            return 2
        # A schema-version mismatch on rebuild: the file is derived
        # state, so drop it and start over.
        Path(db_path).unlink(missing_ok=True)
        warehouse = Warehouse(db_path)
    try:
        if args.action == "rebuild":
            results_dir = (
                Path(args.results_dir)
                if args.results_dir is not None
                else Path(args.data_dir) / "results"
                if args.data_dir is not None
                else None
            )
            if results_dir is None:
                logger.error("rebuild needs --data-dir or --results-dir")
                return 2
            report = warehouse.rebuild_from_store(results_dir)
            print(
                f"rebuilt {db_path}: {report['records']} record(s) from "
                f"{report['sources']} source(s) in {results_dir}"
            )
            return 0
        if args.action == "ingest":
            if args.file is None:
                logger.error("ingest needs a results/checkpoint FILE")
                return 2
            path = Path(args.file)
            key = args.key if args.key is not None else path.stem
            try:
                if args.checkpoint:
                    count = warehouse.ingest_checkpoint_file(
                        path, key=key, finalize=args.finalize
                    )
                else:
                    count = warehouse.ingest_results_text(
                        path.read_text(), key=key
                    )
            except (OSError, ValueError, WarehouseError) as error:
                logger.error("ingest of %s failed: %s", path, error)
                return 1
            print(f"ingested {count} record(s) from {path} as {key!r}")
            return 0
        if args.action == "verify":
            report = warehouse.verify()
            print(json.dumps(report, indent=1))
            return 0 if report["ok"] else 1
        # stats
        print(json.dumps(warehouse.stats(), indent=1))
        return 0
    finally:
        warehouse.close()


def _cmd_analytics(args: argparse.Namespace) -> int:
    from repro.warehouse import REPORTS

    if args.report not in REPORTS:
        logger.error(
            "unknown report %r; known: %s", args.report, sorted(REPORTS)
        )
        return 2
    if args.server is not None:
        from repro.service import ServiceClient, ServiceError

        client = ServiceClient(args.server, client_id=args.client_id)
        try:
            payload = client.analytics(
                args.report,
                experiment=args.experiment,
                module_id=args.module,
                die_key=args.die,
            )
        except ServiceError as error:
            logger.error("analytics request failed: %s", error)
            return 1
    else:
        from repro.warehouse import Warehouse, WarehouseError

        try:
            warehouse = Warehouse(_warehouse_db_path(args))
        except WarehouseError as error:
            logger.error("%s", error)
            return 2
        try:
            payload = warehouse.analytics(
                args.report,
                experiment=args.experiment,
                module_id=args.module,
                die_key=args.die,
            )
        finally:
            warehouse.close()
    text = json.dumps(payload, indent=1)
    if args.output is not None:
        from repro.obs import atomic_write_text

        atomic_write_text(Path(args.output), text + "\n")
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    from repro.bender import compile_program, disassemble
    from repro.bender.builder import (
        double_sided_pattern,
        onoff_pattern,
        single_sided_pattern,
    )
    from repro.dram.geometry import RowAddress
    from repro.dram.timing import DDR4_3200W

    timing = DDR4_3200W
    aggressor = RowAddress(args.rank, args.bank, args.row)
    t_aggoff = args.t_aggoff if args.t_aggoff is not None else timing.tRP
    try:
        if args.pattern == "single":
            program = single_sided_pattern(aggressor, args.t_aggon, args.count, timing)
        elif args.pattern == "double":
            program = double_sided_pattern(
                aggressor, aggressor.neighbor(2), args.t_aggon, args.count, timing
            )
        else:
            program = onoff_pattern(
                [aggressor], args.t_aggon, t_aggoff, args.count, timing
            )
        payload = compile_program(program, timing)
    except ValueError as error:
        logger.error("cannot compile %s pattern: %s", args.pattern, error)
        return 2
    print(disassemble(payload))
    print(
        f"{len(payload)} words, {len(payload.constants)} constants, "
        f"duration {units.format_time(payload.duration_ns)}"
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    return run_lint(args)


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.testkit.cli import run_fuzz  # heavy deps load lazily

    return run_fuzz(args)


# ----------------------------------------------------------------------
# obs-report
# ----------------------------------------------------------------------


def _report_metrics(payload: dict) -> str:
    """Summary tables for a metrics snapshot (see MetricsRegistry)."""
    sections = []
    counters = payload.get("counters", [])
    if counters:
        rows = [
            [
                entry["name"],
                " ".join(f"{k}={v}" for k, v in sorted(entry["labels"].items())) or "-",
                f"{entry['value']:,}",
            ]
            for entry in counters
        ]
        sections.append(format_table(["counter", "labels", "value"], rows, "Counters"))
    gauges = payload.get("gauges", [])
    if gauges:
        rows = [
            [
                entry["name"],
                " ".join(f"{k}={v}" for k, v in sorted(entry["labels"].items())) or "-",
                f"{entry['value']:.4g}",
            ]
            for entry in gauges
        ]
        sections.append(format_table(["gauge", "labels", "value"], rows, "Gauges"))
    histograms = payload.get("histograms", [])
    if histograms:
        rows = [
            [
                entry["name"],
                " ".join(f"{k}={v}" for k, v in sorted(entry.get("labels", {}).items())) or "-",
                entry["count"],
                f"{entry['mean']:.4g}",
                f"{entry['p50']:.4g}",
                f"{entry.get('p90', 0.0):.4g}",
                f"{entry['p99']:.4g}",
                f"{entry['max']:.4g}",
            ]
            for entry in histograms
        ]
        sections.append(
            format_table(
                ["histogram", "labels", "count", "mean", "p50", "p90", "p99", "max"],
                rows,
                "Histograms",
            )
        )
    return "\n\n".join(sections) if sections else "(empty metrics file)"


def _report_trace(payload: dict) -> str:
    """Per-span-name aggregation of a Chrome trace file."""
    totals: dict[str, list[float]] = {}
    for event in payload.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        totals.setdefault(event["name"], []).append(event.get("dur", 0.0))
    rows = []
    for name in sorted(totals, key=lambda n: -sum(totals[n])):
        durs = totals[name]
        rows.append(
            [
                name,
                len(durs),
                f"{sum(durs) / 1e3:.2f}",
                f"{sum(durs) / len(durs) / 1e3:.3f}",
                f"{max(durs) / 1e3:.3f}",
            ]
        )
    if not rows:
        return "(no complete spans in trace file)"
    return format_table(
        ["span", "count", "total ms", "mean ms", "max ms"], rows, "Spans by total time"
    )


def _cmd_obs_report(args: argparse.Namespace) -> int:
    """Summarize one or more metrics snapshots and/or Chrome trace files.

    Multiple metrics files merge into one report (counters add, raw
    histogram values concatenate — the fleet view of a many-process
    run); multiple trace files concatenate their events.
    """
    from repro.obs import MetricsRegistry

    metrics_payloads: list[dict] = []
    trace_payloads: list[dict] = []
    for name in args.files:
        try:
            payload = json.loads(Path(name).read_text())
        except OSError as error:
            logger.error("cannot read %s: %s", name, error)
            return 2
        except json.JSONDecodeError as error:
            logger.error("%s is not valid JSON: %s", name, error)
            return 2
        if isinstance(payload, dict) and "traceEvents" in payload:
            trace_payloads.append(payload)
        elif isinstance(payload, dict) and (
            "counters" in payload or "histograms" in payload or "gauges" in payload
        ):
            metrics_payloads.append(payload)
        else:
            logger.error(
                "%s is neither a metrics snapshot nor a Chrome trace file", name
            )
            return 2
    sections = []
    if metrics_payloads:
        if len(metrics_payloads) == 1:
            merged = metrics_payloads[0]
        else:
            registry = MetricsRegistry()
            for payload in metrics_payloads:
                registry.merge_snapshot(payload)
            merged = registry.to_dict()
        sections.append(_report_metrics(merged))
    if trace_payloads:
        events = [
            event
            for payload in trace_payloads
            for event in payload.get("traceEvents", [])
        ]
        sections.append(_report_trace({"traceEvents": events}))
    print("\n\n".join(sections))
    return 0


# ----------------------------------------------------------------------


def _add_global_obs_flags(parser: argparse.ArgumentParser) -> None:
    """The unified observability flags, attached to the parent parser."""
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="raise log verbosity (-v info, -vv debug)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="write a Chrome trace-event JSON (chrome://tracing)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write a metrics snapshot JSON (see `repro obs-report`)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="RowPress reproduction toolkit"
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {__version__}",
        help="print the package version and exit",
    )
    _add_global_obs_flags(parser)
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("fleet", help="list the module catalog").set_defaults(
        handler=_cmd_fleet
    )

    acmin = commands.add_parser("acmin", help="ACmin sweep for one module")
    acmin.add_argument("module", help="catalog module id, e.g. S3")
    acmin.add_argument("--row", type=int, default=100)
    acmin.add_argument("--temperature", type=float, default=50.0)
    acmin.set_defaults(handler=_cmd_acmin)

    attack = commands.add_parser("attack", help="run the real-system demo")
    attack.add_argument("--victims", type=int, default=100)
    attack.add_argument("--iterations", type=int, default=200_000)
    attack.set_defaults(handler=_cmd_attack)

    campaign = commands.add_parser(
        "campaign", help="run a campaign spec through the sharded engine"
    )
    campaign.add_argument("spec", help="path to a CampaignSpec JSON file")
    campaign.add_argument("--output", default="campaign_results.json")
    campaign.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallel worker processes (1 = in-process, no pool)",
    )
    campaign.add_argument(
        "--shard-size",
        type=int,
        default=4,
        help="row sites per work shard (smaller = finer checkpoints)",
    )
    campaign.add_argument(
        "--resume",
        action="store_true",
        help="skip shards already recorded in the checkpoint file",
    )
    campaign.add_argument(
        "--checkpoint",
        metavar="FILE",
        help="shard checkpoint JSONL (default: <output>.checkpoint.jsonl)",
    )
    campaign.add_argument(
        "--profile-out",
        metavar="FILE",
        default=None,
        help="write a collapsed-stack sampling profile (flamegraph input); "
        "with --workers N the pool workers are sampled too",
    )
    campaign.set_defaults(handler=_cmd_campaign)

    serve_cmd = commands.add_parser(
        "serve", help="run the campaign service daemon"
    )
    serve_cmd.add_argument(
        "--data-dir",
        default="service-data",
        help="state directory: jobs, checkpoints, result store",
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument(
        "--port", type=int, default=8023, help="TCP port (0 = pick a free one)"
    )
    serve_cmd.add_argument(
        "--workers",
        type=int,
        default=1,
        help="engine worker processes per job (1 = in-process)",
    )
    serve_cmd.add_argument(
        "--shard-size",
        type=int,
        default=4,
        help="row sites per work shard (smaller = finer checkpoints)",
    )
    serve_cmd.add_argument(
        "--queue-limit",
        type=int,
        default=16,
        help="max queued jobs before 429 backpressure",
    )
    serve_cmd.add_argument(
        "--rate-per-s",
        type=float,
        default=50.0,
        help="per-client submission token refill rate",
    )
    serve_cmd.add_argument(
        "--rate-burst",
        type=float,
        default=100.0,
        help="per-client submission token bucket size",
    )
    serve_cmd.add_argument(
        "--backend",
        choices=("local", "fleet"),
        default="local",
        help="where jobs execute: this process (local) or leased "
        "shard-by-shard to `repro worker` processes (fleet)",
    )
    serve_cmd.add_argument(
        "--lease-ttl-s",
        type=float,
        default=10.0,
        help="fleet lease TTL: heartbeat within this window or the "
        "shard is reassigned",
    )
    serve_cmd.add_argument(
        "--port-file",
        metavar="FILE",
        default=None,
        help="write the bound port here once listening (for --port 0)",
    )
    serve_cmd.set_defaults(handler=_cmd_serve)

    worker_cmd = commands.add_parser(
        "worker",
        help="run a fleet worker: lease shards from a `repro serve "
        "--backend fleet` server and execute them",
    )
    worker_cmd.add_argument(
        "--server",
        required=True,
        metavar="URL",
        help="service base URL, e.g. http://127.0.0.1:8023",
    )
    worker_cmd.add_argument(
        "--concurrency",
        type=int,
        default=1,
        help="shards executed in parallel, one process each when above 1",
    )
    worker_cmd.add_argument(
        "--worker-id",
        default=None,
        help="stable worker identity (default: worker-<host>-<pid>)",
    )
    worker_cmd.add_argument(
        "--poll-s",
        type=float,
        default=0.25,
        help="how long one lease request waits for work on the server",
    )
    worker_cmd.add_argument(
        "--max-idle-s",
        type=float,
        default=None,
        help="exit after this long without holding a shard lease",
    )
    worker_cmd.add_argument(
        "--max-shards",
        type=int,
        default=None,
        help="exit after taking this many shard leases",
    )
    worker_cmd.set_defaults(handler=_cmd_worker)

    submit = commands.add_parser(
        "submit", help="submit a campaign spec to a running service"
    )
    submit.add_argument("spec", help="path to a CampaignSpec JSON file")
    submit.add_argument(
        "--server",
        required=True,
        metavar="URL",
        help="service base URL, e.g. http://127.0.0.1:8023",
    )
    submit.add_argument("--output", default="campaign_results.json")
    submit.add_argument(
        "--client-id",
        default=None,
        help="rate-limiting identity (default: the client's IP)",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="give up waiting for the job after this many seconds",
    )
    submit.add_argument(
        "--follow",
        action="store_true",
        help="print the job's progress events while waiting",
    )
    submit.set_defaults(handler=_cmd_submit)

    warehouse_cmd = commands.add_parser(
        "warehouse",
        help="maintain the columnar result warehouse (derived SQLite index)",
        description=(
            "The warehouse indexes schema-v2 results for aggregate "
            "queries (see docs/WAREHOUSE.md).  It is derived state: "
            "'rebuild' drops everything and re-ingests the JSONL "
            "results store, converging after any crash or version "
            "bump; 'verify' reports torn ingests; 'ingest' backfills "
            "one results file or streams an engine checkpoint."
        ),
    )
    warehouse_cmd.add_argument(
        "action",
        choices=("rebuild", "ingest", "verify", "stats"),
        help="maintenance action",
    )
    warehouse_cmd.add_argument(
        "file",
        nargs="?",
        default=None,
        help="results JSON (or checkpoint JSONL with --checkpoint) to ingest",
    )
    warehouse_cmd.add_argument(
        "--db", default=None, help="warehouse file (default: DATA_DIR/warehouse.sqlite3)"
    )
    warehouse_cmd.add_argument(
        "--data-dir", default=None, help="service data directory"
    )
    warehouse_cmd.add_argument(
        "--results-dir",
        default=None,
        help="results store to rebuild from (default: DATA_DIR/results)",
    )
    warehouse_cmd.add_argument(
        "--key", default=None, help="source key for ingest (default: file stem)"
    )
    warehouse_cmd.add_argument(
        "--checkpoint",
        action="store_true",
        help="FILE is an engine checkpoint JSONL (streams shards exactly-once)",
    )
    warehouse_cmd.add_argument(
        "--finalize",
        action="store_true",
        help="mark the source complete after a checkpoint ingest",
    )
    warehouse_cmd.set_defaults(handler=_cmd_warehouse)

    analytics_cmd = commands.add_parser(
        "analytics",
        help="query warehouse aggregates (acmin/temperature/ber/sweep/modules)",
        description=(
            "Run one analytics report against a local warehouse file "
            "(--db/--data-dir) or a running service (--server).  "
            "Reports: acmin (percentiles per die revision), temperature "
            "(per-die deltas), ber (BER curves), sweep (per-die series "
            "over an experiment's sweep axis), modules (per-module "
            "summaries)."
        ),
    )
    analytics_cmd.add_argument(
        "report", help="report name: acmin, temperature, ber, sweep, or modules"
    )
    analytics_cmd.add_argument("--db", default=None, help="warehouse file")
    analytics_cmd.add_argument(
        "--data-dir", default=None, help="service data directory"
    )
    analytics_cmd.add_argument(
        "--server", default=None, help="service URL (query over HTTP instead)"
    )
    analytics_cmd.add_argument(
        "--client-id", default=None, help="rate-limiting identity for --server"
    )
    analytics_cmd.add_argument(
        "--experiment", default=None, help="narrow to one experiment"
    )
    analytics_cmd.add_argument(
        "--module", default=None, help="narrow to one module id"
    )
    analytics_cmd.add_argument(
        "--die", default=None, help="narrow to one die revision key"
    )
    analytics_cmd.add_argument(
        "--output", default=None, help="write the report JSON here"
    )
    analytics_cmd.set_defaults(handler=_cmd_analytics)

    report = commands.add_parser(
        "obs-report", help="summarize (and merge) metrics or trace files"
    )
    report.add_argument(
        "files",
        nargs="+",
        help="metrics JSON and/or Chrome trace JSON files (merged per kind)",
    )
    report.set_defaults(handler=_cmd_obs_report)

    lint = commands.add_parser(
        "lint", help="static analysis: lint source / verify command programs"
    )
    configure_lint_parser(lint)
    lint.set_defaults(handler=_cmd_lint)

    compile_cmd = commands.add_parser(
        "compile",
        help="compile an access pattern to payload ISA words and disassemble",
    )
    compile_cmd.add_argument(
        "pattern",
        choices=("single", "double", "onoff"),
        help="access-pattern builder (Figs. 5, 16, 21)",
    )
    compile_cmd.add_argument(
        "--count", type=int, default=1000, help="aggressor activations"
    )
    compile_cmd.add_argument(
        "--t-aggon", type=float, default=36.0, help="aggressor-row on-time, ns"
    )
    compile_cmd.add_argument(
        "--t-aggoff",
        type=float,
        default=None,
        help="off-time for the onoff pattern, ns (default: tRP)",
    )
    compile_cmd.add_argument("--rank", type=int, default=0)
    compile_cmd.add_argument("--bank", type=int, default=1)
    compile_cmd.add_argument("--row", type=int, default=100)
    compile_cmd.set_defaults(handler=_cmd_compile)

    fuzz = commands.add_parser(
        "fuzz", help="property-fuzz the model against the paper's oracles"
    )
    fuzz.add_argument(
        "target",
        nargs="?",
        default="all",
        help="oracle name, or 'all' (see --list)",
    )
    fuzz.add_argument("--seed", type=int, default=2023, help="root RNG seed")
    fuzz.add_argument(
        "--max-examples",
        type=int,
        default=None,
        help="examples per oracle (default: per-oracle budget)",
    )
    fuzz.add_argument(
        "--shrink",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="minimize failing inputs before reporting (--no-shrink to skip)",
    )
    fuzz.add_argument(
        "--self-check",
        action="store_true",
        help="mutation self-check: each oracle must catch its planted bug",
    )
    fuzz.add_argument(
        "--corpus",
        default=None,
        help="regression-corpus directory to replay and extend",
    )
    fuzz.add_argument(
        "--list", action="store_true", help="list oracles and exit"
    )
    fuzz.set_defaults(handler=_cmd_fuzz)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    configure_logging(args.verbose)
    args.observer = _build_observer(args)
    code = args.handler(args)
    _export_observability(args, args.observer)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
