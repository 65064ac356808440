"""Performance-trajectory harness: curated benchmarks -> BENCH_<pr>.json.

Run:  python tools/bench_trajectory.py --pr 6                # full run
      python tools/bench_trajectory.py --pr 6 --smoke        # CI-sized run
      python tools/bench_trajectory.py --pr 6 --only campaign_engine

Each invocation times a small, curated set of end-to-end benchmarks
(campaign-engine scaling, a figure-class ACmin sweep, and service
request throughput), writes the results as ``BENCH_<pr>.json`` in the
repository root, and compares them against the previous trajectory
point (the highest-numbered ``BENCH_<n>.json`` with ``n < pr``, or an
explicit ``--baseline``).  A benchmark that got more than
``--threshold`` (default 20%) slower than the baseline fails the run
with exit code 1, so performance regressions surface in review next to
the code that caused them.

Output schema (``schema_version`` 1)::

    {
      "schema_version": 1,
      "pr": 6,                      # trajectory point this file records
      "mode": "full" | "smoke",     # smoke points are never compared
                                    # against full ones (scales differ)
      "repro_version": "...",
      "env": {"python": ..., "platform": ..., "cpu_count": ...},
      "benchmarks": [
        {
          "name": "campaign_engine",
          "wall_s": 1.234,          # what the regression gate compares
          "throughput": 120.5,
          "unit": "records/s",
          "detail": {...},          # benchmark-specific counters
          "profiler_top": [[label, samples], ...]   # hottest leaf frames
        },
        ...
      ]
    }

``--inject-slowdown FACTOR`` multiplies every measured wall time after
the fact; it exists so CI can prove the regression gate actually trips
(a run with ``--inject-slowdown 2.0`` against a fresh baseline must
exit non-zero).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro import __version__, units  # noqa: E402
from repro.characterization.campaign import CampaignSpec  # noqa: E402
from repro.obs import SamplingProfiler, atomic_write_text  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402

SCHEMA_VERSION = 1
DEFAULT_THRESHOLD = 0.20

#: Absolute grace added to every regression limit.  A relative
#: threshold alone is meaningless for sub-millisecond benchmarks (the
#: compiled-ISA path runs in ~100us, where scheduler jitter alone is
#: tens of percent); 5ms is far below any real regression the gate is
#: meant to catch and far above timer noise.
NOISE_FLOOR_S = 0.005
_BASELINE_RE = re.compile(r"^BENCH_(\d+)\.json$")


# ----------------------------------------------------------------------
# benchmarks
# ----------------------------------------------------------------------


def bench_campaign_engine(smoke: bool) -> dict:
    """Sharded campaign engine, single worker, with the profiler attached."""
    from repro.characterization.engine import run_engine

    spec = CampaignSpec(
        name="trajectory-engine",
        module_ids=("S3",) if smoke else ("S0", "S3", "H0"),
        experiment="acmin",
        t_aggon_values=(36.0, 7800.0) if smoke else (36.0, 636.0, 7800.0),
        activation_counts=(1, 100),
        sites_per_module=2 if smoke else 4,
        seed=6,
    )
    profiler = SamplingProfiler(interval_s=0.002)
    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        with profiler:
            result = run_engine(
                spec,
                workers=1,
                shard_size=2,
                checkpoint=Path(tmp) / "trajectory.checkpoint.jsonl",
                resume=False,
            )
        wall_s = time.perf_counter() - start
    records = len(result.records)
    return {
        "name": "campaign_engine",
        "wall_s": wall_s,
        "throughput": records / wall_s if wall_s > 0 else 0.0,
        "unit": "records/s",
        "detail": {"records": records, "shards": result.shards_total},
        "profiler_top": profiler.top_frames(5),
    }


def bench_figure_acmin_sweep(smoke: bool) -> dict:
    """Figure-class workload: ACmin bisection across a t_AggON sweep."""
    from repro.bender import TestingInfrastructure
    from repro.characterization import find_acmin
    from repro.characterization.patterns import RowSite
    from repro.dram import build_module
    from repro.dram.geometry import Geometry

    geometry = Geometry(
        ranks=1, bank_groups=1, banks_per_group=2, rows_per_bank=256, row_bits=65536
    )
    module = build_module("S3", geometry=geometry)
    bench = TestingInfrastructure(module)
    bench.module.device.set_temperature(50.0)
    site = RowSite(0, 1, 100)
    sweep = (
        (36.0, 7800.0)
        if smoke
        else (36.0, 636.0, units.TREFI, 9 * units.TREFI, 30 * units.MS)
    )
    start = time.perf_counter()
    found = 0
    for t_aggon in sweep:
        if find_acmin(bench, site, t_aggon) is not None:
            found += 1
    wall_s = time.perf_counter() - start
    return {
        "name": "figure_acmin_sweep",
        "wall_s": wall_s,
        "throughput": len(sweep) / wall_s if wall_s > 0 else 0.0,
        "unit": "searches/s",
        "detail": {"sweep_points": len(sweep), "acmin_found": found},
        "profiler_top": [],
    }


def bench_isa_compiled(smoke: bool) -> dict:
    """Compiled loop payload vs the same pattern unrolled and interpreted.

    Measures the headline win of the payload ISA: a hammer pattern with
    thousands of activations executes through one loop-summarized
    payload instead of activation-by-activation interpretation.  The
    two paths must agree exactly on activations (and closely on end
    time) or the measurement is meaningless, so both are asserted.
    """
    from repro.bender import compile_program, execute
    from repro.bender.executor import ProgramExecutor
    from repro.bender.program import Act, Loop, Pre, Program, Wait
    from repro.dram import build_module
    from repro.dram.geometry import Geometry, RowAddress

    activations = 400 if smoke else 4000
    geometry = Geometry(
        ranks=1, bank_groups=1, banks_per_group=2, rows_per_bank=256, row_bits=65536
    )
    aggressor = RowAddress(0, 1, 100)
    episode = (Act(aggressor), Wait(636.0), Pre(0, 1), Wait(15.0))
    looped = Program([Loop(activations, episode)])
    unrolled = Program(list(episode) * activations)

    compiled_device = build_module("S3", geometry=geometry).device
    payload = compile_program(looped)
    start = time.perf_counter()
    compiled = execute(payload, compiled_device)
    compiled_wall_s = time.perf_counter() - start

    interpreter_device = build_module("S3", geometry=geometry).device
    start = time.perf_counter()
    interpreted = ProgramExecutor(interpreter_device).interpret(unrolled)
    interpreter_wall_s = time.perf_counter() - start

    assert compiled.activations == interpreted.activations == activations
    assert abs(compiled.end_time - interpreted.end_time) <= 1e-6 * interpreted.end_time
    speedup = interpreter_wall_s / compiled_wall_s if compiled_wall_s > 0 else 0.0
    return {
        "name": "isa_compiled",
        "wall_s": compiled_wall_s,
        "throughput": activations / compiled_wall_s if compiled_wall_s > 0 else 0.0,
        "unit": "activations/s",
        "detail": {
            "activations": activations,
            "interpreter_wall_s": interpreter_wall_s,
            "speedup": speedup,
        },
        "profiler_top": [],
    }


def bench_service_throughput(smoke: bool) -> dict:
    """Request throughput of a live `repro serve` subprocess."""
    requests = 50 if smoke else 300
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = Path(tmp)
        port_file = data_dir / "port.txt"
        environment = dict(os.environ)
        environment["PYTHONPATH"] = str(SRC)
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--data-dir",
                str(data_dir / "state"),
                "--port",
                "0",
                "--port-file",
                str(port_file),
            ],
            env=environment,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 30.0
            while not port_file.exists():
                if process.poll() is not None:
                    raise RuntimeError("service died at startup")
                if time.monotonic() > deadline:
                    raise RuntimeError("service did not write its port file")
                time.sleep(0.02)
            client = ServiceClient(
                f"http://127.0.0.1:{int(port_file.read_text())}",
                client_id="trajectory",
            )
            client.healthz()  # connection warm-up outside the timed region
            start = time.perf_counter()
            for _ in range(requests):
                client.healthz()
            wall_s = time.perf_counter() - start
        finally:
            process.kill()
            process.wait(timeout=10)
    return {
        "name": "service_throughput",
        "wall_s": wall_s,
        "throughput": requests / wall_s if wall_s > 0 else 0.0,
        "unit": "requests/s",
        "detail": {"requests": requests},
        "profiler_top": [],
    }


def bench_fleet(smoke: bool) -> dict:
    """A fleet-backend campaign drained end-to-end by 2 worker processes.

    Times submit -> done on a live ``repro serve --backend fleet``
    subprocess with two ``repro worker`` subprocesses pulling shard
    leases, then diffs the fetched results against a sequential
    in-process ``run_campaign`` — the wall time is only meaningful if
    the distributed path produced byte-identical output.
    """
    from repro.characterization.campaign import dumps_results, run_campaign

    spec = CampaignSpec(
        name="trajectory-fleet",
        module_ids=("S3",) if smoke else ("S3", "H0"),
        experiment="acmin",
        t_aggon_values=(36.0, 7800.0) if smoke else (36.0, 636.0, 7800.0),
        activation_counts=(1, 100),
        sites_per_module=2 if smoke else 4,
        seed=9,
    )
    workers: list[subprocess.Popen] = []
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = Path(tmp)
        port_file = data_dir / "port.txt"
        environment = dict(os.environ)
        environment["PYTHONPATH"] = str(SRC)
        server = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--backend",
                "fleet",
                "--data-dir",
                str(data_dir / "state"),
                "--port",
                "0",
                "--port-file",
                str(port_file),
                "--shard-size",
                "1",
            ],
            env=environment,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 30.0
            while not port_file.exists():
                if server.poll() is not None:
                    raise RuntimeError("fleet server died at startup")
                if time.monotonic() > deadline:
                    raise RuntimeError("fleet server never wrote its port")
                time.sleep(0.02)
            port = int(port_file.read_text())
            workers = [
                subprocess.Popen(
                    [
                        sys.executable,
                        "-m",
                        "repro",
                        "worker",
                        "--server",
                        f"http://127.0.0.1:{port}",
                        "--worker-id",
                        f"trajectory-w{index}",
                        "--poll-s",
                        "0.05",
                    ],
                    env=environment,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                )
                for index in range(2)
            ]
            client = ServiceClient(
                f"http://127.0.0.1:{port}", client_id="trajectory-fleet"
            )
            start = time.perf_counter()
            status = client.submit(spec)
            final = client.wait(status.job_id, timeout_s=600)
            wall_s = time.perf_counter() - start
            if final.state != "done":
                raise RuntimeError(f"fleet job ended {final.state}")
            text = client.fetch_results_text(final.job_id)
        finally:
            for process in workers + [server]:
                process.kill()
            for process in workers + [server]:
                process.wait(timeout=10)
    expected = dumps_results(spec, run_campaign(spec))
    if text != expected:
        raise RuntimeError("fleet results diverged from the local run")
    records = len(spec.module_ids) * spec.sites_per_module * len(
        spec.t_aggon_values
    )
    return {
        "name": "fleet",
        "wall_s": wall_s,
        "throughput": records / wall_s if wall_s > 0 else 0.0,
        "unit": "records/s",
        "detail": {"workers": 2, "records": records, "byte_identical": True},
        "profiler_top": [],
    }


def _synthetic_acmin_payload(records: int) -> dict:
    """A deterministic ~N-record schema-v2 results document.

    Field values are arithmetic functions of the record index (no RNG:
    the fixture must be identical on every run and every machine).
    Sixteen modules/dies so filtered queries touch 1/16 of the rows, a
    ten-point t_AggON sweep, and a ~14% no-bitflip (``None``) fraction.
    """
    sweep = (36.0, 186.0, 636.0, 1536.0, 7800.0, 30_000.0, 70_200.0,
             300_000.0, 6_000_000.0, 30_000_000.0)
    spec = CampaignSpec(
        name="warehouse-bench",
        module_ids=("S3",),
        experiment="acmin",
        t_aggon_values=sweep,
        seed=10,
    )
    rows = []
    for index in range(records):
        rows.append(
            {
                "experiment": "acmin",
                "module_id": f"M{index % 16}",
                "die_key": f"die-{index % 16}",
                "access": "single" if index % 3 else "double",
                "temperature_c": 50.0 if index % 2 else 80.0,
                "t_aggon": sweep[index % len(sweep)],
                "site_row": index % 512,
                "acmin": None if index % 7 == 0 else 40 + (index * 2654435761) % 9973,
            }
        )
    import dataclasses

    return {
        "schema_version": 2,
        "spec": dataclasses.asdict(spec),
        "records": rows,
    }


def bench_warehouse_analytics(smoke: bool) -> dict:
    """Indexed warehouse aggregates vs the JSONL replay they replace.

    Both paths answer the same filtered analytics queries over the same
    ~100k-record fixture; answers are asserted byte-identical, so the
    wall-time ratio is a true like-for-like speedup.  The replay path is
    what the figure benches used to do per query: re-parse the results
    document and fold the raw records.  Three query families are timed
    and gated separately: ``acmin`` per module (a row fold over an index
    scan), ``sweep`` unfiltered and per die, and ``sweep`` per module
    (the last two re-group the per-source group totals stored at
    ingest).  The gate (>= 10x full scale, >= 2x smoke) holds the
    warehouse to its headline claim on each.  ``wall_s`` is the
    ``acmin`` family alone, the work earlier trajectory points timed;
    the ``sweep`` families' times are in ``detail``.
    """
    from repro.warehouse import Warehouse
    from repro.warehouse.analytics import (
        fold_acmin_percentiles,
        fold_sweep_summaries,
    )

    records = 20_000 if smoke else 100_000
    payload = _synthetic_acmin_payload(records)
    text = json.dumps(payload)
    folds = {
        "acmin": fold_acmin_percentiles,
        "sweep": lambda rows: fold_sweep_summaries(rows, "acmin"),
    }
    # (family, report, filters)
    queries = [("acmin", "acmin", {"module_id": f"M{m}"}) for m in range(6)]
    queries += [("sweep", "sweep", {})]
    queries += [("sweep", "sweep", {"die_key": f"die-{die}"}) for die in range(6)]
    queries += [
        ("sweep_module", "sweep", {"module_id": f"M{m}"}) for m in range(6)
    ]
    families = dict.fromkeys(family for family, _, _ in queries)
    warehouse_s = dict.fromkeys(families, 0.0)
    replay_s = dict.fromkeys(families, 0.0)

    with tempfile.TemporaryDirectory() as tmp:
        warehouse = Warehouse(Path(tmp) / "bench.sqlite3")
        try:
            warehouse.ingest_results_text(text, key="bench")  # not timed
            indexed = []
            for family, report, filters in queries:
                start = time.perf_counter()
                indexed.append(warehouse.analytics(report, **filters))
                warehouse_s[family] += time.perf_counter() - start
        finally:
            warehouse.close()

    replayed = []
    for family, report, filters in queries:
        start = time.perf_counter()
        raw = json.loads(text)["records"]  # the replay re-parses per query
        replayed.append(
            folds[report](
                [
                    row
                    for row in raw
                    if all(row[key] == value for key, value in filters.items())
                ]
            )
        )
        replay_s[family] += time.perf_counter() - start

    for (_, report, filters), got, expected in zip(queries, indexed, replayed):
        if json.dumps(got, sort_keys=True) != json.dumps(expected, sort_keys=True):
            raise RuntimeError(
                f"warehouse {report} {filters} diverged from JSONL replay"
            )
    speedups = {
        family: replay_s[family] / warehouse_s[family]
        if warehouse_s[family] > 0
        else 0.0
        for family in families
    }
    floor = 2.0 if smoke else 10.0
    for family, speedup in speedups.items():
        if speedup < floor:
            raise RuntimeError(
                f"warehouse {family} analytics speedup {speedup:.1f}x is below "
                f"the {floor:.0f}x gate (indexed {warehouse_s[family]:.3f}s vs "
                f"replay {replay_s[family]:.3f}s)"
            )
    counts = {
        family: sum(f == family for f, _, _ in queries) for family in families
    }
    detail: dict = {
        "records": records,
        "queries": counts["acmin"],
        "replay_wall_s": replay_s["acmin"],
        "speedup": speedups["acmin"],
    }
    for family in ("sweep", "sweep_module"):
        detail[f"{family}_queries"] = counts[family]
        detail[f"{family}_wall_s"] = warehouse_s[family]
        detail[f"{family}_replay_wall_s"] = replay_s[family]
        detail[f"{family}_speedup"] = speedups[family]
    detail["byte_identical"] = True
    return {
        "name": "warehouse_analytics",
        "wall_s": warehouse_s["acmin"],
        "throughput": (
            counts["acmin"] / warehouse_s["acmin"]
            if warehouse_s["acmin"] > 0
            else 0.0
        ),
        "unit": "queries/s",
        "detail": detail,
        "profiler_top": [],
    }


BENCHMARKS = {
    "campaign_engine": bench_campaign_engine,
    "figure_acmin_sweep": bench_figure_acmin_sweep,
    "isa_compiled": bench_isa_compiled,
    "service_throughput": bench_service_throughput,
    "fleet": bench_fleet,
    "warehouse_analytics": bench_warehouse_analytics,
}


# ----------------------------------------------------------------------
# trajectory comparison
# ----------------------------------------------------------------------


def is_trajectory_point(path: Path) -> bool:
    """Whether ``path`` is one of this harness's points.

    ``tools/bench_summary.py`` writes perfbench summaries under the same
    ``BENCH_<n>.json`` names; they carry ``"schema"``, not
    ``"benchmarks"``, and this harness cannot compare against them.
    """
    try:
        return "benchmarks" in json.loads(path.read_text())
    except (OSError, ValueError):
        return False


def discover_baseline(pr: int) -> Path | None:
    """The highest-numbered trajectory point ``BENCH_<n>.json`` with ``n < pr``, if any."""
    candidates: list[tuple[int, Path]] = []
    for path in ROOT.glob("BENCH_*.json"):
        match = _BASELINE_RE.match(path.name)
        if match and int(match.group(1)) < pr and is_trajectory_point(path):
            candidates.append((int(match.group(1)), path))
    return max(candidates)[1] if candidates else None


def compare(new: dict, old: dict, threshold: float) -> tuple[list[str], list[str]]:
    """Regression messages and informational notes for a trajectory pair."""
    notes: list[str] = []
    if old.get("mode") != new["mode"]:
        notes.append(
            f"baseline mode {old.get('mode')!r} != current {new['mode']!r}; "
            "scales differ, comparison skipped"
        )
        return [], notes
    regressions: list[str] = []
    old_by_name = {entry["name"]: entry for entry in old.get("benchmarks", [])}
    for entry in new["benchmarks"]:
        base = old_by_name.get(entry["name"])
        if base is None:
            notes.append(f"{entry['name']}: no baseline entry (new benchmark)")
            continue
        limit = base["wall_s"] * (1.0 + threshold) + NOISE_FLOOR_S
        if entry["wall_s"] > limit:
            regressions.append(
                f"{entry['name']}: {entry['wall_s']:.3f}s vs baseline "
                f"{base['wall_s']:.3f}s (> {threshold:.0%} slower)"
            )
        else:
            delta = (
                (entry["wall_s"] - base["wall_s"]) / base["wall_s"]
                if base["wall_s"] > 0
                else 0.0
            )
            notes.append(
                f"{entry['name']}: {entry['wall_s']:.3f}s "
                f"({delta:+.1%} vs baseline)"
            )
    return regressions, notes


# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--pr", type=int, required=True, help="trajectory point number to record"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced scale for CI (never compared against full runs)",
    )
    parser.add_argument(
        "--only",
        nargs="+",
        choices=sorted(BENCHMARKS),
        default=None,
        help="run a subset of the benchmarks",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="output path (default: BENCH_<pr>.json in the repo root)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="explicit baseline file (default: auto-discover BENCH_<n>.json)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="relative wall-time slowdown that fails the run (default 0.20)",
    )
    parser.add_argument(
        "--inject-slowdown",
        type=float,
        default=1.0,
        metavar="FACTOR",
        help="multiply measured wall times (self-test hook for the gate)",
    )
    args = parser.parse_args(argv)

    names = args.only or sorted(BENCHMARKS)
    results = []
    for name in names:
        print(f"running {name} ({'smoke' if args.smoke else 'full'})...")
        entry = BENCHMARKS[name](args.smoke)
        if args.inject_slowdown != 1.0:
            entry["wall_s"] *= args.inject_slowdown
            entry["throughput"] /= args.inject_slowdown
        print(
            f"  {entry['wall_s']:.3f}s, "
            f"{entry['throughput']:.1f} {entry['unit']}"
        )
        results.append(entry)

    payload = {
        "schema_version": SCHEMA_VERSION,
        "pr": args.pr,
        "mode": "smoke" if args.smoke else "full",
        "repro_version": __version__,
        "env": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "benchmarks": results,
    }
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.pr}.json"
    atomic_write_text(out, json.dumps(payload, indent=1) + "\n")
    print(f"trajectory written to {out}")

    baseline_path = (
        Path(args.baseline) if args.baseline else discover_baseline(args.pr)
    )
    if baseline_path is None:
        print("no baseline trajectory found; comparison skipped")
        return 0
    try:
        baseline = json.loads(baseline_path.read_text())
    except (OSError, ValueError) as error:
        print(f"cannot read baseline {baseline_path}: {error}", file=sys.stderr)
        return 2
    regressions, notes = compare(payload, baseline, args.threshold)
    print(f"baseline: {baseline_path}")
    for note in notes:
        print(f"  {note}")
    if regressions:
        for regression in regressions:
            print(f"REGRESSION {regression}", file=sys.stderr)
        return 1
    print("no regressions beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
