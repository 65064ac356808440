"""The ``service-fleet`` workload: a live fleet server, one worker, one client.

Before the server starts, the warehouse is filled with a synthetic
fixture through ``Warehouse.ingest_results_text``.  Then ``repro serve
--backend fleet`` and one ``repro worker`` run as subprocesses with CLI
defaults, and one client with one thread, one connection at a time,
submits small distinct ACmin jobs, streams each to ``done``, fetches its
results and issues a few analytics queries before the next job.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import folds
import layers

#: Modules the client's jobs rotate through (one per manufacturer plus
#: a second Samsung die); jobs per run are a multiple of its length.
JOB_MODULES = ("S3", "H0", "M4", "S0", "M1")
JOB_TAGGON = (36.0, 7800.0)
#: Cell-population seeds of the jobs come from a fixed pool: a one-site
#: job's cost swings with its sampled cells (a site that never flips
#: takes one probe, one that flips takes a full bisection), so the run
#: seed orders and names the jobs but every run carries the same work.
JOB_SEED_BASE = 9000
#: Jobs per second at the reference speed, including their queries.
JOB_RATE = 1.7
#: ``repro worker``'s default idle poll (``--poll-s``).  After a job's
#: ``done`` event the worker polls once and then every period, so the
#: next job waits for the worker by however the client's gap falls
#: against that period.  The client therefore submits each job at its
#: own think-time offset from the previous ``done`` (modulo one period):
#: a pool job always gets the same offset, and each module's offsets are
#: spread evenly over the period, so every run pairs the same jobs with
#: the same waits instead of aliasing with the host-speed-dependent
#: length of the query phase.
WORKER_POLL_S = 0.25

#: One block of the query mix: the ``sweep`` report (the per-die,
#: per-temperature series the figure benches read) unfiltered five times
#: (the slow mode: a fold over the whole fixture) and filtered by module
#: or die twelve times, and every other report filtered by module and by
#: die (the fast mode: a few thousand rows).  The p50 falls in the middle
#: of the filtered ``sweep`` queries and the p90 in the middle of the
#: unfiltered ones, each at least ten samples from another query kind.
REPORTS = ("acmin", "temperature", "ber", "sweep", "modules")
QUERY_BLOCK = (
    [("sweep", None)] * 5
    + [("sweep", kind) for kind in ("module", "die") for _ in range(6)]
    + [(report, kind) for report in REPORTS if report != "sweep" for kind in ("module", "die")]
)
QUERIES_PER_JOB = 2.5

#: Synthetic fixture size.  48k records make a ~6 MB warehouse, well
#: inside its 16 MiB page cache (100k records would fill 15.8 MB, right
#: at the cache boundary), so queries measure the fold and the index
#: rather than cache misses.  The fixture holds one module of every die
#: revision, so a module filter and a die filter select equal row
#: counts and the filtered queries' cost does not depend on the target.
FIXTURE_ACMIN = 36_000
FIXTURE_BER = 12_000
SETUP_ROUNDS = 5

_SWEEP = (36.0, 186.0, 636.0, 1536.0, 7800.0, 30_000.0, 70_200.0, 300_000.0, 6e6, 3e7)


def jobs_per_run(seconds: float) -> int:
    """A multiple of ten jobs: whole query blocks, whole module turns."""
    return 10 * max(4, round(seconds * JOB_RATE / 10))


def fixture_documents(seed: int) -> list[tuple[str, dict]]:
    """Two schema-v2 results documents of plausible synthetic records."""
    from repro.characterization.campaign import CampaignSpec
    from repro.dram.catalog import MODULE_CATALOG

    rng = random.Random(seed)
    modules = fixture_modules(MODULE_CATALOG)
    acmin = []
    for index in range(FIXTURE_ACMIN):
        module_id, die_key = modules[index % len(modules)]
        t_aggon = _SWEEP[index % len(_SWEEP)]
        base = 12_000.0 / (1.0 + t_aggon / 2_000.0)
        value = int(base * rng.lognormvariate(0.0, 0.4)) + 1
        acmin.append(
            {
                "experiment": "acmin",
                "module_id": module_id,
                "die_key": die_key,
                "access": "double" if index % 3 == 0 else "single",
                "temperature_c": (50.0, 65.0, 80.0)[index % 3],
                "t_aggon": t_aggon,
                "site_row": rng.randrange(2048),
                "acmin": None if rng.random() < 0.08 else value,
            }
        )
    ber = []
    for index in range(FIXTURE_BER):
        module_id, die_key = modules[index % len(modules)]
        bitflips = int(rng.expovariate(1 / 40.0))
        ber.append(
            {
                "experiment": "ber",
                "module_id": module_id,
                "die_key": die_key,
                "access": "single",
                "temperature_c": (50.0, 80.0)[index % 2],
                "t_aggon": (36.0, 7800.0)[index % 2],
                "t_aggoff": 14.5,
                "site_row": rng.randrange(2048),
                "ber": bitflips / 196_608.0,
                "bitflips": bitflips,
                "one_to_zero": bitflips // 2,
            }
        )
    documents = []
    for key, experiment, records in (
        ("fixture-acmin", "acmin", acmin),
        ("fixture-ber", "ber", ber),
    ):
        spec = CampaignSpec(
            name=key,
            module_ids=tuple(sorted({r["module_id"] for r in records})),
            experiment=experiment,
            t_aggon_values=_SWEEP if experiment == "acmin" else (36.0, 7800.0),
            seed=seed,
        )
        documents.append(
            (key, {"schema_version": 2, "spec": dataclasses.asdict(spec), "records": records})
        )
    return documents


def fixture_modules(catalog: dict) -> list[tuple[str, str]]:
    """(module id, die key) of the first catalog module of every die."""
    first: dict[str, str] = {}
    for module_id in sorted(catalog):
        first.setdefault(catalog[module_id].die_key, module_id)
    return sorted((module_id, die_key) for die_key, module_id in first.items())


def module_slots(seed: int, jobs: int) -> list[int]:
    """Per job, its slot in the fixed pool, in a seeded order.

    Job ``i`` runs on module ``i % len(JOB_MODULES)`` and takes one of
    that module's slots (those congruent to it); the slot sets the job's
    cell seed and its think-time offset.
    """
    rng = random.Random(seed)
    modules = len(JOB_MODULES)
    slots = [0] * jobs
    for module in range(modules):
        order = list(range(jobs // modules))
        rng.shuffle(order)
        for turn, rank in enumerate(order):
            slots[turn * modules + module] = rank * modules + module
    return slots


def query_plan(seed: int, jobs: int) -> list[list[tuple[str, dict]]]:
    """Per job, the analytics queries issued after its results."""
    from repro.dram.catalog import MODULE_CATALOG

    rng = random.Random(seed + 1)
    pairs = fixture_modules(MODULE_CATALOG)
    modules = [module_id for module_id, _ in pairs]
    dies = [die_key for _, die_key in pairs]
    rng.shuffle(modules)
    rng.shuffle(dies)
    total = round(jobs * QUERIES_PER_JOB)
    queries: list[tuple[str, dict]] = []
    for block in range(-(-total // len(QUERY_BLOCK))):
        chunk = list(QUERY_BLOCK)
        rng.shuffle(chunk)
        queries.extend(chunk)
    queries = queries[:total]
    plan_queries: list[tuple[str, dict]] = []
    by_module = by_die = 0
    for report, kind in queries:
        if kind == "module":
            filters = {"module_id": modules[by_module % len(modules)]}
            by_module += 1
        elif kind == "die":
            filters = {"die_key": dies[by_die % len(dies)]}
            by_die += 1
        else:
            filters = {}
        plan_queries.append((report, filters))
    return [
        plan_queries[total * index // jobs : total * (index + 1) // jobs]
        for index in range(jobs)
    ]


class _Fleet:
    """One server plus one worker subprocess over a data directory."""

    def __init__(self, run, data: Path, tag: str) -> None:
        self.run = run
        self.data = data
        self.tag = tag
        self.processes: list[tuple[str, subprocess.Popen]] = []
        self.span_files: list[Path] = []
        self.url = ""

    def _spawn(self, role: str, arguments: list[str]) -> subprocess.Popen:
        if self.run.trace:
            spans = self.data / f"spans-{self.tag}-{role}.json"
            self.span_files.append(spans)
            command = [sys.executable, str(self.run.here / "launcher.py"), str(spans), *arguments]
        else:
            command = [sys.executable, "-m", "repro", *arguments]
        log = (self.data / f"{self.tag}-{role}.log").open("w")
        process = subprocess.Popen(
            command,
            cwd=self.run.root,
            env=self.run.child_env(),
            stdout=subprocess.DEVNULL,
            stderr=log,
        )
        log.close()
        self.processes.append((role, process))
        return process

    def start(self) -> tuple[float, float]:
        """Start both and wait until ready; returns (start, ready) times."""
        from repro.service.client import ServiceClient

        port_file = self.data / f"port-{self.tag}"
        start = time.perf_counter()
        server = self._spawn(
            "serve",
            [
                "serve", "--backend", "fleet",
                "--data-dir", str(self.data / "state"),
                "--port", "0",
                "--port-file", str(port_file),
            ],
        )
        deadline = start + 60.0
        while not port_file.exists():
            if server.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError("fleet server did not start")
            time.sleep(0.002)
        self.url = f"http://127.0.0.1:{int(port_file.read_text())}"
        self._spawn("worker", ["worker", "--server", self.url])
        client = ServiceClient(self.url)
        while client.healthz().get("fleet", {}).get("workers_active", 0) < 1:
            if time.perf_counter() > deadline:
                raise RuntimeError("fleet worker never polled")
            time.sleep(0.002)
        return start, time.perf_counter()

    def peak_rss_mb(self) -> float:
        total_kb = 0
        for _, process in self.processes:
            status = Path(f"/proc/{process.pid}/status").read_text()
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> list[list[list]]:
        """SIGTERM the worker, then the server; returns traced spans.

        Safe to call again: processes already stopped are not signalled.
        """
        for role, process in reversed(self.processes):
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
                self.run.fail(f"{role} did not stop on SIGTERM")
        self.processes = []
        spans = []
        for path in self.span_files:
            if path.exists():
                spans.append(json.loads(path.read_text()))
            else:
                self.run.fail(f"no spans written to {path.name}")
        return spans


def run_service_fleet(run) -> None:
    """Fill the fixture, start the fleet, run the client loop, check."""
    from repro.warehouse import Warehouse

    with tempfile.TemporaryDirectory(dir=run.tmp_dir) as tmp:
        data = Path(tmp)
        if run.recorder is not None:
            import tracing

            tracing.install(run.recorder)
        documents = fixture_documents(run.seed)
        (data / "state").mkdir()
        warehouse = Warehouse(data / "state" / "warehouse.sqlite3")
        try:
            for key, document in documents:
                warehouse.ingest_results_text(json.dumps(document), key=key)
        finally:
            warehouse.close()
        if run.recorder is not None:
            run.extra["bulk_ingest_span"] = _bulk_ingest_span(run.recorder.spans)

        for round_index in range(1 if run.trace else SETUP_ROUNDS):
            fleet = _Fleet(run, data, f"r{round_index}")
            run.clock.take()
            try:
                start, ready = fleet.start()
            except BaseException:
                fleet.stop()
                raise
            run.clock.take()
            run.add_setup(ready - start, run.clock.normalize(start, ready))
            if round_index < SETUP_ROUNDS - 1 and not run.trace:
                fleet.stop()
        try:
            texts, answers, specs = _client_loop(run, fleet)
        finally:
            run.child_spans = fleet.stop()
        _check(run, documents, texts, answers, specs)


def _client_loop(run, fleet: _Fleet):
    """The timed closed loop: jobs, each followed by its queries."""
    from repro.characterization.campaign import CampaignSpec
    from repro.service.client import ServiceClient

    jobs = jobs_per_run(run.seconds)
    plan = query_plan(run.seed, jobs)
    slots = module_slots(run.seed, jobs)
    specs = [
        CampaignSpec(
            name=f"service-fleet-{run.seed}-{index}",
            module_ids=(JOB_MODULES[index % len(JOB_MODULES)],),
            experiment="acmin",
            t_aggon_values=JOB_TAGGON,
            sites_per_module=1,
            seed=JOB_SEED_BASE + slot,
        )
        for index, slot in enumerate(slots)
    ]
    client = ServiceClient(fleet.url, client_id="perfbench")
    texts: dict[int, tuple[str, str]] = {}  # job index -> (job id, results)
    answers: list[tuple[int, str, dict, dict]] = []
    run.begin()
    done_s = time.perf_counter()
    for index, spec in enumerate(specs):
        run.clock.maybe_take()
        target = done_s + WORKER_POLL_S * (slots[index] + 0.5) / jobs
        while target < time.perf_counter():
            target += WORKER_POLL_S
        time.sleep(target - time.perf_counter())
        start = time.perf_counter()
        try:
            status = client.submit(spec)
            final = None
            for event in client.stream_events(status.job_id):
                final = event
            done_s = time.perf_counter()
            if final is None or final.get("event") != "done":
                raise RuntimeError(f"job ended with {final}")
            text = client.fetch_results_text(status.job_id)
        except Exception as error:
            run.fail(f"job {index}: {error!r}")
            continue
        end = time.perf_counter()
        run.op(start, end, len(json.loads(text)["records"]))
        run.sample("job", start, end)
        texts[index] = (status.job_id, text)
        for report, filters in plan[index]:
            start = time.perf_counter()
            try:
                answer = client.analytics(report, **filters)
            except Exception as error:
                run.fail(f"query {report} {filters}: {error!r}")
                continue
            end = time.perf_counter()
            run.op(start, end, 0)
            run.sample("query", start, end)
            answers.append((index, report, filters, answer))
    run.end(fleet.peak_rss_mb())
    return texts, answers, specs


def _check(run, documents, texts, answers, specs) -> None:
    """Output checks, outside the timed region, and the records digest."""
    from repro.characterization.campaign import dumps_results
    from repro.characterization.engine import run_engine

    if run.recorder is not None:
        run.extra["job_layer_share"] = layers.job_layer_share(
            [run.recorder.spans] + run.child_spans, run.recorder.spans, run.samples["job"]
        )
    # Jobs: byte-identical to an in-process engine run of the same spec.
    rng = random.Random(run.seed + 3)
    for index in sorted(rng.sample(sorted(texts), min(3, len(texts)))):
        spec = specs[index]
        if texts[index][1] != dumps_results(spec, run_engine(spec).records):
            run.fail(f"job {index} results differ from run_engine")
    # Analytics: equal to the warehouse folds over the rows it held then.
    sources = [(key, document["records"]) for key, document in documents]
    for sample in sorted(rng.sample(range(len(answers)), min(4, len(answers)))):
        index, report, filters, answer = answers[sample]
        visible = sources + [
            (job_id, json.loads(text)["records"])
            for job, (job_id, text) in texts.items()
            if job <= index
        ]
        if not folds.matches(answer, visible, report, filters):
            run.fail(f"query {report} {filters} after job {index} differs from the fold")
    digest = hashlib.sha256()
    for index in sorted(texts):
        digest.update(texts[index][1].encode())
    run.finish(sum(count for _, _, count in run.ops), digest.hexdigest())


def _bulk_ingest_span(spans: list[list]) -> list:
    """One span covering every fixture ``ingest_results_text`` call."""
    ingests = [span for span in spans if span[0] == "warehouse.bulk_ingest"]
    return ["warehouse.bulk_ingest", ingests[0][1], ingests[-1][2], -1,
            sum(span[4] or 0 for span in ingests)]
