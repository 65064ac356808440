"""Benchmark runner: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload acmin-study --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` first runs
the same workload untraced in a child process (for ``trace.overhead``),
then runs it again with spans recorded around every layer call and
prints the per-layer metrics.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the full record of
the run (raw and normalized values, the drift audit trail, the records
digest and, when traced, the layer counts) goes to ``perfbench/out/``,
next to a gzipped file of every span when traced.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import layers  # noqa: E402  (sibling modules; this directory is sys.path[0])
import refkernel  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("acmin-study", "ber-survey", "service-fleet")

#: Set-up samples per run (the main process plus probe processes).
SETUP_SAMPLES = 5


class Run:
    """State of one benchmark run, shared with the workload code."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.clock = refkernel.DriftClock()
        self.recorder = tracing.SpanRecorder() if trace else None
        self.tmp_dir = OUT / "tmp"
        self.tmp_dir.mkdir(parents=True, exist_ok=True)
        self.ops: list[tuple[float, float, int]] = []
        self.samples: dict[str, list[tuple[float, float]]] = {}
        self.setup_raw: list[float] = []
        self.setup_norm: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.window: tuple[float, float] | None = None
        self.peak_rss_mb = 0.0
        self.records = 0
        self.digest = ""
        self.child_spans: list[list[list]] = []
        self.extra: dict = {}
        self.here = HERE
        self.root = ROOT

    @staticmethod
    def child_env() -> dict[str, str]:
        """Environment of every process the benchmark starts."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        return env

    # -- set-up --------------------------------------------------------

    def setup(self, function):
        """Time ``function(seed, seconds)``: imports plus construction.

        A traced run installs its wrappers right after, so set-up
        itself is never traced.
        """
        self.clock.take()
        start = time.perf_counter()
        result = function(self.seed, self.seconds)
        end = time.perf_counter()
        self.clock.take()
        self.add_setup(end - start, self.clock.normalize(start, end))
        if self.recorder is not None:
            tracing.install(self.recorder)
        return result

    def add_setup(self, raw_s: float, normalized_s: float) -> None:
        self.setup_raw.append(raw_s)
        self.setup_norm.append(normalized_s)

    # -- the timed region ----------------------------------------------

    def begin(self) -> None:
        self.clock.take()
        self.window = (time.perf_counter(), 0.0)

    def op(self, start: float, end: float, records: int) -> None:
        """One completed timed operation and the records it produced."""
        self.attempted += 1
        self.ops.append((start, end, records))

    def sample(self, kind: str, start: float, end: float) -> None:
        """One latency sample (``job``/``query``); not an operation."""
        self.samples.setdefault(kind, []).append((start, end))

    def fail(self, message: str) -> None:
        """A failed operation; after :meth:`end`, a failed output check."""
        if self.window is None or self.window[1] == 0.0:
            self.attempted += 1
        self.failures.append(message)
        print(f"perfbench: FAILED: {message}", file=sys.stderr)

    def end(self, peak_rss_mb: float) -> None:
        self.window = (self.window[0], time.perf_counter())
        self.clock.take()
        self.peak_rss_mb = peak_rss_mb

    def finish(self, records: int, digest: str) -> None:
        self.records = records
        self.digest = digest

    # -- results -------------------------------------------------------

    def host_s(self) -> float:
        return sum(end - start for start, end, _ in self.ops)

    def end_to_end(self, normalized: bool) -> dict[str, float]:
        measure = self.clock.normalize if normalized else (lambda a, b: b - a)
        records = sum(count for _, _, count in self.ops)
        busy = sum(measure(start, end) for start, end, _ in self.ops)
        setup = self.setup_norm if normalized else self.setup_raw
        out = {
            "records_per_s": records / busy if busy > 0 else 0.0,
            "setup_s": statistics.median(setup) if setup else 0.0,
            "peak_rss_mb": self.peak_rss_mb,
        }
        for kind, scale, unit in (("job", 1.0, "s"), ("query", 1000.0, "ms")):
            values = [measure(a, b) * scale for a, b in self.samples.get(kind, [])]
            if values:
                summary = layers.latency(values)
                out[f"{kind}_latency_p50_{unit}"] = summary["p50"]
                out[f"{kind}_latency_tail_{unit}"] = summary["tail"]
        return out

    def tails(self) -> dict:
        return {
            kind: {
                "percentile": layers.tail_percentile(len(values)),
                "samples": len(values),
            }
            for kind, values in self.samples.items()
        }


UNITS = {
    "records_per_s": "records/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "job_latency_p50_s": "s",
    "job_latency_tail_s": "s",
    "query_latency_p50_ms": "ms",
    "query_latency_tail_ms": "ms",
}


def setup_probes(run: Run) -> None:
    """Repeat the in-process set-up in fresh processes."""
    for _ in range(SETUP_SAMPLES - 1):
        completed = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), run.workload, str(run.seed), str(run.seconds)],
            capture_output=True,
            text=True,
            timeout=120,
            env=Run.child_env(),
            cwd=ROOT,
        )
        if completed.returncode != 0:
            run.fail(f"set-up probe: {completed.stderr.strip()[-300:]}")
            continue
        probe = json.loads(completed.stdout.strip().splitlines()[-1])
        run.add_setup(probe["raw_s"], probe["normalized_s"])


def untraced_companion(args: argparse.Namespace) -> float:
    """records_per_s of an untraced run of the same workload and seed."""
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", "0",
        ],
        capture_output=True,
        text=True,
        timeout=170,
        cwd=ROOT,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"untraced companion run failed: {completed.stderr[-500:]}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    return result["metrics"]["records_per_s"]["value"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    # Keep every temporary file of this run and its children inside the
    # checkout (sqlite spills and Python's tempfile honour these).
    os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = str(OUT / "tmp")

    # One CPU for the benchmark and every process it starts, so the
    # kernel slices measure the speed of the CPU the program runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    untraced_rps = untraced_companion(args) if args.trace else None

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.workload == "service-fleet":
        import fleet

        fleet.run_service_fleet(run)
    else:
        import study

        (study.run_acmin_study if args.workload == "acmin-study" else study.run_ber_survey)(run)
        if not args.trace:
            setup_probes(run)

    window_s = run.window[1] - run.window[0]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "records": run.records,
        "records_digest": run.digest,
        "timed_window_s": window_s,
        "raw": run.end_to_end(normalized=False),
        "normalized": run.end_to_end(normalized=True),
        "tails": run.tails(),
        "setup_samples": {"raw_s": run.setup_raw, "normalized_s": run.setup_norm},
        "ops": [[round(a, 6), round(b, 6), n] for a, b, n in run.ops],
        "latency_samples": {
            kind: [[round(a, 6), round(b, 6)] for a, b in values]
            for kind, values in run.samples.items()
        },
        "drift": run.clock.audit(window_s),
        "failures": run.failures,
        **run.extra,
    }
    if args.trace:
        processes = [run.recorder.spans] + run.child_spans
        metrics = layers.layer_metrics(
            processes,
            run.window,
            run.host_s(),
            run.clock.normalize,
            bulk_ingest=run.extra.get("bulk_ingest_span"),
        )
        traced_rps = record["normalized"]["records_per_s"]
        metrics["trace.overhead"] = 1.0 - traced_rps / untraced_rps if untraced_rps else 0.0
        record["layers"] = metrics
        record["untraced_records_per_s"] = untraced_rps
        record["determinism"] = layers.determinism_counts(processes, run.window)
        units = layers.UNITS
    else:
        metrics = record["normalized"]
        units = UNITS
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        # Every span of every process: [name, start, end, parent, extra].
        with gzip.open(OUT / f"{name}-spans.json.gz", "wt") as spans:
            json.dump(processes, spans)

    failed = min(len(run.failures), run.attempted)
    print(
        json.dumps(
            {
                "correct": not run.failures,
                "attempted": max(run.attempted, 1),
                "failed": failed,
                "metrics": {
                    key: {"value": value, "unit": units[key]} for key, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
