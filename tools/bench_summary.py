#!/usr/bin/env python3
"""Summarize perfbench run records into one ``BENCH_<pr>.json`` trajectory point.

Usage, from the repository root, after running ``perfbench/run.py``
(each run writes one record to ``perfbench/out/``)::

    python tools/bench_summary.py --pr N perfbench/out/*.json

Per workload the point holds, over the untraced runs, each end-to-end
metric of ``BENCHMARK.json`` as the median, first and third quartile
(``statistics.quantiles(values, n=4)``, as perfbench/README.md measures
spread) and N of the normalized values the benchmark prints; the failed
operations of every run; the records digest of every seed; and, over
the traced runs, the median of each per-layer metric.  The host's
environment goes in once.  ``"schema"`` tells these points apart from
``tools/bench_trajectory.py``'s, which carry ``"benchmarks"`` instead.

It prints one line, the records rate of every workload with its
quartiles, for changelogs to quote.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "perfbench-summary/1"


def end_to_end_metrics(benchmark: Path = ROOT / "BENCHMARK.json") -> list[str]:
    """The end-to-end metric names the benchmark declares, in its order."""
    return [metric["name"] for metric in json.loads(benchmark.read_text())["end_to_end"]]


def spread(values: list[float]) -> dict:
    """Median, first and third quartile, and N of ``values``."""
    if len(values) > 1:
        first, _, third = statistics.quantiles(values, n=4)
    else:
        first = third = values[0]
    return {"median": statistics.median(values), "q1": first, "q3": third, "n": len(values)}


def summarize(records: list[dict], pr: int, metrics: list[str]) -> dict:
    """The trajectory point of ``records`` (perfbench run records)."""
    workloads: dict[str, dict] = {}
    for name in sorted({record["workload"] for record in records}):
        runs = [record for record in records if record["workload"] == name]
        untraced = [record for record in runs if not record["trace"]]
        traced = [record for record in runs if record["trace"]]
        digests: dict[str, list[str]] = {}
        for record in sorted(runs, key=lambda record: record["seed"]):
            seen = digests.setdefault(str(record["seed"]), [])
            if record["records_digest"] not in seen:
                seen.append(record["records_digest"])
        layer_names = sorted({key for record in traced for key in record.get("layers", {})})
        workloads[name] = {
            "runs": len(untraced),
            "traced_runs": len(traced),
            "seconds": sorted({record["seconds"] for record in runs}),
            "end_to_end": {
                metric: spread([record["normalized"][metric] for record in untraced])
                for metric in metrics
                if untraced and all(metric in record["normalized"] for record in untraced)
            },
            "failed_operations": sum(len(record["failures"]) for record in runs),
            "records_digests": digests,
            "layers": {
                layer: statistics.median(
                    record["layers"][layer] for record in traced if layer in record["layers"]
                )
                for layer in layer_names
            },
        }
    return {
        "schema": SCHEMA,
        "pr": pr,
        "env": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "workloads": workloads,
    }


def summary_line(point: dict) -> str:
    """One line: each workload's records rate, quartiles, N and failures."""
    parts = []
    for name, workload in point["workloads"].items():
        rate = workload["end_to_end"].get("records_per_s")
        if rate is None:
            parts.append(f"{name} untimed")
            continue
        parts.append(
            f"{name} records_per_s {rate['median']:.4g} "
            f"[{rate['q1']:.4g}, {rate['q3']:.4g}] n={rate['n']} "
            f"failed={workload['failed_operations']}"
        )
    return f"BENCH_{point['pr']}: " + "; ".join(parts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--out", help="output path (default: BENCH_<pr>.json at the root)")
    parser.add_argument("records", nargs="+", help="perfbench run records (perfbench/out/*.json)")
    args = parser.parse_args(argv)
    try:
        records = [json.loads(Path(path).read_text()) for path in args.records]
    except (OSError, ValueError) as error:
        print(f"cannot read a run record: {error}", file=sys.stderr)
        return 2
    point = summarize(records, args.pr, end_to_end_metrics())
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(point, indent=1) + "\n")
    print(summary_line(point))
    return 0


if __name__ == "__main__":
    sys.exit(main())
