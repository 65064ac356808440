"""Determinism self-check: same seed, same counts and records.

Usage (from the repository root)::

    python3 perfbench/selfcheck.py --workload ber-survey --seed 3 --seconds 10

Makes two traced runs with ``--seed`` and one with ``--seed + 1``.  The
two same-seed runs must agree exactly on the layer counts
(``dram.rows_sampled``, ``bender.executes``, ``characterization.units``,
``engine.shards``, fleet grants, warehouse rows ingested) and on the
records digest; the other seed must change the digest.  Prints the
compared values as JSON and exits 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def traced_record(workload: str, seed: int, seconds: float) -> dict:
    """Run one traced run and return its run record."""
    out = HERE / "out"
    pattern = f"{workload}-seed{seed}-trace1-*[0-9].json"
    before = set(out.glob(pattern)) if out.exists() else set()
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "1",
        ],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"traced run failed:\n{completed.stderr[-2000:]}")
    (path,) = set(out.glob(pattern)) - before
    return json.loads(path.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()

    first = traced_record(args.workload, args.seed, args.seconds)
    second = traced_record(args.workload, args.seed, args.seconds)
    other = traced_record(args.workload, args.seed + 1, args.seconds)
    checks = {
        "counts_equal": first["determinism"] == second["determinism"],
        "digest_equal": first["records_digest"] == second["records_digest"],
        "other_seed_changes_digest": first["records_digest"] != other["records_digest"],
        "no_failures": not (first["failures"] or second["failures"] or other["failures"]),
    }
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "counts": [first["determinism"], second["determinism"]],
                "digests": [first["records_digest"], second["records_digest"], other["records_digest"]],
                "checks": checks,
            },
            indent=1,
        )
    )
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
