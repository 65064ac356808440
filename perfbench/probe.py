"""One extra set-up sample of an in-process workload, in a fresh process.

``python3 perfbench/probe.py WORKLOAD SEED SECONDS`` times the same
import-plus-construction as the run itself, between two reference-kernel
slices, and prints ``{"raw_s", "normalized_s"}``.  ``run.py`` starts it
several times per run and reports the median set-up time.
"""

from __future__ import annotations

import json
import sys
import time

import refkernel
import study


def main() -> int:
    workload, seed, seconds = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    clock = refkernel.DriftClock()
    clock.take()
    start = time.perf_counter()
    study.SETUPS[workload](seed, seconds)
    end = time.perf_counter()
    clock.take()
    print(json.dumps({"raw_s": end - start, "normalized_s": clock.normalize(start, end)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
