"""Run ``repro serve`` or ``repro worker`` with the layer wrappers installed.

``python3 perfbench/launcher.py SPANS.json serve|worker ARGS...`` installs
the same wrappers as a traced in-process run, then calls
``repro.cli.main(ARGS)``.  On SIGTERM the server drains through its own
handler and the worker is asked to stop after its current shard; either
way ``main`` returns and every recorded span is written to SPANS.json.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

import tracing


def main() -> int:
    spans_path = Path(sys.argv[1])
    arguments = sys.argv[2:]
    recorder = tracing.SpanRecorder()
    tracing.install(recorder)

    from repro import cli
    from repro.fleet.worker import FleetWorker

    workers: list[FleetWorker] = []
    run = FleetWorker.run

    def tracked_run(self: FleetWorker):
        workers.append(self)
        return run(self)

    FleetWorker.run = tracked_run

    def stop_workers(signum, frame) -> None:
        for worker in workers:
            worker.stop()

    # `repro serve` replaces this with its own drain handler once its
    # event loop starts; `repro worker` has none of its own.
    signal.signal(signal.SIGTERM, stop_workers)
    try:
        return cli.main(arguments)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
