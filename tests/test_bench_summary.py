"""The perfbench summarizer (tools/bench_summary.py) on synthetic run records."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


summary = _tool("bench_summary")

METRICS = ["records_per_s", "peak_rss_mb"]


def _record(workload: str, seed: int, rate: float, trace: int = 0, **extra) -> dict:
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": 30.0,
        "trace": trace,
        "records_digest": f"digest-{workload}-{seed}",
        "normalized": {"records_per_s": rate, "peak_rss_mb": 60.0 + seed},
        "failures": [],
    }
    record.update(extra)
    return record


def test_end_to_end_metrics_spread_over_untraced_runs():
    records = [_record("acmin-study", seed, rate) for seed, rate in enumerate([4.0, 1.0, 3.0, 2.0, 5.0])]
    records.append(_record("acmin-study", 9, 1000.0, trace=1, layers={"dram.rows_sampled": 135}))
    point = summary.summarize(records, 99, METRICS)
    workload = point["workloads"]["acmin-study"]
    assert workload["runs"] == 5 and workload["traced_runs"] == 1
    rate = workload["end_to_end"]["records_per_s"]
    assert rate == {"median": 3.0, "q1": 1.5, "q3": 4.5, "n": 5}  # statistics.quantiles
    assert workload["end_to_end"]["peak_rss_mb"]["median"] == 62.0
    assert workload["layers"] == {"dram.rows_sampled": 135}


def test_failures_digests_layers_and_schema():
    records = [
        _record("ber-survey", 5, 16.0, failures=["boom"]),
        _record("ber-survey", 5, 17.0),
        _record("ber-survey", 6, 18.0, records_digest="other"),
        _record("ber-survey", 5, 9.0, trace=1, layers={"trace.overhead": 0.1, "a": 1.0}),
        _record("ber-survey", 6, 9.0, trace=1, layers={"trace.overhead": 0.3}),
        _record("service-fleet", 11, 16.5),
    ]
    point = summary.summarize(records, 99, METRICS)
    assert point["schema"] == summary.SCHEMA and point["pr"] == 99
    assert set(point["env"]) == {"python", "platform", "cpu_count"}
    assert list(point["workloads"]) == ["ber-survey", "service-fleet"]
    ber = point["workloads"]["ber-survey"]
    assert ber["failed_operations"] == 1
    assert ber["records_digests"] == {"5": ["digest-ber-survey-5"], "6": ["other", "digest-ber-survey-6"]}
    assert ber["layers"] == {"a": 1.0, "trace.overhead": 0.2}
    assert point["workloads"]["service-fleet"]["end_to_end"]["records_per_s"] == {
        "median": 16.5, "q1": 16.5, "q3": 16.5, "n": 1
    }


def test_a_workload_with_only_traced_runs_has_no_end_to_end_metrics():
    point = summary.summarize([_record("acmin-study", 7, 9.0, trace=1, layers={})], 99, METRICS)
    assert point["workloads"]["acmin-study"]["end_to_end"] == {}
    assert summary.summary_line(point) == "BENCH_99: acmin-study untimed"


def test_main_writes_the_point_and_prints_one_line(tmp_path, capsys):
    paths = []
    for seed, rate in ((1, 600.0), (2, 640.0), (3, 620.0)):
        path = tmp_path / f"run{seed}.json"
        path.write_text(json.dumps(_record("acmin-study", seed, rate)))
        paths.append(str(path))
    out = tmp_path / "BENCH_99.json"
    assert summary.main(["--pr", "99", "--out", str(out), *paths]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert line == "BENCH_99: acmin-study records_per_s 620 [600, 640] n=3 failed=0"
    point = json.loads(out.read_text())
    # Every BENCHMARK.json metric the records carry: here two of them.
    assert set(point["workloads"]["acmin-study"]["end_to_end"]) == set(METRICS)
    assert set(METRICS) < set(summary.end_to_end_metrics())


def test_the_old_harness_skips_summary_points(tmp_path, monkeypatch):
    trajectory = _tool("bench_trajectory")
    (tmp_path / "BENCH_5.json").write_text(json.dumps({"schema_version": 1, "benchmarks": []}))
    (tmp_path / "BENCH_7.json").write_text(json.dumps({"schema": summary.SCHEMA, "workloads": {}}))
    monkeypatch.setattr(trajectory, "ROOT", tmp_path)
    assert trajectory.discover_baseline(8) == tmp_path / "BENCH_5.json"
    assert trajectory.discover_baseline(5) is None


def test_the_committed_summary_point_reads_back():
    points = [path for path in ROOT.glob("BENCH_*.json") if "schema" in json.loads(path.read_text())]
    assert points, "expected a committed perfbench summary point"
    for path in points:
        point = json.loads(path.read_text())
        assert point["schema"] == summary.SCHEMA
        assert set(point["workloads"]) == {"acmin-study", "ber-survey", "service-fleet"}
        for workload in point["workloads"].values():
            assert workload["end_to_end"]["records_per_s"]["n"] >= 5
            assert workload["failed_operations"] == 0
