"""Repository tooling (API doc generator, perf-trajectory harness)."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_trajectory(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_trajectory.py"), *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )


def _gen_api_docs():
    """The API doc tool as a module; tests never rewrite docs/API.md."""
    spec = importlib.util.spec_from_file_location(
        "gen_api_docs", ROOT / "tools" / "gen_api_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gen_api_docs_runs_and_covers_packages():
    output = _gen_api_docs().render()
    for package in ("dram", "bender", "characterization", "system", "sim",
                    "mitigation", "analysis"):
        assert f"## {package}" in output
    assert "DramDevice" in output
    assert "*(undocumented)*" not in output  # full docstring coverage


def test_gen_api_docs_covers_service_package():
    output = (ROOT / "docs" / "API.md").read_text()
    assert "## service" in output
    assert "ServiceClient" in output and "ResultStore" in output


def test_gen_api_docs_check_passes_when_current():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "gen_api_docs.py"), "--check"],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr
    assert "up to date" in result.stdout


def test_gen_api_docs_check_fails_on_stale_docs(tmp_path, monkeypatch, capsys):
    tool = _gen_api_docs()
    stale = tmp_path / "API.md"
    stale.write_text(tool.render() + "\nstale suffix\n")
    monkeypatch.setattr(tool, "OUTPUT", stale)
    assert tool.main(["--check"]) == 1
    assert "stale" in capsys.readouterr().err
    # --check must never rewrite the file.
    assert stale.read_text() == tool.render() + "\nstale suffix\n"


def test_bench_trajectory_smoke_emits_schema_documented_payload(tmp_path):
    out = tmp_path / "BENCH_99.json"
    result = _run_trajectory(
        "--pr", "99", "--smoke", "--only", "figure_acmin_sweep", "--out", str(out)
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    assert payload["pr"] == 99
    assert payload["mode"] == "smoke"
    assert payload["repro_version"]
    assert set(payload["env"]) == {"python", "platform", "cpu_count"}
    (entry,) = payload["benchmarks"]
    assert set(entry) == {
        "name", "wall_s", "throughput", "unit", "detail", "profiler_top"
    }
    assert entry["name"] == "figure_acmin_sweep"
    assert entry["wall_s"] > 0
    assert entry["throughput"] > 0


def test_bench_trajectory_gate_trips_on_injected_slowdown(tmp_path):
    baseline = tmp_path / "base.json"
    assert (
        _run_trajectory(
            "--pr", "98", "--smoke", "--only", "figure_acmin_sweep",
            "--out", str(baseline),
        ).returncode
        == 0
    )
    steady = _run_trajectory(
        "--pr", "99", "--smoke", "--only", "figure_acmin_sweep",
        "--out", str(tmp_path / "steady.json"), "--baseline", str(baseline),
        "--threshold", "2.0",  # generous: only the injected 2x run must trip
    )
    assert steady.returncode == 0, steady.stderr
    assert "no regressions" in steady.stdout
    slowed = _run_trajectory(
        "--pr", "99", "--smoke", "--only", "figure_acmin_sweep",
        "--out", str(tmp_path / "slow.json"), "--baseline", str(baseline),
        "--inject-slowdown", "10.0",
    )
    assert slowed.returncode == 1
    assert "REGRESSION" in slowed.stderr


def test_bench_trajectory_skips_cross_mode_comparison(tmp_path):
    baseline = tmp_path / "full_base.json"
    baseline.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "pr": 5,
                "mode": "full",
                "benchmarks": [{"name": "figure_acmin_sweep", "wall_s": 0.000001}],
            }
        )
    )
    result = _run_trajectory(
        "--pr", "99", "--smoke", "--only", "figure_acmin_sweep",
        "--out", str(tmp_path / "out.json"), "--baseline", str(baseline),
    )
    assert result.returncode == 0, result.stderr
    assert "comparison skipped" in result.stdout


def _trajectory_points() -> list[tuple[int, Path]]:
    """Committed ``tools/bench_trajectory.py`` points, in PR order."""
    return sorted(
        (int(path.stem.split("_")[1]), path)
        for path in ROOT.glob("BENCH_*.json")
        if "benchmarks" in json.loads(path.read_text())
    )


def test_committed_trajectory_point_has_full_coverage():
    payloads = _trajectory_points()
    assert payloads, "expected at least one committed BENCH_<pr>.json"
    latest = json.loads(payloads[-1][1].read_text())
    assert latest["mode"] == "full"
    assert len(latest["benchmarks"]) >= 3
    names = {entry["name"] for entry in latest["benchmarks"]}
    assert names >= {"campaign_engine", "figure_acmin_sweep", "service_throughput"}
