"""Integration: instrumented campaigns, simulator, CLI, atomic saves."""

from __future__ import annotations

import json

from repro.bender.isa import compile_program
from repro.characterization.campaign import (
    CampaignSpec,
    load_results,
    run_campaign,
    save_results,
)
from repro.cli import main
from repro.obs import Observer
from repro.sim.simulator import Simulator

SPEC = CampaignSpec(
    name="obs-test",
    module_ids=("S3",),
    experiment="acmin",
    t_aggon_values=(36.0, 7800.0),
    sites_per_module=2,
)


def test_instrumented_campaign_emits_metrics_and_spans(tmp_path):
    events = []
    observer = Observer.create(label="obs-test", progress_sink=events.append)
    records = run_campaign(SPEC, observer=observer)
    assert len(records) == 4

    # Executor command counts flowed into the registry.
    metrics = observer.metrics
    assert metrics.value("executor.commands", opcode="act") > 0
    assert metrics.value("executor.commands", opcode="pre") > 0
    assert metrics.value("executor.programs") > 0
    assert metrics.value("campaign.experiments") == 4
    assert metrics.value("acmin.searches") == 4
    assert metrics.value("acmin.probes") >= 4

    # Per-experiment spans nest under the campaign span.
    spans = {span.name: span for span in observer.tracer.finished}
    assert "campaign.run" in spans and "experiment" in spans
    experiments = [s for s in observer.tracer.finished if s.name == "experiment"]
    assert len(experiments) == 4
    modules = [s for s in observer.tracer.finished if s.name == "campaign.module"]
    assert all(e.parent_id == modules[0].span_id for e in experiments)
    searches = [s for s in observer.tracer.finished if s.name == "acmin.search"]
    assert len(searches) == 4
    assert {s.parent_id for s in searches} == {e.span_id for e in experiments}

    # Progress saw every experiment.
    assert events[-1].done == 4 and events[-1].total == 4

    # Both export formats are well-formed files.
    metrics_path = tmp_path / "m.json"
    trace_path = tmp_path / "t.json"
    metrics.write_json(metrics_path)
    observer.tracer.write_chrome_trace(trace_path)
    snapshot = json.loads(metrics_path.read_text())
    assert any(c["name"] == "executor.commands" for c in snapshot["counters"])
    trace = json.loads(trace_path.read_text())
    assert all(event["ph"] == "X" for event in trace["traceEvents"])
    assert any(event["name"] == "experiment" for event in trace["traceEvents"])


def test_campaign_results_unchanged_by_observer(tmp_path):
    baseline = run_campaign(SPEC)
    observed = run_campaign(SPEC, observer=Observer.create())
    assert baseline == observed


def test_executor_command_bookkeeping(s3_bench):
    from repro.characterization.patterns import (
        ExperimentConfig,
        RowSite,
        build_disturb_program,
    )

    program, _ = build_disturb_program(
        RowSite(0, 1, 40), 36.0, 5000, ExperimentConfig()
    )
    result = s3_bench.execute(
        compile_program(program, s3_bench.module.device.timing)
    )
    # The hammer loop issues one ACT + PRE per iteration, warm-up literal
    # and the rest bulk-deposited — bookkeeping must count them all.
    assert result.act_commands >= 5000
    assert result.pre_commands >= 5000
    assert result.loop_iterations >= 5000
    assert result.total_commands == (
        result.act_commands
        + result.pre_commands
        + result.wait_commands
        + result.fill_commands
        + result.read_commands
    )
    assert result.commands_by_opcode["act"] == result.act_commands
    assert result.wall_seconds > 0.0


def test_simulator_flushes_memctrl_metrics():
    observer = Observer.create()
    sim = Simulator(["429.mcf"], requests_per_core=300, observer=observer)
    sim.run()
    metrics = observer.metrics
    served = metrics.value("memctrl.requests_served")
    assert served and served > 0
    hits = metrics.value("memctrl.row_hits") or 0
    misses = metrics.value("memctrl.row_misses") or 0
    conflicts = metrics.value("memctrl.row_conflicts") or 0
    assert hits + misses + conflicts == served
    assert metrics.value("sim.runs") == 1
    assert metrics.value("sim.events") > 0
    span = observer.tracer.finished[-1]
    assert span.name == "sim.run"
    assert span.attrs["requests"] == served


def test_cli_campaign_trace_and_metrics_flags(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(SPEC.to_json())
    out = tmp_path / "out.json"
    trace = tmp_path / "t.json"
    metrics = tmp_path / "m.json"
    assert (
        main(
            [
                "--trace-out",
                str(trace),
                "--metrics-out",
                str(metrics),
                "campaign",
                str(spec_path),
                "--output",
                str(out),
            ]
        )
        == 0
    )
    trace_payload = json.loads(trace.read_text())
    assert any(e["name"] == "campaign.run" for e in trace_payload["traceEvents"])
    metrics_payload = json.loads(metrics.read_text())
    names = {c["name"] for c in metrics_payload["counters"]}
    # The standard families are always present (memctrl at zero here).
    assert {"executor.commands", "memctrl.row_hits", "campaign.experiments"} <= names
    capsys.readouterr()

    # obs-report renders both files.
    assert main(["obs-report", str(metrics)]) == 0
    out_text = capsys.readouterr().out
    assert "executor.commands" in out_text and "Counters" in out_text
    assert main(["obs-report", str(trace)]) == 0
    out_text = capsys.readouterr().out
    assert "campaign.run" in out_text and "total ms" in out_text


def test_cli_campaign_bad_spec_logged_not_raised(tmp_path, caplog):
    missing = main(["campaign", str(tmp_path / "nope.json")])
    assert missing == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{\"name\": \"x\", \"module_ids\": [\"S3\"], \"experiment\": \"bogus\"}")
    with caplog.at_level("ERROR", logger="repro.cli"):
        assert main(["campaign", str(bad)]) == 2
    assert any("invalid campaign spec" in r.message for r in caplog.records)


def test_save_results_atomic(tmp_path):
    records = run_campaign(SPEC)
    path = tmp_path / "results.json"
    path.write_text("stale partial garbage")
    save_results(path, SPEC, records)
    spec, loaded = load_results(path)
    assert spec == SPEC and len(loaded) == len(records)
    assert not path.with_name(path.name + ".tmp").exists()
