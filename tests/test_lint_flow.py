"""Whole-program flow passes: taint, async-safety, contracts, baseline.

Every ``flow-*`` rule gets a fixture pair — a planted violation that
must be caught with the right call chain, and a clean equivalent that
must pass.  Planted files are injected over the real ``src`` tree via
``load_project(sources=...)`` so cross-file resolution runs against the
actual project (sinks in ``repro.characterization.campaign``, async
roots in ``repro.service``) without touching disk.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.lint.engine as engine
from repro.lint.baseline import (
    BaselineError,
    compare_baseline,
    fingerprint_counts,
    load_baseline,
    write_baseline,
)
from repro.lint.cli import main as reprolint_main
from repro.lint.diagnostics import LintDiagnostic
from repro.lint.engine import SourceLinter
from repro.lint.flow import build_callgraph, load_project, run_flow

SRC = str(Path(__file__).resolve().parent.parent / "src")


def flow(sources=None, rule=None):
    """Run the flow passes over src (+ planted sources); filter by rule."""
    findings = run_flow(load_project([SRC], sources=sources))
    if rule is not None:
        findings = [finding for finding in findings if finding.rule == rule]
    return findings


def planted(name: str, text: str) -> dict[str, str]:
    return {str(Path(SRC) / "repro" / name): text}


# ----------------------------------------------------------------------
# the shipped tree is clean
# ----------------------------------------------------------------------


def test_flow_clean_on_shipped_tree():
    assert flow() == []


# ----------------------------------------------------------------------
# flow-nondeterministic-result
# ----------------------------------------------------------------------

_TAINT_PLANT = """\
from __future__ import annotations

import time

from repro.characterization.campaign import results_payload


def _stamp() -> float:
    return time.time()


def _decorate(records: list) -> dict:
    return {"records": records, "at": _stamp()}


def build(spec, records):
    return results_payload(spec, _decorate(records))
"""


def test_taint_catches_wall_clock_two_calls_below_sink():
    (finding,) = flow(
        sources=planted("_leaky.py", _TAINT_PLANT),
        rule="flow-nondeterministic-result",
    )
    assert finding.path.endswith("_leaky.py")
    assert "results_payload()" in finding.message
    assert "wall-clock" in finding.message
    # The full interprocedural chain, source to sink.
    assert "_decorate" in finding.message
    assert "_stamp" in finding.message
    assert "time.time()" in finding.message
    assert finding.message.index("_decorate") < finding.message.index("_stamp")
    assert finding.message.index("_stamp") < finding.message.index("time.time()")


def test_taint_clean_equivalent_passes():
    clean = _TAINT_PLANT.replace("time.time()", "0.0")
    assert flow(sources=planted("_leaky.py", clean), rule="flow-nondeterministic-result") == []


_CHECKPOINT_PLANT = """\
from __future__ import annotations

import time

from repro.characterization.engine import CampaignCheckpoint


def _stamp() -> float:
    return time.time()


def accept(checkpoint: CampaignCheckpoint, line: dict) -> None:
    checkpoint.record_shard_payload({"line": line, "at": _stamp()})
"""


def test_taint_reaches_the_lease_table_checkpoint_write():
    """The lease table appends every accepted shard via record_shard_payload."""
    (finding,) = flow(
        sources=planted("_leaky_lease.py", _CHECKPOINT_PLANT),
        rule="flow-nondeterministic-result",
    )
    assert finding.path.endswith("_leaky_lease.py")
    assert "record_shard_payload()" in finding.message
    assert "wall-clock" in finding.message
    assert finding.message.index("_stamp") < finding.message.index("time.time()")


def test_checkpoint_write_clean_equivalent_passes():
    clean = _CHECKPOINT_PLANT.replace("time.time()", "0.0")
    assert (
        flow(sources=planted("_leaky_lease.py", clean), rule="flow-nondeterministic-result")
        == []
    )


_SET_ORDER_PLANT = """\
from __future__ import annotations

from repro.characterization.campaign import results_payload


def build(spec, records):
    keys = {record["id"] for record in records}
    order = list(keys)
    return results_payload(spec, {"order": order})
"""


def test_taint_catches_unsorted_set_materialization():
    (finding,) = flow(
        sources=planted("_setleak.py", _SET_ORDER_PLANT),
        rule="flow-nondeterministic-result",
    )
    assert "set-order" in finding.message


def test_taint_sorted_launders_set_order():
    clean = _SET_ORDER_PLANT.replace("list(keys)", "sorted(keys)")
    assert (
        flow(sources=planted("_setleak.py", clean), rule="flow-nondeterministic-result")
        == []
    )


def test_taint_environ_source():
    text = (
        "from __future__ import annotations\n"
        "import os\n"
        "from repro.characterization.campaign import results_payload\n"
        "def build(spec):\n"
        '    return results_payload(spec, {"host": os.environ.get("HOSTNAME")})\n'
    )
    (finding,) = flow(
        sources=planted("_envleak.py", text), rule="flow-nondeterministic-result"
    )
    assert "environ" in finding.message


# ----------------------------------------------------------------------
# flow-blocking-in-async
# ----------------------------------------------------------------------

_ASYNC_PLANT = """\
from __future__ import annotations

import time


def _settle() -> None:
    time.sleep(0.1)


async def handler() -> None:
    _settle()
"""


def test_async_catches_transitive_blocking_call():
    (finding,) = flow(
        sources={str(Path(SRC) / "repro" / "service" / "_planted.py"): _ASYNC_PLANT},
        rule="flow-blocking-in-async",
    )
    assert "handler" in finding.message
    assert "_settle" in finding.message
    assert "time.sleep()" in finding.message
    assert finding.path.endswith("_planted.py")


def test_async_to_thread_hop_is_clean():
    clean = (
        "from __future__ import annotations\n"
        "import asyncio\n"
        "import time\n"
        "def _settle() -> None:\n"
        "    time.sleep(0.1)\n"
        "async def handler() -> None:\n"
        "    await asyncio.to_thread(_settle)\n"
    )
    assert (
        flow(
            sources={str(Path(SRC) / "repro" / "service" / "_planted.py"): clean},
            rule="flow-blocking-in-async",
        )
        == []
    )


def test_async_outside_service_modules_is_not_a_root():
    assert (
        flow(sources=planted("_notservice.py", _ASYNC_PLANT), rule="flow-blocking-in-async")
        == []
    )


# ----------------------------------------------------------------------
# flow-unpicklable-to-pool
# ----------------------------------------------------------------------

_POOL_PLANT = """\
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor


def run(items):
    def work(item):
        return item * 2

    with ProcessPoolExecutor() as pool:
        return [pool.submit(work, item) for item in items]
"""


def test_pool_catches_nested_function_handoff():
    (finding,) = flow(
        sources=planted("_pool.py", _POOL_PLANT), rule="flow-unpicklable-to-pool"
    )
    assert "work" in finding.message and "pickled" in finding.message


def test_pool_catches_lambda_handoff():
    text = _POOL_PLANT.replace("work, item", "lambda: item")
    (finding,) = flow(
        sources=planted("_pool.py", text), rule="flow-unpicklable-to-pool"
    )
    assert "lambda" in finding.message


def test_pool_module_level_function_is_clean():
    text = (
        "from __future__ import annotations\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "def work(item):\n"
        "    return item * 2\n"
        "def run(items):\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        return [pool.submit(work, item) for item in items]\n"
    )
    assert flow(sources=planted("_pool.py", text), rule="flow-unpicklable-to-pool") == []


# ----------------------------------------------------------------------
# flow-route-mismatch
# ----------------------------------------------------------------------


def test_route_mismatch_fires_in_both_directions():
    client_path = str(Path(SRC) / "repro" / "service" / "client.py")
    text = Path(client_path).read_text().replace(
        '"GET", "/v1/campaigns"', '"GET", "/v1/jobs"'
    )
    findings = flow(sources={client_path: text}, rule="flow-route-mismatch")
    messages = sorted(finding.message for finding in findings)
    assert len(findings) == 2
    assert any("GET /v1/jobs" in message for message in messages)
    assert any("never requested" in message for message in messages)


def test_documented_commands_fold_continuations_and_filter_prefixes():
    from repro.lint.flow.contracts import _documented_commands

    text = (
        "Run it like so:\n"
        "    $ repro campaign --output out.json \\\n"
        "        --workers 4\n"
        "    $ cargo build --release\n"
    )
    commands = _documented_commands(text)
    assert len(commands) == 1
    line, command = commands[0]
    assert line == 2
    assert "--output" in command and "--workers" in command


def test_defined_flags_expand_boolean_optional_action():
    from repro.lint.flow.contracts import _defined_flags

    tree = engine.parse_module(
        "import argparse\n"
        "parser = argparse.ArgumentParser()\n"
        'parser.add_argument("--shrink", action=argparse.BooleanOptionalAction)\n'
        'parser.add_argument("--seed", type=int)\n'
    )
    assert _defined_flags(tree) == {"--shrink", "--no-shrink", "--seed"}


# ----------------------------------------------------------------------
# suppression semantics on cross-file findings
# ----------------------------------------------------------------------

_INTERMEDIATE = """\
from __future__ import annotations

import time


def stamp() -> float:
    return time.time()
"""

_SINK_MODULE = """\
from __future__ import annotations

from repro._inter import stamp
from repro.characterization.campaign import results_payload


def leak(spec):
    return results_payload(spec, {"at": stamp()})
"""


def _chain_sources(sink_extra: str = "", inter_extra: str = "") -> dict[str, str]:
    return {
        **planted("_inter.py", inter_extra + _INTERMEDIATE),
        **planted("_sinkmod.py", sink_extra + _SINK_MODULE),
    }


def test_cross_file_finding_anchors_at_sink_file():
    (finding,) = flow(sources=_chain_sources(), rule="flow-nondeterministic-result")
    assert finding.path.endswith("_sinkmod.py")


def test_disable_file_at_sink_suppresses_cross_file_finding():
    sources = _chain_sources(sink_extra="# reprolint: disable-file=flow-*\n")
    assert flow(sources=sources, rule="flow-nondeterministic-result") == []


def test_disable_file_at_intermediate_file_does_not_suppress():
    sources = _chain_sources(inter_extra="# reprolint: disable-file=flow-*\n")
    (finding,) = flow(sources=sources, rule="flow-nondeterministic-result")
    assert finding.path.endswith("_sinkmod.py")


# ----------------------------------------------------------------------
# single parse shared between per-file rules and flow passes
# ----------------------------------------------------------------------


def test_combined_run_parses_each_file_exactly_once(tmp_path, monkeypatch):
    package = tmp_path / "repro"
    package.mkdir()
    (package / "alpha.py").write_text(
        "from __future__ import annotations\n\ndef f() -> int:\n    return 1\n"
    )
    (package / "beta.py").write_text(
        "from __future__ import annotations\n\ndef g() -> int:\n    return 2\n"
    )
    calls: list[str] = []
    real = engine.parse_module

    def counting(source, path="<string>"):
        calls.append(path)
        return real(source, path)

    monkeypatch.setattr(engine, "parse_module", counting)
    project = load_project([tmp_path])
    SourceLinter().lint_project(project)
    run_flow(project)
    assert sorted(calls) == sorted(
        [str(package / "alpha.py"), str(package / "beta.py")]
    )


# ----------------------------------------------------------------------
# call-graph sanity
# ----------------------------------------------------------------------


def test_callgraph_resolves_reexport_chain_and_attr_chain():
    chain = (
        "from __future__ import annotations\n"
        "\n"
        "from repro.service.jobs import JobManager\n"
        "\n"
        "\n"
        "class Holder:\n"
        "    def __init__(self, manager: JobManager) -> None:\n"
        "        self.manager = manager\n"
        "\n"
        "    def poke(self) -> None:\n"
        "        self.manager.store.put(None, [])\n"
    )
    project = load_project([SRC], sources=planted("_chain.py", chain))
    graph = build_callgraph(project)
    # self.manager.store.put resolves through two attribute hops.
    callees = {site.callee for site in graph.calls["repro._chain.Holder.poke"]}
    assert "repro.service.store.ResultStore.put" in callees
    # atomic_write_text is re-exported by repro.obs; jobs.py imports it
    # from there but the graph lands on the defining module.
    persist = "repro.service.jobs.JobManager.persist"
    persist_callees = {site.callee for site in graph.calls[persist]}
    assert "repro.obs.metrics.atomic_write_text" in persist_callees


def test_callgraph_executor_dispatch_suppresses_edges():
    project = load_project([SRC])
    graph = build_callgraph(project)
    run_job = "repro.service.jobs.JobSupervisor.run_job"
    loop_side = {
        site.callee for site in graph.calls[run_job] if not site.in_executor
    }
    # run_engine and store.put only ever run via asyncio.to_thread, so
    # neither may appear as a loop-side call edge.
    assert "repro.characterization.engine.run_engine" not in loop_side
    assert "repro.service.store.ResultStore.put" not in loop_side


# ----------------------------------------------------------------------
# baseline
# ----------------------------------------------------------------------


def _diag(path: str, rule: str, line: int = 1) -> LintDiagnostic:
    return LintDiagnostic(rule=rule, message="m", path=path, line=line)


def test_fingerprint_counts_collapse_lines():
    counts = fingerprint_counts(
        [_diag("a.py", "r", 1), _diag("a.py", "r", 9), _diag("b.py", "s", 2)]
    )
    assert counts == {"a.py::r": 2, "b.py::s": 1}


def test_baseline_roundtrip_and_compare(tmp_path):
    findings = [_diag("a.py", "r", 1), _diag("a.py", "r", 9)]
    baseline_file = tmp_path / "baseline.json"
    assert write_baseline(baseline_file, findings) == 2
    baseline = load_baseline(baseline_file)

    # Unchanged findings: clean.
    assert compare_baseline(findings, baseline).ok

    # A new finding (same fingerprint, higher count) fails.
    grown = findings + [_diag("a.py", "r", 20)]
    result = compare_baseline(grown, baseline)
    assert not result.ok and result.new == [("a.py::r", 1)]

    # Fixed findings: ok by default, stale under strict (shrink-only).
    shrunk = findings[:1]
    assert compare_baseline(shrunk, baseline).ok
    strict = compare_baseline(shrunk, baseline, strict=True)
    assert not strict.ok and strict.stale == [("a.py::r", 1)]


def test_baseline_load_rejects_garbage(tmp_path):
    with pytest.raises(BaselineError, match="not found"):
        load_baseline(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(BaselineError, match="not valid JSON"):
        load_baseline(bad)
    bad.write_text(json.dumps({"version": 99, "findings": {}}))
    with pytest.raises(BaselineError, match="unsupported"):
        load_baseline(bad)


def test_shipped_baseline_is_empty_and_current():
    repo_root = Path(SRC).parent
    baseline = load_baseline(repo_root / "lint-baseline.json")
    assert baseline == {}


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------


def _violating_tree(tmp_path: Path) -> Path:
    """A mini project whose own campaign module gives the taint a sink."""
    package = tmp_path / "repro"
    (package / "characterization").mkdir(parents=True)
    (package / "characterization" / "campaign.py").write_text(
        "from __future__ import annotations\n"
        "\n"
        "\n"
        "def results_payload(spec, records) -> dict:\n"
        '    return {"spec": spec, "records": records}\n'
    )
    (package / "leaky.py").write_text(
        "from __future__ import annotations\n"
        "\n"
        "import time\n"
        "\n"
        "from repro.characterization.campaign import results_payload\n"
        "\n"
        "\n"
        "def build(spec):\n"
        '    return results_payload(spec, {"at": time.time()})\n'
    )
    return tmp_path


def test_cli_flow_flag_reports_flow_findings(tmp_path, capsys):
    tree = _violating_tree(tmp_path)
    assert reprolint_main([str(tree), "--flow"]) == 1
    assert "flow-nondeterministic-result" in capsys.readouterr().out


def test_cli_without_flow_misses_cross_file_findings(tmp_path, capsys):
    tree = _violating_tree(tmp_path)
    reprolint_main([str(tree)])
    assert "flow-nondeterministic-result" not in capsys.readouterr().out


def test_cli_flow_on_shipped_tree_is_clean(capsys):
    assert reprolint_main(["--flow", SRC]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_baseline_tolerates_then_ratchets(tmp_path, capsys):
    tree = _violating_tree(tmp_path)
    baseline_file = tmp_path / "baseline.json"
    assert (
        reprolint_main([str(tree), "--flow", "--write-baseline", str(baseline_file)])
        == 0
    )
    capsys.readouterr()

    # Existing findings are grandfathered.
    assert reprolint_main([str(tree), "--flow", "--baseline", str(baseline_file)]) == 0
    assert "baseline: clean" in capsys.readouterr().out

    # A new finding beyond the baseline fails.
    (tree / "repro" / "leaky2.py").write_text(
        "from __future__ import annotations\n"
        "\n"
        "import time\n"
        "\n"
        "from repro.characterization.campaign import results_payload\n"
        "\n"
        "\n"
        "def build(spec):\n"
        '    return results_payload(spec, {"at": time.time()})\n'
    )
    assert reprolint_main([str(tree), "--flow", "--baseline", str(baseline_file)]) == 1
    assert "new finding" in capsys.readouterr().out

    # Fixing everything: ok by default, stale failure under strict.
    (tree / "repro" / "leaky.py").write_text(
        "from __future__ import annotations\n\n\ndef build(spec):\n    return spec\n"
    )
    (tree / "repro" / "leaky2.py").write_text(
        "from __future__ import annotations\n\n\ndef build(spec):\n    return spec\n"
    )
    assert reprolint_main([str(tree), "--flow", "--baseline", str(baseline_file)]) == 0
    capsys.readouterr()
    assert (
        reprolint_main(
            [str(tree), "--flow", "--baseline", str(baseline_file), "--baseline-strict"]
        )
        == 1
    )
    assert "stale entry" in capsys.readouterr().out
