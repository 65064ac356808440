"""Parallel campaign engine: sharding, equivalence, resume, retries."""

import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from repro.characterization.campaign import CampaignSpec, run_campaign
from repro.characterization.engine import (
    CampaignCheckpoint,
    ShardFailure,
    _process_context,
    execute_shard,
    plan_shards,
    run_engine,
)
from repro.obs import Observer, declare_standard_metrics


def small_spec(**kwargs):
    defaults = dict(
        name="engine-unit",
        module_ids=("S3",),
        experiment="acmin",
        t_aggon_values=(36.0, 7800.0),
        activation_counts=(1, 100),
        sites_per_module=3,
        seed=7,
    )
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


# ----------------------------------------------------------------------
# sharding
# ----------------------------------------------------------------------


def test_plan_shards_shape():
    shards = plan_shards(small_spec(), shard_size=2)
    # 1 module x ceil(3/2)=2 site blocks x 2 sweep points
    assert len(shards) == 4
    assert [s.index for s in shards] == [0, 1, 2, 3]
    assert {s.module_id for s in shards} == {"S3"}
    assert shards[0].site_indices == (0, 1)
    assert shards[2].site_indices == (2,)
    assert len({s.shard_id for s in shards}) == len(shards)


def test_plan_shards_deterministic_seeds():
    a = plan_shards(small_spec(), shard_size=2)
    b = plan_shards(small_spec(), shard_size=2)
    assert a == b
    # Seeds differ across shards but are stable for the same coordinates.
    assert len({s.seed for s in a}) == len(a)


def test_plan_shards_rejects_bad_size():
    with pytest.raises(ValueError):
        plan_shards(small_spec(), shard_size=0)


def test_run_engine_rejects_bad_workers():
    with pytest.raises(ValueError):
        run_engine(small_spec(), workers=0)


def test_run_engine_does_not_load_the_service_stack():
    """The engine's lease table comes without the service, warehouse, or worker."""
    code = (
        "import sys\n"
        "from repro.characterization.campaign import CampaignSpec\n"
        "from repro.characterization.engine import run_engine\n"
        "spec = CampaignSpec(name='imports', module_ids=('S3',),\n"
        "    experiment='acmin', t_aggon_values=(36.0,), sites_per_module=1)\n"
        "assert run_engine(spec).ok\n"
        "print('\\n'.join(sorted(sys.modules)))\n"
    )
    environment = dict(os.environ)
    environment["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    loaded = subprocess.run(
        [sys.executable, "-c", code],
        env=environment,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    ).stdout.split()
    assert "repro.characterization.engine" in loaded
    assert not [
        name
        for name in loaded
        if name.startswith(("repro.service", "repro.warehouse"))
        or name == "repro.fleet.worker"
    ]


# ----------------------------------------------------------------------
# sequential equivalence
# ----------------------------------------------------------------------


def test_inline_engine_matches_sequential():
    spec = small_spec()
    assert run_engine(spec, workers=1, shard_size=2).records == run_campaign(spec)


def test_parallel_engine_matches_sequential():
    spec = small_spec()
    result = run_engine(spec, workers=2, shard_size=1)
    assert result.ok
    assert result.records == run_campaign(spec)


@pytest.mark.parametrize("experiment", ["taggonmin", "ber"])
def test_parallel_equivalence_other_experiments(experiment):
    spec = small_spec(experiment=experiment, sites_per_module=2)
    result = run_engine(spec, workers=2, shard_size=1)
    assert result.ok
    assert result.records == run_campaign(spec)


def test_shard_size_does_not_change_records():
    spec = small_spec()
    baseline = run_engine(spec, workers=1, shard_size=1).records
    assert run_engine(spec, workers=1, shard_size=3).records == baseline


# ----------------------------------------------------------------------
# checkpointing and resume
# ----------------------------------------------------------------------


def test_resume_after_kill_matches_sequential(tmp_path):
    spec = small_spec()
    checkpoint = tmp_path / "campaign.checkpoint.jsonl"
    first = run_engine(spec, workers=1, shard_size=2, checkpoint=checkpoint)
    assert first.ok

    # Simulate a kill mid-campaign: keep the header + the first two
    # completed shard lines, drop the rest.
    lines = checkpoint.read_text().splitlines()
    assert len(lines) == 1 + first.shards_total
    checkpoint.write_text("\n".join(lines[:3]) + "\n")

    resumed = run_engine(
        spec, workers=2, shard_size=2, checkpoint=checkpoint, resume=True
    )
    assert resumed.ok
    assert resumed.shards_resumed == 2
    assert resumed.shards_run == first.shards_total - 2
    assert resumed.records == run_campaign(spec)


def test_resume_with_complete_checkpoint_runs_nothing(tmp_path):
    spec = small_spec()
    checkpoint = tmp_path / "ck.jsonl"
    first = run_engine(spec, workers=1, shard_size=2, checkpoint=checkpoint)
    again = run_engine(
        spec, workers=1, shard_size=2, checkpoint=checkpoint, resume=True
    )
    assert again.shards_resumed == first.shards_total
    assert again.shards_run == 0
    assert again.records == first.records


def test_resume_requires_checkpoint_path():
    with pytest.raises(ValueError):
        run_engine(small_spec(), resume=True)


def test_checkpoint_rejects_spec_mismatch(tmp_path):
    checkpoint = tmp_path / "ck.jsonl"
    run_engine(small_spec(), workers=1, shard_size=2, checkpoint=checkpoint)
    other = small_spec(seed=99)
    with pytest.raises(ValueError, match="different campaign spec"):
        run_engine(other, workers=1, shard_size=2, checkpoint=checkpoint, resume=True)


def test_checkpoint_rejects_shard_size_mismatch(tmp_path):
    spec = small_spec()
    checkpoint = tmp_path / "ck.jsonl"
    run_engine(spec, workers=1, shard_size=2, checkpoint=checkpoint)
    with pytest.raises(ValueError, match="shard_size"):
        run_engine(spec, workers=1, shard_size=3, checkpoint=checkpoint, resume=True)


def test_checkpoint_skips_garbage_lines(tmp_path):
    spec = small_spec()
    checkpoint = tmp_path / "ck.jsonl"
    run_engine(spec, workers=1, shard_size=2, checkpoint=checkpoint)
    with checkpoint.open("a") as handle:
        handle.write("{truncated by a kill -9\n")
    resumed = run_engine(
        spec, workers=1, shard_size=2, checkpoint=checkpoint, resume=True
    )
    assert resumed.ok
    assert resumed.records == run_campaign(spec)


def test_checkpoint_tolerates_truncated_trailing_line(tmp_path):
    """A writer killed mid-append leaves a partial last line: warn, re-run."""
    spec = small_spec()
    checkpoint = tmp_path / "ck.jsonl"
    first = run_engine(spec, workers=1, shard_size=2, checkpoint=checkpoint)
    text = checkpoint.read_text()
    lines = text.splitlines(keepends=True)
    # Chop the final shard line mid-JSON, with no trailing newline.
    truncated = "".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2].rstrip("\n")
    checkpoint.write_text(truncated)
    resumed = run_engine(
        spec, workers=1, shard_size=2, checkpoint=checkpoint, resume=True
    )
    assert resumed.ok
    assert resumed.shards_resumed == first.shards_total - 1
    assert resumed.shards_run == 1  # only the truncated shard re-ran
    assert resumed.records == first.records


def test_checkpoint_load_normalizes_truncated_file(tmp_path):
    spec = small_spec()
    checkpoint = tmp_path / "ck.jsonl"
    run_engine(spec, workers=1, shard_size=2, checkpoint=checkpoint)
    lines = checkpoint.read_text().splitlines(keepends=True)
    checkpoint.write_text("".join(lines[:-1]) + '{"kind": "sha')
    ckpt = CampaignCheckpoint(checkpoint, spec, shard_size=2)
    ckpt.load()
    # After load the file is whole again: every line parses, newline at EOF.
    normalized = checkpoint.read_text()
    assert normalized.endswith("\n")
    for line in normalized.splitlines():
        json.loads(line)


def test_checkpoint_requires_header(tmp_path):
    spec = small_spec()
    checkpoint = tmp_path / "ck.jsonl"
    checkpoint.write_text('{"kind": "shard", "shard_id": "S3/s0-1/p0"}\n')
    ckpt = CampaignCheckpoint(checkpoint, spec, shard_size=2)
    with pytest.raises(ValueError, match="header"):
        ckpt.load()


# ----------------------------------------------------------------------
# retries and failures
# ----------------------------------------------------------------------


def _fail_first_attempt(shard, attempt):
    if shard.sweep_index == 0 and attempt == 0:
        raise RuntimeError("injected transient fault")


def _always_fail_p0(shard, attempt):
    if shard.sweep_index == 0:
        raise RuntimeError("injected permanent fault")


def test_inline_retry_recovers():
    spec = small_spec()
    result = run_engine(
        spec, workers=1, shard_size=2, fault_hook=_fail_first_attempt
    )
    assert result.ok
    assert result.retries == 2  # one retry per sweep-point-0 shard
    assert result.records == run_campaign(spec)


def test_pool_retry_recovers():
    spec = small_spec()
    result = run_engine(
        spec, workers=2, shard_size=2, fault_hook=_fail_first_attempt
    )
    assert result.ok
    assert result.retries == 2
    assert result.records == run_campaign(spec)


def test_permanent_failure_is_structured(tmp_path):
    spec = small_spec()
    checkpoint = tmp_path / "ck.jsonl"
    result = run_engine(
        spec, workers=1, shard_size=2, checkpoint=checkpoint,
        fault_hook=_always_fail_p0, max_retries=1,
    )
    assert not result.ok
    assert len(result.failures) == 2
    failure = result.failures[0]
    assert isinstance(failure, ShardFailure)
    assert failure.attempts == 2  # initial attempt + 1 retry
    assert "injected permanent fault" in failure.error
    # The surviving sweep point's records are still produced.
    assert result.records
    assert all(r.t_aggon == 7800.0 for r in result.records)
    # Failures land in the checkpoint as structured lines...
    kinds = [
        json.loads(line)["kind"]
        for line in checkpoint.read_text().splitlines()
    ]
    assert kinds.count("failure") == 2
    # ...and are NOT treated as completed on resume: the shards re-run
    # (and succeed once the fault is gone).
    healed = run_engine(
        spec, workers=1, shard_size=2, checkpoint=checkpoint, resume=True
    )
    assert healed.ok
    assert healed.shards_resumed == 2
    assert healed.records == run_campaign(spec)


def test_permanent_failure_line_keeps_the_traceback(tmp_path):
    checkpoint = tmp_path / "ck.jsonl"
    result = run_engine(
        small_spec(), workers=1, shard_size=2, checkpoint=checkpoint,
        fault_hook=_always_fail_p0, max_retries=0,
    )
    assert all("injected permanent fault" in f.traceback for f in result.failures)
    lines = [json.loads(line) for line in checkpoint.read_text().splitlines()]
    failures = [line for line in lines if line["kind"] == "failure"]
    assert [line["traceback"] for line in failures] == [
        f.traceback for f in result.failures
    ]


def test_pool_permanent_failure(tmp_path):
    spec = small_spec()
    result = run_engine(
        spec, workers=2, shard_size=2, fault_hook=_always_fail_p0, max_retries=1
    )
    assert not result.ok
    assert len(result.failures) == 2
    assert all(f.attempts == 2 for f in result.failures)


# ----------------------------------------------------------------------
# merged observability
# ----------------------------------------------------------------------


def _active_observer():
    observer = Observer.create(label="test")
    declare_standard_metrics(observer.metrics)
    return observer


def test_inline_engine_observability():
    observer = _active_observer()
    run_engine(small_spec(), workers=1, shard_size=2, observer=observer)
    names = [s.name for s in observer.tracer.finished]
    assert "campaign.run" in names
    assert names.count("campaign.shard") == 4
    metrics = observer.metrics.to_dict()
    counters = {
        (c["name"],): c["value"] for c in metrics["counters"] if not c["labels"]
    }
    assert counters[("engine.shards",)] == 4
    assert counters[("campaign.experiments",)] == 6


def test_pool_engine_merges_worker_observability():
    observer = _active_observer()
    result = run_engine(small_spec(), workers=2, shard_size=2, observer=observer)
    assert result.ok
    spans = {s.span_id: s for s in observer.tracer.finished}
    campaign = next(s for s in spans.values() if s.name == "campaign.run")
    shard_spans = [s for s in spans.values() if s.name == "campaign.shard"]
    # Worker spans were ingested, re-parented under the campaign span,
    # and their ids remapped without collisions.
    assert len(shard_spans) == 4
    assert all(s.parent_id == campaign.span_id for s in shard_spans)
    assert len(spans) == len(observer.tracer.finished)
    experiment_spans = [s for s in spans.values() if s.name == "experiment"]
    assert len(experiment_spans) == 6
    assert all(spans[s.parent_id].name == "campaign.shard" for s in experiment_spans)
    # Worker metrics merged into the parent registry.
    counters = {
        c["name"]: c["value"]
        for c in observer.metrics.to_dict()["counters"]
        if not c["labels"]
    }
    assert counters["campaign.experiments"] == 6
    assert counters["engine.shards"] == 4


# ----------------------------------------------------------------------
# per-thread runner
# ----------------------------------------------------------------------


def test_thread_keeps_only_the_runner_of_its_latest_spec():
    """A long-lived worker frees a spec's runner once it moves on."""
    first = small_spec(name="runner-a", t_aggon_values=(36.0,), sites_per_module=1)
    second = small_spec(name="runner-b", t_aggon_values=(36.0,), sites_per_module=1)
    (first_shard,) = plan_shards(first, shard_size=1)
    (second_shard,) = plan_shards(second, shard_size=1)

    assert execute_shard(first.to_json(), first_shard).ok
    first_runner = weakref.ref(_process_context(first.to_json(), False)[0])
    assert execute_shard(second.to_json(), second_shard).ok
    second_runner, _ = _process_context(second.to_json(), False)
    gc.collect()
    assert first_runner() is None
    # Shards of one spec still share its runner.
    assert execute_shard(second.to_json(), second_shard).ok
    assert _process_context(second.to_json(), False)[0] is second_runner
