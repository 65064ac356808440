"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def test_fleet_command(capsys):
    assert main(["fleet"]) == 0
    out = capsys.readouterr().out
    assert "S0" in out and "M6" in out and "Table 1" in out


def test_acmin_command(capsys):
    assert main(["acmin", "S3", "--row", "60"]) == 0
    out = capsys.readouterr().out
    assert "7.8us" in out and "36ns" in out


def test_attack_command(capsys):
    assert main(["attack", "--victims", "20", "--iterations", "20000"]) == 0
    out = capsys.readouterr().out
    assert "NUM_READS" in out


def test_campaign_command(tmp_path, capsys):
    spec = {
        "name": "cli-test",
        "module_ids": ["S3"],
        "experiment": "acmin",
        "t_aggon_values": [36.0, 7800.0],
        "sites_per_module": 2,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    output = tmp_path / "out.json"
    assert main(["campaign", str(spec_path), "--output", str(output)]) == 0
    payload = json.loads(output.read_text())
    assert len(payload["records"]) == 4


def test_campaign_command_workers_and_resume(tmp_path, capsys):
    spec = {
        "name": "cli-engine",
        "module_ids": ["S3"],
        "experiment": "acmin",
        "t_aggon_values": [36.0, 7800.0],
        "sites_per_module": 2,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    output = tmp_path / "out.json"
    checkpoint = tmp_path / "ck.jsonl"
    assert (
        main(
            [
                "campaign",
                str(spec_path),
                "--output",
                str(output),
                "--workers",
                "2",
                "--shard-size",
                "1",
                "--checkpoint",
                str(checkpoint),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "4 records written" in out
    assert "shards 4/4 complete" in out
    assert checkpoint.exists()
    # Second run with --resume completes instantly from the checkpoint.
    assert (
        main(
            [
                "campaign",
                str(spec_path),
                "--output",
                str(output),
                "--shard-size",
                "1",
                "--resume",
                "--checkpoint",
                str(checkpoint),
            ]
        )
        == 0
    )
    assert "(4 resumed" in capsys.readouterr().out


def test_campaign_default_checkpoint_path(tmp_path, capsys):
    spec = {
        "name": "cli-default-ck",
        "module_ids": ["S3"],
        "experiment": "acmin",
        "t_aggon_values": [36.0],
        "sites_per_module": 1,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    output = tmp_path / "out.json"
    assert main(["campaign", str(spec_path), "--output", str(output)]) == 0
    capsys.readouterr()
    assert (tmp_path / "out.json.checkpoint.jsonl").exists()


def test_global_obs_flags_before_subcommand(tmp_path, capsys, recwarn):
    trace = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.json"
    code = main(
        [
            "--trace-out",
            str(trace),
            "--metrics-out",
            str(metrics),
            "acmin",
            "S3",
            "--row",
            "60",
        ]
    )
    assert code == 0
    capsys.readouterr()
    assert trace.exists() and metrics.exists()
    assert json.loads(trace.read_text())["traceEvents"]
    # The new spelling does not warn.
    assert not [w for w in recwarn if w.category is DeprecationWarning]


def test_global_obs_flags_work_for_every_subcommand(tmp_path, capsys):
    metrics = tmp_path / "metrics.json"
    assert main(["--metrics-out", str(metrics), "fleet"]) == 0
    capsys.readouterr()
    assert "counters" in json.loads(metrics.read_text())


def test_obs_flags_after_subcommand_rejected():
    # Observability flags are global only: after the subcommand they are
    # an unknown argument, not a second spelling.
    with pytest.raises(SystemExit) as error:
        build_parser().parse_args(["acmin", "S3", "--trace-out", "t.json"])
    assert error.value.code == 2


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_missing_subcommand_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


# ----------------------------------------------------------------------
# version and service commands
# ----------------------------------------------------------------------


def test_version_flag_prints_package_version(capsys):
    from repro import __version__

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.strip() == f"repro {__version__}"


def test_version_is_single_sourced_with_pyproject():
    """pyproject.toml must read the version from repro.__version__.

    Text-level checks (not tomllib) so this also runs on Python 3.10.
    """
    from pathlib import Path

    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    text = pyproject.read_text()
    assert 'dynamic = ["version"]' in text
    assert 'version = { attr = "repro.__version__" }' in text
    assert not any(
        line.strip().startswith("version =") and "attr" not in line
        for line in text.splitlines()
    )


def test_serve_parser_defaults():
    args = build_parser().parse_args(["serve", "--port", "0"])
    assert args.handler.__name__ == "_cmd_serve"
    assert args.port == 0
    assert args.queue_limit == 16
    assert args.workers == 1


def test_submit_requires_server_flag(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text("{}")
    with pytest.raises(SystemExit):
        build_parser().parse_args(["submit", str(spec_path)])


def test_submit_rejects_missing_spec_file(tmp_path, capsys):
    code = main(
        [
            "submit",
            str(tmp_path / "nope.json"),
            "--server",
            "http://127.0.0.1:1",
        ]
    )
    assert code == 2


def test_submit_rejects_invalid_spec(tmp_path):
    spec_path = tmp_path / "bad.json"
    spec_path.write_text(json.dumps({"name": "x", "experiment": "bogus"}))
    code = main(
        ["submit", str(spec_path), "--server", "http://127.0.0.1:1"]
    )
    assert code == 2


def test_submit_unreachable_server_fails_cleanly(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "name": "cli-service",
                "module_ids": ["S3"],
                "experiment": "acmin",
                "t_aggon_values": [36.0],
                "sites_per_module": 1,
            }
        )
    )
    code = main(
        [
            "submit",
            str(spec_path),
            "--server",
            "http://127.0.0.1:9",  # discard port: nothing listens
        ]
    )
    assert code == 2
