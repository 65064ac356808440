"""Unit tests for the source-lint rule framework and every shipped rule."""

from __future__ import annotations

import json

from repro.lint.diagnostics import LintReport
from repro.lint.engine import SourceLinter, module_name_for, parse_suppressions
from repro.lint.rules import default_rules, rules_by_code


def lint(source: str, path: str = "repro/sim/example.py", rules=None):
    """Lint an in-memory snippet; defaults to a sim-scoped module path."""
    return SourceLinter(rules=rules).lint_source(source, path)


def codes(diagnostics) -> set[str]:
    return {diagnostic.rule for diagnostic in diagnostics}


# ----------------------------------------------------------------------
# engine mechanics
# ----------------------------------------------------------------------


def test_module_name_anchors_at_repro_package(tmp_path):
    from pathlib import Path

    assert module_name_for(Path("src/repro/sim/simulator.py")) == "repro.sim.simulator"
    assert module_name_for(Path("src/repro/lint/__init__.py")) == "repro.lint"
    assert module_name_for(Path("elsewhere/thing.py")) == "thing"


def test_syntax_error_is_reported_not_raised():
    diagnostics = lint("def broken(:\n")
    assert codes(diagnostics) == {"syntax-error"}


def test_import_alias_resolution_sees_through_renames():
    source = (
        "from __future__ import annotations\n"
        "from numpy.random import default_rng as mk\n"
        "def f():\n"
        "    return mk()\n"
    )
    assert "no-adhoc-rng" in codes(lint(source))


def test_relative_import_resolution():
    source = (
        "from __future__ import annotations\n"
        "from ... import units\n"
        "def f():\n"
        "    t_ms = 5 * units.MS\n"
        "    return t_ms\n"
    )
    diagnostics = lint(source, path="repro/sim/deep/example.py")
    assert "unit-suffix-mismatch" in codes(diagnostics)


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------


def test_inline_disable_suppresses_named_rule():
    source = "def f():\n    print('x')  # reprolint: disable=no-bare-print\n"
    source = "from __future__ import annotations\n" + source
    assert not lint(source)


def test_inline_disable_without_rules_suppresses_everything():
    source = (
        "from __future__ import annotations\n"
        "def f():\n"
        "    print('x')  # reprolint: disable\n"
    )
    assert not lint(source)


def test_disable_next_suppresses_following_line():
    source = (
        "from __future__ import annotations\n"
        "def f():\n"
        "    # reprolint: disable-next=no-bare-print\n"
        "    print('x')\n"
    )
    assert not lint(source)


def test_disable_file_suppresses_whole_file():
    source = (
        "from __future__ import annotations\n"
        "# reprolint: disable-file=no-bare-print\n"
        "def f():\n"
        "    print('x')\n"
        "def g():\n"
        "    print('y')\n"
    )
    assert not lint(source)


def test_unrelated_disable_does_not_suppress():
    source = (
        "from __future__ import annotations\n"
        "def f():\n"
        "    print('x')  # reprolint: disable=no-wall-clock\n"
    )
    assert "no-bare-print" in codes(lint(source))


def test_directive_inside_string_is_ignored():
    suppressions = parse_suppressions(
        "text = '# reprolint: disable=no-bare-print'\nprint(text)\n"
    )
    assert not suppressions.whole_file and not suppressions.by_line


# ----------------------------------------------------------------------
# individual rules
# ----------------------------------------------------------------------


def test_no_bare_print_flags_library_code_only():
    source = "from __future__ import annotations\ndef f():\n    print('hi')\n"
    assert "no-bare-print" in codes(lint(source, "repro/dram/device.py"))
    assert not lint(source, "repro/cli.py")
    assert not lint(source, "repro/analysis/figures.py")
    assert not lint(source, "repro/lint/cli.py")


def test_no_bare_print_ignores_docstrings_and_methods():
    source = (
        "from __future__ import annotations\n"
        'def f():\n    """Calls print() — only in prose."""\n    return 1\n'
        "class P:\n"
        "    def print(self):\n"
        '        """Not the builtin."""\n'
        "        return self\n"
        "def g(p):\n    return p.print()\n"
    )
    assert not lint(source)


def test_no_adhoc_rng_flags_numpy_and_stdlib_random():
    bad = (
        "from __future__ import annotations\n"
        "import random\n"
        "import numpy as np\n"
        "def f():\n"
        "    np.random.seed(1)\n"
        "    g = np.random.default_rng(3)\n"
        "    return random.randint(0, 9), g\n"
    )
    diagnostics = lint(bad)
    assert codes(diagnostics) == {"no-adhoc-rng"}
    assert len(diagnostics) == 3


def test_no_adhoc_rng_allows_seed_tree_and_method_named_random():
    good = (
        "from __future__ import annotations\n"
        "from repro.rng import SeedTree, stream\n"
        "def f():\n"
        "    rng = stream(7, 'x')\n"
        "    tree = SeedTree(7)\n"
        "    return rng.random(), tree.child('a').generator('b')\n"
    )
    assert not lint(good)


def test_no_wall_clock_scoped_to_sim_dram_bender_obs():
    source = (
        "from __future__ import annotations\n"
        "import time\n"
        "def f():\n"
        "    return time.perf_counter()\n"
    )
    assert "no-wall-clock" in codes(lint(source, "repro/sim/core.py"))
    assert "no-wall-clock" in codes(lint(source, "repro/bender/executor.py"))
    assert "no-wall-clock" in codes(lint(source, "repro/dram/device.py"))
    # repro.obs is in scope too: monotonic_s() is the one sanctioned read.
    assert "no-wall-clock" in codes(lint(source, "repro/obs/metrics.py"))
    assert not lint(source, "repro/characterization/runner.py")
    assert not lint(source, "repro/service/server.py")


def test_no_wall_clock_flags_datetime_now():
    source = (
        "from __future__ import annotations\n"
        "from datetime import datetime\n"
        "def f():\n"
        "    return datetime.now()\n"
    )
    assert "no-wall-clock" in codes(lint(source, "repro/dram/retention.py"))


def test_prefer_units_constant_flags_known_magnitudes():
    source = (
        "from __future__ import annotations\n"
        "def f():\n"
        "    a = 7800.0\n"
        "    b = 70200\n"
        "    c = 64_000_000.0\n"
        "    d = 60_000_000\n"
        "    return a, b, c, d\n"
    )
    diagnostics = lint(source)
    assert codes(diagnostics) == {"prefer-units-constant"}
    assert len(diagnostics) == 4
    assert any("TREFI" in d.message for d in diagnostics)
    assert any("TAGGON_MAX" in d.message for d in diagnostics)
    assert any("TREFW" in d.message for d in diagnostics)
    assert any("EXPERIMENT_BUDGET" in d.message for d in diagnostics)


def test_prefer_units_constant_ignores_other_numbers_and_units_py():
    assert not lint(
        "from __future__ import annotations\ndef f():\n    return 36.0 + 15 + 1e6\n"
    )
    assert not lint(
        "from __future__ import annotations\nTREFI: float = 7_800.0\ndef f():\n    return TREFI\n",
        "repro/units.py",
    )


def test_unit_suffix_mismatch_on_assignment():
    source = (
        "from __future__ import annotations\n"
        "from repro import units\n"
        "def f():\n"
        "    timeout_ms = 5 * units.MS\n"
        "    return timeout_ms\n"
    )
    diagnostics = lint(source)
    assert codes(diagnostics) == {"unit-suffix-mismatch"}


def test_unit_suffix_mismatch_on_call_keyword():
    source = (
        "from __future__ import annotations\n"
        "from repro import units\n"
        "def g(wait_ms=0):\n"
        "    return wait_ms\n"
        "def f():\n"
        "    return g(wait_ms=3 * units.US)\n"
    )
    assert "unit-suffix-mismatch" in codes(lint(source))


def test_unit_suffix_consistent_cases_pass():
    source = (
        "from __future__ import annotations\n"
        "from repro import units\n"
        "def f():\n"
        "    duration_ns = 30 * units.MS\n"  # MS constant *is* in ns
        "    budget_ms = units.ns_to_ms(9 * units.TREFI)\n"
        "    sweep_us = units.ns_to_us(duration_ns)\n"
        "    plain_ms = 45.0\n"  # bare literal: unit undecidable, no flag
        "    return duration_ns, budget_ms, sweep_us, plain_ms\n"
    )
    assert not lint(source)


def test_no_mutable_default_flags_literals_and_constructors():
    source = (
        "from __future__ import annotations\n"
        "def f(a=[], b={}, c=set(), *, d=list()):\n"
        "    return a, b, c, d\n"
    )
    diagnostics = lint(source)
    assert codes(diagnostics) == {"no-mutable-default"}
    assert len(diagnostics) == 4


def test_no_mutable_default_allows_none_and_tuples():
    source = (
        "from __future__ import annotations\n"
        "def f(a=None, b=(), c='x', d=0):\n"
        "    return a, b, c, d\n"
    )
    assert not lint(source)


def test_unknown_fault_point_flags_typos_in_literals():
    source = (
        "from __future__ import annotations\n"
        "from repro.testkit.faults import FaultSpec, fault_point\n"
        "def f():\n"
        "    fault_point('engine.shard.strat')\n"  # typo'd literal
        "    return FaultSpec(point='service.store.putt')\n"
    )
    diagnostics = [d for d in lint(source) if d.rule == "unknown-fault-point"]
    assert len(diagnostics) == 2
    assert "engine.shard.strat" in diagnostics[0].message


def test_unknown_fault_point_accepts_registry_names_and_constants():
    source = (
        "from __future__ import annotations\n"
        "from repro.testkit.faults import FaultSpec, fault_point, fault_write\n"
        "from repro.testkit.points import ENGINE_SHARD_START\n"
        "def f(write, text):\n"
        "    fault_point('engine.shard.start')\n"
        "    fault_write('engine.checkpoint.append', write, text)\n"
        "    fault_point(ENGINE_SHARD_START)\n"  # named constant: not a literal
        "    return FaultSpec('service.store.put', 'truncate')\n"
    )
    assert "unknown-fault-point" not in codes(lint(source))


def test_require_future_annotations_only_when_defining():
    defines = "def f():\n    return 1\n"
    assert "require-future-annotations" in codes(lint(defines))
    assert not lint("from __future__ import annotations\n" + defines)
    # Pure constant/import modules (e.g. __init__.py) are exempt.
    assert not lint("VALUE = 17\n")


# ----------------------------------------------------------------------
# report rendering
# ----------------------------------------------------------------------


def test_report_text_and_json_rendering():
    report = LintReport()
    report.extend(lint("def f():\n    print('x')\n"))
    report.files_checked = 1
    text = report.render_text()
    assert "no-bare-print" in text and "finding(s)" in text
    payload = json.loads(report.render_json())
    assert payload["ok"] is False
    assert payload["files_checked"] == 1
    assert {d["rule"] for d in payload["diagnostics"]} >= {"no-bare-print"}


def test_rules_by_code_covers_all_default_rules():
    catalog = rules_by_code()
    assert {rule.code for rule in default_rules()} == set(catalog)
    assert all(rule.description for rule in catalog.values())
