"""Codebase-specific lint rules.

Every rule is a small class: a stable kebab-case ``code``, the AST node
types it wants dispatched (``node_types``), an ``applies_to`` path
filter, and ``check``/``check_module`` hooks returning diagnostics.
The catalog (with rationale and fix guidance) lives in docs/LINTING.md.
"""

from __future__ import annotations

import ast
from typing import Iterable, Sequence

from repro import units
from repro.lint.diagnostics import LintDiagnostic
from repro.lint.engine import FileContext
from repro.obs.names import METRIC_NAMES
from repro.testkit.points import FAULT_POINTS


class Rule:
    """Base class: one statically checkable property of the codebase."""

    code: str = ""
    description: str = ""
    node_types: tuple[type, ...] = ()

    def applies_to(self, context: FileContext) -> bool:
        """Whether this rule runs on the given file at all."""
        return True

    def check_module(self, context: FileContext) -> Iterable[LintDiagnostic]:
        """Whole-module checks, run once per file before node dispatch."""
        return ()

    def check(self, node: ast.AST, context: FileContext) -> Iterable[LintDiagnostic]:
        """Per-node check; ``node`` is one of ``node_types``."""
        return ()

    def found(
        self, context: FileContext, node: ast.AST, message: str
    ) -> LintDiagnostic:
        """Build a diagnostic anchored at ``node``."""
        return LintDiagnostic(
            rule=self.code,
            message=message,
            path=context.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
        )


def _module_parts(context: FileContext) -> tuple[str, ...]:
    return tuple(context.module.split("."))


class NoBarePrintRule(Rule):
    """Diagnostics must go through ``repro.obs`` logging, not print()."""

    code = "no-bare-print"
    description = (
        "bare print() in library code; use repro.obs logging (CLI modules "
        "and the analysis package, whose printed output is the product, "
        "are exempt)"
    )
    node_types = (ast.Call,)

    def applies_to(self, context: FileContext) -> bool:
        """Everything except CLI modules and the analysis package."""
        parts = _module_parts(context)
        return parts[-1:] != ("cli",) and "analysis" not in parts

    def check(self, node: ast.Call, context: FileContext) -> Iterable[LintDiagnostic]:
        """Flag any call whose callee is the bare name ``print``."""
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            yield self.found(
                context, node, "bare print() in library code (use repro.obs logging)"
            )


class NoAdhocRngRule(Rule):
    """All randomness must derive from ``repro.rng`` seed trees."""

    code = "no-adhoc-rng"
    description = (
        "ad-hoc random source; derive generators from repro.rng.SeedTree / "
        "repro.rng.stream so results stay reproducible bit-for-bit"
    )
    node_types = (ast.Call,)

    _BANNED = {
        "numpy.random.default_rng",
        "numpy.random.seed",
        "numpy.random.RandomState",
    }

    def check(self, node: ast.Call, context: FileContext) -> Iterable[LintDiagnostic]:
        """Flag stdlib ``random`` and seed-tree-bypassing numpy calls."""
        resolved = context.resolve(node.func)
        if resolved is None:
            return
        if resolved in self._BANNED or resolved.startswith("random."):
            yield self.found(
                context,
                node,
                f"{resolved}() bypasses the seed tree; use repro.rng.stream() "
                "or a repro.rng.SeedTree child generator",
            )


class NoWallClockRule(Rule):
    """Simulation/DRAM/bender/obs code must not read the host clock directly."""

    code = "no-wall-clock"
    description = (
        "direct wall-clock read; simulated-time code has no host clock at "
        "all, and observability code must route through "
        "repro.obs.clock.monotonic_s (the single sanctioned read site)"
    )
    node_types = (ast.Call,)

    _SCOPES = ("repro.sim", "repro.dram", "repro.bender", "repro.obs")
    _BANNED = {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }

    def applies_to(self, context: FileContext) -> bool:
        """Only the packages whose time is simulated time."""
        return any(
            context.module == scope or context.module.startswith(scope + ".")
            for scope in self._SCOPES
        )

    def check(self, node: ast.Call, context: FileContext) -> Iterable[LintDiagnostic]:
        """Flag host-clock reads (time.*/datetime.* query functions)."""
        resolved = context.resolve(node.func)
        if resolved in self._BANNED:
            yield self.found(
                context,
                node,
                f"{resolved}() reads the host clock in simulated-time code",
            )


class PreferUnitsConstantRule(Rule):
    """Known time magnitudes must be spelled via ``repro.units``."""

    code = "prefer-units-constant"
    description = (
        "bare time-magnitude literal; spell it with the matching "
        "repro.units constant so timing assumptions stay in one place"
    )
    node_types = (ast.Constant,)

    #: literal value -> the units constant that should be used instead.
    _CONSTANTS = {
        units.TREFI: "TREFI",
        units.TAGGON_MAX: "TAGGON_MAX",
        units.TREFW: "TREFW",
        units.EXPERIMENT_BUDGET: "EXPERIMENT_BUDGET",
        units.S: "S",
    }

    def applies_to(self, context: FileContext) -> bool:
        """Everywhere but repro.units (the constants' definition site)."""
        return context.module != "repro.units"

    def check(
        self, node: ast.Constant, context: FileContext
    ) -> Iterable[LintDiagnostic]:
        """Flag numeric literals equal to a known units constant."""
        value = node.value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return
        name = self._CONSTANTS.get(float(value))
        if name is not None:
            yield self.found(
                context, node, f"bare literal {value!r}; use repro.units.{name}"
            )


class UnitSuffixMismatchRule(Rule):
    """``_ns``/``_us``/``_ms``/``_s`` names must hold matching magnitudes."""

    code = "unit-suffix-mismatch"
    description = (
        "a unit-suffixed name is assigned a value whose expression is in a "
        "different unit (e.g. `t_ms = 5 * units.MS` stores nanoseconds)"
    )
    node_types = (ast.Assign, ast.AnnAssign, ast.Call)

    #: suffix check order matters: _ns and _us and _ms all end with "s".
    _SUFFIXES = (("_ns", "ns"), ("_us", "us"), ("_ms", "ms"), ("_s", "s"))

    #: units members whose value is expressed in nanoseconds.
    _NS_VALUED = {
        f"repro.units.{name}"
        for name in (
            "NS",
            "US",
            "MS",
            "S",
            "TREFI",
            "TREFW",
            "TAGGON_MAX",
            "TRAS_MIN",
            "EXPERIMENT_BUDGET",
        )
    }
    _CONVERTERS = {
        "repro.units.ns_to_ms": "ms",
        "repro.units.ns_to_us": "us",
    }

    def _suffix_unit(self, name: str | None) -> str | None:
        if not name:
            return None
        for suffix, unit in self._SUFFIXES:
            if name.endswith(suffix):
                return unit
        return None

    def _value_unit(self, value: ast.AST, context: FileContext) -> str | None:
        """Best-effort unit of an expression; None when undecidable."""
        converter_units: set[str] = set()
        references_ns = False
        for node in ast.walk(value):
            if isinstance(node, ast.Call):
                resolved = context.resolve(node.func)
                if resolved in self._CONVERTERS:
                    converter_units.add(self._CONVERTERS[resolved])
            elif isinstance(node, (ast.Name, ast.Attribute)):
                if context.resolve(node) in self._NS_VALUED:
                    references_ns = True
        if len(converter_units) == 1:
            return next(iter(converter_units))
        if converter_units:
            return None
        return "ns" if references_ns else None

    def _compare(
        self,
        name: str | None,
        value: ast.AST,
        anchor: ast.AST,
        context: FileContext,
    ) -> Iterable[LintDiagnostic]:
        expected = self._suffix_unit(name)
        if expected is None:
            return
        actual = self._value_unit(value, context)
        if actual is not None and actual != expected:
            yield self.found(
                context,
                anchor,
                f"`{name}` says {expected} but the value expression is in "
                f"{actual} (convert with repro.units or rename)",
            )

    def check(self, node: ast.AST, context: FileContext) -> Iterable[LintDiagnostic]:
        """Compare suffixed assignment targets / keywords to value units."""
        if isinstance(node, ast.Assign):
            for target in node.targets:
                name = target.id if isinstance(target, ast.Name) else None
                if isinstance(target, ast.Attribute):
                    name = target.attr
                yield from self._compare(name, node.value, node, context)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target = node.target
            name = target.id if isinstance(target, ast.Name) else None
            if isinstance(target, ast.Attribute):
                name = target.attr
            yield from self._compare(name, node.value, node, context)
        elif isinstance(node, ast.Call):
            for keyword in node.keywords:
                if keyword.arg:
                    yield from self._compare(
                        keyword.arg, keyword.value, keyword.value, context
                    )


class NoMutableDefaultRule(Rule):
    """Mutable default arguments alias state across calls."""

    code = "no-mutable-default"
    description = (
        "mutable default argument (list/dict/set literal or constructor); "
        "default to None and build inside the function"
    )
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    _MUTABLE_CALLS = {"list", "dict", "set", "bytearray"}

    def _is_mutable(self, default: ast.AST, context: FileContext) -> bool:
        if isinstance(default, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(default, ast.Call):
            return context.resolve(default.func) in self._MUTABLE_CALLS
        return False

    def check(self, node: ast.AST, context: FileContext) -> Iterable[LintDiagnostic]:
        """Flag list/dict/set (literal or constructor) default values."""
        arguments = node.args
        defaults = list(arguments.defaults) + [
            default for default in arguments.kw_defaults if default is not None
        ]
        for default in defaults:
            if self._is_mutable(default, context):
                name = getattr(node, "name", "<lambda>")
                yield self.found(
                    context,
                    default,
                    f"mutable default argument in `{name}()`",
                )


class UnknownFaultPointRule(Rule):
    """Fault-point names must come from ``repro.testkit.points``.

    A typo'd point string would make :func:`fault_point` silently never
    fire (production) or :class:`FaultSpec` only fail at runtime (test),
    so string literals passed to the fault-injection API are checked
    against the declared ``FAULT_POINTS`` registry statically.
    """

    code = "unknown-fault-point"
    description = (
        "string literal passed to the fault-injection API is not a "
        "declared repro.testkit.points constant; fix the typo or declare "
        "the new point in FAULT_POINTS"
    )
    node_types = (ast.Call,)

    #: callables whose first argument (or ``point=``) names a fault point.
    _TARGETS = {
        "repro.testkit.faults.fault_point",
        "repro.testkit.faults.fault_write",
        "repro.testkit.faults.FaultSpec",
        "repro.testkit.FaultSpec",
    }

    def _point_argument(self, node: ast.Call) -> ast.AST | None:
        for keyword in node.keywords:
            if keyword.arg == "point":
                return keyword.value
        if node.args:
            return node.args[0]
        return None

    def check(self, node: ast.Call, context: FileContext) -> Iterable[LintDiagnostic]:
        """Flag constant point strings missing from ``FAULT_POINTS``."""
        if context.resolve(node.func) not in self._TARGETS:
            return
        argument = self._point_argument(node)
        if not isinstance(argument, ast.Constant):
            return  # named constants are validated at their definition
        value = argument.value
        if isinstance(value, str) and value not in FAULT_POINTS:
            yield self.found(
                context,
                argument,
                f"unknown fault point {value!r}; declared points: "
                f"{', '.join(sorted(FAULT_POINTS))}",
            )


class UnknownMetricNameRule(Rule):
    """Metric names must come from ``repro.obs.names.METRIC_NAMES``.

    A typo'd metric name would silently create a dead series that no
    dashboard, Prometheus scrape, or trajectory benchmark ever reads, so
    string literals passed to the metrics API are checked against the
    central registry statically — the same pattern as
    ``unknown-fault-point``.
    """

    code = "unknown-metric-name"
    description = (
        "string literal passed to the metrics API is not declared in "
        "repro.obs.names.METRIC_NAMES; fix the typo or declare the new "
        "series there first"
    )
    node_types = (ast.Call,)

    #: metric-factory method names on a registry-like receiver.
    _METHODS = {"counter", "gauge", "histogram", "timer"}

    def applies_to(self, context: FileContext) -> bool:
        """Everywhere except the instruments' own definition module."""
        return context.module != "repro.obs.metrics"

    def _is_registry_receiver(self, node: ast.Call, context: FileContext) -> bool:
        receiver = context.dotted_name(node.func.value)
        if receiver is None:
            return False
        tail = receiver.rsplit(".", 1)[-1]
        return tail in ("metrics", "registry")

    def check(self, node: ast.Call, context: FileContext) -> Iterable[LintDiagnostic]:
        """Flag constant metric names missing from ``METRIC_NAMES``."""
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in self._METHODS:
            return
        if not self._is_registry_receiver(node, context):
            return
        argument: ast.AST | None = node.args[0] if node.args else None
        for keyword in node.keywords:
            if keyword.arg == "name":
                argument = keyword.value
        if not isinstance(argument, ast.Constant):
            return  # named constants are validated at their definition
        value = argument.value
        if isinstance(value, str) and value not in METRIC_NAMES:
            yield self.found(
                context,
                argument,
                f"unknown metric name {value!r}; declare it in "
                "repro.obs.names.METRIC_NAMES",
            )


class RequireFutureAnnotationsRule(Rule):
    """Modules that define anything need postponed annotation evaluation."""

    code = "require-future-annotations"
    description = (
        "module defines functions/classes but lacks `from __future__ import "
        "annotations` (the codebase-wide annotation convention)"
    )

    def check_module(self, context: FileContext) -> Iterable[LintDiagnostic]:
        """Require the future import in any module that defines something."""
        has_definitions = any(
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            for node in ast.walk(context.tree)
        )
        if not has_definitions:
            return
        for node in context.tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                if any(alias.name == "annotations" for alias in node.names):
                    return
        yield LintDiagnostic(
            rule=self.code,
            message="missing `from __future__ import annotations`",
            path=context.path,
            line=1,
        )


def default_rules() -> Sequence[Rule]:
    """Fresh instances of every shipped rule, in catalog order."""
    return (
        NoBarePrintRule(),
        NoAdhocRngRule(),
        NoWallClockRule(),
        PreferUnitsConstantRule(),
        UnitSuffixMismatchRule(),
        NoMutableDefaultRule(),
        UnknownFaultPointRule(),
        UnknownMetricNameRule(),
        RequireFutureAnnotationsRule(),
    )


def rules_by_code() -> dict[str, Rule]:
    """Map rule code -> instance (for CLI rule selection)."""
    return {rule.code: rule for rule in default_rules()}
