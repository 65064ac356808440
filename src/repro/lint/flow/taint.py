"""Interprocedural determinism taint: sources -> result-path sinks.

The reproduction's headline claim is that results are a deterministic
function of ``(spec, seed)``.  This pass proves the interprocedural
half of that statically: no wall-clock read, ad-hoc RNG draw,
``os.environ`` lookup, or unsorted-set iteration order may reach a
serialization/result sink (``results_payload``, checkpoint appends,
``ResultStore.put``, metric snapshot merges) — even through a chain of
helper calls in other files.

Semantics (chosen to keep the pass precise, not maximally paranoid):

* a function's *return value* is tainted when any return expression
  contains a source call, a tainted local, or a call to a
  tainted-returning project function (computed as a fixpoint over the
  call graph);
* taint flows through assignments, containers, f-strings, arithmetic,
  and project-function calls with tainted arguments — but **not** into
  callee parameters (a sink called with its own untainted parameters is
  clean) and **not** through class constructors (field-insensitive:
  storing a timestamp on an object is only flagged where the timestamp
  itself reaches a sink);
* ``sorted(...)`` launders only the ``set-order`` taint kind.

Findings anchor at the **sink call site**, with the full call chain in
the message, so a suppression directive in the sink's file governs the
diagnostic.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.diagnostics import LintDiagnostic
from repro.lint.engine import FileContext
from repro.lint.flow.callgraph import CallGraph, ClassInfo, FunctionInfo

__all__ = ["RULE_NONDETERMINISTIC", "check_taint"]

RULE_NONDETERMINISTIC = "flow-nondeterministic-result"

#: Call target -> taint kind.
SOURCE_CALLS: dict[str, str] = {
    "time.time": "wall-clock",
    "time.time_ns": "wall-clock",
    "time.monotonic": "wall-clock",
    "time.monotonic_ns": "wall-clock",
    "time.perf_counter": "wall-clock",
    "time.perf_counter_ns": "wall-clock",
    "time.process_time": "wall-clock",
    "datetime.datetime.now": "wall-clock",
    "datetime.datetime.utcnow": "wall-clock",
    "datetime.datetime.today": "wall-clock",
    "datetime.date.today": "wall-clock",
    "repro.obs.clock.monotonic_s": "wall-clock",
    "uuid.uuid4": "rng",
    "uuid.uuid1": "rng",
    "os.urandom": "rng",
    "secrets.token_hex": "rng",
    "secrets.token_bytes": "rng",
    "os.getenv": "environ",
}

#: Prefixes whose every call is a source of the given kind.
SOURCE_PREFIXES: tuple[tuple[str, str], ...] = (
    ("random.", "rng"),
    ("numpy.random.", "rng"),
)

#: Result/serialization paths: any tainted *argument* is a finding.
SINK_CALLS: frozenset[str] = frozenset(
    {
        "repro.characterization.campaign.results_payload",
        "repro.characterization.campaign.dumps_results",
        "repro.characterization.campaign.save_results",
        "repro.service.store.ResultStore.put",
        "repro.characterization.engine.CampaignCheckpoint.record_shard",
        "repro.characterization.engine.CampaignCheckpoint.record_shard_payload",
        "repro.characterization.engine.CampaignCheckpoint.record_failure",
        "repro.characterization.engine.CampaignCheckpoint._append",
        "repro.obs.metrics.MetricsRegistry.merge_snapshot",
    }
)

#: Pure value-passthrough callables: taint flows through their args.
_PASSTHROUGH = frozenset(
    {
        "str",
        "int",
        "float",
        "round",
        "abs",
        "min",
        "max",
        "repr",
        "format",
        "list",
        "tuple",
        "dict",
        "copy.copy",
        "copy.deepcopy",
        "json.dumps",
        "json.loads",
    }
)

_SET_ORDER = "set-order"


@dataclass(frozen=True)
class _Taint:
    """One taint kind with the call chain that produced it."""

    kind: str
    chain: tuple[str, ...]


def _frame(label: str, path: str, line: int) -> str:
    return f"{label} ({path}:{line})"


class _FunctionAnalysis:
    """One linear pass over a function body, tracking local taint."""

    def __init__(self, pass_: "TaintPass", info: FunctionInfo) -> None:
        self.pass_ = pass_
        self.info = info
        self.graph = pass_.graph
        self.context: FileContext = pass_.graph.project.files[info.path]
        self.class_info: ClassInfo | None = (
            pass_.graph.classes.get(info.class_qual) if info.class_qual else None
        )
        self.env: dict[str, set[_Taint]] = {}
        self.returns: set[_Taint] = set()
        self.findings: list[LintDiagnostic] = []

    # -- driver --------------------------------------------------------

    def run(self, report_sinks: bool) -> set[_Taint]:
        """Walk the function body; returns the taint of its return values."""
        self._walk_body(self.info.node.body, report_sinks)
        return self.returns

    def _walk_body(self, body: list[ast.stmt], report: bool) -> None:
        for stmt in body:
            self._walk_stmt(stmt, report)

    def _walk_stmt(self, stmt: ast.stmt, report: bool) -> None:
        if isinstance(stmt, ast.Assign):
            taint = self._expr(stmt.value, report)
            for target in stmt.targets:
                self._bind(target, stmt.value, taint)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._bind(stmt.target, stmt.value, self._expr(stmt.value, report))
        elif isinstance(stmt, ast.AugAssign):
            taint = self._expr(stmt.value, report)
            if isinstance(stmt.target, ast.Name):
                self.env.setdefault(stmt.target.id, set()).update(taint)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.returns |= self._expr(stmt.value, report)
        elif isinstance(stmt, ast.Expr):
            self._expr(stmt.value, report)
        elif isinstance(stmt, ast.For):
            taint = set(self._expr(stmt.iter, report))
            if self._is_set_typed(stmt.iter):
                taint.add(
                    _Taint(
                        _SET_ORDER,
                        (
                            _frame(
                                "iteration over an unordered set",
                                self.info.path,
                                stmt.iter.lineno,
                            ),
                        ),
                    )
                )
            self._bind(stmt.target, stmt.iter, taint)
            self._walk_body(stmt.body, report)
            self._walk_body(stmt.orelse, report)
        elif isinstance(stmt, ast.While):
            self._expr(stmt.test, report)
            self._walk_body(stmt.body, report)
            self._walk_body(stmt.orelse, report)
        elif isinstance(stmt, ast.If):
            self._expr(stmt.test, report)
            self._walk_body(stmt.body, report)
            self._walk_body(stmt.orelse, report)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taint = self._expr(item.context_expr, report)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, item.context_expr, taint)
            self._walk_body(stmt.body, report)
        elif isinstance(stmt, ast.Try):
            self._walk_body(stmt.body, report)
            for handler in stmt.handlers:
                self._walk_body(handler.body, report)
            self._walk_body(stmt.orelse, report)
            self._walk_body(stmt.finalbody, report)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._expr(stmt.exc, report)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested defs: walk for sink calls; their locals are isolated.
            saved, self.env = self.env, dict(self.env)
            self._walk_body(stmt.body, report)
            self.env = saved
        elif isinstance(stmt, (ast.AsyncFor,)):
            self._expr(stmt.iter, report)
            self._walk_body(stmt.body, report)
        # Pass/Break/Continue/Import/Global/Delete/ClassDef: nothing flows.

    def _bind(self, target: ast.expr, value: ast.expr, taint: set[_Taint]) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = set(taint)
        elif isinstance(target, (ast.Tuple, ast.List)):
            values = (
                value.elts
                if isinstance(value, (ast.Tuple, ast.List))
                and len(value.elts) == len(target.elts)
                else None
            )
            for index, element in enumerate(target.elts):
                if values is not None:
                    self._bind(element, values[index], self._expr(values[index], False))
                else:
                    self._bind(element, value, taint)
        # Attribute/Subscript targets: field-insensitive, taint dropped.

    # -- expressions ---------------------------------------------------

    def _expr(self, expr: ast.expr, report: bool) -> set[_Taint]:
        """Taint of an expression (checking sinks along the way)."""
        if isinstance(expr, ast.Name):
            return set(self.env.get(expr.id, ()))
        if isinstance(expr, ast.Constant):
            return set()
        if isinstance(expr, ast.Call):
            return self._call(expr, report)
        if isinstance(expr, ast.Attribute):
            resolved = self.context.resolve(expr)
            if resolved is not None and resolved.startswith("os.environ"):
                return {
                    _Taint(
                        "environ",
                        (_frame("os.environ", self.info.path, expr.lineno),),
                    )
                }
            return self._expr(expr.value, report)
        if isinstance(expr, ast.Await):
            return self._expr(expr.value, report)
        if isinstance(expr, ast.Subscript):
            return self._expr(expr.value, report) | self._expr(expr.slice, report)
        if isinstance(expr, ast.BinOp):
            return self._expr(expr.left, report) | self._expr(expr.right, report)
        if isinstance(expr, ast.UnaryOp):
            return self._expr(expr.operand, report)
        if isinstance(expr, ast.BoolOp):
            out: set[_Taint] = set()
            for value in expr.values:
                out |= self._expr(value, report)
            return out
        if isinstance(expr, ast.Compare):
            self._expr(expr.left, report)
            for comparator in expr.comparators:
                self._expr(comparator, report)
            return set()
        if isinstance(expr, ast.IfExp):
            self._expr(expr.test, report)
            return self._expr(expr.body, report) | self._expr(expr.orelse, report)
        if isinstance(expr, (ast.JoinedStr,)):
            out = set()
            for value in expr.values:
                out |= self._expr(value, report)
            return out
        if isinstance(expr, ast.FormattedValue):
            return self._expr(expr.value, report)
        if isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
            out = set()
            for element in expr.elts:
                if isinstance(element, ast.Starred):
                    element = element.value
                out |= self._expr(element, report)
            return out
        if isinstance(expr, ast.Dict):
            out = set()
            for key in expr.keys:
                if key is not None:
                    out |= self._expr(key, report)
            for value in expr.values:
                out |= self._expr(value, report)
            return out
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._comprehension(expr, (expr.elt,), report)
        if isinstance(expr, ast.DictComp):
            return self._comprehension(expr, (expr.key, expr.value), report)
        if isinstance(expr, ast.Starred):
            return self._expr(expr.value, report)
        if isinstance(expr, ast.Lambda):
            return set()
        return set()

    def _comprehension(
        self, expr: ast.expr, elements: tuple[ast.expr, ...], report: bool
    ) -> set[_Taint]:
        out: set[_Taint] = set()
        for generator in expr.generators:  # type: ignore[attr-defined]
            out |= self._expr(generator.iter, report)
            if self._is_set_typed(generator.iter):
                out.add(
                    _Taint(
                        _SET_ORDER,
                        (
                            _frame(
                                "iteration over an unordered set",
                                self.info.path,
                                generator.iter.lineno,
                            ),
                        ),
                    )
                )
        for element in elements:
            out |= self._expr(element, report)
        return out

    def _call(self, call: ast.Call, report: bool) -> set[_Taint]:
        resolved = self.pass_.resolution(self.info, call)
        arg_taints: list[tuple[object, set[_Taint]]] = []
        for index, arg in enumerate(call.args, start=1):
            value = arg.value if isinstance(arg, ast.Starred) else arg
            arg_taints.append((index, self._expr(value, report)))
        for keyword in call.keywords:
            arg_taints.append(
                (keyword.arg or "**", self._expr(keyword.value, report))
            )
        merged: set[_Taint] = set()
        for _slot, taint in arg_taints:
            merged |= taint

        if resolved is None:
            return set()

        if report and resolved in SINK_CALLS:
            self._report_sink(call, resolved, arg_taints)

        kind = SOURCE_CALLS.get(resolved)
        if kind is None and resolved.startswith("os.environ"):
            kind = "environ"
        if kind is None:
            for prefix, prefix_kind in SOURCE_PREFIXES:
                if resolved.startswith(prefix):
                    kind = prefix_kind
                    break
        if kind is not None:
            return merged | {
                _Taint(
                    kind,
                    (_frame(f"{resolved}()", self.info.path, call.lineno),),
                )
            }

        if resolved == "sorted":
            return {t for t in merged if t.kind != _SET_ORDER}
        if resolved in ("list", "tuple") and call.args:
            first = call.args[0]
            if self._is_set_typed(first):
                merged.add(
                    _Taint(
                        _SET_ORDER,
                        (
                            _frame(
                                "materializing an unordered set",
                                self.info.path,
                                call.lineno,
                            ),
                        ),
                    )
                )
            return merged
        if resolved in ("set", "frozenset"):
            return merged
        if resolved in _PASSTHROUGH:
            return merged

        callee = self.graph.functions.get(resolved)
        if callee is not None:
            summary = self.pass_.summaries.get(resolved, set())
            out = set(merged)
            for taint in summary:
                out.add(
                    _Taint(
                        taint.kind,
                        (
                            _frame(callee.display, self.info.path, call.lineno),
                            *taint.chain,
                        ),
                    )
                )
            return out
        if resolved in self.graph.classes:
            return set()  # constructors: field-insensitive
        return set()

    def _report_sink(
        self,
        call: ast.Call,
        resolved: str,
        arg_taints: list[tuple[object, set[_Taint]]],
    ) -> None:
        sink_name = resolved.rsplit(".", 1)[-1]
        for slot, taints in arg_taints:
            for taint in sorted(taints, key=lambda t: (t.kind, t.chain)):
                where = (
                    f"argument {slot}"
                    if isinstance(slot, int)
                    else f"argument {slot!r}"
                )
                self.findings.append(
                    LintDiagnostic(
                        rule=RULE_NONDETERMINISTIC,
                        message=(
                            f"{sink_name}() {where} carries nondeterministic "
                            f"{taint.kind} data: {' -> '.join(taint.chain)}"
                        ),
                        path=self.info.path,
                        line=call.lineno,
                        column=call.col_offset,
                    )
                )

    # -- helpers -------------------------------------------------------

    def _is_set_typed(self, expr: ast.expr) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call):
            resolved = self.pass_.resolution(self.info, expr)
            return resolved in ("set", "frozenset")
        if isinstance(expr, ast.Name):
            return self.pass_.local_type(self.info, expr.id) == "set"
        if isinstance(expr, ast.Attribute):
            if (
                isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and self.class_info is not None
            ):
                return (
                    self.pass_.attr_type(self.class_info, expr.attr) == "set"
                )
        return False


class TaintPass:
    """Fixpoint return-taint summaries, then one reporting pass."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.summaries: dict[str, set[_Taint]] = {}
        self._resolutions: dict[str, dict[int, str]] = {}
        self._local_types: dict[str, dict[str, str]] = {}
        for qual, sites in graph.calls.items():
            self._resolutions[qual] = {id(site.node): site.callee for site in sites}

    def resolution(self, info: FunctionInfo, call: ast.Call) -> str | None:
        """The call graph's resolved callee for ``call`` inside ``info``."""
        return self._resolutions.get(info.qual, {}).get(id(call))

    def local_type(self, info: FunctionInfo, name: str) -> str | None:
        """Inferred class type of a local/parameter name, lazily cached."""
        types = self._local_types.get(info.qual)
        if types is None:
            from repro.lint.flow.callgraph import _param_types

            context = self.graph.project.files[info.path]
            types = _param_types(self.graph, context, info.node)
            self._infer_locals(info, types)
            self._local_types[info.qual] = types
        return types.get(name)

    def attr_type(self, class_info: ClassInfo, attr: str) -> str | None:
        """Declared/assigned class type of ``self.<attr>`` on ``class_info``."""
        from repro.lint.flow.callgraph import _class_attr_type

        return _class_attr_type(self.graph, class_info, attr)

    def _infer_locals(self, info: FunctionInfo, env: dict[str, str]) -> None:
        from repro.lint.flow.callgraph import _infer_expr_type

        context = self.graph.project.files[info.path]
        class_info = (
            self.graph.classes.get(info.class_qual) if info.class_qual else None
        )
        for node in ast.walk(info.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    inferred = _infer_expr_type(
                        self.graph, context, node.value, env, class_info
                    )
                    if inferred is not None:
                        env[target.id] = inferred

    def run(self) -> list[LintDiagnostic]:
        """Fixpoint the return summaries, then report source->sink flows."""
        # Fixpoint over return summaries (chains stabilize quickly; the
        # pass cap guards pathological recursion).
        for _ in range(6):
            changed = False
            for qual, info in self.graph.functions.items():
                analysis = _FunctionAnalysis(self, info)
                returns = analysis.run(report_sinks=False)
                kinds_before = {t.kind for t in self.summaries.get(qual, set())}
                kinds_after = {t.kind for t in returns}
                if kinds_after != kinds_before:
                    changed = True
                self.summaries[qual] = _one_chain_per_kind(returns)
            if not changed:
                break
        findings: list[LintDiagnostic] = []
        for info in self.graph.functions.values():
            analysis = _FunctionAnalysis(self, info)
            analysis.run(report_sinks=True)
            findings.extend(analysis.findings)
        return findings


def _one_chain_per_kind(taints: set[_Taint]) -> set[_Taint]:
    """Keep one (deterministically chosen) witness chain per taint kind."""
    best: dict[str, _Taint] = {}
    for taint in sorted(taints, key=lambda t: (t.kind, len(t.chain), t.chain)):
        best.setdefault(taint.kind, taint)
    return set(best.values())


def check_taint(graph: CallGraph) -> list[LintDiagnostic]:
    """Run the determinism taint pass over a built call graph."""
    return TaintPass(graph).run()
