"""Project-wide context: every file parsed once, plus the import graph.

The flow passes (taint, async-safety, wire contracts) all need to see
*across* files, so a :class:`ProjectContext` holds one parsed
:class:`~repro.lint.engine.FileContext` per file — built through the
engine's single parse choke point (:func:`repro.lint.engine.parse_module`)
so a combined ``repro lint --flow`` run never parses a file twice: the
per-file rules and every flow pass share the same ASTs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.lint.diagnostics import LintDiagnostic
from repro.lint.engine import (
    FileContext,
    _iter_python_files,
    build_context,
    syntax_diagnostic,
)

__all__ = ["ProjectContext", "load_project"]


@dataclass
class ProjectContext:
    """Every parsed file of one lint invocation, indexed two ways.

    ``files`` preserves lint order (path string -> context); ``modules``
    maps dotted module names (``repro.service.server``) to the same
    contexts, which is how cross-file passes resolve ``repro.*`` calls.
    Files that failed to parse appear only in ``errors``.
    """

    files: dict[str, FileContext] = field(default_factory=dict)
    modules: dict[str, FileContext] = field(default_factory=dict)
    errors: list[LintDiagnostic] = field(default_factory=list)

    def add(self, context: FileContext) -> None:
        """Index one parsed file."""
        self.files[context.path] = context
        if context.module:
            self.modules[context.module] = context

    def suppressed(self, diagnostic: LintDiagnostic) -> bool:
        """Whether the *anchor file's* directives silence ``diagnostic``.

        Cross-file findings anchor at the sink (or the async def, or the
        route table), so only a directive in that file counts — a
        ``disable-file`` in an intermediate call-chain file does not
        suppress a chain that merely passes through it.
        """
        context = self.files.get(diagnostic.path)
        if context is None:
            return False
        return context.suppressions.is_suppressed(diagnostic.rule, diagnostic.line)


def load_project(
    paths: Iterable[str | Path],
    sources: dict[str, str] | None = None,
) -> ProjectContext:
    """Parse every python file under ``paths`` into one project context.

    ``sources`` optionally overrides (or extends) file contents by path
    string — used by tests to plant violations without touching disk.
    """
    project = ProjectContext()
    overrides = dict(sources or {})
    for path in _iter_python_files(paths):
        text = overrides.pop(str(path), None)
        if text is None:
            text = path.read_text()
        _load_one(project, text, str(path))
    for path, text in overrides.items():
        _load_one(project, text, path)
    return project


def _load_one(project: ProjectContext, text: str, path: str) -> None:
    try:
        project.add(build_context(text, path))
    except SyntaxError as error:
        project.errors.append(syntax_diagnostic(error, path))
