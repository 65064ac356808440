"""Reference answers for the analytics output checks.

A warehouse answer must equal the ``repro.warehouse.analytics`` fold
over the same rows.  :class:`MemoryRows` stands in for the warehouse's
``iter_rows`` over plain record dicts, so ``run_report`` computes the
expected answer without SQL.
"""

from __future__ import annotations

import json


class MemoryRows:
    """The warehouse's ``iter_rows`` over in-memory record dicts.

    ``sources`` are ``(source key, [record dict with "experiment"])``;
    they are visited in key order and records in index order, as the
    warehouse orders ``(source key, record_index)``.
    """

    def __init__(self, sources: list[tuple[str, list[dict]]]) -> None:
        self.sources = sorted(sources, key=lambda source: source[0])

    def iter_rows(self, experiment=None, module_id=None, die_key=None, columns=None):
        for _, records in self.sources:
            for record in records:
                if experiment is not None and record["experiment"] != experiment:
                    continue
                if module_id is not None and record["module_id"] != module_id:
                    continue
                if die_key is not None and record["die_key"] != die_key:
                    continue
                yield {column: record.get(column) for column in columns}


def matches(answer: dict, sources: list[tuple[str, list[dict]]], report: str, filters: dict) -> bool:
    """Whether ``answer`` equals the fold of ``report`` over ``sources``."""
    from repro.warehouse.analytics import run_report

    def canonical(payload: dict) -> str:
        return json.dumps(json.loads(json.dumps(payload)), sort_keys=True)

    expected = run_report(MemoryRows(sources), report, **filters)
    return canonical(answer) == canonical(expected)
