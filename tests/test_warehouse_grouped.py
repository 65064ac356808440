"""The stored-group paths against the row fold.

``Warehouse.analytics`` answers ``sweep`` and ``temperature`` over
``acmin`` by re-grouping ``record_groups`` (count, observed, sum,
minimum, maximum per source and group, written when a source becomes
complete), and every other report by merging the observations stored
in ``group_values`` back into record order, instead of folding every
row.  These tests hold those paths to the row fold (``run_report`` over
the same warehouse's ``iter_rows``) and to the independent JSONL fold
of ``tests/test_warehouse_diff.py``:

* unfiltered, per module and per die, with ``None`` observations, and
  without reading a single ``records`` row;
* the two fallbacks — a non-integral ``acmin`` (stored as REAL) and
  ``acmin`` values whose sum passes 2^63 — which must take the row fold
  and still equal the JSONL fold;
* every path that makes records visible: a checkpoint finalized while
  partial and then caught up (late shards into a complete source, one
  group rewrite per catch-up, and a crash mid catch-up that changes
  nothing), a backfill re-ingested under the same key, and a crash at
  the commit that would make a source complete;
* ``verify`` recomputing the group rows and stored observations, and
  v2 and v3 files refused before the newer tables are built into them;
* generated multi-source warehouses whose source keys sort differently
  from their ingest order, next to a streaming source that is never
  finalized (so it stays invisible), under module and die filters.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sqlite3

import pytest

from repro.characterization.campaign import CampaignSpec, dumps_results
from repro.characterization.engine import CampaignCheckpoint
from repro.characterization.results import AcminRecord
from repro.cli import main
from repro.obs import MetricsRegistry
from repro.testkit import FaultPlan, FaultSpec
from repro.testkit.faults import InjectedCrash
from repro.testkit.points import WAREHOUSE_COMMIT, WAREHOUSE_INGEST
from repro.testkit.gen import experiment_records, lists, sampled_from, tuples
from repro.testkit.harness import prop
from repro.warehouse import REPORTS, Warehouse, WarehouseError, run_report
from tests.test_warehouse_diff import (
    EXPERIMENTS,
    MIXED,
    canon,
    expected_report,
    expected_sweep,
    expected_temperature,
    interleaved_record,
    jsonl_records,
    report_experiments,
)

GROUPED = ("sweep", "temperature")
MODULES = (("S3", "S-8Gb-B"), ("H4", "H-4Gb-A"), ("M1", "M-16Gb-E"))


def _spec(name: str, experiment: str = "acmin") -> CampaignSpec:
    return CampaignSpec(
        name=name, module_ids=("S3",), experiment=experiment, seed=7
    )


def _acmin_records(seed: int, count: int) -> list[AcminRecord]:
    """ACmin records over three modules, three temperatures, four sweep
    points, with about one ``None`` (no bitflip) in five."""
    rng = random.Random(seed)
    records = []
    for index in range(count):
        module_id, die_key = MODULES[index % len(MODULES)]
        records.append(
            AcminRecord(
                module_id=module_id,
                die_key=die_key,
                access="single",
                temperature_c=(50.0, 65.0, 80.0)[rng.randrange(3)],
                t_aggon=(36.0, 636.0, 7800.0, 70_200.0)[rng.randrange(4)],
                site_row=rng.randrange(4096),
                acmin=None if rng.random() < 0.2 else rng.randrange(1, 90_000),
            )
        )
    return records


def _queries(warehouse: Warehouse, path: str) -> int:
    return warehouse.metrics.value("warehouse.queries", path=path) or 0


@pytest.fixture(scope="module")
def acmin_corpus():
    """``(docs, warehouse)``: two ACmin sources, keys against ingest order."""
    docs = {
        "b-acmin": dumps_results(_spec("b"), _acmin_records(1, 240)),
        "a-acmin": dumps_results(_spec("a"), _acmin_records(2, 180)),
    }
    with Warehouse(":memory:", batch_size=50) as warehouse:
        for key, text in docs.items():
            warehouse.ingest_results_text(text, key=key)
        yield docs, warehouse


def _filters():
    yield {}
    for module_id, die_key in MODULES:
        yield {"module_id": module_id}
        yield {"die_key": die_key}


@pytest.mark.parametrize("report", GROUPED)
def test_grouped_answers_equal_the_row_fold(acmin_corpus, report):
    docs, warehouse = acmin_corpus
    for filters in _filters():
        grouped_before = _queries(warehouse, "grouped")
        answer = warehouse.analytics(report, **filters)
        assert _queries(warehouse, "grouped") == grouped_before + 1, filters
        # Byte for byte, key order included: the service sends the
        # payload as built.
        assert json.dumps(answer) == json.dumps(
            run_report(warehouse, report, **filters)
        )
        rows = jsonl_records(
            docs,
            experiment="acmin",
            module=filters.get("module_id"),
            die=filters.get("die_key"),
        )
        expected = (
            expected_sweep(rows, "acmin")
            if report == "sweep"
            else expected_temperature(rows, "acmin")
        )
        assert canon(answer) == canon(expected), filters


def test_corpus_holds_missing_observations(acmin_corpus):
    _, warehouse = acmin_corpus
    series = warehouse.analytics("sweep")["dies"]
    points = [
        point for temps in series.values() for s in temps.values() for point in s
    ]
    assert any(point["observed"] < point["count"] for point in points)
    assert all(
        isinstance(point["minimum"], int) for point in points if point["observed"]
    )


def _fetched(warehouse: Warehouse, what: str) -> int:
    return warehouse.metrics.value(f"warehouse.{what}_fetched") or 0


def test_grouped_rows_fetched_are_groups_not_records(acmin_corpus):
    _, warehouse = acmin_corpus
    rows, groups = _fetched(warehouse, "rows"), _fetched(warehouse, "groups")
    answer = warehouse.analytics("sweep")
    points = sum(len(s) for temps in answer["dies"].values() for s in temps.values())
    assert _fetched(warehouse, "groups") - groups == points
    assert _fetched(warehouse, "rows") == rows
    run_report(warehouse, "sweep")
    assert _fetched(warehouse, "rows") - rows == 420


def test_instruments_are_looked_up_once_each_on_first_use(monkeypatch):
    registry = MetricsRegistry()
    lookups = []
    for kind in ("counter", "histogram"):

        def recording(name, _lookup=getattr(registry, kind), **labels):
            lookups.append((name, tuple(sorted(labels.items()))))
            return _lookup(name, **labels)

        monkeypatch.setattr(registry, kind, recording)
    with Warehouse(":memory:", metrics=registry) as warehouse:
        # No series before the first use, as with a lookup per call.
        assert registry.to_dict() == {"counters": [], "gauges": [], "histograms": []}
        for index in range(3):
            key = f"src-{index}"
            warehouse.ingest_records(_spec(key), _acmin_records(index, 20), key=key)
            warehouse.analytics("sweep")
            warehouse.analytics("acmin")
            run_report(warehouse, "acmin")
    assert len(lookups) == len(set(lookups)) == 7
    assert _queries(warehouse, "grouped") == 6
    assert registry.value("warehouse.ingests") == 3
    assert registry.value("warehouse.records_ingested") == 60
    assert registry.value("warehouse.rows_fetched") == 60 + 40 + 20
    assert registry.value("warehouse.groups_fetched") > 0


def _fallback_case(records: list[dict]) -> tuple[dict, Warehouse]:
    payload = {
        "schema_version": 2,
        "spec": dataclasses.asdict(_spec("fallback")),
        "records": records,
    }
    docs = {"fallback": json.dumps(payload)}
    warehouse = Warehouse(":memory:")
    warehouse.ingest_results_text(docs["fallback"], key="fallback")
    return docs, warehouse


def _raw(acmin, temperature_c=50.0, t_aggon=36.0, module=MODULES[0]) -> dict:
    return {
        "experiment": "acmin",
        "module_id": module[0],
        "die_key": module[1],
        "access": "single",
        "temperature_c": temperature_c,
        "t_aggon": t_aggon,
        "site_row": 1,
        "acmin": acmin,
    }


@pytest.mark.parametrize(
    "records",
    [
        # Non-integral acmin values are stored as REAL, so SQL SUM would
        # add floats in index order (ascending acmin): 1.5 + 3.25 + 1e16
        # rounds to 1e16 + 4, while record order gives 1e16 + 6.
        [_raw(10**16), _raw(1.5), _raw(3.25), _raw(None), _raw(7, 65.0)],
        # Values that fit 64 bits but whose sum does not: SQL SUM raises
        # "integer overflow"; Python's int sum is exact.
        [_raw(2**62), _raw(2**62 + 5), _raw(2**62 - 1), _raw(None), _raw(3, 80.0)],
    ],
    ids=["non-integral", "sum-past-2**63"],
)
def test_inexact_totals_fall_back_to_the_row_fold(records):
    docs, warehouse = _fallback_case(records)
    with warehouse:
        assert (
            warehouse.group_totals(
                "acmin", ("die_key", "temperature_c", "t_aggon"), "acmin"
            )
            is None
        )
        rows = jsonl_records(docs, experiment="acmin")
        for report, expected in (
            ("sweep", expected_sweep(rows, "acmin")),
            ("temperature", expected_temperature(rows, "acmin")),
        ):
            before = _queries(warehouse, "rows")
            answer = warehouse.analytics(report)
            assert _queries(warehouse, "rows") == before + 1
            assert canon(answer) == canon(expected), report


@pytest.mark.parametrize(
    "records, path",
    [
        # INTEGER and REAL acmin values in separate groups, interleaved
        # record by record: merged without turning the ints into floats.
        (
            [_raw(10**16), _raw(1.5, 65.0), _raw(7), _raw(2.25, 65.0), _raw(None)],
            "grouped",
        ),
        # Both storage classes in one group: one packed array cannot keep
        # them, so the observations are flagged and the rows folded.
        ([_raw(10**16), _raw(1.5), _raw(7), _raw(None, 65.0)], "rows"),
    ],
    ids=["across-groups", "within-a-group"],
)
def test_observations_of_both_storage_classes(records, path):
    docs, warehouse = _fallback_case(records)
    with warehouse:
        for report in ("acmin", "modules"):
            before = _queries(warehouse, path)
            answer = warehouse.analytics(report)
            assert _queries(warehouse, path) == before + 1
            expected = expected_report(report, docs, REPORTS[report])
            assert canon(answer) == canon(expected), report


def test_integer_totals_take_the_grouped_path():
    docs, warehouse = _fallback_case([_raw(2**62), _raw(2**61), _raw(None)])
    with warehouse:
        answer = warehouse.analytics("sweep")
        assert _queries(warehouse, "grouped") == 1
        rows = jsonl_records(docs, experiment="acmin")
        assert canon(answer) == canon(expected_sweep(rows, "acmin"))


@pytest.fixture(scope="module")
def mixed_corpus(acmin_corpus):
    """``(docs, warehouse)``: the ACmin sources plus REAL-observable ones
    (t_AggONmin and BER) whose groups interleave record by record."""
    acmin_docs, _ = acmin_corpus
    rng = random.Random(4)
    docs = dict(acmin_docs)
    for key, experiment in (("d-ber", "ber"), ("c-taggonmin", "taggonmin")):
        records = [
            interleaved_record(experiment, index, rng.choice(MIXED))
            for index in range(60)
        ]
        docs[key] = dumps_results(_spec(key, experiment), records)
    with Warehouse(":memory:", batch_size=50) as warehouse:
        for key, text in docs.items():
            warehouse.ingest_results_text(text, key=key)
        yield docs, warehouse


def test_every_report_reads_no_records_rows(mixed_corpus):
    docs, warehouse = mixed_corpus
    for report in REPORTS:
        for experiment in report_experiments(report):
            for filters in _filters():
                rows, grouped = _fetched(warehouse, "rows"), _queries(warehouse, "grouped")
                answer = warehouse.analytics(report, experiment=experiment, **filters)
                assert _fetched(warehouse, "rows") == rows, (report, experiment, filters)
                assert _queries(warehouse, "grouped") == grouped + 1
                expected = expected_report(report, docs, experiment, filters)
                assert canon(answer) == canon(expected), (report, experiment, filters)
    assert _queries(warehouse, "rows") == 0


def test_a_file_without_the_covering_index_asks_for_a_rebuild(tmp_path):
    path = tmp_path / "v1.sqlite3"
    Warehouse(path).close()
    # Turn it into a v1 file: the narrow index and the old version.
    connection = sqlite3.connect(path)
    connection.executescript(
        "DROP INDEX idx_records_experiment_die;"
        "CREATE INDEX idx_records_experiment_die"
        " ON records (experiment, die_key);"
        "UPDATE meta SET value = '1' WHERE key = 'schema_version';"
    )
    connection.close()
    with pytest.raises(WarehouseError, match="rebuild"):
        Warehouse(path)
    # Rejected before anything was built into the old file.
    connection = sqlite3.connect(path)
    columns = [
        row[2]
        for row in connection.execute(
            "PRAGMA index_info('idx_records_experiment_die')"
        )
    ]
    connection.close()
    assert columns == ["experiment", "die_key"]


def test_a_v2_file_is_refused_before_the_group_table_is_built(tmp_path):
    path = tmp_path / "v2.sqlite3"
    Warehouse(path).close()
    # Turn it into a v2 file: no group table, the covering index.
    connection = sqlite3.connect(path)
    connection.executescript(
        "DROP TABLE record_groups;"
        "DROP INDEX idx_records_experiment_die;"
        "CREATE INDEX idx_records_experiment_die ON records (experiment,"
        " die_key, temperature_c, t_aggon, acmin, module_id, source_id);"
        "UPDATE meta SET value = '2' WHERE key = 'schema_version';"
    )
    connection.close()
    with pytest.raises(WarehouseError, match="repro warehouse rebuild"):
        Warehouse(path)
    connection = sqlite3.connect(path)
    tables = {
        row[0]
        for row in connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        )
    }
    connection.close()
    assert "record_groups" not in tables


def test_a_v3_file_is_refused_before_the_value_table_is_built(tmp_path):
    path = tmp_path / "v3.sqlite3"
    Warehouse(path).close()
    # Turn it into a v3 file: no stored observations.
    connection = sqlite3.connect(path)
    connection.executescript(
        "DROP TABLE group_values;"
        "UPDATE meta SET value = '3' WHERE key = 'schema_version';"
    )
    connection.close()
    with pytest.raises(WarehouseError, match="repro warehouse rebuild"):
        Warehouse(path)
    connection = sqlite3.connect(path)
    tables = {
        row[0]
        for row in connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        )
    }
    connection.close()
    assert "group_values" not in tables and "record_groups" in tables


def _assert_grouped_answers(warehouse: Warehouse, docs: dict) -> None:
    """Every report from stored groups == the row fold == the JSONL fold."""
    for report in REPORTS:
        for filters in _filters():
            grouped_before = _queries(warehouse, "grouped")
            answer = warehouse.analytics(report, **filters)
            assert _queries(warehouse, "grouped") == grouped_before + 1
            assert json.dumps(answer) == json.dumps(
                run_report(warehouse, report, **filters)
            ), (report, filters)
            experiment = "acmin" if report in GROUPED else REPORTS[report]
            expected = expected_report(report, docs, experiment, filters)
            assert canon(answer) == canon(expected), (report, filters)


def _shard(index: int, records: list, size: int) -> dict:
    """Shard ``index`` of ``records`` in the engine-checkpoint line shape."""
    units = range(index * size, (index + 1) * size)
    return {
        "shard_id": f"shard-{index}",
        "seed": index,
        "attempt": 1,
        "units": [
            {"unit": unit, "record": dataclasses.asdict(records[unit])}
            for unit in units
        ],
    }


#: Records of the streamed source, and the shard size they are cut at.
_STREAM = _acmin_records(5, 48)
_SIZE = 8
#: The shards a partial checkpoint holds, and the three that come late.
_FIRST, _LATE = (0, 2, 4), (1, 3, 5)
_BACKFILL = dumps_results(_spec("backfill"), _acmin_records(6, 60))


def _visible(indexes) -> dict:
    """The documents the warehouse answers for once ``indexes`` are in."""
    units = sorted(u for i in indexes for u in range(i * _SIZE, (i + 1) * _SIZE))
    return {
        "backfill": _BACKFILL,
        "stream": dumps_results(_spec("stream"), [_STREAM[u] for u in units]),
    }


def _finalized_partial_stream(tmp_path, warehouse: Warehouse) -> CampaignCheckpoint:
    """A complete ``stream`` source of the first shards; the late ones appended."""
    checkpoint = CampaignCheckpoint(tmp_path / "job.jsonl", _spec("stream"), shard_size=_SIZE)
    checkpoint.start()
    for index in _FIRST:
        checkpoint.record_shard_payload(_shard(index, _STREAM, _SIZE))
    warehouse.ingest_results_text(_BACKFILL, key="backfill")
    assert warehouse.ingest_checkpoint_file(
        checkpoint.path, key="stream", finalize=True
    ) == 24
    _assert_grouped_answers(warehouse, _visible(_FIRST))
    for index in _LATE:
        checkpoint.record_shard_payload(_shard(index, _STREAM, _SIZE))
    return checkpoint


@pytest.mark.parametrize("finalize_again", [False, True])
def test_late_shards_into_a_complete_source_regroup_it(
    tmp_path, monkeypatch, finalize_again
):
    with Warehouse(tmp_path / "wh.sqlite3", batch_size=16) as warehouse:
        checkpoint = _finalized_partial_stream(tmp_path, warehouse)
        rewrites = []
        write_groups = Warehouse._write_groups

        def counting(self, source_id):
            rewrites.append(source_id)
            write_groups(self, source_id)

        monkeypatch.setattr(Warehouse, "_write_groups", counting)
        assert warehouse.ingest_checkpoint_file(
            checkpoint.path, key="stream", finalize=finalize_again
        ) == 24
        assert len(rewrites) == 1  # one catch-up, one rewrite
        _assert_grouped_answers(warehouse, _visible(_FIRST + _LATE))
        assert warehouse.verify()["ok"]


@pytest.mark.parametrize(
    "fault",
    # The catch-up reaches the ingest point once per checkpoint shard,
    # the three already ingested first: hit 5 is the second late shard.
    [FaultSpec(WAREHOUSE_INGEST, "crash", at_hit=5), FaultSpec(WAREHOUSE_COMMIT, "crash", at_hit=1)],
    ids=["ingest", "commit"],
)
def test_a_crash_in_a_catch_up_leaves_groups_matching_the_visible_records(
    tmp_path, fault
):
    with Warehouse(tmp_path / "wh.sqlite3", batch_size=16) as warehouse:
        checkpoint = _finalized_partial_stream(tmp_path, warehouse)
        with FaultPlan(fault) as plan:
            with pytest.raises(InjectedCrash):
                warehouse.ingest_checkpoint_file(checkpoint.path, key="stream", finalize=True)
        assert plan.fired
        assert warehouse.verify()["ok"]
        _assert_grouped_answers(warehouse, _visible(_FIRST))
        assert warehouse.ingest_checkpoint_file(
            checkpoint.path, key="stream", finalize=True
        ) == 24
        assert warehouse.verify()["ok"]
        _assert_grouped_answers(warehouse, _visible(_FIRST + _LATE))


def test_reingesting_a_key_regroups_only_its_new_records():
    with Warehouse(":memory:", batch_size=7) as warehouse:
        for seed, count in ((1, 90), (2, 30)):
            records = _acmin_records(seed, count)
            warehouse.ingest_records(_spec("again"), records, key="again")
            _assert_grouped_answers(
                warehouse, {"again": dumps_results(_spec("again"), records)}
            )
        assert warehouse.verify()["ok"]


def _group_rows(path) -> int:
    """Stored group rows: ``record_groups`` and ``group_values`` together."""
    connection = sqlite3.connect(path)
    try:
        return sum(
            connection.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            for table in ("record_groups", "group_values")
        )
    finally:
        connection.close()


def test_a_crash_at_the_finalize_commit_leaves_no_group_rows(tmp_path):
    path = tmp_path / "wh.sqlite3"
    with Warehouse(path) as warehouse:
        warehouse.open_source(_spec("stream"), key="stream")
        warehouse.ingest_shard("stream", _shard(0, _acmin_records(3, 12), 12))
        with FaultPlan(FaultSpec(WAREHOUSE_COMMIT, "crash", at_hit=1)) as plan:
            with pytest.raises(InjectedCrash):
                warehouse.finalize_source("stream")
        assert plan.fired
        assert warehouse.verify()["torn"] == ["stream"]
    assert _group_rows(path) == 0
    with Warehouse(path) as warehouse:
        warehouse.finalize_source("stream")
        assert warehouse.verify()["ok"]
    assert _group_rows(path) > 0


#: One group row of source ``a-acmin`` that has an observation.
_A_ROW = (
    "(SELECT MIN(g.rowid) FROM record_groups g JOIN sources s"
    " USING (source_id) WHERE s.key = 'a-acmin' AND g.acmin_max IS NOT NULL)"
)
#: One ``group_values`` row of source ``a-acmin`` with two observations.
_A_VALUES = (
    "(SELECT MIN(g.rowid) FROM group_values g JOIN sources s"
    " USING (source_id) WHERE s.key = 'a-acmin'"
    " AND length(g.observations) >= 16)"
)


@pytest.mark.parametrize(
    "tamper",
    [
        f"UPDATE record_groups SET acmin_max = acmin_max + 1 WHERE rowid = {_A_ROW}",
        f"DELETE FROM record_groups WHERE rowid = {_A_ROW}",
        "INSERT INTO record_groups SELECT * FROM record_groups"
        f" WHERE rowid = {_A_ROW}",
        # Swap the first two packed observations: the same count, sum,
        # minimum and maximum, in another order (``||`` yields TEXT).
        "UPDATE group_values SET observations = CAST(substr(observations, 9, 8)"
        " || substr(observations, 1, 8) || substr(observations, 17) AS BLOB)"
        f" WHERE rowid = {_A_VALUES}",
        "UPDATE group_values SET record_indexes ="
        f" zeroblob(length(record_indexes)) WHERE rowid = {_A_VALUES}",
    ],
    ids=["altered", "missing", "duplicated", "values-reordered", "indexes-zeroed"],
)
def test_verify_finds_altered_group_rows_and_rebuild_repairs_them(
    tmp_path, capsys, tamper
):
    data_dir = tmp_path / "state"
    (data_dir / "results").mkdir(parents=True)
    docs = {
        "a-acmin": dumps_results(_spec("a"), _acmin_records(8, 40)),
        "b-acmin": dumps_results(_spec("b"), _acmin_records(9, 40)),
    }
    for key, text in docs.items():
        (data_dir / "results" / f"{key}.json").write_text(text)
    assert main(["warehouse", "rebuild", "--data-dir", str(data_dir)]) == 0
    db_path = data_dir / "warehouse.sqlite3"
    connection = sqlite3.connect(db_path)
    connection.execute(tamper)
    connection.commit()
    connection.close()

    with Warehouse(db_path) as warehouse:
        report = warehouse.verify()
    assert not report["ok"]
    assert report["mismatched_groups"] == ["a-acmin"]
    assert report["torn"] == report["mismatched"] == []
    assert main(["warehouse", "verify", "--db", str(db_path)]) == 1
    assert main(["warehouse", "rebuild", "--data-dir", str(data_dir)]) == 0
    assert main(["warehouse", "verify", "--db", str(db_path)]) == 0
    capsys.readouterr()
    with Warehouse(db_path) as warehouse:
        _assert_grouped_answers(warehouse, docs)


# ----------------------------------------------------------------------
# generated: several sources plus one that never finishes streaming
# ----------------------------------------------------------------------

_BATCH = sampled_from(EXPERIMENTS).bind(
    lambda experiment: lists(
        experiment_records(experiment), min_size=1, max_size=8
    ).map(lambda records: (experiment, records))
)


@prop(max_examples=15, case=tuples(lists(_BATCH, min_size=2, max_size=4), _BATCH))
def test_generated_sources_fold_identically(case):
    batches, (open_experiment, open_records) = case
    # Keys sort in the reverse of the ingest order (source ids ascend).
    keys = [f"src-{len(batches) - index}" for index in range(len(batches))]
    docs = {}
    with Warehouse(":memory:", batch_size=3) as warehouse:
        for key, (experiment, records) in zip(keys, batches):
            docs[key] = dumps_results(_spec(key, experiment), records)
            warehouse.ingest_results_text(docs[key], key=key)
        warehouse.open_source(_spec("open", open_experiment), key="src-2a")
        warehouse.ingest_shard(
            "src-2a",
            {
                "shard_id": "shard-0",
                "seed": 1,
                "attempt": 0,
                "units": [
                    {"unit": index, "record": dataclasses.asdict(record)}
                    for index, record in enumerate(open_records)
                ],
            },
        )
        first = batches[0][1][0]
        last = batches[-1][1][0]
        for filters in ({}, {"module_id": last.module_id}, {"die_key": first.die_key}):
            for report in REPORTS:
                for experiment in report_experiments(report):
                    got = warehouse.analytics(
                        report, experiment=experiment, **filters
                    )
                    expected = expected_report(report, docs, experiment, filters)
                    assert canon(got) == canon(expected), (report, experiment, filters)
        assert warehouse.count_records() == sum(
            len(records) for _, records in batches
        ) + len(open_records)
