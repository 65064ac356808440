"""Differential oracle: warehouse analytics vs pure-Python JSONL folds.

Every analytics report the warehouse computes is re-derived here by an
independent fold over the *same* schema-v2 JSONL documents — plain
``json.loads`` dicts, no SQLite anywhere — and the two answers must be
byte-identical after ``json.dumps(..., sort_keys=True)``.  That holds
the warehouse to the repo's standing oracle (indexed answers are the
JSONL answers, exactly), and it exercises the whole storage path:
column affinities (ints stay ints, floats stay floats, ``None`` stays
``None``), row ordering (source key, then record index), and the
experiment/module/die filters.

The fixed campaigns cover the paper's three experiments plus a die
that never flips at 50C (H-4Gb-A), so the ``None``-observation path is
on the oracle's critical line; they are also ingested in the reverse of
their key order.  The ``@prop`` cases feed generated record composites
straight through ``ingest_records``, and generated sources whose
records cycle through modules, temperatures and sweep points one record
at a time, with observables of mixed magnitudes: the warehouse stores
each group's observations apart and must merge them back into record
order, or a float sum comes out different.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.characterization.campaign import (
    CampaignSpec,
    dumps_results,
    run_campaign,
)
from repro.characterization.results import (
    AcminRecord,
    BerRecord,
    TaggonminRecord,
    box_stats,
)
from repro.testkit.gen import experiment_records, lists, sampled_from, tuples
from repro.testkit.harness import prop
from repro.warehouse import REPORTS, Warehouse

EXPERIMENTS = ("acmin", "taggonmin", "ber")

#: Sweep-axis field per experiment, stated independently of the
#: warehouse's own mapping so a warehouse-side mistake cannot leak in.
AXES = {"acmin": "t_aggon", "taggonmin": "activation_count", "ber": "t_aggon"}
OBSERVABLES = {"acmin": "acmin", "taggonmin": "taggonmin", "ber": "ber"}


# ----------------------------------------------------------------------
# the independent fold (JSONL dicts in, report payloads out)
# ----------------------------------------------------------------------


def jsonl_records(docs: dict[str, str], experiment=None, module=None, die=None):
    """Record dicts of all documents, sources in ascending key order."""
    rows = []
    for key in sorted(docs):
        for raw in json.loads(docs[key])["records"]:
            if experiment is not None and raw["experiment"] != experiment:
                continue
            if module is not None and raw["module_id"] != module:
                continue
            if die is not None and raw["die_key"] != die:
                continue
            rows.append(raw)
    return rows


def present(values):
    return [v for v in values if v is not None and not math.isnan(float(v))]


def summary(values):
    hits = present(values)
    return {
        "count": len(values),
        "observed": len(hits),
        "hit_fraction": len(hits) / len(values) if values else 0.0,
        "mean": sum(hits) / len(hits) if hits else None,
        "minimum": min(hits) if hits else None,
        "maximum": max(hits) if hits else None,
    }


def box(values):
    hits = present(values)
    if not hits:
        return None
    stats = box_stats(hits)
    return {
        "minimum": stats.minimum,
        "first_quartile": stats.first_quartile,
        "median": stats.median,
        "third_quartile": stats.third_quartile,
        "maximum": stats.maximum,
        "mean": stats.mean,
    }


def expected_acmin(records):
    by_die = {}
    for raw in records:
        by_die.setdefault(raw["die_key"], []).append(raw["acmin"])
    dies = {}
    for die in sorted(by_die):
        entry = summary(by_die[die])
        entry["percentiles"] = box(by_die[die])
        dies[die] = entry
    return {"report": "acmin", "experiment": "acmin", "dies": dies}


def expected_temperature(records, experiment):
    field = OBSERVABLES[experiment]
    by_die = {}
    for raw in records:
        by_temp = by_die.setdefault(raw["die_key"], {})
        by_temp.setdefault(float(raw["temperature_c"]), []).append(raw[field])
    dies = {}
    for die in sorted(by_die):
        temps = sorted(by_die[die])
        summaries = {str(t): summary(by_die[die][t]) for t in temps}
        base = summaries[str(temps[0])]["mean"]
        deltas = {}
        for t in temps:
            mean = summaries[str(t)]["mean"]
            deltas[str(t)] = (
                mean / base if mean is not None and base not in (None, 0) else None
            )
        dies[die] = {
            "temperatures": summaries,
            "coolest": temps[0],
            "delta_vs_coolest": deltas,
        }
    return {"report": "temperature", "experiment": experiment, "dies": dies}


def expected_ber(records):
    by_die = {}
    for raw in records:
        by_sweep = by_die.setdefault(raw["die_key"], {})
        by_sweep.setdefault(float(raw["t_aggon"]), []).append(raw)
    dies = {}
    for die in sorted(by_die):
        curve = []
        for sweep in sorted(by_die[die]):
            bucket = by_die[die][sweep]
            bers = present([raw["ber"] for raw in bucket])
            bitflips = sum(int(raw["bitflips"]) for raw in bucket)
            ones = sum(int(raw["one_to_zero"]) for raw in bucket)
            curve.append(
                {
                    "t_aggon": sweep,
                    "count": len(bucket),
                    "mean_ber": sum(bers) / len(bers) if bers else None,
                    "max_ber": max(bers) if bers else None,
                    "bitflips": bitflips,
                    "one_to_zero_fraction": ones / bitflips if bitflips else None,
                }
            )
        dies[die] = curve
    return {"report": "ber", "experiment": "ber", "dies": dies}


def expected_sweep(records, experiment):
    axis, field = AXES[experiment], OBSERVABLES[experiment]
    by_die = {}
    for raw in records:
        by_temp = by_die.setdefault(raw["die_key"], {})
        by_sweep = by_temp.setdefault(float(raw["temperature_c"]), {})
        by_sweep.setdefault(float(raw[axis]), []).append(raw[field])
    dies = {}
    for die in sorted(by_die):
        temps = {}
        for t in sorted(by_die[die]):
            temps[str(t)] = [
                {"sweep": sweep, **summary(by_die[die][t][sweep])}
                for sweep in sorted(by_die[die][t])
            ]
        dies[die] = temps
    return {
        "report": "sweep",
        "experiment": experiment,
        "axis": axis,
        "dies": dies,
    }


def expected_modules(records):
    by_key = {}
    for raw in records:
        by_key.setdefault((raw["module_id"], raw["experiment"]), []).append(raw)
    modules = {}
    for module, experiment in sorted(by_key):
        bucket = by_key[(module, experiment)]
        entry = summary([raw[OBSERVABLES[experiment]] for raw in bucket])
        entry["die_key"] = bucket[0]["die_key"]
        modules.setdefault(module, {})[experiment] = entry
    return {"report": "modules", "modules": modules}


def expected_report(report, docs, experiment=None, filters=None):
    """The JSONL fold of one report, as ``Warehouse.analytics`` takes it."""
    filters = filters or {}
    rows = jsonl_records(
        docs,
        experiment=experiment,
        module=filters.get("module_id"),
        die=filters.get("die_key"),
    )
    if report == "acmin":
        return expected_acmin(rows)
    if report == "ber":
        return expected_ber(rows)
    if report == "temperature":
        return expected_temperature(rows, experiment)
    if report == "sweep":
        return expected_sweep(rows, experiment)
    return expected_modules(rows)


def report_experiments(report):
    """The experiments a report is asked about: every one where it takes
    an ``experiment``, else the one it is fixed to (``None``: all)."""
    return EXPERIMENTS if report in ("sweep", "temperature") else (REPORTS[report],)


def canon(payload):
    return json.dumps(payload, sort_keys=True)


# ----------------------------------------------------------------------
# fixed campaigns: all three experiments, two temperatures, a no-flip die
# ----------------------------------------------------------------------


def _spec(name, experiment, **kwargs):
    defaults = dict(
        name=name,
        module_ids=("S3", "H4"),
        experiment=experiment,
        t_aggon_values=(636.0, 7800.0),
        activation_counts=(1, 100),
        sites_per_module=2,
        seed=41,
    )
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


@pytest.fixture(scope="module")
def corpus_docs():
    """Five campaigns as JSONL: two per experiment for ACmin and BER."""
    specs = {
        "a-acmin-50c": _spec("diff-acmin-50", "acmin", temperature_c=50.0),
        "b-acmin-80c": _spec("diff-acmin-80", "acmin", temperature_c=80.0),
        "c-taggonmin": _spec("diff-taggonmin", "taggonmin", seed=42),
        "d-ber": _spec("diff-ber", "ber", seed=43),
        "e-ber-80c": _spec("diff-ber-80", "ber", seed=44, temperature_c=80.0),
    }
    return {
        key: dumps_results(spec, run_campaign(spec))
        for key, spec in specs.items()
    }


@pytest.fixture(scope="module")
def corpus(corpus_docs):
    """``(docs, warehouse)``: the campaigns, ingested and as JSONL."""
    warehouse = Warehouse(":memory:")
    for key, text in corpus_docs.items():
        warehouse.ingest_results_text(text, key=key)
    yield corpus_docs, warehouse
    warehouse.close()


def test_acmin_report_matches_jsonl_fold(corpus):
    docs, warehouse = corpus
    expected = expected_acmin(jsonl_records(docs, experiment="acmin"))
    assert canon(warehouse.analytics("acmin")) == canon(expected)


def test_temperature_report_matches_jsonl_fold(corpus):
    docs, warehouse = corpus
    expected = expected_temperature(
        jsonl_records(docs, experiment="acmin"), "acmin"
    )
    assert canon(warehouse.analytics("temperature")) == canon(expected)
    # The fixed corpus must actually span two temperatures for this
    # report to mean anything.
    assert any(
        len(entry["temperatures"]) == 2 for entry in expected["dies"].values()
    )


def test_ber_report_matches_jsonl_fold(corpus):
    docs, warehouse = corpus
    expected = expected_ber(jsonl_records(docs, experiment="ber"))
    assert canon(warehouse.analytics("ber")) == canon(expected)


def test_sweep_report_matches_jsonl_fold_for_every_experiment(corpus):
    docs, warehouse = corpus
    for experiment in EXPERIMENTS:
        expected = expected_sweep(
            jsonl_records(docs, experiment=experiment), experiment
        )
        got = warehouse.analytics("sweep", experiment=experiment)
        assert canon(got) == canon(expected), experiment


def test_modules_report_matches_jsonl_fold(corpus):
    docs, warehouse = corpus
    expected = expected_modules(jsonl_records(docs))
    assert canon(warehouse.analytics("modules")) == canon(expected)


def test_filters_narrow_both_sides_identically(corpus):
    docs, warehouse = corpus
    expected = expected_acmin(
        jsonl_records(docs, experiment="acmin", module="S3")
    )
    assert canon(warehouse.analytics("acmin", module_id="S3")) == canon(expected)
    expected = expected_modules(jsonl_records(docs, die="H-4Gb-A"))
    assert canon(warehouse.analytics("modules", die_key="H-4Gb-A")) == canon(
        expected
    )


def test_none_observations_survive_the_round_trip(corpus):
    docs, warehouse = corpus
    # H-4Gb-A shows no bitflips at 50C (paper Obsv. 10): the JSONL holds
    # nulls and the warehouse must report the identical hit_fraction.
    report = warehouse.analytics("acmin", die_key="H-4Gb-A")
    entry = report["dies"]["H-4Gb-A"]
    assert entry["observed"] < entry["count"]


def test_sources_ingested_against_their_key_order_fold_identically(corpus_docs):
    # Source ids ascend in ingest order; answers follow source keys.
    with Warehouse(":memory:") as warehouse:
        for key in sorted(corpus_docs, reverse=True):
            warehouse.ingest_results_text(corpus_docs[key], key=key)
        for filters in (
            {},
            {"module_id": "S3"},
            {"module_id": "H4"},
            {"die_key": "S-8Gb-B"},
            {"die_key": "H-4Gb-A"},
        ):
            for report in REPORTS:
                for experiment in report_experiments(report):
                    got = warehouse.analytics(
                        report, experiment=experiment, **filters
                    )
                    expected = expected_report(
                        report, corpus_docs, experiment, filters
                    )
                    assert canon(got) == canon(expected), (
                        report,
                        experiment,
                        filters,
                    )


def test_every_catalog_report_is_covered_here():
    """A new report must be added to this differential suite to ship."""
    assert sorted(REPORTS) == ["acmin", "ber", "modules", "sweep", "temperature"]


# ----------------------------------------------------------------------
# generative case: arbitrary record composites through ingest_records
# ----------------------------------------------------------------------

_BATCHES = sampled_from(EXPERIMENTS).bind(
    lambda experiment: lists(
        experiment_records(experiment), min_size=1, max_size=12
    ).map(lambda records: (experiment, records))
)


@prop(max_examples=20, batch=_BATCHES)
def test_generated_records_fold_identically(batch):
    experiment, records = batch
    spec = CampaignSpec(
        name="diff-gen", module_ids=("S3",), experiment=experiment, seed=7
    )
    docs = {"gen": dumps_results(spec, records)}
    with Warehouse(":memory:", batch_size=3) as warehouse:
        count = warehouse.ingest_results_text(docs["gen"], key="gen")
        assert count == len(records)
        rows = jsonl_records(docs, experiment=experiment)
        if experiment == "acmin":
            assert canon(warehouse.analytics("acmin")) == canon(
                expected_acmin(rows)
            )
        if experiment == "ber":
            assert canon(warehouse.analytics("ber")) == canon(expected_ber(rows))
        assert canon(
            warehouse.analytics("temperature", experiment=experiment)
        ) == canon(expected_temperature(rows, experiment))
        assert canon(
            warehouse.analytics("sweep", experiment=experiment)
        ) == canon(expected_sweep(rows, experiment))
        assert canon(warehouse.analytics("modules")) == canon(
            expected_modules(jsonl_records(docs))
        )


# ----------------------------------------------------------------------
# generative case: sources whose groups interleave record by record
# ----------------------------------------------------------------------

#: Observables of mixed magnitudes: added in another order, their float
#: sums differ (1e16 + 1.5 + 3.25 is 1e16 + 6, 1.5 + 3.25 + 1e16 is
#: 1e16 + 4).
MIXED = (1e16, 1.5, 3.25, 0.1, 7e-9, 12_345.678, None)
INTERLEAVED_MODULES = (("S3", "S-8Gb-B"), ("H4", "H-4Gb-A"))


def interleaved_record(experiment, index, value):
    """Record ``index`` of a source that cycles through two modules, two
    temperatures and three sweep points, one record at a time."""
    module_id, die_key = INTERLEAVED_MODULES[index % 2]
    temperature = (50.0, 80.0)[index // 2 % 2]
    sweep = (36.0, 7800.0, 70_200.0)[index % 3]
    if experiment == "acmin":
        acmin = None if value is None else int(value * 8) + 1
        return AcminRecord(
            module_id, die_key, "single", temperature, sweep, index, acmin
        )
    if experiment == "taggonmin":
        return TaggonminRecord(
            module_id, die_key, temperature, int(sweep), index, value
        )
    return BerRecord(
        module_id,
        die_key,
        "single",
        temperature,
        sweep,
        14.5,
        index,
        0.0 if value is None else value,
        index % 5,
        index % 3,
    )


@prop(
    max_examples=20,
    case=tuples(
        sampled_from(EXPERIMENTS),
        lists(lists(sampled_from(MIXED), min_size=1, max_size=14), min_size=2, max_size=3),
    ),
)
def test_interleaved_groups_merge_back_into_record_order(case):
    experiment, sources = case
    docs = {}
    with Warehouse(":memory:", batch_size=4) as warehouse:
        # Keys sort in the reverse of the ingest order.
        for number, values in enumerate(sources):
            key = f"src-{len(sources) - number}"
            spec = CampaignSpec(
                name=key, module_ids=("S3",), experiment=experiment, seed=7
            )
            records = [
                interleaved_record(experiment, index, value)
                for index, value in enumerate(values)
            ]
            docs[key] = dumps_results(spec, records)
            warehouse.ingest_results_text(docs[key], key=key)
        for filters in ({}, {"module_id": "H4"}, {"die_key": "S-8Gb-B"}):
            for report in REPORTS:
                for selected in report_experiments(report):
                    got = warehouse.analytics(
                        report, experiment=selected, **filters
                    )
                    expected = expected_report(report, docs, selected, filters)
                    assert canon(got) == canon(expected), (
                        report,
                        selected,
                        filters,
                    )
