"""The two in-process workloads: ``acmin-study`` and ``ber-survey``.

Both run a fixed amount of work derived from ``--seed`` and
``--seconds`` (the work is sized so the timed region lasts about
``--seconds`` at the reference speed), so one seed always produces the
same records and the same layer counts.  A *job* is one sweep or one
campaign; after each, its records go into an in-process warehouse and
one analytics report is read back, as the figure benches analyse
campaigns (the *query*).  Nothing here imports ``repro`` at module
level: set-up time includes the import.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import resource
import tempfile
import time
from pathlib import Path

import folds

#: One module per manufacturer: the three representative dies the
#: figure benches use (Figs. 15, 19-20, 25-26).
ACMIN_MODULES = ("S3", "H0", "M4")
ACMIN_TEMPERATURES = (50.0, 55.0, 60.0, 65.0, 70.0, 75.0, 80.0, 85.0)
ACMIN_ACCESS = ("single", "double")
#: ACmin records per second at the reference speed (sizes the work).
ACMIN_RATE = 75.0

#: Table 6's two t_AggON points: the RowHammer baseline and one tREFI.
BER_TAGGON = (36.0, 7800.0)
#: Campaigns per Table 1 module, each with its own cell seed: 42 jobs,
#: enough for a p75 with ten samples beyond it.
BER_CAMPAIGNS_PER_MODULE = 2
#: BER records per second at the reference speed (sizes the work).
BER_RATE = 13.0


def records_digest(records: list) -> str:
    """sha256 over every record's fields, in production order."""
    payload = json.dumps([dataclasses.asdict(r) for r in records], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def acmin_sites(seconds: float) -> int:
    per_site = len(ACMIN_MODULES) * len(ACMIN_TEMPERATURES) * len(ACMIN_ACCESS) * 10
    return max(1, round(seconds * ACMIN_RATE / per_site))


def ber_sites(seconds: float, campaigns: int) -> int:
    return max(1, round(seconds * BER_RATE / (campaigns * len(BER_TAGGON))))


# ----------------------------------------------------------------------
# set-up: import plus construction, up to the first timed call
# ----------------------------------------------------------------------


def setup_acmin(seed: int, seconds: float):
    """Import the runner and construct it; returns the runner."""
    from repro.characterization.runner import CharacterizationRunner

    return CharacterizationRunner(
        module_ids=list(ACMIN_MODULES), sites_per_module=acmin_sites(seconds), seed=seed
    )


def setup_ber(seed: int, seconds: float) -> list:
    """Import the engine and build the campaign specs; returns the specs."""
    from repro.characterization.campaign import CampaignSpec
    from repro.characterization.engine import run_engine  # noqa: F401
    from repro.dram.catalog import MODULE_CATALOG

    campaigns = [
        (module, variant)
        for module in sorted(MODULE_CATALOG)
        for variant in range(BER_CAMPAIGNS_PER_MODULE)
    ]
    random.Random(seed).shuffle(campaigns)
    sites = ber_sites(seconds, len(campaigns))
    return [
        CampaignSpec(
            name=f"ber-survey-{seed}-{module}-{variant}",
            module_ids=(module,),
            experiment="ber",
            t_aggon_values=BER_TAGGON,
            sites_per_module=sites,
            seed=seed * 64 + index,
        )
        for index, (module, variant) in enumerate(campaigns)
    ]


SETUPS = {"acmin-study": setup_acmin, "ber-survey": setup_ber}


# ----------------------------------------------------------------------
# timed runs
# ----------------------------------------------------------------------


class _Analysis:
    """The in-process warehouse every job's records go into."""

    def __init__(self, run, directory: str) -> None:
        from repro.warehouse import Warehouse

        self.run = run
        self.warehouse = Warehouse(Path(directory) / "warehouse.sqlite3")
        self.sources: list[tuple[str, list[dict]]] = []
        self.answers: list[tuple[int, str, dict, dict]] = []

    def job(self, spec, records: list, report: str, filters: dict) -> None:
        """Ingest one job's records, then read one report back (timed)."""
        start = time.perf_counter()
        try:
            self.warehouse.ingest_records(spec, records, key=spec.name)
            query_start = time.perf_counter()
            answer = self.warehouse.analytics(report, **filters)
        except Exception as error:
            self.run.fail(f"analysis of {spec.name}: {error!r}")
            return
        end = time.perf_counter()
        self.run.op(start, end, 0)
        self.run.sample("query", query_start, end)
        self.sources.append(
            (spec.name, [{"experiment": spec.experiment, **dataclasses.asdict(r)} for r in records])
        )
        self.answers.append((len(self.sources), report, filters, answer))

    def check(self) -> None:
        """Seeded answers must equal the folds over the rows held then."""
        self.warehouse.close()
        rng = random.Random(self.run.seed + 3)
        for sample in sorted(rng.sample(range(len(self.answers)), min(3, len(self.answers)))):
            visible, report, filters, answer = self.answers[sample]
            if not folds.matches(answer, self.sources[:visible], report, filters):
                self.run.fail(f"{report} {filters} after job {visible} differs from the fold")


def run_acmin_study(run) -> None:
    """Full 10-point t_AggON ACmin sweeps over the same sites.

    One runner sweeps every (temperature, access) condition on every
    module, so the sites' cell populations are sampled once and then
    reused: the run is bound by search probes, not first-touch sampling.
    Each sweep is followed by the study's ``sweep`` report (Figs. 13-14).
    """
    runner = run.setup(setup_acmin)
    from repro.characterization.campaign import CampaignSpec, run_campaign
    from repro.characterization.patterns import AccessPattern
    from repro.characterization.runner import DEFAULT_TAGGON_SWEEP

    def spec(module: str, temperature: float, access: str) -> CampaignSpec:
        return CampaignSpec(
            name=f"acmin-study-{run.seed}-{module}-{temperature:g}-{access}",
            module_ids=(module,),
            experiment="acmin",
            t_aggon_values=DEFAULT_TAGGON_SWEEP,
            access=access,
            temperature_c=temperature,
            sites_per_module=runner.sites_per_module,
            seed=run.seed,
        )

    conditions = [
        (temperature, access)
        for temperature in ACMIN_TEMPERATURES
        for access in ACMIN_ACCESS
    ]
    records: list = []
    last: list = []
    with tempfile.TemporaryDirectory(dir=run.tmp_dir) as tmp:
        analysis = _Analysis(run, tmp)
        run.begin()
        for temperature, access in conditions:
            # One sweep per module (the runner's benches stay cached across
            # them): operations of ~0.6 s let kernel slices follow the drift.
            for module in ACMIN_MODULES:
                runner.module_ids = [module]
                run.clock.maybe_take()
                start = time.perf_counter()
                try:
                    last = runner.acmin_sweep(
                        DEFAULT_TAGGON_SWEEP,
                        access=AccessPattern(access),
                        temperature_c=temperature,
                    )
                except Exception as error:  # a failed operation, not a crash
                    run.fail(f"acmin_sweep {module} {temperature} {access}: {error!r}")
                    continue
                end = time.perf_counter()
                run.op(start, end, len(last))
                run.sample("job", start, end)
                records.extend(last)
                analysis.job(spec(module, temperature, access), last, "sweep", {})
        run.end(peak_rss_mb())
        analysis.check()

    # Output check: the last sweep, rerun from scratch, must match what
    # the shared runner produced after every other condition.
    temperature, access = conditions[-1]
    if run_campaign(spec(ACMIN_MODULES[-1], temperature, access)) != last:
        run.fail(f"condition {temperature} C {access} differs from run_campaign")
    run.finish(len(records), records_digest(records))


def run_ber_survey(run) -> None:
    """Table 6 BER at two t_AggON points over every Table 1 module.

    ``run_engine(workers=1)`` campaigns with checkpoints, two per module:
    every record is one execute, and each site's rows are first touched
    by it, so the run is bound by cell sampling.  Each campaign is
    followed by its die's ``ber`` report (Table 6).
    """
    specs = run.setup(setup_ber)
    from repro.characterization import engine
    from repro.characterization.campaign import run_campaign
    from repro.dram.catalog import MODULE_CATALOG

    records: list = []
    by_spec: dict[str, list] = {}
    with tempfile.TemporaryDirectory(dir=run.tmp_dir) as tmp:
        analysis = _Analysis(run, tmp)
        run.begin()
        for index, spec in enumerate(specs):
            run.clock.maybe_take()
            start = time.perf_counter()
            try:
                result = engine.run_engine(
                    spec, workers=1, checkpoint=Path(tmp) / f"c{index}.jsonl"
                )
            except Exception as error:
                run.fail(f"run_engine {spec.name}: {error!r}")
                continue
            end = time.perf_counter()
            if not result.ok:
                run.fail(f"run_engine {spec.name}: {len(result.failures)} failed shard(s)")
                continue
            run.op(start, end, len(result.records))
            run.sample("job", start, end)
            records.extend(result.records)
            by_spec[spec.name] = result.records
            die = MODULE_CATALOG[spec.module_ids[0]].die_key
            analysis.job(spec, result.records, "ber", {"die_key": die})
        run.end(peak_rss_mb())
        analysis.check()

    # Output check: one campaign's engine records equal run_campaign's.
    spec = specs[run.seed % len(specs)]
    if run_campaign(spec) != by_spec.get(spec.name):
        run.fail(f"{spec.name} differs from run_campaign")
    run.finish(len(records), records_digest(records))
