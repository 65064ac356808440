"""Characterization experiments (§4, §5 of the paper).

Provides the access/data-pattern experiment compositions, the ACmin
bisection search, the t_AggONmin search, BER/ONOFF sweeps, the retention
test, overlap analysis, and a fleet-level experiment runner that the
benchmark harness drives.
"""

from repro.characterization.patterns import (
    AccessPattern,
    ExperimentConfig,
    RowSite,
    build_disturb_program,
    max_activations,
)
from repro.characterization.acmin import AcminSearch, find_acmin
from repro.characterization.taggonmin import find_taggonmin
from repro.characterization.ber import measure_ber, onoff_sweep
from repro.characterization.retention_test import retention_failures
from repro.characterization.layout import infer_scramble, probe_neighbors
from repro.characterization import registry
from repro.characterization.campaign import (
    CampaignSpec,
    load_results,
    run_campaign,
    save_results,
)
from repro.characterization.engine import (
    CampaignCheckpoint,
    EngineResult,
    ShardFailure,
    ShardSpec,
    plan_shards,
    run_engine,
)
from repro.characterization.overlap import overlap_ratio
from repro.characterization.results import (
    AcminRecord,
    BerRecord,
    TaggonminRecord,
    aggregate_by_die,
    box_stats,
)
from repro.characterization.runner import CharacterizationRunner

__all__ = [
    "AccessPattern",
    "ExperimentConfig",
    "RowSite",
    "build_disturb_program",
    "max_activations",
    "AcminSearch",
    "find_acmin",
    "find_taggonmin",
    "measure_ber",
    "onoff_sweep",
    "retention_failures",
    "infer_scramble",
    "probe_neighbors",
    "CampaignSpec",
    "run_campaign",
    "save_results",
    "load_results",
    "registry",
    "CampaignCheckpoint",
    "EngineResult",
    "ShardFailure",
    "ShardSpec",
    "plan_shards",
    "run_engine",
    "overlap_ratio",
    "AcminRecord",
    "BerRecord",
    "TaggonminRecord",
    "aggregate_by_die",
    "box_stats",
    "CharacterizationRunner",
]
