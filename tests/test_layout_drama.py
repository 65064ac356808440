"""Reverse engineering: row layout (§3.2)."""

from repro.characterization.layout import adjacency_map, infer_scramble, probe_neighbors
from repro.dram.catalog import build_module

from tests.conftest import full_width_geometry


def test_probe_neighbors_finds_physical_adjacency():
    module = build_module("S3", geometry=full_width_geometry(192))
    # logical 18 maps physically to 19 (pair_block): neighbors are the
    # logical rows whose physical positions are 18 and 20.
    flipped = probe_neighbors(module, 18)
    physical = module.logical_to_physical(18)
    for row in flipped:
        assert abs(module.logical_to_physical(row) - physical) == 1


def test_adjacency_map_runs_over_rows():
    module = build_module("H0", geometry=full_width_geometry(192))
    mapping = adjacency_map(module, [20, 21])
    assert set(mapping) == {20, 21}


def test_infer_scramble_pair_block():
    module = build_module("S3", geometry=full_width_geometry(192))
    assert infer_scramble(module) == "pair_block"


def test_infer_scramble_identity():
    module = build_module("H0", geometry=full_width_geometry(192))
    assert infer_scramble(module) == "none"


def test_infer_scramble_none_when_invulnerable():
    module = build_module("M0", geometry=full_width_geometry(192))
    # M-8Gb-B: no press bitflips and hammer ACmin far above the probe
    # budget -> nothing flips -> no inference possible.
    assert infer_scramble(module) is None
