"""Metamorphic oracles: clean model passes, planted mutations get caught."""

from __future__ import annotations

import pytest

from repro.testkit import PropertyFailed, run_property
from repro.testkit import oracles

ALL = oracles.names()


def test_registry_lists_the_paper_oracles():
    assert "acmin-monotone" in ALL
    assert "progcheck-differential" in ALL
    assert "isa-equivalence" in ALL
    assert len(ALL) == 8
    with pytest.raises(KeyError, match="unknown oracle"):
        oracles.get("no-such-oracle")


def test_registry_lists_the_probe_replay_oracle():
    assert "probe-equivalence" in ALL


@pytest.mark.parametrize("name", ALL)
def test_oracle_passes_on_the_clean_model(name):
    oracle = oracles.get(name)
    report = run_property(
        oracle.check,
        oracle.gens,
        name=oracle.name,
        seed=2023,
        max_examples=oracle.self_check_examples,
        max_shrink_calls=oracle.shrink_calls,
    )
    assert report.examples == oracle.self_check_examples


@pytest.mark.parametrize("name", ALL)
def test_oracle_catches_its_planted_mutation(name):
    """Mutation self-check: every oracle must have teeth."""
    oracle = oracles.get(name)
    assert oracle.mutations
    for note, mutate in oracle.mutations:
        with mutate():
            with pytest.raises(PropertyFailed):
                run_property(
                    oracle.check,
                    oracle.gens,
                    name=oracle.name,
                    seed=2023,
                    max_examples=oracle.self_check_examples,
                    max_shrink_calls=oracle.shrink_calls,
                )


def test_mutated_oracle_shrinks_reproducibly():
    """Acceptance: same seed => identical shrunk counterexample twice."""
    oracle = oracles.get("dose-superset")
    ((_, mutate),) = oracle.mutations
    found = []
    with mutate():
        for _ in range(2):
            with pytest.raises(PropertyFailed) as info:
                run_property(
                    oracle.check,
                    oracle.gens,
                    name=oracle.name,
                    seed=77,
                    max_examples=oracle.self_check_examples,
                    max_shrink_calls=oracle.shrink_calls,
                )
            found.append(info.value.counterexample)
    assert found[0].choices == found[1].choices
    assert found[0].args_repr == found[1].args_repr
