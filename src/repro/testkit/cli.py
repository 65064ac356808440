"""Backend of the ``repro fuzz`` subcommand.

``repro fuzz all --seed 2023`` runs every metamorphic oracle against
freshly generated inputs; failures are shrunk and printed with their
choice sequence and a replay line.  ``--self-check`` instead proves
the harness has teeth: each oracle must pass against the clean model
*and* fail against its intentionally planted mutation — an oracle
that misses its own planted bug exits nonzero.
"""

from __future__ import annotations

import argparse

from repro.testkit.harness import PropertyFailed, run_property

__all__ = ["run_fuzz"]


def _run_one(oracle, seed: int, max_examples: int, shrink_enabled: bool, corpus) -> bool:
    """Fuzz one oracle; prints the outcome, returns success."""
    try:
        report = run_property(
            oracle.check,
            oracle.gens,
            name=oracle.name,
            seed=seed,
            max_examples=max_examples,
            corpus_dir=corpus,
            shrink_enabled=shrink_enabled,
            max_shrink_calls=oracle.shrink_calls,
        )
    except PropertyFailed as failure:
        print(f"FAIL {oracle.name}: {oracle.title}")
        print("\n".join(f"     {line}" for line in str(failure).splitlines()))
        return False
    extra = (
        f", {report.invalid} discarded" if report.invalid else ""
    ) + (
        f", {report.corpus_replayed} corpus" if report.corpus_replayed else ""
    )
    print(f"ok   {oracle.name}: {report.examples} examples{extra}")
    return True


def _self_check_one(oracle, seed: int, max_examples: int) -> int:
    """Clean must pass, each mutation must fail; prints one line per mutation.

    Returns how many of the oracle's planted mutations it caught (none
    when it fails on the clean model).
    """

    def fails() -> bool:
        try:
            run_property(
                oracle.check,
                oracle.gens,
                name=oracle.name,
                seed=seed,
                max_examples=max_examples,
                max_shrink_calls=oracle.shrink_calls,
            )
        except PropertyFailed:
            return True
        return False

    if fails():
        print(f"FAIL {oracle.name}: fails on the CLEAN model")
        return 0
    caught = 0
    for note, mutate in oracle.mutations:
        with mutate():
            if fails():
                caught += 1
                print(f"ok   {oracle.name}: clean passes, catches `{note}`")
            else:
                print(f"FAIL {oracle.name}: does NOT catch `{note}`")
    return caught


def run_fuzz(args: argparse.Namespace) -> int:
    """Entry point for ``repro fuzz`` (see ``repro.cli``)."""
    from repro.testkit import oracles

    if args.list:
        for name in oracles.names():
            oracle = oracles.get(name)
            print(f"{name:24} {oracle.title}")
        return 0
    if args.target == "all":
        targets = list(oracles.names())
    else:
        try:
            targets = [oracles.get(args.target).name]
        except KeyError as error:
            print(f"error: {error.args[0]}")
            return 2
    ok = True
    planted = caught = 0
    for name in targets:
        oracle = oracles.get(name)
        max_examples = args.max_examples or (
            oracle.self_check_examples if args.self_check else oracle.max_examples
        )
        if args.self_check:
            planted += len(oracle.mutations)
            caught += _self_check_one(oracle, args.seed, max_examples)
        else:
            ok = _run_one(
                oracle, args.seed, max_examples, args.shrink, args.corpus
            ) and ok
    if args.self_check:
        print(f"caught {caught} of {planted} planted mutations")
        ok = caught == planted
    return 0 if ok else 1
