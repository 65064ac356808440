"""Golden sweeps: ACmin search records are pinned.

An ACmin record is the end of a bisection: about eight probes of one
test program that differ only in the activation count.  However those
probes are built (a payload compiled per search and re-decoded per
probe, or a template cached across searches with its count patched),
they must send the device the same commands and find the same ACmin
everywhere.  This file runs ``CharacterizationRunner.acmin_sweep`` over
the full ``DEFAULT_TAGGON_SWEEP`` on two sites of S3, H0 and M4 (one
die per manufacturer), single- and double-sided, at 50 and 80 C, and a
sha256 over every record must match the digest recorded when every
search compiled its own probe payloads.

The sweep covers every probe shape: the budget-maximal first probe, the
count-1 probe (for double-sided patterns a program whose disturbance
loop runs zero times), odd and even double-sided totals, searches that
end at 1, and sites that never flip (``acmin`` of ``None``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from repro.characterization.patterns import AccessPattern
from repro.characterization.runner import DEFAULT_TAGGON_SWEEP, CharacterizationRunner

GOLDEN_MODULES = ("S3", "H0", "M4")
GOLDEN_TEMPERATURES = (50.0, 80.0)
GOLDEN_SITES = 2

GOLDEN_DIGEST = "ed82aa083d1449b4b7e20d2f31db5de32243908967b986140e5c01db70e05f20"


def golden_records() -> list:
    """Every golden sweep's records, in production order."""
    runner = CharacterizationRunner(
        module_ids=list(GOLDEN_MODULES), sites_per_module=GOLDEN_SITES
    )
    records: list = []
    for access in (AccessPattern.SINGLE_SIDED, AccessPattern.DOUBLE_SIDED):
        for temperature in GOLDEN_TEMPERATURES:
            records.extend(
                runner.acmin_sweep(
                    DEFAULT_TAGGON_SWEEP, access=access, temperature_c=temperature
                )
            )
    return records


def records_digest(records: list) -> str:
    """sha256 over every record's fields (sorted keys, production order)."""
    payload = json.dumps([dataclasses.asdict(r) for r in records], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def test_golden_sweeps_keep_their_digest():
    records = golden_records()
    assert len(records) == (
        len(GOLDEN_MODULES) * GOLDEN_SITES * len(DEFAULT_TAGGON_SWEEP) * 2 * 2
    )
    # The sweeps reach the probe shapes the docstring names.
    acmins = [record.acmin for record in records]
    assert None in acmins and 1 in acmins
    assert any(a is not None and a > 1 and a % 2 for a in acmins)
    assert records_digest(records) == GOLDEN_DIGEST
