"""Property test: the executor's bulk loop path matches literal replay."""

from __future__ import annotations

import pytest

from repro.dram.catalog import build_module
from repro.dram.geometry import Geometry, RowAddress
from repro.bender.executor import ProgramExecutor
from repro.bender.program import Act, Loop, Pre, Program, Wait
from repro.testkit import assume, floats, integers, lists, prop

GEOMETRY = Geometry(
    ranks=1, bank_groups=1, banks_per_group=1, rows_per_bank=96, row_bits=8192
)


def _loop_program(rows, t_ons, count):
    body = []
    for row, t_on in zip(rows, t_ons):
        body.extend(
            [Act(RowAddress(0, 0, row)), Wait(t_on), Pre(0, 0), Wait(15.0)]
        )
    return Program([Loop(count, tuple(body))])


def _unrolled(rows, t_ons, count):
    program = _loop_program(rows, t_ons, 1)
    (loop,) = program.instructions
    return Program([Loop(1, loop.body * count)])


@prop(
    max_examples=20,
    rows=lists(integers(10, 80), min_size=1, max_size=3),
    t_ons=lists(floats(36.0, 20_000.0), min_size=3, max_size=3),
    count=integers(24, 80),
)
def test_bulk_loop_equals_literal_replay(rows, t_ons, count):
    """Doses agree within ~one episode's worth of slack.

    The literal replay's *final* episode is flushed with the elapsed
    (saturated) off-time instead of the loop's cyclic gap, so a 1/count
    relative difference on the hammer channel is inherent.  Aggressors
    within each other's dose neighborhood are excluded: there the literal
    path flushes pending episodes early (at the neighbor's sense) with a
    truncated off-time, while the bulk path's cyclic off-time is the
    accurate one (bounded by the ~1.3x f_off range either way).
    """
    spread = sorted(rows)
    assume(all(b - a >= 4 for a, b in zip(spread, spread[1:])))
    bulk_device = build_module("S3", geometry=GEOMETRY).device
    literal_device = build_module("S3", geometry=GEOMETRY).device
    ProgramExecutor(bulk_device).interpret(_loop_program(rows, t_ons, count))
    ProgramExecutor(literal_device).interpret(_unrolled(rows, t_ons, count))
    now = 1e12
    for row in range(5, 90):
        if row in rows:
            # Aggressor rows clear their own dose on every activation;
            # the (negligible) residual they carry at the end depends on
            # deposit ordering and is not part of the equivalence claim.
            continue
        address = RowAddress(0, 0, row)
        bulk_dose = bulk_device.dose_of(address, now=now)
        literal_dose = literal_device.dose_of(address, now=now)
        assert bulk_dose[0] == pytest.approx(literal_dose[0], rel=0.1, abs=1e-6), row
        assert bulk_dose[1] == pytest.approx(literal_dose[1], rel=0.1, abs=1e-3), row
