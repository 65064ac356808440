"""Tests for the thread-based sampling profiler (repro.obs.profiler)."""

from __future__ import annotations

import threading

import pytest

from repro.obs import SamplingProfiler, monotonic_s
from repro.obs.profiler import frame_label


def _spin(seconds: float) -> int:
    """Busy-loop with a distinctive frame on the stack.

    The clock is read once per 1,000 passes.  Samples land where this
    thread yields the interpreter lock; with a clock call on every pass,
    all of them can land in ``monotonic_s`` and none in ``_spin``.
    """
    total = 0
    deadline = monotonic_s() + seconds
    while monotonic_s() < deadline:
        for _ in range(1000):
            total += 1
    return total


def test_profiler_samples_the_calling_thread():
    profiler = SamplingProfiler(interval_s=0.001)
    with profiler:
        _spin(0.15)
    assert profiler.sample_count > 0
    assert profiler.sampled_s > 0.0
    lines = profiler.collapsed().splitlines()
    assert any("_spin" in line for line in lines)
    # Collapsed lines are "frame;frame;... count" with root-first stacks.
    for line in lines:
        stack, _, count = line.rpartition(" ")
        assert stack
        assert int(count) > 0


def test_profiler_top_frames_attributes_leaf_time():
    profiler = SamplingProfiler(interval_s=0.001)
    with profiler:
        _spin(0.15)
    top = profiler.top_frames(5)
    assert top, "expected at least one sampled leaf frame"
    labels = [label for label, _count in top]
    assert any("_spin" in label for label in labels)
    counts = [count for _label, count in top]
    assert counts == sorted(counts, reverse=True)


def test_profiler_start_is_idempotent_and_stop_returns_self():
    profiler = SamplingProfiler(interval_s=0.002)
    profiler.start()
    profiler.start()  # second start is a no-op, not a second thread
    _spin(0.03)
    assert profiler.stop() is profiler
    count_after_stop = profiler.sample_count
    _spin(0.03)
    assert profiler.sample_count == count_after_stop  # no sampling when stopped


def test_profiler_restarts_accumulate():
    profiler = SamplingProfiler(interval_s=0.001)
    with profiler:
        _spin(0.05)
    first = profiler.sample_count
    with profiler:
        _spin(0.05)
    assert profiler.sample_count >= first


def test_profiler_rejects_nonpositive_interval():
    with pytest.raises(ValueError):
        SamplingProfiler(interval_s=0.0)
    with pytest.raises(ValueError):
        SamplingProfiler(interval_s=-1.0)


def test_profiler_merge_counts_adds_cross_process_samples():
    profiler = SamplingProfiler(interval_s=0.001)
    with profiler:
        _spin(0.05)
    before = dict(profiler.counts)
    profiler.merge_counts({"worker.shard;worker.leaf": 7})
    assert profiler.counts["worker.shard;worker.leaf"] == 7
    for stack, count in before.items():
        assert profiler.counts[stack] == count
    profiler.merge_counts({"worker.shard;worker.leaf": 3})
    assert profiler.counts["worker.shard;worker.leaf"] == 10


def test_write_collapsed_is_flamegraph_ready(tmp_path):
    profiler = SamplingProfiler(interval_s=0.001)
    with profiler:
        _spin(0.1)
    out = tmp_path / "profile.collapsed"
    profiler.write_collapsed(out)
    lines = out.read_text().splitlines()
    assert lines
    for line in lines:
        stack, _, count = line.rpartition(" ")
        assert ";" in stack or "." in stack
        assert int(count) > 0
    assert lines == sorted(lines)


def test_profiler_can_target_another_thread():
    ready = threading.Event()
    done = threading.Event()
    ident: list[int] = []

    def worker():
        ident.append(threading.get_ident())
        ready.set()
        _spin(0.12)
        done.set()

    thread = threading.Thread(target=worker)
    thread.start()
    ready.wait(timeout=5)
    profiler = SamplingProfiler(interval_s=0.001, target_thread_id=ident[0])
    profiler.start()
    done.wait(timeout=5)
    profiler.stop()
    thread.join(timeout=5)
    assert any("_spin" in stack for stack in profiler.counts)


def test_frame_label_includes_module_and_function():
    import sys

    frame = sys._getframe()
    label = frame_label(frame)
    assert label.endswith("test_frame_label_includes_module_and_function")
    assert label.startswith(__name__)
