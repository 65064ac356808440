"""Ramulator-lite: a command-level DDR4 performance simulator (§7, App. D).

The paper evaluates its mitigation methodology with Ramulator on a 4 GHz
out-of-order system (Table 7).  This package provides the pieces that
study needs:

* :mod:`repro.sim.trace` — synthetic workload generators calibrated to
  the paper's named benchmarks' memory intensity and row-buffer locality,
* :mod:`repro.sim.core` — the standard simplified OoO core model
  (instruction window + MSHR-limited memory-level parallelism),
* :mod:`repro.sim.dram_model` — DDR4 bank/rank state machine with the
  Table 7 timing, including refresh,
* :mod:`repro.sim.rowpolicy` — open / minimally-open / t_mro-capped row
  policies (§7.3),
* :mod:`repro.sim.memctrl` — FR-FCFS scheduling with row-policy and
  read-disturb-mitigation hooks,
* :mod:`repro.sim.simulator` — multi-core assembly, IPC and weighted
  speedup reporting,
* :mod:`repro.sim.stats` — row-activation accounting within refresh
  windows (Fig. 38) and row-buffer statistics.
"""

from repro.sim.request import Request
from repro.sim.trace import WORKLOADS, SyntheticWorkload, WorkloadSpec, workload_categories
from repro.sim.rowpolicy import (
    ClosedRowPolicy,
    DecoupledBufferPolicy,
    OpenRowPolicy,
    RowPolicy,
    TimeCappedPolicy,
)
from repro.sim.core import CoreModel
from repro.sim.memctrl import MemoryController
from repro.sim.simulator import SimulationResult, Simulator, weighted_speedup

__all__ = [
    "Request",
    "WORKLOADS",
    "SyntheticWorkload",
    "WorkloadSpec",
    "workload_categories",
    "RowPolicy",
    "OpenRowPolicy",
    "ClosedRowPolicy",
    "TimeCappedPolicy",
    "DecoupledBufferPolicy",
    "CoreModel",
    "MemoryController",
    "Simulator",
    "SimulationResult",
    "weighted_speedup",
]
