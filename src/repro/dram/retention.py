"""Data-retention failure model.

Retention cells carry a retention time calibrated at 80 degC (the paper's
retention test: 4 s without refresh at 80 degC, §4.3).  Retention time
roughly halves for every 10 degC of temperature increase — the standard
DRAM leakage rule of thumb — so cooler tests see far fewer failures.
Only charged cells can leak to the discharged state.
"""

from __future__ import annotations

REFERENCE_TEMPERATURE_C = 80.0
HALVING_DEGC = 10.0


def retention_scale(temperature_c: float) -> float:
    """Multiplier applied to 80 degC retention times at ``temperature_c``."""
    return 2.0 ** ((REFERENCE_TEMPERATURE_C - temperature_c) / HALVING_DEGC)
