"""repro — reproduction of RFTC (DAC 2019).

RFTC (Runtime Frequency Tuning Countermeasure) protects an FPGA AES core
from power analysis by clocking every round from a randomly retuned MMCM.
This library rebuilds the whole system in Python: the AES circuit model,
the 7-series clocking substrate (MMCM, DRP, BUFG, block RAM, LFSR), the
RFTC planner/controller, a synthetic power-measurement channel, the full
attack battery (CPA and DTW/PCA/FFT-preprocessed CPA), TVLA, the
related-work baselines, the per-figure/per-table experiment harness, and a
streaming campaign pipeline (``repro.pipeline`` + ``repro.store``) that
runs paper-scale trace counts in bounded memory on a worker pool.

Quick start::

    import numpy as np
    from repro.pipeline import CampaignSpec
    from repro.power import AcquisitionCampaign
    from repro.attacks import cpa_attack

    spec = CampaignSpec(target="rftc", m_outputs=3, p_configs=64)
    device = spec.build_device(np.random.default_rng(2020))
    traces = AcquisitionCampaign(device, seed=1).collect(2000)
    result = cpa_attack(traces.traces, traces.ciphertexts, byte_indices=(0,))

See DESIGN.md for the system inventory and EXPERIMENTS.md for
paper-vs-measured results.
"""

from repro.errors import (
    AcquisitionError,
    AttackError,
    ConfigurationError,
    FrequencyRangeError,
    LockError,
    PlanningError,
    ReconfigurationError,
    ReproError,
)

__version__ = "1.1.0"

__all__ = [
    "AcquisitionError",
    "AttackError",
    "ConfigurationError",
    "FrequencyRangeError",
    "LockError",
    "PlanningError",
    "ReconfigurationError",
    "ReproError",
    "__version__",
]
