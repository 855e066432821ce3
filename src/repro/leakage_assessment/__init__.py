"""Leakage assessment: TVLA (Welch t-test) and per-sample SNR."""

from repro.leakage_assessment.snr import partition_snr
from repro.leakage_assessment.tvla import (
    TVLA_FIXED_PLAINTEXT,
    TVLA_THRESHOLD,
    TvlaResult,
    IncrementalTvla,
    tvla_fixed_vs_random,
)

__all__ = [
    "partition_snr",
    "TVLA_FIXED_PLAINTEXT",
    "TVLA_THRESHOLD",
    "TvlaResult",
    "IncrementalTvla",
    "tvla_fixed_vs_random",
]
