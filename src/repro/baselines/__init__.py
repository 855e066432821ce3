"""Baseline countermeasures RFTC is compared against (Table 1).

Each baseline models the *timing structure* of a published countermeasure —
the per-cycle clock periods and any dummy cycles — so it can drive the same
AES datapath, trace synthesizer and attacks as RFTC.  Overhead figures
(time/power/area) come from first-order component models documented on each
class.
"""

from repro.baselines.base import CountermeasureBase
from repro.baselines.clock_rand import FritzkeClockRandomization
from repro.baselines.ippap import IPpapClocks
from repro.baselines.phase_shift import PhaseShiftedClocks
from repro.baselines.rcdd import RandomClockDummyData
from repro.baselines.rdi import RandomDelayInsertion
from repro.baselines.unprotected import UnprotectedClock

#: The related-work baselines a campaign can target, by name.  Each class
#: takes its randomness as ``rng=``.
BASELINES = {
    "rdi": RandomDelayInsertion,
    "rcdd": RandomClockDummyData,
    "phase-shift": PhaseShiftedClocks,
    "ippap": IPpapClocks,
    "clock-rand": FritzkeClockRandomization,
}

__all__ = [
    "BASELINES",
    "CountermeasureBase",
    "FritzkeClockRandomization",
    "IPpapClocks",
    "PhaseShiftedClocks",
    "RandomClockDummyData",
    "RandomDelayInsertion",
    "UnprotectedClock",
]
