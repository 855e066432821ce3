"""RFTC: the paper's contribution — runtime frequency tuning countermeasure.

``RFTC(M, P)`` drives each AES round from one of M MMCM clock outputs,
reprogramming the idle MMCM to one of P precomputed frequency sets between
encryptions.  This package holds the design-time pieces (parameter
validation, completion-time combinatorics, the overlap-free frequency
planner) and the runtime controller that produces per-round clock schedules.
"""

from repro.rftc.completion import (
    completion_time_count,
    completion_times_ns,
    distinct_completion_time_count,
    enumerate_compositions,
    simulate_completion_times,
)
from repro.rftc.config import RFTCParams
from repro.rftc.controller import RFTCController, ReconfigurationPipeline
from repro.rftc.export import (
    load_plan,
    parse_coe,
    save_plan,
    write_coe,
    write_verilog_header,
)
from repro.rftc.planner import FrequencyPlan, cached_plan, plan_frequencies

__all__ = [
    "completion_time_count",
    "completion_times_ns",
    "distinct_completion_time_count",
    "enumerate_compositions",
    "simulate_completion_times",
    "RFTCParams",
    "RFTCController",
    "ReconfigurationPipeline",
    "FrequencyPlan",
    "cached_plan",
    "plan_frequencies",
    "load_plan",
    "parse_coe",
    "save_plan",
    "write_coe",
    "write_verilog_header",
]
