"""Canonical device builds for the paper's experiments.

Every evaluation in Sec. 7 runs against one of these: the unprotected AES,
an RFTC(M, P) build, or one of the five related-work baselines.  Builders
return a :class:`Scenario` bundling the countermeasure, the device and the
provenance needed for reporting.

Frequency plans for large P are expensive to compute, so they are memoized
per (RFTC parameters, seed, hardware) within the process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.baselines import (
    FritzkeClockRandomization,
    IPpapClocks,
    PhaseShiftedClocks,
    RandomClockDummyData,
    RandomDelayInsertion,
    UnprotectedClock,
)
from repro.errors import ConfigurationError
from repro.power.acquisition import ProtectedAesDevice
from repro.power.leakage import HammingDistanceLeakage
from repro.power.scope import Oscilloscope
from repro.power.synth import TraceSynthesizer
from repro.rftc import FrequencyPlan, RFTCController, RFTCParams, plan_frequencies

#: The key used throughout the reproduction (the FIPS-197 Appendix B key).
DEFAULT_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")

_PLAN_CACHE: Dict[tuple, FrequencyPlan] = {}


@dataclass
class Scenario:
    """A ready-to-measure device plus its provenance."""

    name: str
    device: ProtectedAesDevice
    countermeasure: object
    rftc_params: Optional[RFTCParams] = None
    plan: Optional[FrequencyPlan] = None
    extras: dict = field(default_factory=dict)


def _measurement_chain(
    key: bytes,
    countermeasure,
    n_samples: int = 256,
    noise_std: float = 2.0,
) -> ProtectedAesDevice:
    synth = TraceSynthesizer(sample_rate_msps=250.0, n_samples=n_samples)
    scope = Oscilloscope(sample_rate_msps=250.0, noise_std=noise_std)
    return ProtectedAesDevice(
        key,
        countermeasure,
        leakage=HammingDistanceLeakage(),
        synthesizer=synth,
        scope=scope,
    )


def build_unprotected(
    key: bytes = DEFAULT_KEY, freq_mhz: float = 48.0, noise_std: float = 2.0
) -> Scenario:
    """The paper's baseline AES: constant 48 MHz clock."""
    cm = UnprotectedClock(freq_mhz)
    return Scenario(
        name=cm.label,
        device=_measurement_chain(key, cm, noise_std=noise_std),
        countermeasure=cm,
    )


def _plan_key(params: RFTCParams, seed: int, hardware: bool) -> tuple:
    # ``RFTCParams.spec`` is left out of the dataclass's equality and hash,
    # but the planner samples its lattice, so it is keyed explicitly.
    return (params, params.spec, seed, hardware)


def cached_plan(
    m_outputs: int,
    p_configs: int,
    seed: int = 2019,
    hardware: bool = True,
    params: Optional[RFTCParams] = None,
) -> FrequencyPlan:
    """Memoized overlap-free frequency plan for RFTC(M, P).

    ``params`` defaults to ``RFTCParams(M, P)``.  The cache is keyed on
    all of it, spec included: the plan records its params, and the ROM
    export writes them out, so two builds that differ only in, say,
    ``n_mmcms`` must not share a plan.
    """
    params = params or RFTCParams(m_outputs=m_outputs, p_configs=p_configs)
    cache_key = _plan_key(params, seed, hardware)
    if cache_key not in _PLAN_CACHE:
        _PLAN_CACHE[cache_key] = plan_frequencies(
            params,
            rng=np.random.default_rng(seed),
            hardware=hardware,
        )
    return _PLAN_CACHE[cache_key]


def build_rftc(
    m_outputs: int,
    p_configs: int,
    key: bytes = DEFAULT_KEY,
    n_mmcms: int = 2,
    seed: int = 2019,
    hardware_plan: bool = True,
    noise_std: float = 2.0,
    model_mux_dead_time: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> Scenario:
    """An RFTC(M, P) build on the paper's 12-48 MHz window."""
    params = RFTCParams(
        m_outputs=m_outputs, p_configs=p_configs, n_mmcms=n_mmcms
    )
    plan = cached_plan(m_outputs, p_configs, seed, hardware_plan, params)
    controller = RFTCController(
        params,
        plan,
        rng=rng if rng is not None else np.random.default_rng(seed + 1),
        model_mux_dead_time=model_mux_dead_time,
    )
    return Scenario(
        name=params.label(),
        device=_measurement_chain(key, controller, noise_std=noise_std),
        countermeasure=controller,
        rftc_params=params,
        plan=plan,
    )


_BASELINE_BUILDERS = {
    "rdi": lambda rng: RandomDelayInsertion(rng=rng),
    "rcdd": lambda rng: RandomClockDummyData(rng=rng),
    "phase-shift": lambda rng: PhaseShiftedClocks(rng=rng),
    "ippap": lambda rng: IPpapClocks(rng=rng),
    "clock-rand": lambda rng: FritzkeClockRandomization(rng=rng),
    "unprotected": lambda rng: UnprotectedClock(),
}


def baseline_names() -> Tuple[str, ...]:
    """The buildable baseline identifiers."""
    return tuple(_BASELINE_BUILDERS)


def build_baseline(
    name: str,
    key: bytes = DEFAULT_KEY,
    seed: int = 2019,
    noise_std: float = 2.0,
    n_samples: int = 256,
    rng: Optional[np.random.Generator] = None,
) -> Scenario:
    """One of the related-work baselines by name (see :func:`baseline_names`).

    ``rng`` overrides ``seed`` for the countermeasure's randomness — the
    streaming pipeline passes per-chunk spawned generators here so results
    stay reproducible at any worker count.
    """
    if name not in _BASELINE_BUILDERS:
        raise ConfigurationError(
            f"unknown baseline {name!r}; expected one of {sorted(_BASELINE_BUILDERS)}"
        )
    cm = _BASELINE_BUILDERS[name](rng if rng is not None else np.random.default_rng(seed))
    return Scenario(
        name=cm.label,
        device=_measurement_chain(key, cm, n_samples=n_samples, noise_std=noise_std),
        countermeasure=cm,
    )
