"""Design-time frequency planning for RFTC (Sec. 5 of the paper).

Each of the P stored configurations programs all M MMCM outputs at once, so
a configuration *is* a set of M frequencies.  Two pitfalls make naive set
selection leak:

* **Overlapping completion times** — two different sets can produce the
  exact same encryption duration for some pair of round compositions (the
  paper's 396.1 ns worked example), re-aligning the power of the secret
  round across sets.  The planner rejects any candidate set whose completion
  times collide with those already accepted ("exhaustively searching for
  duplicated completion times").
* **Clustered sets** — carving a uniform grid into consecutive chunks (the
  paper's Figure 3-b strawman) gives each set three nearly equal
  frequencies, so each set has essentially *one* completion time and the
  histogram collapses into P tall peaks.

Two planning methods are provided:

* ``"naive-grid"`` reproduces the Figure 3-b strawman exactly.
* ``"overlap-free"`` reproduces the deployed design (Figure 3-c): stratified
  sampling spreads each set across the window, and every accepted set's
  completion times are provably distinct from all others at the configured
  resolution.

By default the overlap-free planner samples the *hardware lattice* — a
shared VCO per set with a fractional divider on CLKOUT0 and integer
dividers elsewhere — so every planned set is exactly MMCM-realizable and
converts to counter settings without any snapping error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import ConfigurationError, PlanningError
from repro.hw.mmcm import (
    MmcmConfig,
    MmcmTimingSpec,
    OutputDivider,
    synthesize_config,
)
from repro.rftc.completion import enumerate_compositions
from repro.rftc.config import RFTCParams

#: Grid spacing of the paper's MATLAB study.  The paper quotes "0.012 MHz
#: increments" for 3,072 frequencies across 12..48 MHz; an inclusive grid of
#: 3,072 points would actually step 36 MHz / 3,071 ~ 0.011722 MHz.  We use
#: the paper's rounded figure, so the inclusive 12..48 MHz grid built from
#: this constant has 3,001 points, not 3,072.
DEFAULT_GRID_STEP_MHZ = 0.012

#: Resolution at which completion times are considered "identical" during
#: the duplicate search.  1e-6 ns is far below any oscilloscope resolution;
#: it exists to catch the *exact rational* collisions of Sec. 5 while
#: accepting the benign picosecond-scale near-misses a real design cannot
#: avoid (67,584 times share a ~625 ns span).
DEFAULT_TOLERANCE_NS = 1e-6


@dataclass(frozen=True)
class HardwareSetting:
    """MMCM counters realizing one frequency set: shared VCO, per-output dividers."""

    mult: float
    divclk: int
    odivs: Tuple[float, ...]


@dataclass
class FrequencyPlan:
    """Output of the planner: P sets of M frequencies plus provenance.

    Attributes
    ----------
    params:
        The RFTC parameters the plan was built for.
    sets_mhz:
        ``(P, M)`` planned frequencies.
    method:
        ``"naive-grid"`` or ``"overlap-free"``.
    tolerance_ns:
        Duplicate-search resolution used (0.0 for the naive plan).
    hardware_settings:
        When planned on the hardware lattice, the exact counter settings of
        each set; empty otherwise.
    """

    params: RFTCParams
    sets_mhz: np.ndarray
    method: str
    tolerance_ns: float = 0.0
    hardware_settings: List[HardwareSetting] = field(default_factory=list)
    _mmcm_configs: Optional[Tuple[MmcmConfig, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.sets_mhz = np.asarray(self.sets_mhz, dtype=np.float64)
        expected = (self.params.p_configs, self.params.m_outputs)
        if self.sets_mhz.shape != expected:
            raise ConfigurationError(
                f"plan shape {self.sets_mhz.shape} does not match params {expected}"
            )
        if (self.sets_mhz <= 0).any():
            raise ConfigurationError("planned frequencies must be positive")

    @property
    def n_sets(self) -> int:
        return int(self.sets_mhz.shape[0])

    @property
    def m_outputs(self) -> int:
        return int(self.sets_mhz.shape[1])

    def completion_table_ns(self) -> np.ndarray:
        """``(P, C(R+M-1,R))`` completion times of every set."""
        comps = enumerate_compositions(self.m_outputs, self.params.rounds)
        periods = 1000.0 / self.sets_mhz
        return periods @ comps.T.astype(np.float64)

    def all_completion_times_ns(self) -> np.ndarray:
        """Flat vector of all P x C(R+M-1, R) completion times."""
        return self.completion_table_ns().ravel()

    def duplicate_count(self, tolerance_ns: Optional[float] = None) -> int:
        """Number of completion times that collide at the given resolution."""
        tol = self.tolerance_ns if tolerance_ns is None else tolerance_ns
        if tol <= 0:
            tol = DEFAULT_TOLERANCE_NS
        times = np.round(self.all_completion_times_ns() / tol).astype(np.int64)
        _, counts = np.unique(times, return_counts=True)
        return int((counts - 1).sum())

    def to_mmcm_configs(
        self, spec: Optional[MmcmTimingSpec] = None
    ) -> List[MmcmConfig]:
        """Convert every set into MMCM counter settings.

        Exact when the plan carries :class:`HardwareSetting` records;
        otherwise each set is snapped via
        :func:`repro.hw.mmcm.synthesize_config` (best effort, as the
        clocking wizard would).  The conversion for the plan's own spec
        is done once per plan and shared by every controller built from
        it; each call returns a fresh list.
        """
        if spec is not None and spec != self.params.spec:
            return self._convert(spec)
        if self._mmcm_configs is None:
            self._mmcm_configs = tuple(self._convert(self.params.spec))
        return list(self._mmcm_configs)

    def _convert(self, spec: MmcmTimingSpec) -> List[MmcmConfig]:
        f_in = self.params.f_in_mhz
        if self.hardware_settings:
            return [
                MmcmConfig(
                    f_in_mhz=f_in,
                    mult=hs.mult,
                    divclk=hs.divclk,
                    outputs=tuple(OutputDivider(divide=d) for d in hs.odivs),
                    spec=spec,
                )
                for hs in self.hardware_settings
            ]
        return [
            synthesize_config(f_in, list(row), spec=spec) for row in self.sets_mhz
        ]


def _grid(params: RFTCParams, step_mhz: float) -> np.ndarray:
    if step_mhz <= 0:
        raise ConfigurationError("grid_step_mhz must be positive")
    grid = np.arange(params.f_lo_mhz, params.f_hi_mhz + step_mhz / 2, step_mhz)
    if grid.size < params.m_outputs:
        raise PlanningError(
            f"grid of {grid.size} frequencies cannot even fill one set of "
            f"{params.m_outputs}; reduce the step"
        )
    return grid


def plan_naive_grid(
    params: RFTCParams, grid_step_mhz: Optional[float] = None
) -> FrequencyPlan:
    """The Figure 3-b strawman: consecutive grid chunks, no overlap search.

    The M x P grid frequencies are carved into P consecutive chunks of M,
    so each set holds nearly identical frequencies and the completion-time
    histogram degenerates into P peaks — the leak the paper annotates in
    Figure 3-b.  With no ``grid_step_mhz`` the step is chosen to spread
    exactly M x P frequencies across the window (the paper's "0.012 MHz
    increments" for 3,072 frequencies over 12..48 MHz).
    """
    needed = params.total_frequencies
    if grid_step_mhz is None:
        if needed == 1:
            grid = np.array([params.f_lo_mhz])
        else:
            grid = np.linspace(params.f_lo_mhz, params.f_hi_mhz, needed)
    else:
        grid = _grid(params, grid_step_mhz)
    sets = grid[:needed].reshape(params.p_configs, params.m_outputs)
    return FrequencyPlan(
        params=params, sets_mhz=sets, method="naive-grid", tolerance_ns=0.0
    )


def _vco_lattice(
    params: RFTCParams, spec: MmcmTimingSpec
) -> Tuple[List[float], List[int], List[float]]:
    """Legal (mult, divclk, vco) triples for the board input clock.

    Sweeping divclk as well as the multiplier enriches the VCO lattice
    (e.g. 24 MHz input with divclk 2 adds 1.5 MHz VCO steps between the
    3 MHz steps of divclk 1), which lowers the completion-time collision
    density the duplicate search has to fight.
    """
    mult_grid = np.arange(
        spec.mult_min, spec.mult_max + spec.mult_step / 2, spec.mult_step
    )
    mults: List[float] = []
    divclks: List[int] = []
    vcos: List[float] = []
    for divclk in range(spec.divclk_min, spec.divclk_max + 1):
        f_pfd = params.f_in_mhz / divclk
        if f_pfd < spec.f_pfd_min_mhz:
            break
        if f_pfd > spec.f_pfd_max_mhz:
            continue
        vco = f_pfd * mult_grid
        ok = (vco >= spec.f_vco_min_mhz) & (vco <= spec.f_vco_max_mhz)
        mults.extend(mult_grid[ok].tolist())
        divclks.extend([divclk] * int(ok.sum()))
        vcos.extend(vco[ok].tolist())
    if not vcos:
        raise PlanningError(
            f"no legal VCO frequency from {params.f_in_mhz} MHz input"
        )
    return mults, divclks, vcos


def _strata(params: RFTCParams, stratify: bool) -> List[Tuple[float, float]]:
    """The ``(lo, hi)`` MHz window each of a set's M outputs is drawn from.

    Stratified, the window is cut into M equal slices, one per output;
    otherwise every output draws from the whole window.
    """
    m = params.m_outputs
    if not stratify:
        return [(params.f_lo_mhz, params.f_hi_mhz)] * m
    edges = np.linspace(params.f_lo_mhz, params.f_hi_mhz, m + 1).tolist()
    return list(zip(edges[:-1], edges[1:]))


def _sample_hardware_set(
    lattice: Tuple[List[float], List[int], List[float]],
    strata: List[Tuple[float, float]],
    stratify: bool,
    spec: MmcmTimingSpec,
    rng: np.random.Generator,
) -> Tuple[List[float], HardwareSetting]:
    """Draw one MMCM-realizable set: shared VCO, per-output dividers.

    With ``stratify`` each output lands in its own 1/M of the frequency
    window (the ``strata``, dealt out in random order), guaranteeing
    within-set spread; without it, outputs sample the whole window
    independently (the paper's MATLAB style).

    This runs once per candidate (145k times for RFTC(3,1024)) on 1-3
    values, so it uses scalar Python arithmetic: ``round`` rounds half to
    even exactly like ``np.round``.
    """
    mults, divclks, vcos = lattice
    pick = int(rng.integers(0, len(vcos)))
    vco = vcos[pick]
    if stratify:
        strata = list(strata)
        rng.shuffle(strata)
    freqs: List[float] = []
    odivs: List[float] = []
    for idx, (f_lo, f_hi) in enumerate(strata):
        step = spec.odiv0_step if idx == 0 else 1.0
        d_lo = max(spec.odiv_min, math.ceil(vco / f_hi / step) * step)
        d_hi = min(spec.odiv_max, math.floor(vco / f_lo / step) * step)
        if d_hi < d_lo:
            raise PlanningError(
                f"VCO {vco} MHz cannot reach stratum [{f_lo:.2f}, {f_hi:.2f}] MHz"
            )
        # Sample the target *frequency* uniformly and snap to the divider
        # grid, so the planned frequencies are uniform over the window (as
        # in the paper's MATLAB study) rather than uniform in period.
        target = f_lo + (f_hi - f_lo) * rng.random()
        divide = float(min(max(round(vco / target / step) * step, d_lo), d_hi))
        odivs.append(divide)
        freqs.append(vco / divide)
    return freqs, HardwareSetting(
        mult=mults[pick], divclk=divclks[pick], odivs=tuple(odivs)
    )


def _grid_candidates(
    grid: np.ndarray, strata: List[Tuple[float, float]]
) -> List[List[float]]:
    """Each stratum's slice of the grid, cut once per plan."""
    candidates = []
    for lo, hi in strata:
        inside = grid[(grid >= lo) & (grid <= hi)]
        if inside.size == 0:
            raise PlanningError(f"grid has no frequency in [{lo}, {hi}] MHz")
        candidates.append(inside.tolist())
    return candidates


def _sample_grid_set(
    candidates: List[List[float]], rng: np.random.Generator
) -> List[float]:
    """Draw one set from a pure frequency grid: one per stratum, shuffled."""
    freqs = [inside[rng.integers(0, len(inside))] for inside in candidates]
    rng.shuffle(freqs)
    return freqs


def plan_overlap_free(
    params: RFTCParams,
    rng: Optional[np.random.Generator] = None,
    tolerance_ns: float = DEFAULT_TOLERANCE_NS,
    hardware: bool = True,
    grid_step_mhz: float = DEFAULT_GRID_STEP_MHZ,
    max_attempts_per_set: int = 200,
    allow_residual_duplicates: bool = True,
    stratify: bool = True,
) -> FrequencyPlan:
    """The deployed design's planner (Figure 3-c).

    Greedy accept/reject with an exhaustive duplicate search: a candidate
    set is accepted only if none of its C(R+M-1, R) completion times equals
    (at ``tolerance_ns`` resolution) a completion time of any previously
    accepted set, nor another of its own.

    On the *hardware* lattice, exact rational collisions are unavoidable at
    large P (all completion times are ratios of small integers to a shared
    VCO grid), so when no collision-free candidate appears within
    ``max_attempts_per_set`` the planner accepts the least-colliding
    candidate seen — mirroring the paper's deployed design, whose Figure
    3-c still shows up to ~130 identical completion times per million
    encryptions.  Set ``allow_residual_duplicates=False`` to make that a
    hard failure instead.

    Parameters
    ----------
    hardware:
        Sample sets from the MMCM counter lattice (exactly realizable,
        default) instead of the paper's idealized MATLAB grid.
    stratify:
        Force each set to span the frequency window (one output in each
        1/M slice of it).  Guarantees within-set diversity (strongest TVLA
        posture for M >= 2) but concentrates the completion-time histogram
        toward its center; the paper's MATLAB study samples unstratified,
        which is what Figure 3's histograms show.
    """
    if tolerance_ns <= 0:
        raise ConfigurationError("tolerance_ns must be positive")
    rng = rng if rng is not None else np.random.default_rng(np.random.SeedSequence(2019))
    spec = params.spec
    m = params.m_outputs
    comps = enumerate_compositions(m, params.rounds).astype(np.float64)
    seen: Set[int] = set()
    sets: List[List[float]] = []
    settings: List[HardwareSetting] = []
    strata = _strata(params, stratify)
    if hardware:
        lattice = _vco_lattice(params, spec)
    else:
        candidates = _grid_candidates(_grid(params, grid_step_mhz), strata)

    for set_index in range(params.p_configs):
        best = None  # (n_collisions, freqs, setting, unique_keys)
        accepted = False
        for attempt in range(max_attempts_per_set):
            if hardware:
                freqs, setting = _sample_hardware_set(
                    lattice, strata, stratify, spec, rng
                )
            else:
                freqs, setting = _sample_grid_set(candidates, rng), None
            if len(set(freqs)) != m:
                continue  # outputs must have unique frequencies (Sec. 4)
            times = comps @ (1000.0 / np.array(freqs))
            keys = np.rint(times / tolerance_ns).astype(np.int64)
            unique_keys = set(keys.tolist())
            collisions = (keys.size - len(unique_keys)) + len(unique_keys & seen)
            if collisions == 0:
                seen |= unique_keys
                sets.append(freqs)
                if setting is not None:
                    settings.append(setting)
                accepted = True
                break
            if best is None or collisions < best[0]:
                best = (collisions, freqs, setting, unique_keys)
        if accepted:
            continue
        if best is None or not allow_residual_duplicates:
            raise PlanningError(
                f"could not place set {set_index} after "
                f"{max_attempts_per_set} attempts; loosen tolerance_ns, "
                "reduce P, or allow residual duplicates"
            )
        _, freqs, setting, unique_keys = best
        seen |= unique_keys
        sets.append(freqs)
        if setting is not None:
            settings.append(setting)
    return FrequencyPlan(
        params=params,
        sets_mhz=np.array(sets),
        method="overlap-free",
        tolerance_ns=tolerance_ns,
        hardware_settings=settings,
    )


def plan_frequencies(
    params: RFTCParams,
    method: str = "overlap-free",
    rng: Optional[np.random.Generator] = None,
    **kwargs,
) -> FrequencyPlan:
    """Dispatching front door: ``method`` is "overlap-free" or "naive-grid"."""
    if method == "overlap-free":
        return plan_overlap_free(params, rng=rng, **kwargs)
    if method == "naive-grid":
        return plan_naive_grid(params, **kwargs)
    raise ConfigurationError(
        f"unknown planning method {method!r}; "
        "expected 'overlap-free' or 'naive-grid'"
    )


_PLAN_CACHE: Dict[tuple, FrequencyPlan] = {}


def _plan_key(params: RFTCParams, seed: int, hardware: bool) -> tuple:
    # ``RFTCParams.spec`` is left out of the dataclass's equality and hash,
    # but the planner samples its lattice, so it is keyed explicitly.
    return (params, params.spec, seed, hardware)


def cached_plan(
    m_outputs: int,
    p_configs: int,
    seed: int = 2019,
    hardware: bool = True,
) -> FrequencyPlan:
    """Memoized overlap-free frequency plan for ``RFTCParams(M, P)``.

    Plans for large P are expensive, so they are memoized per (RFTC
    parameters, seed, hardware) within the process.
    """
    params = RFTCParams(m_outputs=m_outputs, p_configs=p_configs)
    cache_key = _plan_key(params, seed, hardware)
    if cache_key not in _PLAN_CACHE:
        _PLAN_CACHE[cache_key] = plan_frequencies(
            params,
            rng=np.random.default_rng(seed),
            hardware=hardware,
        )
    return _PLAN_CACHE[cache_key]
