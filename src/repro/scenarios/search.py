"""Frequency-set search: grid + seeded evolutionary over plan seeds.

Every RFTC frequency plan is a deterministic function of its plan seed
(the planner draws MMCM-realizable sets from a seeded generator — see
:func:`repro.rftc.cached_plan`), so the space of MMCM-realizable
frequency *sets* is indexed by the plan-seed axis.  The search evaluates
candidate seeds by running the planner's output through the same
evaluation stack the scenario matrix uses — one CPA cell scoring
traces-to-disclosure, one TVLA cell scoring the leakage t-statistic —
and keeps a ranking.

Two phases, both deterministic for a given ``SearchConfig``:

* **Grid**: the first ``grid`` consecutive seeds from ``seed_base``,
  the exhaustive floor of the search.
* **Evolutionary**: generations of candidate seeds drawn from a
  generator seeded by ``config.seed``, with the top ``elites`` retained
  across generations.  Plan seeds carry no metric structure (nearby
  seeds give unrelated plans), so "mutation" is seeded exploration —
  what the elites buy is early stopping on the *budget*, not locality.

Scores are in ``[0, 1]``, higher = stronger countermeasure; see
:func:`score_candidate` for the exact blend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.leakage_assessment import TVLA_THRESHOLD
from repro.power.drift import DriftSpec
from repro.scenarios.runner import run_cell
from repro.scenarios.spec import ScenarioSpec

#: Version tag of the search ranking payload.
RANKING_SCHEMA = "rftc-search-ranking/1"

#: Blend weights of the two score components (disclosure, tvla).
_W_DISCLOSURE = 0.6
_W_TVLA = 0.4


@dataclass(frozen=True)
class SearchConfig:
    """Shape and budget knobs of one search run.

    ``n_traces``/``chunk_size``/``seed`` parameterize each candidate's
    two evaluation cells; ``grid``/``elites``/``children`` shape the two
    phases.  ``seed_base`` is where the grid starts (grid candidate i is
    plan seed ``seed_base + i``).
    """

    m_outputs: int = 2
    p_configs: int = 16
    n_traces: int = 1200
    chunk_size: int = 400
    noise_std: float = 1.0
    acquisition: str = "scope"
    drift: Optional[DriftSpec] = None
    dtype: str = "float64"
    seed: int = 0
    seed_base: int = 100
    grid: int = 4
    elites: int = 2
    children: int = 4

    def __post_init__(self) -> None:
        if self.grid < 1:
            raise ConfigurationError("grid must be >= 1")
        if self.elites < 1:
            raise ConfigurationError("elites must be >= 1")
        if self.children < 1:
            raise ConfigurationError("children must be >= 1")

    def candidate_cells(self, plan_seed: int) -> List[ScenarioSpec]:
        """The CPA + TVLA cells that evaluate one plan seed."""
        common = dict(
            target="rftc",
            m_outputs=self.m_outputs,
            p_configs=self.p_configs,
            plan_seed=int(plan_seed),
            noise_std=self.noise_std,
            acquisition=self.acquisition,
            drift=self.drift,
            dtype=self.dtype,
            n_traces=self.n_traces,
            chunk_size=self.chunk_size,
            seed=self.seed,
        )
        return [
            ScenarioSpec(name=f"seed{plan_seed}/cpa", adversary="cpa", **common),
            ScenarioSpec(name=f"seed{plan_seed}/tvla", adversary="tvla", **common),
        ]


def score_candidate(cpa_payload: dict, tvla_payload: dict, n_traces: int) -> float:
    """Blend disclosure resistance and leakage margin into one score.

    * Disclosure component: 1.0 if the CPA never reached rank 0 within
      the budget, else ``first_disclosure / n_traces`` (disclosing late
      beats disclosing early).
    * TVLA component: ``min(1, threshold / max|t|)`` — 1.0 at or below
      the 4.5 threshold, shrinking as the t-statistic blows past it.
    """
    first = cpa_payload["cpa"]["first_disclosure"]
    disclosure = 1.0 if first is None else float(first) / float(n_traces)
    max_abs_t = float(tvla_payload["tvla"]["max_abs_t"])
    tvla = 1.0 if max_abs_t <= TVLA_THRESHOLD else TVLA_THRESHOLD / max_abs_t
    return _W_DISCLOSURE * disclosure + _W_TVLA * tvla


def _evaluate(
    config: SearchConfig,
    plan_seed: int,
    phase: str,
    workers: int,
) -> dict:
    from repro.rftc import cached_plan

    cpa_cell, tvla_cell = config.candidate_cells(plan_seed)
    cpa_payload = run_cell(cpa_cell, workers=workers)
    tvla_payload = run_cell(tvla_cell, workers=workers)
    plan = cached_plan(config.m_outputs, config.p_configs, int(plan_seed), True)
    return {
        "plan_seed": int(plan_seed),
        "phase": phase,
        "score": score_candidate(cpa_payload, tvla_payload, config.n_traces),
        "first_disclosure": cpa_payload["cpa"]["first_disclosure"],
        "true_byte_rank": cpa_payload["cpa"]["true_byte_rank"],
        "max_abs_t": tvla_payload["tvla"]["max_abs_t"],
        "freq_min_mhz": float(plan.sets_mhz.min()),
        "freq_max_mhz": float(plan.sets_mhz.max()),
        "n_sets": int(plan.n_sets),
    }


def _ranked(entries: Dict[int, dict]) -> List[dict]:
    """Best first; plan seed breaks score ties so the order is total."""
    return sorted(
        entries.values(), key=lambda e: (-e["score"], e["plan_seed"])
    )


def run_search(
    config: SearchConfig,
    budget: int,
    workers: int = 1,
    progress=None,
) -> dict:
    """Evaluate up to ``budget`` candidate plan seeds; return the ranking.

    ``progress``, when given, is called with each finished entry dict.
    The returned document (schema :data:`RANKING_SCHEMA`) is a pure
    function of ``(config, budget)`` — no timings — so nightly CI can
    archive and diff rankings across runs.
    """
    if budget < 1:
        raise ConfigurationError("budget must be >= 1")
    entries: Dict[int, dict] = {}

    def evaluate(plan_seed: int, phase: str) -> None:
        entry = _evaluate(config, plan_seed, phase, workers)
        entries[entry["plan_seed"]] = entry
        if progress is not None:
            progress(entry)

    for index in range(min(budget, config.grid)):
        evaluate(config.seed_base + index, "grid")

    rng = np.random.default_rng(config.seed)
    generation = 0
    while len(entries) < budget:
        generation += 1
        elites = [e["plan_seed"] for e in _ranked(entries)[: config.elites]]
        drawn = 0
        while drawn < config.children and len(entries) < budget:
            # Children are fresh seeded draws (plan seeds have no metric
            # structure); drawing after ranking keeps the schedule a
            # pure function of the evaluated scores, hence of config.
            child = int(rng.integers(0, 2**31 - 1))
            if child in entries or child in elites:
                continue
            drawn += 1
            evaluate(child, f"gen{generation}")

    ranking = _ranked(entries)
    return {
        "schema": RANKING_SCHEMA,
        "budget": int(budget),
        "config": {
            "m_outputs": config.m_outputs,
            "p_configs": config.p_configs,
            "n_traces": config.n_traces,
            "chunk_size": config.chunk_size,
            "noise_std": config.noise_std,
            "acquisition": config.acquisition,
            "drift": config.drift.to_dict() if config.drift else None,
            "dtype": config.dtype,
            "seed": config.seed,
            "seed_base": config.seed_base,
            "grid": config.grid,
            "elites": config.elites,
            "children": config.children,
        },
        "generations": generation,
        "ranking": ranking,
        "best": ranking[0],
    }
