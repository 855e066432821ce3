"""Running a scenario matrix: local engine cells, matrix-level resume.

One cell is one :class:`~repro.pipeline.StreamingCampaign` run — the
runner adds two layers on top:

* **Per-cell payloads** (:func:`run_cell`): a deterministic dict of
  seed-derived outcomes (never timings or host facts), in the spirit of
  ``repro.service.execution.serialize_report``, extended with the CPA
  disclosure curve so matrix reports can rank countermeasures by
  traces-to-disclosure.
* **Matrix-granularity resume** (:class:`MatrixState`): after every
  finished cell the runner atomically rewrites
  ``<out_dir>/matrix-state.json`` keyed by cell digest.  Re-running with
  ``resume=True`` reuses every completed cell's payload and continues
  with the rest; a half-finished cell additionally resumes from its own
  engine checkpoint under ``<out_dir>/cells/``.  Because cell payloads
  are pure functions of the cell spec, a resumed matrix report is
  byte-identical to an uninterrupted one.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro.attacks.lattice import lattice_reference_ns
from repro.errors import CheckpointError, ConfigurationError
from repro.leakage_assessment import TVLA_THRESHOLD
from repro.obs import NULL_OBS, Observability
from repro.pipeline import (
    CompletionTimeConsumer,
    DisclosureConsumer,
    LatticeCpaConsumer,
    MlpAttackConsumer,
    StreamingCampaign,
    TvlaStreamConsumer,
)
from repro.scenarios.report import KEY_RECOVERY_ADVERSARIES
from repro.scenarios.spec import MatrixSpec, ScenarioSpec

#: Version tag of the runner's resume-state file.
STATE_SCHEMA = "rftc-scenario-state/1"


#: Traces the profiled adversaries acquire from their clone device.
#: Sized so the MLP generalizes (it overfits badly under ~2000 traces);
#: template profiling is comfortable well below this.
PROFILE_TRACES = 4000

#: Offset deriving a cell's clone-device seed from its campaign seed.
#: Any fixed value works — it only has to keep the profiling stream
#: disjoint from the victim stream while staying a pure function of the
#: cell (so resumed / re-run cells profile the identical model).
PROFILE_SEED_OFFSET = 1_000_003


def profile_clone(cell: ScenarioSpec):
    """Acquire the profiling campaign for a profiled adversary's cell.

    The attacker's clone is the *same device build* as the victim (same
    target, shape, plan seed, noise) but a different acquisition stream:
    device randomness and plaintexts come from ``cell.seed +
    PROFILE_SEED_OFFSET``.  Pure function of the cell spec, so the model
    trained on it — and therefore the cell payload — is deterministic.
    """
    from repro.power.acquisition import AcquisitionCampaign

    spec = cell.to_campaign()
    profile_seed = cell.seed + PROFILE_SEED_OFFSET
    device = spec.build_device(
        np.random.default_rng(np.random.SeedSequence(profile_seed))
    )
    return AcquisitionCampaign(device, seed=profile_seed).collect(
        PROFILE_TRACES
    )


def lattice_reference_for(cell: ScenarioSpec) -> float:
    """The fixed alignment reference a lattice cell uses, in ns.

    For RFTC targets the frequency plan enumerates the full completion
    lattice, so the reference is its exact maximum.  Other targets have
    no plan; a small clone-device probe (same derivation as
    :func:`profile_clone`) measures their completion-time spread.  Both
    are pure functions of the cell spec and independent of the victim
    stream, which keeps the alignment — and so the payload — identical
    across worker counts and resume.
    """
    from repro.power.acquisition import AcquisitionCampaign

    spec = cell.to_campaign()
    if cell.target == "rftc":
        from repro.rftc import cached_plan

        plan = cached_plan(
            cell.m_outputs, cell.p_configs, cell.plan_seed, True
        )
        return lattice_reference_ns(plan.all_completion_times_ns())
    probe_seed = cell.seed + PROFILE_SEED_OFFSET
    device = spec.build_device(
        np.random.default_rng(np.random.SeedSequence(probe_seed))
    )
    probe = AcquisitionCampaign(device, seed=probe_seed).collect(64)
    return lattice_reference_ns(probe.completion_times_ns)


def cell_consumers(cell: ScenarioSpec) -> list:
    """The analysis stack a local cell run folds chunks into.

    Profiled adversaries (``mlp``) train their model here, before the
    victim campaign starts — so building the stack for an ``mlp`` cell
    acquires and fits the clone profile (a few seconds), deterministically
    per cell.
    """
    consumers: list = [CompletionTimeConsumer()]
    key = cell.to_campaign().key
    if cell.adversary == "tvla":
        consumers.append(TvlaStreamConsumer())
    elif cell.adversary == "mlp":
        from repro.attacks.mlp import train_mlp_profile
        from repro.attacks.models import expand_last_round_key

        clone = profile_clone(cell)
        model = train_mlp_profile(
            clone.traces,
            clone.ciphertexts,
            int(expand_last_round_key(key)[0]),
        )
        consumers.append(MlpAttackConsumer(model, key))
    elif cell.adversary == "lattice":
        consumers.append(
            LatticeCpaConsumer(key, lattice_reference_for(cell))
        )
    else:
        consumers.append(DisclosureConsumer(key))
    return consumers


def run_cell(
    cell: ScenarioSpec,
    workers: int = 1,
    checkpoint: Union[str, Path, None] = None,
    resume: bool = False,
    obs: Optional[Observability] = None,
) -> dict:
    """Run one cell locally through the streaming engine.

    With ``checkpoint`` set, the engine rewrites it after every chunk;
    ``resume=True`` continues from an existing checkpoint file
    (bit-identically, per the engine contract) and the checkpoint is
    removed once the cell completes.  Returns the cell payload.
    """
    spec = cell.to_campaign()
    consumers = cell_consumers(cell)
    checkpoint = Path(checkpoint) if checkpoint is not None else None
    if resume and checkpoint is not None and checkpoint.is_file():
        report = StreamingCampaign.resume(
            store=None,
            checkpoint=checkpoint,
            consumers=consumers,
            workers=workers,
            obs=obs,
        )
    else:
        engine = StreamingCampaign(
            spec,
            chunk_size=cell.chunk_size,
            workers=workers,
            seed=cell.seed,
            obs=obs,
        )
        report = engine.run(
            cell.n_traces, consumers=consumers, checkpoint=checkpoint
        )
    if checkpoint is not None and checkpoint.is_file():
        checkpoint.unlink()

    completion = report.results["completion"]
    payload = {
        "cell": cell.name,
        "digest": cell.cell_digest(),
        "target": spec.label(),
        "acquisition": cell.acquisition,
        "drift": cell.drift.to_dict() if cell.drift is not None else None,
        "adversary": cell.adversary,
        "n_traces": cell.n_traces,
        "chunk_size": cell.chunk_size,
        "seed": cell.seed,
        "completion": {
            "n_encryptions": completion.n_encryptions,
            "distinct_times": completion.distinct_times,
            "min_ns": completion.min_ns,
            "max_ns": completion.max_ns,
            "max_identical": completion.max_identical,
        },
    }
    if cell.adversary == "tvla":
        tvla = report.results["tvla"]
        adversary_block = {
            "max_abs_t": float(tvla.max_abs_t),
            "leaking": bool(tvla.max_abs_t >= TVLA_THRESHOLD),
            "n_fixed": int(tvla.n_fixed),
            "n_random": int(tvla.n_random),
        }
    else:
        # cpa / mlp / lattice all report a disclosure-style block (the
        # MLP and lattice consumers are DisclosureConsumer subclasses).
        result_key = "disclosure" if cell.adversary == "cpa" else cell.adversary
        disclosure = report.results[result_key]
        adversary_block = {
            "best_guess": disclosure["best_guess"],
            "true_byte_rank": disclosure["true_byte_rank"],
            "peak_corr_max": disclosure["peak_corr_max"],
            "margin": disclosure["margin"],
            "first_disclosure": disclosure["first_disclosure"],
            "disclosed": disclosure["first_disclosure"] is not None,
        }
        if cell.adversary == "lattice":
            adversary_block["reference_ns"] = disclosure["reference_ns"]
    payload[cell.adversary] = adversary_block
    return payload


@dataclass
class MatrixState:
    """Durable per-cell completion record for matrix-granularity resume.

    ``cells`` maps cell digest to the finished cell payload.  ``save``
    is atomic (write-to-temp then :func:`os.replace`), so a crash
    mid-write leaves the previous state intact and a resumed matrix
    never sees a torn file.
    """

    path: Path
    matrix_digest: str
    cells: Dict[str, dict] = field(default_factory=dict)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "MatrixState":
        path = Path(path)
        try:
            doc = json.loads(path.read_text())
        except OSError as exc:
            raise CheckpointError(f"cannot read matrix state {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"matrix state {path} is corrupt (not JSON): {exc}"
            ) from exc
        if doc.get("schema") != STATE_SCHEMA:
            raise CheckpointError(
                f"matrix state {path} has schema {doc.get('schema')!r}; "
                f"this build reads {STATE_SCHEMA!r}"
            )
        return cls(
            path=path,
            matrix_digest=str(doc["matrix_digest"]),
            cells=dict(doc.get("cells", {})),
        )

    def save(self) -> None:
        doc = {
            "schema": STATE_SCHEMA,
            "matrix_digest": self.matrix_digest,
            "cells": self.cells,
        }
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
        os.replace(tmp, self.path)

    def mark_done(self, digest: str, payload: dict) -> None:
        self.cells[digest] = payload
        self.save()


#: Called after each cell with (cell, status) where status is one of
#: ``"done"`` / ``"cached"`` — lets the CLI print progress lines.
CellCallback = Callable[[ScenarioSpec, str], None]


class MatrixRunner:
    """Expand a matrix and run every cell, resumably.

    Parameters
    ----------
    matrix:
        The sweep (see :class:`MatrixSpec`).
    out_dir:
        Working directory: ``matrix-state.json`` (resume state) and
        ``cells/`` (per-cell engine checkpoints) live here, and the CLI
        writes the reports next to them.
    workers:
        Worker processes per *cell* (cells themselves run sequentially
        in digest order — the deterministic schedule).
    obs:
        Optional observability bundle; the runner emits
        ``scenario_cells_total`` / ``scenario_cells_cached_total`` /
        ``scenario_cell_seconds`` into it, and the
        ``scenario_cell_true_byte_rank{cell}`` gauge of every
        key-recovery cell (see ``docs/observability.md``).
    """

    def __init__(
        self,
        matrix: MatrixSpec,
        out_dir: Union[str, Path],
        workers: int = 1,
        obs: Optional[Observability] = None,
    ):
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        self.matrix = matrix
        self.out_dir = Path(out_dir)
        self.workers = int(workers)
        self.obs = obs if obs is not None else NULL_OBS

    @property
    def state_path(self) -> Path:
        return self.out_dir / "matrix-state.json"

    def _load_state(self, resume: bool) -> MatrixState:
        digest = self.matrix.matrix_digest()
        if resume and self.state_path.is_file():
            state = MatrixState.load(self.state_path)
            if state.matrix_digest != digest:
                raise ConfigurationError(
                    f"state in {self.out_dir} belongs to a different matrix "
                    f"(state {state.matrix_digest[:12]}, "
                    f"spec {digest[:12]}); run without --resume or use a "
                    "fresh --out directory"
                )
            return state
        return MatrixState(path=self.state_path, matrix_digest=digest)

    def _run_one(self, cell: ScenarioSpec, resume: bool) -> dict:
        checkpoint = self.out_dir / "cells" / f"{cell.cell_digest()}.ckpt"
        checkpoint.parent.mkdir(parents=True, exist_ok=True)
        return run_cell(
            cell,
            workers=self.workers,
            checkpoint=checkpoint,
            resume=resume,
            obs=self.obs,
        )

    def _report_rank(self, cell: ScenarioSpec, payload: dict) -> None:
        """Set the cell's true-byte rank gauge (key-recovery cells only)."""
        if cell.adversary in KEY_RECOVERY_ADVERSARIES:
            self.obs.metrics.set_gauge(
                "scenario_cell_true_byte_rank",
                payload[cell.adversary]["true_byte_rank"],
                cell=cell.name,
            )

    def run(
        self,
        resume: bool = False,
        on_cell: Optional[CellCallback] = None,
    ) -> List[dict]:
        """Run (or finish) every cell; returns payloads in digest order."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        cells = self.matrix.expand()
        state = self._load_state(resume)
        payloads: List[dict] = []
        for cell in cells:
            digest = cell.cell_digest()
            cached = state.cells.get(digest)
            if cached is not None:
                self.obs.metrics.inc("scenario_cells_cached_total")
                self._report_rank(cell, cached)
                payloads.append(cached)
                if on_cell is not None:
                    on_cell(cell, "cached")
                continue
            with self.obs.tracer.span("scenario_cell", cell=digest[:12]):
                payload = self._run_one(cell, resume)
            self.obs.metrics.inc("scenario_cells_total")
            self._report_rank(cell, payload)
            state.mark_done(digest, payload)
            payloads.append(payload)
            if on_cell is not None:
                on_cell(cell, "done")
        return payloads
