"""Declarative scenario cells and their cross-product expansion.

A :class:`ScenarioSpec` names one evaluation cell: which device build is
attacked (target / RFTC shape / plan seed), through which acquisition
front-end (bench scope or cloud co-tenant sensor), under which
environment drift, by which adversary (CPA / profiled-MLP /
lattice-alignment key recovery, or TVLA leakage assessment), with which
trace budget.  :meth:`ScenarioSpec.to_campaign`
lowers the cell onto the streaming pipeline's :class:`CampaignSpec`, so
every cell inherits the engine's determinism contract: the cell result
is a pure function of the cell fields.

A :class:`MatrixSpec` holds a base cell plus named axes of field patches
and expands into the full cross product.  Expansion order is the sorted
order of the cells' canonical digests — *not* file order, *not* dict
iteration order — so two processes with different ``PYTHONHASHSEED``
values (or different axis spellings of the same cells) schedule and
report the matrix identically (``tests/scenarios/test_spec.py`` runs
the subprocess assertion).
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.power.drift import DriftSpec

#: Version tag of one cell's canonical digest payload.
CELL_SCHEMA = "rftc-scenario-cell/1"

#: Version tag of the matrix file format and the matrix digest payload.
MATRIX_SCHEMA = "rftc-scenario-matrix/1"

#: Adversaries a cell can run.  ``cpa`` recovers key byte 0 with the
#: streaming last-round attack and tracks the disclosure curve; ``tvla``
#: runs the fixed-vs-random t-test over interleaved rows; ``mlp``
#: profiles a clone device with the pure-numpy MLP and attacks the
#: victim stream through its posterior-mean HD feature; ``lattice``
#: realigns every chunk by its known completion times before CPA (the
#: completion-time-lattice attacker).  Adding values here does not
#: change existing cells' digests — only cells *using* a new value get
#: new digests.
SCENARIO_ADVERSARIES = ("cpa", "tvla", "mlp", "lattice")

#: ScenarioSpec fields a matrix patch may set (everything else is a typo).
_PATCHABLE_FIELDS = (
    "target",
    "m_outputs",
    "p_configs",
    "plan_seed",
    "noise_std",
    "acquisition",
    "drift",
    "adversary",
    "dtype",
    "n_traces",
    "chunk_size",
    "seed",
)


@dataclass(frozen=True)
class ScenarioSpec:
    """One cell of the evaluation matrix.

    Attributes
    ----------
    name:
        Human label for reports (``axis-variant`` names joined with
        ``/`` when expanded from a matrix).  Deliberately *excluded*
        from :meth:`cell_digest`: the digest identifies the computation,
        and two differently-named cells with identical fields would be
        the same campaign.
    target / m_outputs / p_configs / plan_seed / noise_std / dtype:
        Forwarded to :class:`~repro.pipeline.spec.CampaignSpec`
        unchanged (see its docstring).
    acquisition:
        ``"scope"`` or ``"cloud"`` — the front-end axis.
    drift:
        Optional :class:`~repro.power.drift.DriftSpec` — the
        environment axis (``None`` = stable lab).
    adversary:
        One of :data:`SCENARIO_ADVERSARIES` — decides the consumer
        stack and the outcome block of the cell payload.
    n_traces / chunk_size / seed:
        The campaign budget and master seed for this cell.
    """

    name: str = "cell"
    target: str = "rftc"
    m_outputs: int = 2
    p_configs: int = 16
    plan_seed: int = 2019
    noise_std: float = 2.0
    acquisition: str = "scope"
    drift: Optional[DriftSpec] = None
    adversary: str = "cpa"
    dtype: str = "float64"
    n_traces: int = 1000
    chunk_size: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        if self.adversary not in SCENARIO_ADVERSARIES:
            raise ConfigurationError(
                f"adversary must be one of {SCENARIO_ADVERSARIES}, "
                f"got {self.adversary!r}"
            )
        if self.n_traces < 1:
            raise ConfigurationError("n_traces must be >= 1")
        if self.chunk_size < 1:
            raise ConfigurationError("chunk_size must be >= 1")
        # Lower eagerly so a bad target/acquisition/dtype/drift fails at
        # construction (and matrix load), not mid-matrix.
        self.to_campaign()

    def to_campaign(self):
        """The :class:`CampaignSpec` this cell acquires through."""
        from repro.leakage_assessment.tvla import TVLA_FIXED_PLAINTEXT
        from repro.pipeline.spec import CampaignSpec

        return CampaignSpec(
            target=self.target,
            m_outputs=self.m_outputs,
            p_configs=self.p_configs,
            noise_std=self.noise_std,
            plan_seed=self.plan_seed,
            fixed_plaintext=(
                TVLA_FIXED_PLAINTEXT if self.adversary == "tvla" else None
            ),
            dtype=self.dtype,
            acquisition=self.acquisition,
            drift=self.drift,
        )

    def to_dict(self) -> dict:
        """JSON-safe cell description (round-trips via :meth:`from_dict`)."""
        return {
            "name": self.name,
            "target": self.target,
            "m_outputs": self.m_outputs,
            "p_configs": self.p_configs,
            "plan_seed": self.plan_seed,
            "noise_std": self.noise_std,
            "acquisition": self.acquisition,
            "drift": self.drift.to_dict() if self.drift is not None else None,
            "adversary": self.adversary,
            "dtype": self.dtype,
            "n_traces": self.n_traces,
            "chunk_size": self.chunk_size,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, fields: dict) -> "ScenarioSpec":
        """Rebuild a cell from :meth:`to_dict` output (or a matrix patch)."""
        unknown = set(fields) - set(_PATCHABLE_FIELDS) - {"name"}
        if unknown:
            raise ConfigurationError(
                f"unknown scenario field(s) {sorted(unknown)}; "
                f"expected a subset of {_PATCHABLE_FIELDS}"
            )
        drift = fields.get("drift")
        if isinstance(drift, dict):
            drift = DriftSpec.from_dict(drift)
        elif drift is not None and not isinstance(drift, DriftSpec):
            raise ConfigurationError(
                "drift must be a mapping of DriftSpec fields or null, "
                f"got {type(drift).__name__}"
            )
        kwargs = {
            key: fields[key]
            for key in _PATCHABLE_FIELDS
            if key in fields and key != "drift"
        }
        try:
            return cls(
                name=str(fields.get("name", "cell")), drift=drift, **kwargs
            )
        except TypeError as exc:
            raise ConfigurationError(f"bad scenario fields: {exc}") from exc

    def cell_digest(self) -> str:
        """Canonical SHA-256 of the cell (hex) — its identity.

        Hashes every field *except* ``name`` (a display label) behind
        the :data:`CELL_SCHEMA` version tag, as canonical JSON.  The
        matrix runner keys its resume state and per-cell checkpoints on
        it, and reports sort cells by it.
        """
        payload = self.to_dict()
        del payload["name"]
        canonical = json.dumps(
            {"schema": CELL_SCHEMA, "cell": payload},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("ascii")).hexdigest()


@dataclass
class MatrixSpec:
    """A base cell plus named axes of variants — the declarative sweep.

    ``axes`` is an ordered sequence of ``(axis_name, variants)`` pairs
    where each variant is ``(variant_name, patch)`` and a patch is a
    dict of :class:`ScenarioSpec` fields.  Expansion takes the cross
    product of one variant per axis, applies patches to ``base`` in
    axis order (later axes win on field collisions), and names the cell
    by joining the variant names with ``/``.
    """

    name: str
    base: Dict[str, object] = field(default_factory=dict)
    axes: Tuple[Tuple[str, Tuple[Tuple[str, Dict[str, object]], ...]], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("matrix name must be non-empty")
        if not self.axes:
            raise ConfigurationError("matrix needs at least one axis")
        for axis_name, variants in self.axes:
            if not variants:
                raise ConfigurationError(
                    f"axis {axis_name!r} needs at least one variant"
                )

    @property
    def n_cells(self) -> int:
        count = 1
        for _axis, variants in self.axes:
            count *= len(variants)
        return count

    def expand(self) -> List[ScenarioSpec]:
        """Every cell of the cross product, sorted by cell digest.

        Digest order is the matrix's canonical schedule: stable across
        processes, hash seeds, and cosmetic reorderings of the axes.
        Two variants producing the *same* cell are a spec bug, surfaced
        here rather than silently deduplicated.
        """
        cells: List[ScenarioSpec] = []
        variant_lists = [variants for _axis, variants in self.axes]
        for combo in itertools.product(*variant_lists):
            fields = dict(self.base)
            for _variant_name, patch in combo:
                fields.update(patch)
            fields["name"] = "/".join(name for name, _patch in combo)
            cells.append(ScenarioSpec.from_dict(fields))
        by_digest: Dict[str, ScenarioSpec] = {}
        for cell in cells:
            digest = cell.cell_digest()
            if digest in by_digest:
                raise ConfigurationError(
                    f"cells {by_digest[digest].name!r} and {cell.name!r} "
                    "expand to the same campaign (identical fields) — "
                    "remove the redundant variant"
                )
            by_digest[digest] = cell
        return [by_digest[digest] for digest in sorted(by_digest)]

    def matrix_digest(self) -> str:
        """SHA-256 over the sorted cell digests — the sweep's identity.

        Depends only on the *set of cells* (names excluded), so a
        reordered or renamed-but-equivalent matrix file resumes cleanly
        against existing state, while any field change invalidates it.
        """
        digests = sorted(cell.cell_digest() for cell in self.expand())
        canonical = json.dumps(
            {"schema": MATRIX_SCHEMA, "cells": digests},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("ascii")).hexdigest()


def _parse_axes(
    raw: object,
) -> Tuple[Tuple[str, Tuple[Tuple[str, Dict[str, object]], ...]], ...]:
    if not isinstance(raw, dict) or not raw:
        raise ConfigurationError(
            "matrix 'axes' must be a non-empty object of "
            "axis-name -> {variant-name: patch}"
        )
    axes = []
    for axis_name, variants in raw.items():
        if not isinstance(variants, dict) or not variants:
            raise ConfigurationError(
                f"axis {axis_name!r} must be a non-empty object of "
                "variant-name -> patch"
            )
        parsed = []
        for variant_name, patch in variants.items():
            if not isinstance(patch, dict):
                raise ConfigurationError(
                    f"variant {axis_name}/{variant_name} must be an object "
                    "of ScenarioSpec fields (may be empty)"
                )
            parsed.append((str(variant_name), dict(patch)))
        axes.append((str(axis_name), tuple(parsed)))
    return tuple(axes)


def load_matrix(path: Union[str, Path]) -> MatrixSpec:
    """Parse a matrix file (see ``docs/scenarios.md`` for the format).

    The file is JSON::

        {
          "schema": "rftc-scenario-matrix/1",
          "name": "smoke",
          "base": {"n_traces": 600, "chunk_size": 200, "seed": 7},
          "axes": {
            "acquisition": {"scope": {}, "cloud": {"acquisition": "cloud"}},
            "env": {"stable": {}, "drift": {"drift": {"temperature": 1.0}}},
            "target": {"aes": {"target": "unprotected"}, "rftc": {}}
          }
        }

    Raises :class:`~repro.errors.ConfigurationError` on a missing or
    undecodable file, bad JSON, a wrong schema tag, or any invalid cell —
    the whole matrix is validated (every cell constructed) before
    anything runs.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read matrix file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"matrix file {path} is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError(f"matrix file {path} must hold a JSON object")
    schema = doc.get("schema")
    if schema != MATRIX_SCHEMA:
        raise ConfigurationError(
            f"matrix file {path} has schema {schema!r}; "
            f"this build reads {MATRIX_SCHEMA!r}"
        )
    base = doc.get("base", {})
    if not isinstance(base, dict):
        raise ConfigurationError("matrix 'base' must be an object")
    matrix = MatrixSpec(
        name=str(doc.get("name", path.stem)),
        base=dict(base),
        axes=_parse_axes(doc.get("axes")),
    )
    matrix.expand()  # validate every cell up front
    return matrix
