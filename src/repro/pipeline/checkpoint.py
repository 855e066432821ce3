"""Atomic campaign checkpoints: resume a killed run bit-identically.

A checkpoint is everything needed to continue a streaming campaign after
the process dies: the campaign identity (spec, master seed, chunk size,
trace budget), how many chunks have been folded, and the exact state of
every consumer's incremental accumulator.  Because chunk content is a
pure function of ``(spec, seed, chunk layout)`` (see
:mod:`repro.pipeline.engine`), a resumed campaign re-derives the
remaining chunks from the same ``SeedSequence`` tree and folds them onto
the restored sums — producing *bit-identical* consumer results and store
bytes to a run that was never interrupted (asserted by
``tests/pipeline/test_fault_tolerance.py``).

On disk a checkpoint is one ``.npz``: a ``__meta__`` entry holding a
JSON document (format version, campaign identity, chunks done, and each
consumer's scalar state) plus one array entry per consumer array field,
namespaced ``<consumer name>::<field>``.  Writes go to a temp file then
``os.replace`` — a crash mid-checkpoint leaves the previous checkpoint
intact, never a torn file.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Sequence, Union

import numpy as np

from repro.errors import CheckpointError, ConfigurationError

# The canonical spec codecs live next to CampaignSpec; re-exported here
# because checkpoint files are where they first appeared publicly.
from repro.pipeline.spec import (  # noqa: F401  (re-export)
    CampaignSpec,
    spec_from_dict,
    spec_to_dict,
)

CHECKPOINT_FORMAT_VERSION = 1

_META_KEY = "__meta__"
_SEP = "::"


def _split_state(state: dict) -> "tuple[dict, dict]":
    """Partition a consumer state into (JSON-safe scalars, numpy arrays)."""
    scalars, arrays = {}, {}
    for key, value in state.items():
        if _SEP in key:
            raise ConfigurationError(f"state field {key!r} may not contain {_SEP!r}")
        if isinstance(value, np.ndarray):
            arrays[key] = value
        elif isinstance(value, (np.integer, np.floating)):
            scalars[key] = value.item()
        else:
            scalars[key] = value
    return scalars, arrays


def _write_member(archive: zipfile.ZipFile, name: str, array: np.ndarray) -> None:
    """Write ``array`` as the ``.npy`` member ``name`` from its own buffer.

    The member's bytes are those ``np.savez`` writes (same header, same
    zip entry), but ``np.savez`` first copies the array through
    ``tobytes()``; here only an array that is neither C- nor F-ordered
    is copied.  An F-ordered array is written in memory order through
    ``.T``, which the header's ``fortran_order`` records.  Consumer
    states hold plain numeric arrays, whose headers fit format 1.0; an
    object array (which :meth:`CampaignCheckpoint.load` would refuse)
    cannot be viewed as bytes and raises here.
    """
    with archive.open(name + ".npy", "w", force_zip64=True) as member:
        np.lib.format.write_array_header_1_0(
            member, np.lib.format.header_data_from_array_1_0(array)
        )
        if array.flags.f_contiguous and not array.flags.c_contiguous:
            array = array.T
        member.write(np.ascontiguousarray(array).reshape(-1).view(np.uint8))


@dataclass
class CampaignCheckpoint:
    """A resumable snapshot of a streaming campaign after *k* chunks.

    Attributes
    ----------
    seed / chunk_size / n_traces / spec_fields:
        The campaign identity; :meth:`spec` rebuilds the
        :class:`CampaignSpec`, so a resume runs the exact campaign that
        wrote it.
    chunks_done:
        Chunks folded into the consumer states below (the resume point).
    consumer_states:
        ``name -> snapshot()`` dict for every consumer, exactly as the
        consumer's ``restore()`` expects it back.
    """

    seed: int
    chunk_size: int
    n_traces: int
    chunks_done: int
    spec_fields: dict
    consumer_states: Dict[str, dict]

    # -- construction --------------------------------------------------

    @classmethod
    def capture(
        cls,
        spec: CampaignSpec,
        seed: int,
        chunk_size: int,
        n_traces: int,
        chunks_done: int,
        consumers: Sequence,
    ) -> "CampaignCheckpoint":
        """Snapshot live campaign state (consumers must offer snapshot())."""
        states: Dict[str, dict] = {}
        for consumer in consumers:
            if consumer.name in states:
                raise ConfigurationError(
                    f"duplicate consumer name {consumer.name!r}; checkpointed "
                    "campaigns need unique names"
                )
            if not callable(getattr(consumer, "snapshot", None)):
                raise ConfigurationError(
                    f"consumer {consumer.name!r} has no snapshot(); it cannot "
                    "be checkpointed"
                )
            states[consumer.name] = consumer.snapshot()
        return cls(
            seed=int(seed),
            chunk_size=int(chunk_size),
            n_traces=int(n_traces),
            chunks_done=int(chunks_done),
            spec_fields=spec_to_dict(spec),
            consumer_states=states,
        )

    # -- persistence ---------------------------------------------------

    def save(self, path: Union[str, Path]) -> Path:
        """Atomically write the checkpoint ``.npz`` (temp file + replace)."""
        path = Path(path)
        meta = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "seed": self.seed,
            "chunk_size": self.chunk_size,
            "n_traces": self.n_traces,
            "chunks_done": self.chunks_done,
            "spec": self.spec_fields,
            "consumers": {},
        }
        entries: Dict[str, np.ndarray] = {}
        for name, state in self.consumer_states.items():
            scalars, arrays = _split_state(state)
            meta["consumers"][name] = {
                "scalars": scalars,
                "arrays": sorted(arrays),
            }
            for field, array in arrays.items():
                entries[f"{name}{_SEP}{field}"] = array
        entries[_META_KEY] = np.array(json.dumps(meta, sort_keys=True))
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as handle, zipfile.ZipFile(
            handle, mode="w", compression=zipfile.ZIP_STORED, allowZip64=True
        ) as archive:
            for name, array in entries.items():
                _write_member(archive, name, array)
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CampaignCheckpoint":
        """Read and validate a checkpoint written by :meth:`save`."""
        path = Path(path)
        if not path.is_file():
            raise CheckpointError(f"no checkpoint at {path}")
        try:
            with np.load(path, allow_pickle=False) as archive:
                if _META_KEY not in archive.files:
                    raise CheckpointError(
                        f"{path} is not a campaign checkpoint (no {_META_KEY})"
                    )
                meta = json.loads(str(archive[_META_KEY]))
                # Each read is a fresh array owned by nobody else, and
                # every consumer's restore() copies what it keeps.
                arrays = {
                    name: archive[name]
                    for name in archive.files
                    if name != _META_KEY
                }
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"corrupt checkpoint at {path}: {exc}") from exc
        if meta.get("format_version", 0) > CHECKPOINT_FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint {path} uses format "
                f"v{meta.get('format_version')}; this library reads up to "
                f"v{CHECKPOINT_FORMAT_VERSION}"
            )
        for required in ("seed", "chunk_size", "n_traces", "chunks_done", "spec"):
            if required not in meta:
                raise CheckpointError(f"checkpoint {path} is missing {required!r}")
        states: Dict[str, dict] = {}
        for name, layout in meta.get("consumers", {}).items():
            state = dict(layout.get("scalars", {}))
            for field in layout.get("arrays", []):
                entry = f"{name}{_SEP}{field}"
                if entry not in arrays:
                    raise CheckpointError(
                        f"checkpoint {path} is missing array {entry!r}"
                    )
                state[field] = arrays[entry]
            states[name] = state
        return cls(
            seed=int(meta["seed"]),
            chunk_size=int(meta["chunk_size"]),
            n_traces=int(meta["n_traces"]),
            chunks_done=int(meta["chunks_done"]),
            spec_fields=dict(meta["spec"]),
            consumer_states=states,
        )

    # -- use -----------------------------------------------------------

    def spec(self) -> CampaignSpec:
        return spec_from_dict(self.spec_fields)

    def restore_consumers(self, consumers: Sequence) -> None:
        """Restore ``consumers`` (matched by name) from the saved states."""
        provided = {c.name for c in consumers}
        saved = set(self.consumer_states)
        if provided != saved:
            raise CheckpointError(
                f"consumer names {sorted(provided)} do not match the "
                f"checkpoint's {sorted(saved)}"
            )
        for consumer in consumers:
            if not callable(getattr(consumer, "restore", None)):
                raise ConfigurationError(
                    f"consumer {consumer.name!r} has no restore(); it cannot "
                    "resume from a checkpoint"
                )
            consumer.restore(self.consumer_states[consumer.name])
