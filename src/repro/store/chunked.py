"""Chunked, disk-backed trace storage for paper-scale campaigns.

The paper evaluates RFTC out to four million traces; at 256 float32
samples that is a ~4 GB matrix — far past what a monolithic in-RAM
:class:`~repro.power.acquisition.TraceSet` (or one giant ``.npz``) can
sustain.  :class:`ChunkedTraceStore` keeps a campaign as a directory of
fixed-layout chunks plus a JSON manifest:

.. code-block:: text

    store/
      manifest.json               # key, sample period, per-chunk index
      chunk-00000.traces.npy      # (n_0, S) scope samples
      chunk-00000.plaintexts.npy  # (n_0, 16) uint8
      chunk-00000.ciphertexts.npy
      chunk-00000.times.npy       # (n_0,) completion times
      chunk-00000.meta.npz        # array-valued chunk metadata (optional)
      chunk-00001.traces.npy
      ...

Plain ``.npy`` chunk files (rather than one archive) buy three things:
appends are O(chunk), any chunk can be memory-mapped without touching the
rest of the campaign, and a crashed acquisition leaves every finished
chunk readable.  JSON-safe chunk metadata lives in the manifest; numpy
arrays (per-round set indices, stall times, ...) go to a ``.meta.npz``
sidecar so the manifest stays small at any trace count.

Integrity (format v2): :meth:`ChunkedTraceStore.append` records a
SHA-256 per chunk file in the manifest, :meth:`ChunkedTraceStore.verify`
re-hashes the directory and reports missing / corrupt / orphaned files,
and :meth:`ChunkedTraceStore.open` quarantines partial chunk files left
by a crash between ``np.save`` and the manifest write (the manifest
itself is always replaced atomically).  v1 stores still open; their
chunks are reported as ``unverified``.

Format v3 adds the manifest field ``dtype`` (the trace sample dtype,
pinned by the first append so a store can never silently mix float32 and
float64 chunks), and chunk entries record ``raw_bytes``/``stored_bytes``,
which ``repro store info`` totals and a disk budget checks against.
v1/v2 stores still open, with an unrecorded dtype.  Chunk fields are
always plain ``.npy``; a v3 manifest naming the former compressed
encoding (a zlib archive per field) is refused on open.

Writing and committing are two steps.  :func:`write_chunk_files` writes
one chunk's files under their final names and hashes the bytes as it
writes them; :meth:`ChunkedTraceStore.append` commits the chunk's
manifest entry.  A direct ``append(chunk)`` does both; the campaign
engine runs the writer in whichever process acquired the chunk (a pool
worker, or the parent when inline) and the parent only commits, in
chunk order.

Resource exhaustion: every chunk file is written to a ``.tmp`` sibling
and atomically renamed into place, so a full disk mid-write can never
leave a half-written chunk file behind — on any write failure the
writer deletes its temporaries *and* the files it already renamed, then
re-raises ``ENOSPC``-family errors as the typed
:class:`~repro.errors.StorageExhaustedError` (the store stays loadable
and ``verify`` stays clean, the failed chunk simply absent).  Setting
:attr:`ChunkedTraceStore.disk_budget_bytes` checks each append against
a byte budget, failing once stored bytes plus the incoming chunk's raw
size would breach it: before any I/O on a direct ``append(chunk)``, and
at commit (deleting the chunk's written files) when the files were
written ahead.
"""

from __future__ import annotations

import errno
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

import numpy as np

from repro.errors import (
    AcquisitionError,
    ConfigurationError,
    IntegrityError,
    StorageExhaustedError,
)
from repro.obs.metrics import NULL_METRICS
from repro.power.acquisition import TraceSet, sanitize_metadata

MANIFEST_NAME = "manifest.json"
QUARANTINE_DIR = "quarantine"
STORE_FORMAT_VERSION = 3

#: Fields persisted per chunk as ``chunk-XXXXX.<suffix>.npy``.
_CHUNK_FIELDS = (
    ("traces", "traces"),
    ("plaintexts", "plaintexts"),
    ("ciphertexts", "ciphertexts"),
    ("times", "completion_times_ns"),
)


def _split_metadata(metadata: dict) -> "tuple[dict, dict]":
    """Partition chunk metadata into (json-safe, array-valued) halves."""
    plain, arrays = {}, {}
    for key, value in metadata.items():
        if isinstance(value, np.ndarray):
            arrays[str(key)] = value
        else:
            plain[str(key)] = value
    return sanitize_metadata(plain), arrays


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _stem(index: int) -> str:
    return f"chunk-{index:05d}"


def _field_name(stem: str, suffix: str) -> str:
    return f"{stem}.{suffix}.npy"


def _chunk_file_names(stem: str) -> List[str]:
    """Every final file name a chunk can have (fields, then sidecar)."""
    names = [_field_name(stem, suffix) for suffix, _ in _CHUNK_FIELDS]
    return names + [f"{stem}.meta.npz"]


def _npy_parts(array: np.ndarray) -> list:
    """The bytes ``np.save`` writes for a C-contiguous ``array``.

    The version 1.0 header ``np.save`` picks for every array a chunk
    holds, then the array's own buffer (no copy).
    """
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, np.lib.format.header_data_from_array_1_0(array)
    )
    return [header.getvalue(), array.reshape(-1).view(np.uint8)]


def _npz_parts(**arrays: np.ndarray) -> list:
    """The bytes ``np.savez_compressed`` writes to a seekable file.

    Built in memory: ``zipfile`` writes other bytes (data descriptors)
    to a stream it cannot seek, so the archive cannot be hashed on its
    way to the disk.
    """
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    return [buffer.getbuffer()]


def _write_hashed(file: Path, parts: list) -> "tuple[str, int]":
    """Write ``parts`` to ``file``; return the SHA-256 and size written.

    The bytes go to a ``.tmp`` sibling named after this process, are
    fsynced and renamed into place: a crash (or ``ENOSPC``) mid-write
    leaves only the temporary, which quarantine-on-open sweeps aside,
    and two processes writing the same chunk never share a temporary.
    """
    tmp = file.with_name(f"{file.name}.{os.getpid()}.tmp")
    digest = hashlib.sha256()
    size = 0
    try:
        with open(tmp, "wb") as handle:
            for part in parts:
                handle.write(part)
                digest.update(part)
                size += memoryview(part).nbytes
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, file)
    except OSError:
        try:
            tmp.unlink()
        except OSError:  # pragma: no cover - cleanup best-effort
            pass
        raise
    return digest.hexdigest(), size


def _chunk_payloads(stem: str, chunk: TraceSet):
    """Yield (file name, raw bytes, parts to write) per file, in write order."""
    for suffix, attr in _CHUNK_FIELDS:
        array = np.ascontiguousarray(getattr(chunk, attr))
        yield _field_name(stem, suffix), array.nbytes, _npy_parts(array)
    _, array_meta = _split_metadata(chunk.metadata)
    if array_meta:
        raw = sum(a.nbytes for a in array_meta.values())
        yield f"{stem}.meta.npz", raw, _npz_parts(**array_meta)


@dataclass(frozen=True)
class WrittenChunk:
    """What :func:`write_chunk_files` reports: all a commit needs of the files.

    ``files`` maps each file name to the SHA-256 of the bytes written;
    the files themselves stay on disk under their final names.
    """

    index: int
    files: Dict[str, str]
    raw_bytes: int
    stored_bytes: int


def write_chunk_files(
    directory: Union[str, Path],
    index: int,
    chunk: TraceSet,
    faults=None,
) -> WrittenChunk:
    """Write chunk ``index``'s files into a store directory, hashed as written.

    The four field files and, when the chunk carries array-valued
    metadata, its ``.meta.npz`` sidecar land under their final names
    (see :func:`_write_hashed`).  On any write failure the files already
    renamed are deleted again; ``ENOSPC``/quota errors re-raise as
    :class:`~repro.errors.StorageExhaustedError`, other ``OSError`` as
    is.  ``faults`` is an optional
    :class:`~repro.testing.faults.FaultPlan` whose ``enospc@K``
    directives fire here.  Nothing is committed: the chunk belongs to a
    store once :meth:`ChunkedTraceStore.append` records the returned
    :class:`WrittenChunk` in the manifest.
    """
    directory = Path(directory)
    files: Dict[str, str] = {}
    raw_bytes = stored_bytes = 0
    try:
        for position, (name, raw, parts) in enumerate(
            _chunk_payloads(_stem(index), chunk)
        ):
            if faults is not None:
                faults.check_store_write(index, position)
            files[name], size = _write_hashed(directory / name, parts)
            raw_bytes += raw
            stored_bytes += size
    except OSError as exc:
        for name in files:
            try:
                (directory / name).unlink()
            except OSError:  # pragma: no cover - cleanup best-effort
                pass
        if exc.errno in (errno.ENOSPC, errno.EDQUOT, errno.EFBIG):
            raise StorageExhaustedError(
                f"out of disk space writing chunk {index}: {exc}"
            ) from exc
        raise
    return WrittenChunk(index, files, raw_bytes, stored_bytes)


def discard_chunk_files(directory: Union[str, Path], indices: range) -> None:
    """Delete whatever :func:`write_chunk_files` left of the chunks ``indices``.

    Their finished files and the temporaries of any writer process; other
    files, even those that merely share a chunk's stem, are left alone.
    """
    names = {
        name for index in indices for name in _chunk_file_names(_stem(index))
    }
    if not names:
        return
    for file in Path(directory).glob("chunk-*"):
        name = file.name
        if name in names or (
            name.endswith(".tmp") and name.rsplit(".", 2)[0] in names
        ):
            try:
                file.unlink()
            except FileNotFoundError:  # pragma: no cover - raced a writer
                pass


def count_write_failure(metrics, exc: BaseException) -> None:
    """Count a failed :func:`write_chunk_files` on ``store_append_failures_total``."""
    exhausted = isinstance(exc, StorageExhaustedError)
    metrics.inc(
        "store_append_failures_total", reason="enospc" if exhausted else "io"
    )


def _validate_manifest(path: Path, manifest: dict) -> None:
    """Reject hand-edited or truncated manifests with a clear error.

    Catches what a deep ``KeyError`` in :meth:`ChunkedTraceStore.chunk`
    would otherwise surface much later: a malformed key, a missing
    ``n_samples`` field, or chunk entries without their required fields.
    """
    for required in ("version", "key", "sample_period_ns", "n_samples", "chunks"):
        if required not in manifest:
            raise AcquisitionError(
                f"store manifest at {path} is missing {required!r}"
            )
    key = manifest["key"]
    if not (isinstance(key, str) and len(key) == 32):
        raise AcquisitionError(
            f"store manifest at {path} has a malformed key (expected 32 hex "
            f"characters, got {key!r})"
        )
    try:
        bytes.fromhex(key)
    except ValueError as exc:
        raise AcquisitionError(
            f"store manifest at {path} has a non-hex key {key!r}"
        ) from exc
    if not isinstance(manifest["chunks"], list):
        raise AcquisitionError(f"store manifest at {path}: 'chunks' must be a list")
    for position, entry in enumerate(manifest["chunks"]):
        if not isinstance(entry, dict):
            raise AcquisitionError(
                f"store manifest at {path}: chunk entry {position} is not an object"
            )
        for entry_field in ("stem", "n_traces"):
            if entry_field not in entry:
                raise AcquisitionError(
                    f"store manifest at {path}: chunk entry {position} is "
                    f"missing {entry_field!r}"
                )
        if not isinstance(entry["n_traces"], int) or entry["n_traces"] < 0:
            raise AcquisitionError(
                f"store manifest at {path}: chunk entry {position} has a "
                f"malformed n_traces {entry['n_traces']!r}"
            )


@dataclass
class StoreVerification:
    """Outcome of :meth:`ChunkedTraceStore.verify`.

    ``missing``/``corrupt``/``orphaned`` are file names relative to the
    store directory; ``unverified`` lists chunk stems recorded without
    checksums (pre-v2 stores), which existence-checks still cover.
    """

    n_chunks: int
    missing: List[str] = field(default_factory=list)
    corrupt: List[str] = field(default_factory=list)
    orphaned: List[str] = field(default_factory=list)
    unverified: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every manifest file exists and hashes clean."""
        return not (self.missing or self.corrupt or self.orphaned)

    def summary(self) -> str:
        if self.ok and not self.unverified:
            return f"store OK: {self.n_chunks} chunks, all checksums match"
        lines = [f"store verification over {self.n_chunks} chunks:"]
        for label, names in (
            ("missing", self.missing),
            ("corrupt", self.corrupt),
            ("orphaned", self.orphaned),
            ("unverified", self.unverified),
        ):
            if names:
                lines.append(f"  {label:10s}: {', '.join(names)}")
        lines.append(f"  verdict   : {'OK' if self.ok else 'DAMAGED'}")
        return "\n".join(lines)


class ChunkedTraceStore:
    """A directory of trace chunks behind a manifest.

    Create with :meth:`create`, reopen with :meth:`open`; then
    :meth:`append` finished chunks during acquisition and
    :meth:`iter_chunks` (optionally memory-mapped) during analysis.
    ``load_all`` materialises the whole campaign for code that still wants
    a monolithic :class:`~repro.power.acquisition.TraceSet` — the inverse
    of :meth:`TraceSet.to_store`.
    """

    def __init__(self, path: Path, manifest: dict):
        self.path = Path(path)
        self._manifest = manifest
        #: Files moved aside by quarantine-on-open (names under
        #: ``quarantine/``); empty for cleanly-closed stores.
        self.quarantined_files: List[str] = []
        #: Where :meth:`append`/:meth:`verify` count chunks, bytes and
        #: failures; the campaign engine swaps in its live registry.
        #: Counting never touches persisted bytes.
        self.metrics = NULL_METRICS
        #: Optional byte budget for the whole store; appends that would
        #: push recorded stored bytes past it raise
        #: :class:`~repro.errors.StorageExhaustedError` (see
        #: :meth:`append`).  ``None`` (default) disables the check.
        self.disk_budget_bytes: Optional[int] = None
        #: Optional :class:`~repro.testing.faults.FaultPlan`; the engine
        #: wires its plan in so ``enospc@K`` directives fire inside the
        #: real write path (see ``check_store_write``).
        self.faults = None

    # -- lifecycle -----------------------------------------------------

    @classmethod
    def create(
        cls,
        path: Union[str, Path],
        key: bytes,
        sample_period_ns: float,
        metadata: Optional[dict] = None,
    ) -> "ChunkedTraceStore":
        """Initialise an empty store at ``path`` (created if missing)."""
        if len(key) != 16:
            raise ConfigurationError("key must be 16 bytes")
        if sample_period_ns <= 0:
            raise ConfigurationError("sample_period_ns must be positive")
        path = cls.prepare(path)
        manifest = {
            "version": STORE_FORMAT_VERSION,
            "key": key.hex(),
            "sample_period_ns": float(sample_period_ns),
            "n_samples": None,  # pinned by the first append
            "dtype": None,  # pinned by the first append
            "metadata": sanitize_metadata(metadata or {}),
            "chunks": [],
        }
        store = cls(path, manifest)
        store._write_manifest()
        return store

    @staticmethod
    def prepare(path: Union[str, Path]) -> Path:
        """Create the directory for a new store; refuse one that holds a store.

        :meth:`create` starts here.  The campaign engine calls it before
        its first chunk files are written, since the store itself is
        created at the first commit, from that chunk's sample period.
        """
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        if (path / MANIFEST_NAME).exists():
            raise AcquisitionError(
                f"{path} already holds a trace store; open() it instead"
            )
        return path

    @classmethod
    def open(
        cls, path: Union[str, Path], quarantine: bool = True
    ) -> "ChunkedTraceStore":
        """Open an existing store, validating its manifest.

        With ``quarantine=True`` (the default), chunk files whose stem is
        not in the manifest — the footprint of a crash between
        ``np.save`` and the manifest write — are moved into a
        ``quarantine/`` subdirectory so a resumed campaign can rewrite
        the chunk cleanly; the moved names are listed on
        :attr:`quarantined_files`.
        """
        path = Path(path)
        manifest_path = path / MANIFEST_NAME
        if not manifest_path.exists():
            raise AcquisitionError(f"no trace store at {path} (missing manifest)")
        try:
            manifest = json.loads(manifest_path.read_text())
        except json.JSONDecodeError as exc:
            raise AcquisitionError(
                f"corrupt store manifest at {path}: {exc}"
            ) from exc
        _validate_manifest(path, manifest)
        if manifest["version"] > STORE_FORMAT_VERSION:
            raise AcquisitionError(
                f"store at {path} uses format v{manifest['version']}; "
                f"this library reads up to v{STORE_FORMAT_VERSION}"
            )
        encoding = manifest.get("compression", "none")
        if encoding != "none":
            raise AcquisitionError(
                f"store at {path} holds {encoding!r} chunks; that encoding "
                "was removed and is no longer readable"
            )
        store = cls(path, manifest)
        if quarantine:
            store._quarantine_partial_chunks()
        return store

    def _known_stems(self) -> "set[str]":
        return {entry["stem"] for entry in self._manifest["chunks"]}

    def _stray_chunk_files(self) -> List[Path]:
        """Top-level ``chunk-*`` files whose stem the manifest doesn't own."""
        known = self._known_stems()
        return sorted(
            file
            for file in self.path.glob("chunk-*")
            if file.is_file() and file.name.split(".")[0] not in known
        )

    def _quarantine_partial_chunks(self) -> None:
        strays = self._stray_chunk_files()
        if not strays:
            return
        quarantine = self.path / QUARANTINE_DIR
        quarantine.mkdir(exist_ok=True)
        for file in strays:
            os.replace(file, quarantine / file.name)
            self.quarantined_files.append(file.name)

    def _write_manifest(self) -> None:
        """Atomically persist the manifest (finished chunks survive crashes)."""
        tmp = self.path / (MANIFEST_NAME + ".tmp")
        tmp.write_text(json.dumps(self._manifest, indent=1))
        os.replace(tmp, self.path / MANIFEST_NAME)

    # -- metadata ------------------------------------------------------

    @property
    def version(self) -> int:
        """Manifest format version the store was written with."""
        return int(self._manifest["version"])

    @property
    def key(self) -> bytes:
        return bytes.fromhex(self._manifest["key"])

    @property
    def sample_period_ns(self) -> float:
        return float(self._manifest["sample_period_ns"])

    @property
    def metadata(self) -> dict:
        return dict(self._manifest["metadata"])

    @property
    def n_chunks(self) -> int:
        return len(self._manifest["chunks"])

    @property
    def n_traces(self) -> int:
        return sum(c["n_traces"] for c in self._manifest["chunks"])

    @property
    def n_samples(self) -> Optional[int]:
        """Samples per trace (``None`` until the first chunk lands)."""
        return self._manifest["n_samples"]

    @property
    def dtype(self) -> Optional[str]:
        """Trace sample dtype (``None`` for empty or pre-v3 stores)."""
        return self._manifest.get("dtype")

    def chunk_sizes(self) -> List[int]:
        return [c["n_traces"] for c in self._manifest["chunks"]]

    def byte_counts(self) -> "tuple[int, int]":
        """``(raw_bytes, stored_bytes)`` summed over chunks recording them."""
        raw = sum(c.get("raw_bytes", 0) for c in self._manifest["chunks"])
        stored = sum(c.get("stored_bytes", 0) for c in self._manifest["chunks"])
        return raw, stored

    # -- writing -------------------------------------------------------

    def _field_file(self, stem: str, suffix: str) -> Path:
        return self.path / _field_name(stem, suffix)

    def _check_chunk(self, chunk: TraceSet, index: int, raw_bytes: int) -> None:
        """Refuse a chunk that does not fit the store or its disk budget."""
        if chunk.key != self.key:
            raise AcquisitionError("chunk key does not match the store key")
        if abs(chunk.sample_period_ns - self.sample_period_ns) > 1e-12:
            raise AcquisitionError(
                "chunk sample period does not match the store"
            )
        if self.n_samples is not None and chunk.n_samples != self.n_samples:
            raise AcquisitionError(
                f"chunk has {chunk.n_samples} samples, store has {self.n_samples}"
            )
        trace_dtype = str(np.asarray(chunk.traces).dtype)
        if self.dtype is not None and trace_dtype != self.dtype:
            raise AcquisitionError(
                f"chunk traces are {trace_dtype}, store is pinned to "
                f"{self.dtype}"
            )
        if self.disk_budget_bytes is not None:
            stored_so_far = self.byte_counts()[1]
            if stored_so_far + raw_bytes > self.disk_budget_bytes:
                self.metrics.inc("store_append_failures_total", reason="budget")
                raise StorageExhaustedError(
                    f"chunk {index} would exceed the store disk budget: "
                    f"{stored_so_far} bytes stored + {raw_bytes} incoming "
                    f"> {self.disk_budget_bytes} budgeted"
                )

    def append(
        self, chunk: TraceSet, written: Optional[WrittenChunk] = None
    ) -> int:
        """Commit one finished chunk; returns its index in the store.

        Without ``written``, the chunk's files are written here by
        :func:`write_chunk_files`, after the checks, so a refused chunk
        costs no I/O.  With ``written``, the files of this store's next
        chunk were already written by that function (the campaign engine
        writes them in the process that acquired the chunk), and a
        refusal deletes them.  Either way the manifest entry is the
        commit: until it is rewritten the store does not own the files.

        The append is atomic at chunk granularity, so the store stays
        loadable and :meth:`verify` stays clean with a failed chunk
        simply absent.  ``ENOSPC``/quota errors and a configured
        :attr:`disk_budget_bytes` breach raise
        :class:`~repro.errors.StorageExhaustedError`.
        """
        index = self.n_chunks
        if written is not None and written.index != index:
            raise AcquisitionError(
                f"chunk files were written as chunk {written.index}; the "
                f"store's next chunk is {index}"
            )
        plain_meta, array_meta = _split_metadata(chunk.metadata)
        raw_bytes = sum(
            np.asarray(getattr(chunk, attr)).nbytes for _, attr in _CHUNK_FIELDS
        ) + sum(a.nbytes for a in array_meta.values())
        try:
            self._check_chunk(chunk, index, raw_bytes)
        except AcquisitionError:
            if written is not None:
                discard_chunk_files(self.path, range(index, index + 1))
            raise
        if written is None:
            try:
                written = write_chunk_files(self.path, index, chunk, self.faults)
            except (StorageExhaustedError, OSError) as exc:
                count_write_failure(self.metrics, exc)
                raise
        stem = _stem(index)
        self._manifest["n_samples"] = chunk.n_samples
        self._manifest["dtype"] = str(np.asarray(chunk.traces).dtype)
        self._manifest["chunks"].append(
            {
                "index": index,
                "stem": stem,
                "n_traces": chunk.n_traces,
                "metadata": plain_meta,
                "has_array_metadata": f"{stem}.meta.npz" in written.files,
                "raw_bytes": written.raw_bytes,
                "stored_bytes": written.stored_bytes,
                "files": dict(written.files),
            }
        )
        self._write_manifest()
        self.metrics.inc("store_chunks_written_total")
        self.metrics.inc("store_bytes_written_total", written.stored_bytes)
        return index

    # -- integrity -----------------------------------------------------

    def expected_files(self, index: int) -> List[str]:
        """File names one chunk entry must have on disk."""
        entry = self._entry(index)
        names = _chunk_file_names(entry["stem"])
        return names if entry.get("has_array_metadata") else names[:-1]

    def verify(self) -> StoreVerification:
        """Re-hash every chunk file against the manifest checksums.

        Reports files that are *missing*, *corrupt* (checksum mismatch —
        a single flipped byte is caught), or *orphaned* (``chunk-*``
        files the manifest does not own, e.g. leftovers of a crash when
        the store was opened with ``quarantine=False``).  Chunks written
        by pre-checksum stores land in ``unverified``.  Never raises on
        damage — operators want the full report, not the first failure.
        """
        files_checked = 0
        outcome = StoreVerification(n_chunks=self.n_chunks)
        for position, entry in enumerate(self._manifest["chunks"]):
            checksums = entry.get("files")
            if checksums is None:
                outcome.unverified.append(entry["stem"])
                checksums = {name: None for name in self.expected_files(position)}
            for name, digest in checksums.items():
                file = self.path / name
                files_checked += 1
                if not file.is_file():
                    outcome.missing.append(name)
                elif digest is not None and _sha256(file) != digest:
                    outcome.corrupt.append(name)
        outcome.orphaned.extend(file.name for file in self._stray_chunk_files())
        self.metrics.inc("store_files_verified_total", files_checked)
        for kind, names in (
            ("missing", outcome.missing),
            ("corrupt", outcome.corrupt),
            ("orphaned", outcome.orphaned),
        ):
            if names:
                self.metrics.inc(
                    "store_verify_failures_total", len(names), kind=kind
                )
        return outcome

    def require_intact(self) -> None:
        """Raise :class:`~repro.errors.IntegrityError` unless verify() is ok."""
        outcome = self.verify()
        if not outcome.ok:
            raise IntegrityError(
                f"store at {self.path} failed verification:\n{outcome.summary()}"
            )

    # -- reading -------------------------------------------------------

    def _entry(self, index: int) -> dict:
        if not 0 <= index < self.n_chunks:
            raise AcquisitionError(
                f"chunk index {index} out of range [0, {self.n_chunks})"
            )
        return self._manifest["chunks"][index]

    def _load_field(self, stem: str, suffix: str, mmap: bool) -> np.ndarray:
        file = self._field_file(stem, suffix)
        if not file.exists():
            raise AcquisitionError(f"store at {self.path} lost chunk file {file.name}")
        return np.load(file, mmap_mode="r" if mmap else None)

    def chunk(self, index: int, mmap: bool = False) -> TraceSet:
        """Load one chunk as a :class:`TraceSet`.

        With ``mmap=True`` the trace matrix (the only large field) is a
        read-only memory map: analysis that scans samples touches pages on
        demand instead of faulting the whole chunk in.
        """
        entry = self._entry(index)
        stem = entry["stem"]
        metadata = dict(entry["metadata"])
        if entry.get("has_array_metadata"):
            with np.load(self.path / f"{stem}.meta.npz") as sidecar:
                metadata.update({k: sidecar[k] for k in sidecar.files})
        return TraceSet(
            traces=self._load_field(stem, "traces", mmap),
            plaintexts=np.asarray(self._load_field(stem, "plaintexts", False)),
            ciphertexts=np.asarray(self._load_field(stem, "ciphertexts", False)),
            key=self.key,
            completion_times_ns=np.asarray(self._load_field(stem, "times", False)),
            sample_period_ns=self.sample_period_ns,
            metadata=metadata,
        )

    def iter_chunks(self, mmap: bool = False) -> Iterator[TraceSet]:
        """Yield chunks in acquisition order, one resident at a time."""
        for index in range(self.n_chunks):
            yield self.chunk(index, mmap=mmap)

    def load_all(self) -> TraceSet:
        """Materialise the whole campaign (small stores / bridging only)."""
        if self.n_chunks == 0:
            raise AcquisitionError("store is empty")
        chunks = list(self.iter_chunks())
        return TraceSet(
            traces=np.concatenate([c.traces for c in chunks]),
            plaintexts=np.concatenate([c.plaintexts for c in chunks]),
            ciphertexts=np.concatenate([c.ciphertexts for c in chunks]),
            key=self.key,
            completion_times_ns=np.concatenate(
                [c.completion_times_ns for c in chunks]
            ),
            sample_period_ns=self.sample_period_ns,
            metadata=self.metadata,
        )
