"""Disk-backed trace storage: the persistence layer under ``repro.pipeline``.

:class:`ChunkedTraceStore` is a directory-of-chunks format with a JSON
manifest, per-file SHA-256 checksums, a :meth:`~ChunkedTraceStore.verify`
integrity scan (reported as :class:`StoreVerification`), and
quarantine-on-open of partial chunks left by a crash.  It is kept as its
own package because every later scaling step (sharded stores, remote
backends, compaction) slots in here without touching acquisition or
analysis code.
"""

from repro.store.chunked import (
    MANIFEST_NAME,
    QUARANTINE_DIR,
    STORE_FORMAT_VERSION,
    ChunkedTraceStore,
    StoreVerification,
    WrittenChunk,
    count_write_failure,
    discard_chunk_files,
    write_chunk_files,
)

__all__ = [
    "ChunkedTraceStore",
    "MANIFEST_NAME",
    "QUARANTINE_DIR",
    "STORE_FORMAT_VERSION",
    "StoreVerification",
    "WrittenChunk",
    "count_write_failure",
    "discard_chunk_files",
    "write_chunk_files",
]
