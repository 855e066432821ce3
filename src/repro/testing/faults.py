"""Deterministic fault injection for the streaming campaign pipeline.

Fault-tolerance code that is only ever *claimed* to work is worse than
none: the recovery path rots unnoticed until a real 4M-trace campaign
dies on it.  This module makes every failure mode reproducible on
demand:

* :class:`FaultPlan` — a picklable plan the engine consults at fixed
  points: raise in the process acquiring chunk *k*, block the worker
  that owns chunk *k* until it is killed, simulate the workers failing
  while collecting chunk *k*, or simulate a hard process
  crash right after chunk *k* is folded and checkpointed.
* System-resource faults — the failure modes paper-scale campaigns
  actually hit: ``enospc@K`` makes the store's write path fail with
  ``ENOSPC`` while persisting chunk *K* (mid-append: the first field
  file lands, the second raises), ``shm-alloc-fail@K`` makes the
  shared-memory ring's allocation fail when publishing chunk *K*
  (the engine must stop its workers and finish inline, not abort), and
  ``journal-torn@N`` tears the service job journal mid-append of
  record *N* (a trailing fragment, exactly the footprint of a daemon
  killed between ``write`` and ``flush``).
* File-level corruption helpers — flip a byte in a named chunk file,
  truncate it, or drop the tail of the store manifest — used to prove
  :meth:`~repro.store.ChunkedTraceStore.verify` and manifest validation
  actually detect damage.

Everything is a pure function of the plan; no randomness, no timing.
The same plans drive the test suite, the chaos soak
(``benchmarks/soak_service_chaos.py``), and the CLI's ``--inject-fault``
debug flag (``repro-rftc campaign --inject-fault worker@2,enospc@3``).
"""

from __future__ import annotations

import errno
import re
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple, Union

from repro.errors import (
    ConfigurationError,
    InjectedCrashError,
    InjectedFaultError,
    PoolBrokenError,
)

_SPEC_RE = re.compile(
    r"^(worker|hang|pool|crash|enospc|shm-alloc-fail|journal-torn)@(\d+)$"
)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injected failures for one campaign.

    Attributes
    ----------
    worker_errors:
        Chunk indices whose acquisition raises
        :class:`~repro.errors.InjectedFaultError`, pooled or inline; the
        engine does not retry a chunk, so the campaign fails there.
    hangs:
        Chunk indices whose worker blocks until it is killed, as a
        wedged worker would.  Inline acquisition (``workers=1``, or a
        run that degraded) never hangs, so a run that gives up on its
        workers still finishes.
    pool_breaks:
        Chunk indices at which collecting from the workers raises
        :class:`~repro.errors.PoolBrokenError` — the engine must
        degrade to inline execution, not abort.
    crash_after:
        Chunk index after whose fold (store append + consumer update +
        checkpoint) the parent raises
        :class:`~repro.errors.InjectedCrashError`, simulating a killed
        process at the worst-aligned instant.
    enospc_chunks:
        Chunk indices whose store append fails with ``OSError(ENOSPC)``
        *mid-write* — after the first field file is persisted but before
        the rest — so the store's atomic-append cleanup is what the test
        exercises, not a convenient pre-write failure.
    shm_alloc_failures:
        Chunk indices whose shared-memory publish fails with
        ``OSError(ENOSPC)`` inside the worker, as a full ``/dev/shm``
        would; the engine must stop its workers, acquire that chunk and
        every later one inline, and keep the campaign alive.
    journal_torn_record:
        1-based journal record index after which the service job journal
        is torn mid-append (the line is half-written and the process
        "dies"); replay must truncate the fragment and stay appendable.
    """

    worker_errors: Tuple[int, ...] = ()
    hangs: Tuple[int, ...] = ()
    pool_breaks: Tuple[int, ...] = ()
    crash_after: Optional[int] = None
    enospc_chunks: Tuple[int, ...] = ()
    shm_alloc_failures: Tuple[int, ...] = ()
    journal_torn_record: Optional[int] = None

    def __post_init__(self) -> None:
        if any(index < 0 for index in self.worker_errors):
            raise ConfigurationError("worker_errors indices must be >= 0")
        if any(index < 0 for index in self.hangs):
            raise ConfigurationError("hangs indices must be >= 0")
        if any(index < 0 for index in self.pool_breaks):
            raise ConfigurationError("pool_breaks indices must be >= 0")
        if self.crash_after is not None and self.crash_after < 0:
            raise ConfigurationError("crash_after must be >= 0")
        if any(index < 0 for index in self.enospc_chunks):
            raise ConfigurationError("enospc_chunks indices must be >= 0")
        if any(index < 0 for index in self.shm_alloc_failures):
            raise ConfigurationError(
                "shm_alloc_failures indices must be >= 0"
            )
        if self.journal_torn_record is not None and self.journal_torn_record < 1:
            raise ConfigurationError("journal_torn_record must be >= 1")

    # -- engine hooks --------------------------------------------------

    def check_worker(self, chunk_index: int) -> None:
        """Raise if this chunk's acquisition is scheduled to fail."""
        if chunk_index in self.worker_errors:
            raise InjectedFaultError(
                f"injected worker fault: chunk {chunk_index}"
            )

    def check_hang(self, chunk_index: int) -> None:
        """Block forever if this chunk is scheduled to wedge its worker.

        The engine's worker loop calls this before acquiring each chunk
        it owns (worker ``w`` of ``n`` owns chunks ``w, w + n, ...``);
        inline acquisition never does.  The process returns from here
        only by being killed.
        """
        if chunk_index in self.hangs:
            threading.Event().wait()

    def check_pool(self, chunk_index: int) -> None:
        """Raise if collecting this chunk is scheduled to fail."""
        if chunk_index in self.pool_breaks:
            raise PoolBrokenError(
                f"injected pool failure while collecting chunk {chunk_index}"
            )

    def check_crash(self, chunk_index: int) -> None:
        """Raise if the parent is scheduled to crash after folding a chunk."""
        if self.crash_after == chunk_index:
            raise InjectedCrashError(
                f"injected crash after folding chunk {chunk_index}"
            )

    def check_store_write(self, chunk_index: int, file_position: int) -> None:
        """Raise ``OSError(ENOSPC)`` mid-append of a scheduled chunk.

        Called by the store's write path before each field file of chunk
        ``chunk_index`` is written; the fault fires at ``file_position``
        1 — after the first file landed — so a surviving half-written
        chunk is exactly what the atomic-append cleanup must prevent.
        """
        if chunk_index in self.enospc_chunks and file_position == 1:
            raise OSError(
                errno.ENOSPC,
                f"injected ENOSPC writing chunk {chunk_index} "
                f"(file {file_position})",
            )

    def check_shm_publish(self, chunk_index: int) -> None:
        """Raise ``OSError(ENOSPC)`` if this chunk's shm publish must fail."""
        if chunk_index in self.shm_alloc_failures:
            raise OSError(
                errno.ENOSPC,
                f"injected shared-memory allocation failure publishing "
                f"chunk {chunk_index}",
            )

    # -- parsing -------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Build a plan from the CLI mini-language.

        Comma-separated directives: ``worker@K`` (acquiring chunk *K*
        fails), ``hang@K`` (the worker that owns chunk *K* blocks
        until killed), ``pool@K`` (workers fail collecting chunk *K*),
        ``crash@K`` (parent crashes after folding chunk *K*),
        ``enospc@K`` (store append of chunk *K* hits ``ENOSPC``
        mid-write), ``shm-alloc-fail@K`` (chunk *K*'s shared-memory
        publish fails), and ``journal-torn@N`` (job journal torn
        mid-append of record *N*).  Example: ``worker@1,enospc@3``.
        """
        worker_errors = []
        hangs = []
        pool_breaks = []
        crash_after = None
        enospc_chunks = []
        shm_alloc_failures = []
        journal_torn_record = None
        for part in filter(None, (p.strip() for p in text.split(","))):
            match = _SPEC_RE.match(part)
            if match is None:
                raise ConfigurationError(
                    f"bad fault directive {part!r}; expected worker@K, "
                    "hang@K, pool@K, crash@K, enospc@K, shm-alloc-fail@K, "
                    "or journal-torn@N"
                )
            kind, index = match.group(1), int(match.group(2))
            if kind == "worker":
                worker_errors.append(index)
            elif kind == "hang":
                hangs.append(index)
            elif kind == "pool":
                pool_breaks.append(index)
            elif kind == "enospc":
                enospc_chunks.append(index)
            elif kind == "shm-alloc-fail":
                shm_alloc_failures.append(index)
            elif kind == "journal-torn":
                if journal_torn_record is not None:
                    raise ConfigurationError(
                        "only one journal-torn@N directive allowed"
                    )
                journal_torn_record = index
            else:
                if crash_after is not None:
                    raise ConfigurationError("only one crash@K directive allowed")
                crash_after = index
        return cls(
            worker_errors=tuple(worker_errors),
            hangs=tuple(hangs),
            pool_breaks=tuple(pool_breaks),
            crash_after=crash_after,
            enospc_chunks=tuple(enospc_chunks),
            shm_alloc_failures=tuple(shm_alloc_failures),
            journal_torn_record=journal_torn_record,
        )


# -- store corruption helpers ------------------------------------------


def _chunk_file(store_path: Union[str, Path], file_name: str) -> Path:
    file = Path(store_path) / file_name
    if not file.is_file():
        raise ConfigurationError(f"no chunk file {file_name} in {store_path}")
    return file


def corrupt_chunk_file(
    store_path: Union[str, Path], file_name: str, byte_offset: int = -1
) -> None:
    """Flip every bit of one byte in a named chunk file (default: last).

    The smallest possible on-disk damage — exactly what a checksum must
    catch and a size check cannot.
    """
    file = _chunk_file(store_path, file_name)
    data = bytearray(file.read_bytes())
    if not data:
        raise ConfigurationError(f"{file_name} is empty; nothing to corrupt")
    data[byte_offset] ^= 0xFF
    file.write_bytes(bytes(data))


def truncate_chunk_file(
    store_path: Union[str, Path], file_name: str, keep_bytes: int = 16
) -> None:
    """Cut a named chunk file down to its first ``keep_bytes`` bytes."""
    if keep_bytes < 0:
        raise ConfigurationError("keep_bytes must be >= 0")
    file = _chunk_file(store_path, file_name)
    file.write_bytes(file.read_bytes()[:keep_bytes])


def tear_journal_tail(
    journal_path: Union[str, Path], keep_fraction: float = 0.5
) -> None:
    """Tear the final journal line mid-append, as a killed daemon would.

    Keeps every complete record and ``keep_fraction`` of the final
    line's bytes (newline dropped) — the exact on-disk footprint of a
    process dying between ``write`` and ``flush`` completing.  Replay
    must report the torn line, truncate it, and stay appendable.
    """
    if not 0.0 <= keep_fraction < 1.0:
        raise ConfigurationError("keep_fraction must be in [0, 1)")
    journal = Path(journal_path)
    if not journal.is_file():
        raise ConfigurationError(f"no journal at {journal_path}")
    raw = journal.read_bytes()
    lines = raw.splitlines(keepends=True)
    if not lines:
        raise ConfigurationError(f"{journal_path} is empty; nothing to tear")
    last = lines[-1].rstrip(b"\n")
    kept = last[: max(1, int(len(last) * keep_fraction))]
    journal.write_bytes(b"".join(lines[:-1]) + kept)


def drop_manifest_tail(
    store_path: Union[str, Path], drop_chars: int = 32
) -> None:
    """Truncate the store manifest, as a crash mid-rewrite would.

    (The store writes manifests atomically, so this can only happen with
    a non-atomic filesystem or manual editing — validation must still
    fail loudly.)
    """
    from repro.store import MANIFEST_NAME

    if drop_chars < 1:
        raise ConfigurationError("drop_chars must be >= 1")
    manifest = Path(store_path) / MANIFEST_NAME
    if not manifest.is_file():
        raise ConfigurationError(f"no manifest in {store_path}")
    text = manifest.read_text()
    manifest.write_text(text[: max(0, len(text) - drop_chars)])
