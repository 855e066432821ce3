"""Exception hierarchy for the RFTC reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so a
caller can catch the library's failures with a single ``except`` clause while
still distinguishing configuration mistakes from runtime modelling errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError, ValueError):
    """An object was constructed with invalid or inconsistent parameters."""


class FrequencyRangeError(ConfigurationError):
    """A requested frequency cannot be realized by the clocking hardware."""


class LockError(ReproError, RuntimeError):
    """An MMCM output was consumed while the MMCM was not locked."""


class ReconfigurationError(ReproError, RuntimeError):
    """An illegal dynamic-reconfiguration sequence was attempted."""


class PlanningError(ReproError, RuntimeError):
    """The frequency planner could not satisfy its constraints."""


class AttackError(ReproError, RuntimeError):
    """A power-analysis attack was invoked on unusable inputs."""


class AcquisitionError(ReproError, RuntimeError):
    """A trace-acquisition campaign was misconfigured or failed."""


class CheckpointError(AcquisitionError):
    """A campaign checkpoint is missing, malformed, or inconsistent."""


class StorageExhaustedError(AcquisitionError):
    """A write path ran out of disk (``ENOSPC``, short write, or budget).

    Raised by :class:`~repro.store.ChunkedTraceStore` appends and the
    service job journal instead of a raw ``OSError``, after the write
    path has cleaned up after itself: no half-written chunk files, no
    torn journal growth.  The owning campaign/job fails cleanly; the
    store stays loadable and the journal replayable.
    """


class PoolBrokenError(AcquisitionError):
    """The worker pool died, stopped responding, or could not ship a chunk."""


class InjectedFaultError(AcquisitionError):
    """A deterministic fault raised by the fault-injection harness."""


class InjectedCrashError(ReproError, RuntimeError):
    """A simulated process crash raised by the fault-injection harness.

    Deliberately *not* an :class:`AcquisitionError`: code that handles
    acquisition failures must still die on a simulated crash, exactly
    like a real ``SIGKILL`` would end the process.
    """


class ServiceError(ReproError, RuntimeError):
    """The campaign service refused or could not complete a request."""


class UnknownJobError(ServiceError):
    """A job id that the service has never journaled."""


class QuotaExceededError(ServiceError):
    """A tenant hit its queue or store quota; the job was not accepted."""


class JobCancelledError(ServiceError):
    """Raised inside a running campaign to abort it after a cancel request.

    Control flow, not failure: the scheduler catches it and finalises the
    job as ``cancelled`` rather than ``failed``.
    """
