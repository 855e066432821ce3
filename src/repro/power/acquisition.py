"""Trace-acquisition campaigns: the software stand-in for the lab bench.

``ProtectedAesDevice`` wires a countermeasure (anything with a
``schedule(n) -> ClockSchedule`` method — the RFTC controller or any of the
baselines) to the AES datapath, a leakage model, the analog synthesizer and
the scope.  ``AcquisitionCampaign`` runs it: generate plaintexts, produce
the clock schedule, render traces, and return everything an attack or a
TVLA evaluation needs as a :class:`TraceSet`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Protocol, Union

import numpy as np

from repro.crypto.datapath import AesDatapath
from repro.errors import AcquisitionError, ConfigurationError
from repro.hw.clock import ClockSchedule
from repro.obs import NULL_OBS
from repro.power.leakage import HammingDistanceLeakage, LeakageModel
from repro.power.scope import Oscilloscope
from repro.power.synth import TraceSynthesizer

if TYPE_CHECKING:
    from repro.power.drift import DriftProcess


class Countermeasure(Protocol):
    """Anything that can clock the AES core for a batch of encryptions."""

    def schedule(self, n_encryptions: int) -> ClockSchedule:
        ...


def sanitize_metadata(metadata: dict) -> dict:
    """A JSON-serialisable copy of a trace-set metadata dict.

    Campaign metadata mixes python scalars with numpy arrays and numpy
    scalars (set indices, per-round choices, stall times).  Arrays become
    nested lists, numpy scalars become their python equivalents; anything
    JSON cannot express is stringified via ``repr`` rather than dropped.
    """

    def convert(value):
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, np.generic):
            return value.item()
        if isinstance(value, dict):
            return {str(k): convert(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [convert(v) for v in value]
        if isinstance(value, (str, int, float, bool)) or value is None:
            return value
        return repr(value)

    return {str(k): convert(v) for k, v in metadata.items()}


@dataclass
class TraceSet:
    """One acquisition campaign's output.

    Attributes
    ----------
    traces:
        ``(n, S)`` scope samples.
    plaintexts / ciphertexts:
        ``(n, 16)`` uint8.
    key:
        The device key (ground truth for evaluating attacks; a real
        adversary does not get this, the success-rate machinery does).
    completion_times_ns:
        Per-encryption durations, for completion-time statistics.
    sample_period_ns:
        Scope sample spacing, for time-axis bookkeeping.
    metadata:
        Countermeasure-specific extras (set indices, stall times...).
    """

    traces: np.ndarray
    plaintexts: np.ndarray
    ciphertexts: np.ndarray
    key: bytes
    completion_times_ns: np.ndarray
    sample_period_ns: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = self.traces.shape[0]
        if self.plaintexts.shape != (n, 16) or self.ciphertexts.shape != (n, 16):
            raise ConfigurationError("plaintexts/ciphertexts must be (n, 16)")
        if self.completion_times_ns.shape != (n,):
            raise ConfigurationError("completion_times_ns must be (n,)")
        if len(self.key) != 16:
            raise ConfigurationError("key must be 16 bytes")

    @property
    def n_traces(self) -> int:
        return int(self.traces.shape[0])

    @property
    def n_samples(self) -> int:
        return int(self.traces.shape[1])

    def subset(self, indices: np.ndarray) -> "TraceSet":
        """A view-like subset (arrays are fancy-indexed copies).

        Metadata entries that are per-trace arrays — a leading axis equal
        to ``n_traces``, like the RFTC controller's ``set_indices`` or
        ``stall_ns`` — are sliced with the same indices so they stay
        aligned with the surviving traces; everything else is carried over
        unchanged.
        """
        indices = np.asarray(indices)
        n = self.n_traces
        metadata = {
            key: value[indices]
            if isinstance(value, np.ndarray)
            and value.ndim >= 1
            and value.shape[0] == n
            else value
            for key, value in self.metadata.items()
        }
        return TraceSet(
            traces=self.traces[indices],
            plaintexts=self.plaintexts[indices],
            ciphertexts=self.ciphertexts[indices],
            key=self.key,
            completion_times_ns=self.completion_times_ns[indices],
            sample_period_ns=self.sample_period_ns,
            metadata=metadata,
        )

    #: Archive members every :meth:`save` call writes (``metadata_json`` is
    #: newer than some archives in the wild, so :meth:`load` treats it as
    #: optional for backward compatibility).
    _REQUIRED_KEYS = (
        "traces",
        "plaintexts",
        "ciphertexts",
        "key",
        "completion_times_ns",
        "sample_period_ns",
    )

    def save(self, path: Union[str, Path]) -> None:
        """Persist to an ``.npz`` archive (metadata serialised as JSON)."""
        np.savez_compressed(
            Path(path),
            traces=self.traces,
            plaintexts=self.plaintexts,
            ciphertexts=self.ciphertexts,
            key=np.frombuffer(self.key, dtype=np.uint8),
            completion_times_ns=self.completion_times_ns,
            sample_period_ns=np.array(self.sample_period_ns),
            metadata_json=np.array(json.dumps(sanitize_metadata(self.metadata))),
        )

    @staticmethod
    def load(path: Union[str, Path]) -> "TraceSet":
        """Load a set previously stored with :meth:`save`.

        Validates the archive contents (a truncated or foreign ``.npz``
        raises :class:`AcquisitionError`, not a bare ``KeyError``) and
        closes the file handle before returning.  Archives written before
        metadata was persisted load with an empty metadata dict.
        """
        path = Path(path)
        try:
            archive = np.load(path)
        except (OSError, ValueError) as exc:
            raise AcquisitionError(f"cannot read trace archive {path}: {exc}")
        if not hasattr(archive, "files"):
            raise AcquisitionError(
                f"{path} is a bare array, not a TraceSet .npz archive"
            )
        with archive as data:
            missing = [k for k in TraceSet._REQUIRED_KEYS if k not in data.files]
            if missing:
                raise AcquisitionError(
                    f"trace archive {path} is missing keys {missing}; "
                    "expected one written by TraceSet.save()"
                )
            metadata: dict = {}
            if "metadata_json" in data.files:
                try:
                    metadata = json.loads(str(data["metadata_json"]))
                except json.JSONDecodeError as exc:
                    raise AcquisitionError(
                        f"trace archive {path} has corrupt metadata: {exc}"
                    )
            return TraceSet(
                traces=data["traces"],
                plaintexts=data["plaintexts"],
                ciphertexts=data["ciphertexts"],
                key=bytes(data["key"]),
                completion_times_ns=data["completion_times_ns"],
                sample_period_ns=float(data["sample_period_ns"]),
                metadata=metadata,
            )


class ProtectedAesDevice:
    """AES core + countermeasure + measurement chain.

    Parameters
    ----------
    key:
        The 16-byte device key.
    countermeasure:
        Clock scheduler (RFTC controller or a baseline).
    synthesizer / scope:
        Measurement-chain stages; defaults model the paper's bench with the
        SNR scaled for laptop-feasible trace counts (see DESIGN.md).
        ``scope`` may also be a :class:`~repro.power.cloud.CloudSensor`
        (anything with the scope's ``capture(analog, rng)`` contract).

    The leakage stage is the Hamming-distance model of the round
    register.  Any stage can be replaced on a built device by assigning
    :attr:`leakage`, :attr:`synthesizer` or :attr:`scope`.

    A device starts without drift.  Set :attr:`drift` to a
    :class:`~repro.power.drift.DriftProcess` to apply it to the analog
    traces before capture (``CampaignSpec.build_device`` does).  Drift
    is a function of the *absolute* trace index: :attr:`trace_offset`
    names the campaign index of the next trace this device will run, and
    advances with every :meth:`run` so sequential chunked acquisition
    drifts continuously.  The streaming engine instead sets it per chunk.
    """

    def __init__(
        self,
        key: bytes,
        countermeasure: Countermeasure,
        synthesizer: Optional[TraceSynthesizer] = None,
        scope: Optional[Oscilloscope] = None,
    ):
        self.datapath = AesDatapath(key)
        self.countermeasure = countermeasure
        self.leakage: LeakageModel = HammingDistanceLeakage()
        self.synthesizer = (
            synthesizer if synthesizer is not None else TraceSynthesizer()
        )
        self.scope = scope if scope is not None else Oscilloscope()
        if abs(self.scope.sample_rate_msps - self.synthesizer.sample_rate_msps) > 1e-9:
            raise ConfigurationError(
                "scope and synthesizer must agree on the sample rate"
            )
        self.drift: Optional[DriftProcess] = None
        #: Campaign index of the next trace acquired by :meth:`run`.
        self.trace_offset = 0
        #: Optional :class:`~repro.obs.Observability` bundle; campaign
        #: workers swap in their private one.  Observation reads the
        #: stage clocks only — never the RNG streams.
        self.obs = NULL_OBS

    @property
    def sample_period_ns(self) -> float:
        """Period of the *captured* samples (decimating front-ends widen it)."""
        return self.synthesizer.dt_ns * getattr(self.scope, "decimation", 1)

    @property
    def key(self) -> bytes:
        return self.datapath.key

    def run(
        self, plaintexts: np.ndarray, rng: np.random.Generator
    ) -> TraceSet:
        """Encrypt each plaintext once and capture the power trace.

        Each measurement-chain stage (schedule / crypto / leakage /
        synth / capture) runs under an ``acquire_stage`` span of the
        device's tracer, so an observed campaign reports where
        acquisition time actually goes.
        """
        plaintexts = np.ascontiguousarray(plaintexts, dtype=np.uint8)
        if plaintexts.ndim != 2 or plaintexts.shape[1] != 16:
            raise AcquisitionError("plaintexts must be (n, 16) uint8")
        n = plaintexts.shape[0]
        tracer = self.obs.tracer
        with tracer.span("acquire_stage", stage="schedule"):
            schedule = self.countermeasure.schedule(n)
        if schedule.n_encryptions != n:
            raise AcquisitionError(
                "countermeasure returned a schedule of the wrong length"
            )
        with tracer.span("acquire_stage", stage="crypto"):
            # One datapath pass per chunk: the round states feed both the
            # ciphertexts and the leakage model's register transitions.
            states = self.datapath.batch_states(plaintexts)
            ciphertexts = states[:, -1]
        # Back-to-back encryptions: the register holds the previous
        # ciphertext when the next plaintext loads (Fig. 2 timeline).
        with tracer.span("acquire_stage", stage="leakage"):
            previous = np.vstack(
                [np.zeros((1, 16), dtype=np.uint8), ciphertexts[:-1]]
            )
            amplitudes = self.leakage.cycle_amplitudes(
                schedule, self.datapath, plaintexts, previous, rng,
                states=states,
            )
        with tracer.span("acquire_stage", stage="synth"):
            analog = self.synthesizer.synthesize(schedule, amplitudes, rng=rng)
            if self.drift is not None:
                analog = self.drift.apply(analog, self.trace_offset)
        with tracer.span("acquire_stage", stage="capture"):
            traces = self.scope.capture(analog, rng)
        self.trace_offset += n
        self.obs.metrics.inc("acquisition_traces_total", n)
        return TraceSet(
            traces=traces,
            plaintexts=plaintexts,
            ciphertexts=ciphertexts,
            key=self.key,
            completion_times_ns=schedule.completion_times_ns(),
            sample_period_ns=self.sample_period_ns,
            metadata=dict(schedule.metadata),
        )


class AcquisitionCampaign:
    """Plaintext generation + device runs, with TVLA-style fixed/random splits."""

    def __init__(self, device: ProtectedAesDevice, seed: Optional[int] = None):
        self.device = device
        self._rng = np.random.default_rng(seed)

    def random_plaintexts(self, n: int) -> np.ndarray:
        """Uniform random 16-byte plaintexts."""
        if n < 1:
            raise ConfigurationError("n must be >= 1")
        return self._rng.integers(0, 256, size=(n, 16), dtype=np.uint8)

    def collect(self, n: int) -> TraceSet:
        """Known-plaintext campaign (the CPA threat model of Sec. 2)."""
        return self.device.run(self.random_plaintexts(n), self._rng)

    def collect_fixed_vs_random(
        self, n_per_group: int, plaintext: bytes
    ) -> "tuple[TraceSet, TraceSet]":
        """Interleaved fixed/random populations for TVLA.

        Interleaving (rather than two back-to-back campaigns) is TVLA best
        practice: it decorrelates environment drift from the populations.
        Here both groups run through one device schedule stream, so RFTC's
        reconfiguration pipeline states are shared across groups as on real
        hardware.
        """
        if len(plaintext) != 16:
            raise AcquisitionError("fixed plaintext must be 16 bytes")
        total = 2 * n_per_group
        pts = self.random_plaintexts(total)
        fixed_rows = np.arange(0, total, 2)
        pts[fixed_rows] = np.frombuffer(plaintext, dtype=np.uint8)
        combined = self.device.run(pts, self._rng)
        random_rows = np.arange(1, total, 2)
        return combined.subset(fixed_rows), combined.subset(random_rows)
