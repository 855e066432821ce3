"""Picklable campaign specifications for the streaming pipeline.

A :class:`CampaignSpec` is everything a worker process needs to rebuild
the device under test from scratch: target name, RFTC shape, key, noise
level, and (for TVLA campaigns) the fixed plaintext.  Workers never share
live device objects — each chunk gets a *fresh* device whose randomness
comes from that chunk's spawned :class:`numpy.random.SeedSequence`, which
is what makes pipeline output a pure function of ``(spec, master seed,
chunk size)`` and independent of the worker count.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import CheckpointError, ConfigurationError
from repro.power.drift import DriftSpec

#: The key used throughout the reproduction (the FIPS-197 Appendix B key).
DEFAULT_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")

#: Non-baseline target names (baselines come from ``repro.baselines.BASELINES``).
_CORE_TARGETS = ("unprotected", "rftc")

#: Version tag folded into every :meth:`CampaignSpec.spec_digest` — bump
#: when the canonical field set changes, so old digests can never
#: collide with new ones.  v2 added ``dtype`` and ``compression``; v3
#: added ``acquisition`` and ``drift``.  ``compression`` has only one
#: value left, ``"none"``, which :func:`spec_to_dict` still writes so
#: every v3 digest stays what it was.
SPEC_DIGEST_SCHEMA = "rftc-campaign-spec/3"

#: Trace dtypes a campaign can synthesize/fold in.
SPEC_DTYPES = ("float64", "float32")

#: Acquisition front-ends a campaign can capture through.
SPEC_ACQUISITIONS = ("scope", "cloud")


def spec_to_dict(spec: "CampaignSpec") -> dict:
    """JSON-safe description of a :class:`CampaignSpec` (bytes as hex)."""
    return {
        "target": spec.target,
        "m_outputs": spec.m_outputs,
        "p_configs": spec.p_configs,
        "key": spec.key.hex(),
        "noise_std": spec.noise_std,
        "plan_seed": spec.plan_seed,
        "fixed_plaintext": (
            spec.fixed_plaintext.hex() if spec.fixed_plaintext is not None else None
        ),
        "dtype": spec.dtype,
        "compression": "none",
        "acquisition": spec.acquisition,
        "drift": spec.drift.to_dict() if spec.drift is not None else None,
    }


def spec_from_dict(fields: dict) -> "CampaignSpec":
    """Rebuild the :class:`CampaignSpec` a :func:`spec_to_dict` describes.

    ``dtype`` defaults when absent so checkpoints written before it
    existed still resume (they could only have run float64 campaigns).
    A spec asking for any store encoding but ``"none"`` (the removed
    compressed one) is refused rather than run as plain ``.npy``.
    """
    try:
        spec = CampaignSpec(
            target=str(fields["target"]),
            m_outputs=int(fields["m_outputs"]),
            p_configs=int(fields["p_configs"]),
            key=bytes.fromhex(fields["key"]),
            noise_std=float(fields["noise_std"]),
            plan_seed=int(fields["plan_seed"]),
            fixed_plaintext=(
                bytes.fromhex(fields["fixed_plaintext"])
                if fields.get("fixed_plaintext") is not None
                else None
            ),
            dtype=str(fields.get("dtype", "float64")),
            acquisition=str(fields.get("acquisition", "scope")),
            drift=(
                DriftSpec.from_dict(fields["drift"])
                if fields.get("drift") is not None
                else None
            ),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise CheckpointError(f"checkpoint spec is malformed: {exc}") from exc
    compression = fields.get("compression", "none")
    if compression != "none":
        raise CheckpointError(
            f"spec asks for store encoding {compression!r}, which was "
            "removed; stores now hold only plain .npy chunks ('none')"
        )
    return spec


def campaign_targets() -> Tuple[str, ...]:
    """Every target name a :class:`CampaignSpec` accepts."""
    from repro.baselines import BASELINES

    return _CORE_TARGETS + tuple(BASELINES)


@dataclass(frozen=True)
class CampaignSpec:
    """Declarative description of a device build for worker processes.

    Attributes
    ----------
    target:
        ``"unprotected"``, ``"rftc"``, or a baseline name
        (see :func:`campaign_targets`).
    m_outputs / p_configs / plan_seed:
        RFTC shape and the seed of its (memoized) frequency plan; ignored
        for other targets.  The plan seed is deliberately separate from
        the campaign master seed: every chunk must use the *same* plan.
    key / noise_std:
        Device key (default :data:`DEFAULT_KEY`) and the acquisition
        front-end's Gaussian noise.
    fixed_plaintext:
        When set, chunks interleave this plaintext on even rows (TVLA
        fixed-vs-random acquisition); ``None`` means a plain
        known-plaintext CPA campaign.
    dtype:
        Trace sample dtype out of synthesis/capture and through the
        store and consumers: ``"float64"`` (default, exact contract) or
        ``"float32"`` (half the bytes and a ~2× faster CPA fold; the
        accuracy cost is pinned by the ``float32`` drift budgets in
        ``repro verify --suite drift``).
    acquisition:
        Acquisition front-end: ``"scope"`` (the paper's bench
        oscilloscope, default) or ``"cloud"`` (an on-chip co-tenant
        sensor — band-limited, decimated, TDC-quantized, with
        shared-tenant interference; see :mod:`repro.power.cloud`).
        ``noise_std`` scales the front-end's Gaussian noise either way.
    drift:
        Optional :class:`~repro.power.drift.DriftSpec`: deterministic
        seeded temperature/voltage/aging/jitter processes applied per
        absolute trace index in the scope path.  ``None`` (default)
        models a perfectly stable environment.
    """

    target: str = "rftc"
    m_outputs: int = 2
    p_configs: int = 16
    key: bytes = DEFAULT_KEY
    noise_std: float = 2.0
    plan_seed: int = 2019
    fixed_plaintext: Optional[bytes] = None
    dtype: str = "float64"
    acquisition: str = "scope"
    drift: Optional[DriftSpec] = None

    def __post_init__(self) -> None:
        if self.target not in campaign_targets():
            raise ConfigurationError(
                f"unknown campaign target {self.target!r}; "
                f"expected one of {campaign_targets()}"
            )
        if len(self.key) != 16:
            raise ConfigurationError("key must be 16 bytes")
        if self.fixed_plaintext is not None and len(self.fixed_plaintext) != 16:
            raise ConfigurationError("fixed_plaintext must be 16 bytes")
        if self.noise_std < 0:
            raise ConfigurationError("noise_std must be >= 0")
        if self.dtype not in SPEC_DTYPES:
            raise ConfigurationError(
                f"dtype must be one of {SPEC_DTYPES}, got {self.dtype!r}"
            )
        if self.acquisition not in SPEC_ACQUISITIONS:
            raise ConfigurationError(
                f"acquisition must be one of {SPEC_ACQUISITIONS}, "
                f"got {self.acquisition!r}"
            )
        if self.drift is not None and not isinstance(self.drift, DriftSpec):
            raise ConfigurationError(
                "drift must be a DriftSpec or None, "
                f"got {type(self.drift).__name__}"
            )
        if self.target == "rftc":
            # Refuse a bad (M, P) here, not in the planner after a
            # campaign has started writing its store.
            from repro.rftc import RFTCParams

            RFTCParams(m_outputs=self.m_outputs, p_configs=self.p_configs)

    def warm_caches(self) -> None:
        """Precompute process-global state chunk builds will reuse.

        RFTC frequency plans and their DRP configuration ROM are
        expensive and memoized per process; warming both in the parent
        lets forked workers inherit them instead of re-planning and
        re-encoding once each.
        """
        if self.target == "rftc":
            from repro.hw.drp import encode_config
            from repro.rftc import cached_plan

            plan = cached_plan(self.m_outputs, self.p_configs, self.plan_seed, True)
            for config in plan.to_mmcm_configs():
                encode_config(config)

    def build_device(self, rng: np.random.Generator):
        """A fresh :class:`ProtectedAesDevice` whose randomness is ``rng``.

        The one place a device under test is put together: RFTC(M, P) on
        the memoized plan, the unprotected 48 MHz clock, or a baseline
        from :data:`repro.baselines.BASELINES`, measured through the
        paper's bench chain in the spec's dtype.
        """
        from repro.baselines import BASELINES, UnprotectedClock
        from repro.power import (
            CloudSensor,
            DriftProcess,
            Oscilloscope,
            ProtectedAesDevice,
            TraceSynthesizer,
        )
        from repro.rftc import RFTCController, RFTCParams, cached_plan

        if self.target == "rftc":
            countermeasure = RFTCController(
                RFTCParams(m_outputs=self.m_outputs, p_configs=self.p_configs),
                cached_plan(self.m_outputs, self.p_configs, self.plan_seed, True),
                rng=rng,
            )
        elif self.target == "unprotected":
            countermeasure = UnprotectedClock()
        else:
            countermeasure = BASELINES[self.target](rng=rng)
        # The bench scope or the on-chip co-tenant sensor; noise_std scales
        # the sensor's readout noise just as it scales the scope's.
        front_end = CloudSensor if self.acquisition == "cloud" else Oscilloscope
        device = ProtectedAesDevice(
            self.key,
            countermeasure,
            synthesizer=TraceSynthesizer(dtype=self.dtype),
            scope=front_end(noise_std=self.noise_std, dtype=self.dtype),
        )
        if self.drift is not None and self.drift.enabled:
            device.drift = DriftProcess(self.drift)
        return device

    def spec_digest(self) -> str:
        """Canonical SHA-256 of the spec (hex) — the cache/identity key.

        The digest hashes the :func:`spec_to_dict` fields serialised as
        canonical JSON (sorted keys, no whitespace) behind the
        :data:`SPEC_DIGEST_SCHEMA` version tag, so it is stable across
        processes and Python versions, survives a
        ``spec_from_dict(spec_to_dict(s))`` round trip unchanged, and
        changes whenever *any* field changes (asserted by
        ``tests/pipeline/test_spec_digest.py``).  ``repro.service`` keys
        its :class:`~repro.service.cache.ResultCache` on it, and
        checkpoint mismatch errors quote it so an operator can compare
        two campaigns at a glance.
        """
        canonical = json.dumps(
            {"schema": SPEC_DIGEST_SCHEMA, "spec": spec_to_dict(self)},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("ascii")).hexdigest()

    def label(self) -> str:
        if self.target == "rftc":
            return f"RFTC({self.m_outputs}, {self.p_configs})"
        return self.target
