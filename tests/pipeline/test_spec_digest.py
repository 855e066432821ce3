"""CampaignSpec.spec_digest(): the canonical cache/identity key.

The service layer caches results and validates checkpoints by digest, so
the digest must be (a) stable across a dict round trip and across
processes, (b) sensitive to every single spec field, (c) independent
of dict insertion order, and (d) pinned: the golden hex digests below
must not move, because service cache keys, checkpoints and the perf
ledger's service digest are keyed on them.
"""

import json

import pytest

from repro.errors import CheckpointError
from repro.pipeline import CampaignSpec, spec_from_dict, spec_to_dict
from repro.pipeline.spec import SPEC_DIGEST_SCHEMA
from repro.power.drift import DriftSpec


def _base_spec(**overrides) -> CampaignSpec:
    fields = dict(
        target="rftc",
        m_outputs=2,
        p_configs=16,
        key=bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"),
        noise_std=2.0,
        plan_seed=2019,
        fixed_plaintext=None,
    )
    fields.update(overrides)
    return CampaignSpec(**fields)


class TestDigestStability:
    def test_digest_is_hex_sha256(self):
        digest = _base_spec().spec_digest()
        assert len(digest) == 64
        int(digest, 16)  # raises on non-hex

    def test_round_trip_preserves_digest(self):
        spec = _base_spec(fixed_plaintext=b"\x42" * 16)
        rebuilt = spec_from_dict(spec_to_dict(spec))
        assert rebuilt == spec
        assert rebuilt.spec_digest() == spec.spec_digest()

    def test_equal_specs_share_digest(self):
        assert _base_spec().spec_digest() == _base_spec().spec_digest()

    def test_round_trip_preserves_acquisition_and_drift(self):
        spec = _base_spec(
            acquisition="cloud", drift=DriftSpec(temperature=1.0, voltage=0.5)
        )
        rebuilt = spec_from_dict(spec_to_dict(spec))
        assert rebuilt == spec
        assert rebuilt.spec_digest() == spec.spec_digest()

    def test_pre_v3_dict_defaults_to_scope_no_drift(self):
        """Old checkpoints (no acquisition/drift keys) still rebuild."""
        fields = spec_to_dict(_base_spec())
        fields.pop("acquisition")
        fields.pop("drift")
        rebuilt = spec_from_dict(fields)
        assert rebuilt.acquisition == "scope"
        assert rebuilt.drift is None
        assert rebuilt == _base_spec()

    def test_digest_ignores_field_dict_order(self):
        """A shuffled spec dict rebuilds to the same digest."""
        fields = spec_to_dict(_base_spec())
        shuffled = dict(reversed(list(fields.items())))
        assert (
            spec_from_dict(shuffled).spec_digest()
            == _base_spec().spec_digest()
        )

    def test_digest_is_schema_versioned(self):
        """The digest hashes the documented canonical JSON, exactly."""
        import hashlib

        spec = _base_spec()
        canonical = json.dumps(
            {"schema": SPEC_DIGEST_SCHEMA, "spec": spec_to_dict(spec)},
            sort_keys=True,
            separators=(",", ":"),
        )
        assert (
            hashlib.sha256(canonical.encode("ascii")).hexdigest()
            == spec.spec_digest()
        )


class TestDigestSensitivity:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"target": "unprotected"},
            {"m_outputs": 3},
            {"p_configs": 8},
            {"key": bytes(range(16))},
            {"noise_std": 2.5},
            {"plan_seed": 7},
            {"fixed_plaintext": b"\x00" * 16},
            {"dtype": "float32"},
            {"acquisition": "cloud"},
            {"drift": DriftSpec(temperature=1.0)},
            {"drift": DriftSpec(jitter_samples=2)},
        ],
        ids=lambda o: next(iter(o)),
    )
    def test_any_field_change_changes_digest(self, overrides):
        assert _base_spec(**overrides).spec_digest() != _base_spec().spec_digest()


#: name -> (spec, its spec_digest()).
GOLDEN = {
    "defaults": (
        CampaignSpec(),
        "e955e5637213e6e297aef8d05a7175bc882e264963b6574249e600c12894b07a",
    ),
    # The perf ledger's cpa-campaign spec.
    "float32-rftc-1-16-noiseless": (
        CampaignSpec(
            target="rftc", m_outputs=1, p_configs=16, dtype="float32",
            noise_std=0.0,
        ),
        "4eb55365d9b4198997a4dc747b189b440dee4486e3d0f9532996f24b89aac9c8",
    ),
    # The perf ledger's tvla-archive spec.
    "tvla-rftc-3-256": (
        CampaignSpec(
            target="rftc", m_outputs=3, p_configs=256,
            fixed_plaintext=bytes.fromhex("00112233445566778899aabbccddeeff"),
        ),
        "fd4574c211c0efd5c1d708cb7f5f4eeb5478fe5c43e346639bc8cd7e6bb33d89",
    ),
    # The perf ledger's service-openloop spec.
    "rftc-1-16": (
        CampaignSpec(target="rftc", m_outputs=1, p_configs=16),
        "b76fcfaea782f0fa021d81cce51ed2f6bfef2eded1bdee9bac96c9130b2f1f7c",
    ),
    "cloud": (
        CampaignSpec(acquisition="cloud"),
        "525d12cfef9726930e5b31ed885b5b8d19b798f294400655bf6a8fb000c76689",
    ),
    "drift": (
        CampaignSpec(
            drift=DriftSpec(
                temperature=1.0, voltage=0.5, aging=0.25, jitter_samples=2,
                seed=11,
            )
        ),
        "0a47af800755542c6fbfac25b2ba254233eb3b235aecb4a2be30ac47fd98c4b0",
    ),
}


class TestGoldenDigests:
    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_digest_is_pinned(self, name):
        spec, digest = GOLDEN[name]
        assert spec.spec_digest() == digest
        assert spec_from_dict(spec_to_dict(spec)).spec_digest() == digest

    def test_removed_compressed_encoding_is_refused(self):
        fields = spec_to_dict(_base_spec())
        fields["compression"] = "zstd-npz"
        with pytest.raises(CheckpointError, match="zstd-npz"):
            spec_from_dict(fields)
