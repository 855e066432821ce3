"""Golden plan bytes: the overlap-free planner's RNG stream is pinned.

Every RFTC campaign digest, store and exported ROM derives from the
frequency plan, so a planner speed-up must keep every RNG call, with the
same arguments and in the same order.  These SHA-256 digests of
``sets_mhz.tobytes()`` and ``repr(hardware_settings)`` were taken from the
reference planner; any moved, added or dropped draw changes them.
"""

import hashlib

import numpy as np
import pytest

from repro.rftc import RFTCParams, plan_frequencies

#: (m, p, seed, hardware, stratify) -> (sets_mhz digest, hardware_settings digest)
GOLDEN = {
    # tvla-archive's RFTC(3,256), the ledger's only real planning cost.
    (3, 256, 2019, True, True): (
        "4a0c02af9f05de1029c46ce55c8dc820bb3cc69a7c49fd3dd223cff64524069b",
        "72ce54d3200635e9ab881a049ec69eb275fe47559ec847f2da75c98a943b93b6",
    ),
    (1, 16, 2019, True, True): (
        "8896cc84d2bead84caea4f478a1a6bca94affb0b200af31cf2b3f143352ad78b",
        "3dbf44214fe91a38c38a7f6e1520efdf442b1090c99b2ab28e8d6ca6a78ffd9c",
    ),
    (2, 8, 2019, True, True): (
        "89b086223efc7cfbe8b9fd69dd4f8195f8f7d9fea5c8d06f5dacda40d7977474",
        "041d6078fe0e7388df483ffb1a0e9a54d14c362b19f1f0bd7782f7d2071a086d",
    ),
    # The idealized 0.012 MHz grid of the paper's MATLAB study.
    (3, 256, 2019, False, True): (
        "3c9d4788b814be44e1afb62f2fdc97c11dd00440341eeff06c4c58fae21d6c8b",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    # Unstratified: every output samples the whole window.
    (3, 64, 2019, True, False): (
        "96e12d92c101bd27e0a4fde779cecf6965212a9847bc11f1333eeb40cc79a7dd",
        "08b57f4c27a565e1be7e48a591dfaf372fa4dae29828e638a3409c2f018cef6a",
    ),
    (2, 32, 7, False, False): (
        "dc67d6de2b95c2438a639bf10bceadb21124bd2135456c3974dd9e2bc8b63446",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "m, p, seed, hardware, stratify",
    list(GOLDEN),
    ids=[
        f"M{m}-P{p}-seed{seed}-{'hw' if hw else 'grid'}"
        f"{'' if strat else '-unstratified'}"
        for m, p, seed, hw, strat in GOLDEN
    ],
)
def test_plan_bytes_match_golden(m, p, seed, hardware, stratify):
    plan = plan_frequencies(
        RFTCParams(m_outputs=m, p_configs=p),
        rng=np.random.default_rng(seed),
        hardware=hardware,
        stratify=stratify,
    )
    sets_digest, settings_digest = GOLDEN[(m, p, seed, hardware, stratify)]
    assert plan.sets_mhz.dtype == np.float64
    assert _sha256(plan.sets_mhz.tobytes()) == sets_digest
    assert _sha256(repr(plan.hardware_settings).encode()) == settings_digest
    assert len(plan.hardware_settings) == (p if hardware else 0)
