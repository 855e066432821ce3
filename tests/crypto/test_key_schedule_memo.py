"""The per-key memo of the AES key schedule."""

import numpy as np
import pytest

from repro.crypto.aes import (
    AES,
    _KEY_MEMO_SIZE,
    _expand_key,
    _round_key_array,
    batch_expand_key,
    expand_key,
)
from repro.crypto.datapath import batch_round_states

uncached = _expand_key.__wrapped__


@pytest.mark.parametrize("key_len", [16, 24, 32])
def test_memo_equals_uncached_schedule(key_len):
    key = bytes(np.random.default_rng(key_len).integers(0, 256, key_len, dtype=np.uint8))
    expected = list(uncached(key))
    assert len(expected) == {16: 11, 24: 13, 32: 15}[key_len]
    for _ in range(2):  # a miss, then a hit
        assert expand_key(key) == expected
        assert list(AES(key).round_keys) == expected
        assert _round_key_array(key).tobytes() == b"".join(expected)


def test_expand_key_returns_a_fresh_list():
    key = bytes(range(16))
    first = expand_key(key)
    first[0] = b"\x00" * 16
    first.append(b"junk")
    second = expand_key(key)
    assert second is not first
    assert second == list(uncached(key))


def test_cached_array_is_read_only():
    key = bytes(range(16, 32))
    schedule = _round_key_array(key)
    assert schedule.shape == (11, 16) and schedule.dtype == np.uint8
    assert not schedule.flags.writeable
    with pytest.raises(ValueError):
        schedule[0, 0] ^= 1
    np.testing.assert_array_equal(
        schedule, batch_expand_key(np.frombuffer(key, dtype=np.uint8))
    )


def test_keys_never_collide():
    # More keys than the memo holds, revisited out of order: every
    # lookup, hit or evicted miss, returns its own key's schedule.
    rng = np.random.default_rng(3)
    keys = [bytes(k) for k in rng.integers(0, 256, (_KEY_MEMO_SIZE + 40, 16), dtype=np.uint8)]
    pts = rng.integers(0, 256, (4, 16), dtype=np.uint8)
    for key in keys + keys[::-1] + keys[::7]:
        assert expand_key(key) == list(uncached(key))
        states = batch_round_states(np.frombuffer(key, dtype=np.uint8), pts)
        assert states[0, 10].tobytes() == AES(key).encrypt(pts[0].tobytes())
        np.testing.assert_array_equal(
            states[:, 0], pts ^ np.frombuffer(uncached(key)[0], dtype=np.uint8)
        )
