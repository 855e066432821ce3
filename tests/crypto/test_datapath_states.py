"""One datapath pass per chunk: batch_states feeds both consumers."""

import numpy as np
import pytest

from repro.crypto.datapath import AesDatapath
from repro.errors import ConfigurationError
from repro.pipeline import DEFAULT_KEY


@pytest.fixture(scope="module")
def datapath():
    return AesDatapath(DEFAULT_KEY)


@pytest.fixture(scope="module")
def plaintexts():
    return np.random.default_rng(3).integers(
        0, 256, size=(50, 16), dtype=np.uint8
    )


def test_batch_states_last_round_is_the_ciphertext(datapath, plaintexts):
    states = datapath.batch_states(plaintexts)
    assert states.shape == (50, 11, 16)
    np.testing.assert_array_equal(
        states[:, -1], datapath.batch_ciphertexts(plaintexts)
    )


def test_precomputed_states_change_nothing(datapath, plaintexts):
    states = datapath.batch_states(plaintexts)
    np.testing.assert_array_equal(
        datapath.batch_hamming_distances(plaintexts, states=states),
        datapath.batch_hamming_distances(plaintexts),
    )


def test_misshapen_states_rejected(datapath, plaintexts):
    bad = datapath.batch_states(plaintexts)[:, :-1]
    with pytest.raises(ConfigurationError, match="shape"):
        datapath.batch_hamming_distances(plaintexts, states=bad)
