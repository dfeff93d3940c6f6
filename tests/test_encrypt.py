"""One encryption path: the ciphertext is the constant-weight word.

``scheme.encrypt`` reads no matrix for any public key kind.  The matrix
multiplication it replaced is kept as ``oracles.matrix_encrypt``, and
the two must agree on every key kind, in memory and after a .pk round
trip.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kal1 import keyio, scheme
from kal1.errors import RangeError

import oracles
from conftest import MID, TOY, seed_bytes

# scheme id, sparse weight, run start and run length of each key kind
KINDS = {
    "niederreiter": (keyio.SCHEME_NIEDERREITER, 0, 0, 0),
    "kal1": (keyio.SCHEME_KAL1, 0, 0, 0),
    "kal1-s1": (keyio.SCHEME_KAL1_S1, 3, 0, 0),
    "kal1-s2": (keyio.SCHEME_KAL1_S2, 0, 1, 4),
}
KEYS = [f"{kind}/{form}" for kind in KINDS for form in ("memory", "parsed")]


def public_keys(params, tag: int) -> dict:
    """Every key kind, as generated and as parsed from its .pk bytes."""
    out = {}
    for i, (kind, (sid, w, run_start, run_len)) in enumerate(KINDS.items()):
        pub, _ = keyio.regenerate(sid, params, w, run_start, run_len, seed_bytes(tag + i))
        out[f"{kind}/memory"] = pub
        out[f"{kind}/parsed"] = keyio.parse_public_key(keyio.serialize_public_key(pub))
    return out


@pytest.fixture(scope="module")
def toy_keys():
    return public_keys(TOY, 0x300)


@pytest.fixture(scope="module")
def mid_keys():
    return public_keys(MID, 0x310)


@pytest.mark.parametrize("key", KEYS)
def test_encrypt_equals_matrix_path_toy_exhaustive(toy_keys, key):
    pub = toy_keys[key]
    for msg in range(1 << scheme.cw_params(TOY).msg_bits):
        assert scheme.encrypt(pub, msg) == oracles.matrix_encrypt(pub, msg)


@pytest.mark.parametrize("key", KEYS)
@settings(max_examples=40, deadline=None)
@given(msg=st.integers(0, (1 << scheme.cw_params(MID).msg_bits) - 1))
def test_encrypt_equals_matrix_path_mid(mid_keys, key, msg):
    pub = mid_keys[key]
    assert scheme.encrypt(pub, msg) == oracles.matrix_encrypt(pub, msg)


@pytest.mark.parametrize("key", KEYS)
def test_encrypt_rejects_ranks_decrypt_would_reject(toy_keys, key):
    # ranks in [2^msg_bits, C(n-k, t)) have a word, but decryption
    # refuses them, so encryption must too
    pub = toy_keys[key]
    cwp = scheme.cw_params(TOY)
    for msg in (-1, 1 << cwp.msg_bits, cwp.capacity - 1):
        with pytest.raises(RangeError):
            scheme.encrypt(pub, msg)
