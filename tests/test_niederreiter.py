"""Baseline scheme: systematic keys, encryption, decryption chain."""

import hashlib
import random
from itertools import combinations

import pytest

from kal1 import keyio, niederreiter, scheme
from kal1.binmat import BinaryMatrix, vec_times_matrix
from kal1.errors import DecodingFailure, DimensionMismatch
from kal1.goppa import GoppaCode, generate_code
from kal1.rng import SeededRng

import oracles
from conftest import TOY, key_perm, perm_matrix, seed_bytes

# frozen outputs for keygen(TOY, seed 1)
PINNED_PK_SHA256 = "67b1e283c0b7aae2dc62edc923f68a9559a51d318b9b79c5766c9b26b9b90dd4"
PINNED_PERM = [9, 13, 1, 3, 14, 7, 5, 12, 8, 15, 0, 6, 11, 10, 2, 4]
PINNED_E, PINNED_C = 0x0808, 0xAD


def test_keygen_pinned_fixture(toy_nied):
    pub, priv = toy_nied
    assert key_perm(TOY, seed_bytes(1), priv) == PINNED_PERM
    blob = keyio.serialize_public_key(pub)
    assert hashlib.sha256(blob).hexdigest() == PINNED_PK_SHA256


def test_public_key_is_systematic(toy_nied):
    pub, _ = toy_nied
    nk = TOY.redundancy
    for i in range(nk):
        assert pub.check_t.row_ints[TOY.k + i] == 1 << i


def test_a_built_key_keeps_its_check_rows():
    # the rows are a tuple, so the systematic form checked when the key
    # was built is the form it hashes by and writes
    pub, _ = niederreiter.keygen(TOY, SeededRng(bytes(16)))
    before = hash(pub)
    with pytest.raises(TypeError):
        pub.check_t.row_ints[-1] ^= 1
    assert hash(pub) == before
    assert keyio.parse_public_key(keyio.serialize_public_key(pub)) == pub


def test_a_private_key_keeps_its_support_and_check():
    # the support and the check's columns are tuples, so neither can be
    # changed in place behind the key's hash, its decoder or public_key;
    # a keygen key is a permuted copy, so the same code is also built anew
    pub, priv = niederreiter.keygen(TOY, SeededRng(bytes(16)))
    rebuilt = GoppaCode(TOY, priv.support, priv.goppa_poly)
    assert rebuilt == priv and hash(rebuilt) == hash(priv)
    for key in (priv, rebuilt):
        with pytest.raises(TypeError):
            key.support[0] = 99
        with pytest.raises(TypeError):
            key.parity_check()[9] ^= 1
        assert hash(key) == hash(priv)
        assert niederreiter.decrypt(key, 0b11) == 0b11 << TOY.k
        assert niederreiter.public_key(key) == pub


def test_public_key_equals_transposed_private_product(toy_nied):
    # check_t must equal P^T H^T S^T computed independently with
    # materialized matrices, from the code in its drawn order
    pub, priv = toy_nied
    h = oracles.binary_check(generate_code(TOY, SeededRng(seed_bytes(1))))
    p = perm_matrix(key_perm(TOY, seed_bytes(1), priv))
    hp = h.mul(p)
    # the key is the code in public order: its check is H P
    assert priv.parity_check() == oracles.transpose(hp).row_ints
    s_t = oracles.columns(hp, list(range(TOY.k, TOY.n))).transpose().invert()
    assert pub.check_t == p.transpose().mul(h.transpose()).mul(s_t)


def test_public_key_rebuild_matches(toy_nied):
    pub, priv = toy_nied
    assert niederreiter.public_key(priv).check_t == pub.check_t


def test_encrypt_linearity_zero_vector(toy_nied):
    # weight precondition bypassed on purpose: the raw product of the
    # zero vector must be zero by linearity
    pub, _ = toy_nied
    assert vec_times_matrix(0, pub.check_t) == 0


def test_encrypt_unit_vector_hits_identity_block(toy_nied):
    pub, _ = toy_nied
    assert vec_times_matrix(1 << (TOY.n - 1), pub.check_t) == 1 << (TOY.redundancy - 1)


def test_encrypt_pinned_kat(toy_nied):
    pub, _ = toy_nied
    assert vec_times_matrix(PINNED_E, pub.check_t) == PINNED_C


def test_systematic_identity_on_suffix_supported_errors(toy_nied):
    # errors confined to the last n-k positions encrypt to themselves;
    # this cancellation is what the cyclic construction relies on
    pub, _ = toy_nied
    for supp in combinations(range(TOY.redundancy), TOY.t):
        word = sum(1 << i for i in supp)
        assert vec_times_matrix(word << TOY.k, pub.check_t) == word


def test_decrypt_round_trip_random(toy_nied):
    pub, priv = toy_nied
    rnd = random.Random(31)
    for _ in range(1000):
        supp = rnd.sample(range(TOY.n), TOY.t)
        e = sum(1 << i for i in supp)
        assert niederreiter.decrypt(priv, vec_times_matrix(e, pub.check_t)) == e


def test_decrypt_exhaustive_weight_t(toy_nied):
    pub, priv = toy_nied
    for supp in combinations(range(TOY.n), TOY.t):
        e = sum(1 << i for i in supp)
        assert niederreiter.decrypt(priv, vec_times_matrix(e, pub.check_t)) == e


def test_decrypt_zero_ciphertext(toy_nied):
    _, priv = toy_nied
    assert niederreiter.decrypt(priv, 0) == 0


def test_decrypt_never_returns_original_on_tampered_ciphertext(toy_nied):
    pub, priv = toy_nied
    for supp in combinations(range(TOY.n), TOY.t):
        e = sum(1 << i for i in supp)
        c = vec_times_matrix(e, pub.check_t)
        for bit in range(TOY.redundancy):
            tampered = c ^ (1 << bit)
            try:
                e2 = niederreiter.decrypt(priv, tampered)
            except DecodingFailure:
                continue
            assert e2 != e
            # whatever comes back is a true preimage of the tampered word
            assert vec_times_matrix(e2, pub.check_t) == tampered


def test_decrypt_ciphertext_length_check(toy_nied):
    _, priv = toy_nied
    with pytest.raises(DimensionMismatch):
        niederreiter.decrypt(priv, 1 << TOY.redundancy)


@pytest.mark.parametrize("c", [-1, -3, -(1 << TOY.redundancy)])
def test_decrypt_negative_ciphertext_is_dimension_mismatch(toy_nied, toy_kal1, c):
    with pytest.raises(DimensionMismatch):
        niederreiter.decrypt(toy_nied[1], c)
    with pytest.raises(DimensionMismatch):
        scheme.decrypt(toy_kal1[1], c)


def test_decrypt_decodes_the_suffix_syndrome(toy_nied):
    # R*c, the product with the right block of the private check, is
    # the syndrome of (0^k | c)
    _, priv = toy_nied
    cols = priv.parity_check()
    right_t = BinaryMatrix(TOY.redundancy, TOY.redundancy, cols[TOY.k :])
    for c in range(1 << TOY.redundancy):
        assert priv.syndrome(c << TOY.k) == vec_times_matrix(c, right_t)


def test_keygen_deterministic():
    a = niederreiter.keygen(TOY, SeededRng(seed_bytes(42)))
    b = niederreiter.keygen(TOY, SeededRng(seed_bytes(42)))
    assert a == b
    assert a[1].parity_check() == b[1].parity_check()

