"""Kal1 scheme: cyclic expansion, masking structure, round trips."""

import hashlib
import random

import pytest

from kal1 import keyio, niederreiter, scheme
from kal1.binmat import vec_times_matrix
from kal1.cw import cw_decode, cw_encode
from kal1.errors import DimensionMismatch, FormatError, PolicyError
from kal1.goppa import CodeParams
from kal1.rng import SeededRng

from conftest import MID, TOY, seed_bytes

# frozen outputs for keygen(TOY, dense, seed 7)
PINNED_SEED_ROW = 0xB1
PINNED_PK_SHA256 = "f904c973f62be3b98be4ac7ece1027f2f8490747144d445a09161312c7bc50f4"
PINNED_MSG, PINNED_CT = 0xB, 0x22


def test_rotate_right_layout():
    # seed "1000" over width 4: rotations read 1000, 0100, 0010, 0001
    seed = 0b0001  # position 0 set
    assert scheme.rotate_right(seed, 0, 4) == 0b0001
    assert scheme.rotate_right(seed, 1, 4) == 0b0010
    assert scheme.rotate_right(seed, 2, 4) == 0b0100
    assert scheme.rotate_right(seed, 3, 4) == 0b1000
    assert scheme.rotate_right(seed, 4, 4) == seed
    rnd = random.Random(1)
    for _ in range(100):
        width = rnd.randint(1, 40)
        v = rnd.getrandbits(width)
        s = rnd.randint(0, 3 * width)
        back = scheme.rotate_right(scheme.rotate_right(v, s, width), width - s % width, width)
        assert back == v


def test_expand_cyclic_zero_seed():
    pk = scheme.Kal1PublicKey(TOY, 0)
    cyclic_t = scheme.expand_cyclic(pk)
    nk = TOY.redundancy
    for i in range(TOY.k):
        assert cyclic_t.row_ints[i] == 0
    for i in range(nk):
        assert cyclic_t.row_ints[TOY.k + i] == 1 << i


def test_expand_cyclic_rows_are_rotations(toy_kal1):
    pk, _ = toy_kal1
    cyclic_t = scheme.expand_cyclic(pk)
    nk = TOY.redundancy
    for i in range(TOY.k):
        assert cyclic_t.row_ints[i] == scheme.rotate_right(pk.seed_row, i, nk)


def test_rotation_period_when_k_exceeds_redundancy():
    # k > n-k here, so row n-k repeats row 0
    params = CodeParams(32, 17, 3, 5)
    pk = scheme.Kal1PublicKey(params, 0b1011)
    cyclic_t = scheme.expand_cyclic(pk)
    nk = params.redundancy
    assert cyclic_t.row_ints[nk] == cyclic_t.row_ints[0]


def test_policy_validation():
    nk = TOY.redundancy
    scheme.validate_policy(scheme.DenseSeed(), nk)
    scheme.validate_policy(scheme.SparseSeed(3), nk)
    scheme.validate_policy(scheme.RunSeed(2, 3), nk)
    with pytest.raises(PolicyError):
        scheme.validate_policy(scheme.SparseSeed(0), nk)
    with pytest.raises(PolicyError):
        scheme.validate_policy(scheme.SparseSeed(nk + 1), nk)
    with pytest.raises(PolicyError):
        scheme.validate_policy(scheme.RunSeed(0, 1), nk)
    with pytest.raises(PolicyError):
        scheme.validate_policy(scheme.RunSeed(7, 2), nk)
    with pytest.raises(PolicyError):
        # nk = 8: a full-row run needs 4 bits but the field has 3
        scheme.validate_policy(scheme.RunSeed(0, 8), nk)


def test_draw_seed_row_policies():
    rng = SeededRng(seed_bytes(77))
    dense = scheme.draw_seed_row(scheme.DenseSeed(), 8, rng)
    assert dense.bit_length() <= 8
    sparse = scheme.draw_seed_row(scheme.SparseSeed(3), 8, SeededRng(seed_bytes(78)))
    assert sparse.bit_count() == 3
    run = scheme.draw_seed_row(scheme.RunSeed(2, 3), 8, SeededRng(seed_bytes(79)))
    assert run == 0b11100


def test_keygen_pinned_fixture(toy_kal1):
    pk, sk = toy_kal1
    assert pk.seed_row == PINNED_SEED_ROW
    assert sk.seed_row == PINNED_SEED_ROW
    blob = keyio.serialize_public_key(pk)
    assert hashlib.sha256(blob).hexdigest() == PINNED_PK_SHA256


def test_masking_matrix_structure(toy_kal1):
    pk, sk = toy_kal1
    inner_pub = niederreiter.public_key(sk.inner)
    cyclic_t = scheme.expand_cyclic(pk)
    secondary = scheme.secondary_check_t(cyclic_t, inner_pub)
    # cyclic = check + secondary, entry-exact
    assert cyclic_t == inner_pub.check_t.add(secondary)
    # bottom block of the masking matrix is all zeros
    for i in range(TOY.redundancy):
        assert secondary.row_ints[TOY.k + i] == 0
    # top block = cyclic rotations block + top block of check_t
    for i in range(TOY.k):
        assert secondary.row_ints[i] == (
            cyclic_t.row_ints[i] ^ inner_pub.check_t.row_ints[i]
        )


def test_ciphertext_identity_all_messages(toy_kal1):
    pk, _ = toy_kal1
    cwp = scheme.cw_params(TOY)
    for msg in range(1 << cwp.msg_bits):
        assert scheme.encrypt(pk, msg) == cw_encode(msg, cwp)


def test_ciphertext_decomposition_masking_term_vanishes(toy_kal1):
    pk, sk = toy_kal1
    inner_pub = niederreiter.public_key(sk.inner)
    secondary = scheme.secondary_check_t(scheme.expand_cyclic(pk), inner_pub)
    cwp = scheme.cw_params(TOY)
    for msg in range(1 << cwp.msg_bits):
        e = cw_encode(msg, cwp) << TOY.k
        via_check = vec_times_matrix(e, inner_pub.check_t)
        via_secondary = vec_times_matrix(e, secondary)
        assert via_secondary == 0
        assert scheme.encrypt(pk, msg) == via_check ^ via_secondary


def test_encrypt_pinned_kat(toy_kal1):
    pk, _ = toy_kal1
    assert scheme.encrypt(pk, PINNED_MSG) == PINNED_CT


def test_decrypt_round_trip_exhaustive_toy(toy_kal1):
    pk, sk = toy_kal1
    cwp = scheme.cw_params(TOY)
    for msg in range(1 << cwp.msg_bits):
        assert scheme.decrypt(sk, scheme.encrypt(pk, msg)) == msg


def test_decrypt_round_trip_random_mid(mid_kal1):
    pk, sk = mid_kal1
    cwp = scheme.cw_params(MID)
    rnd = random.Random(9)
    for _ in range(300):
        msg = rnd.getrandbits(cwp.msg_bits)
        assert scheme.decrypt(sk, scheme.encrypt(pk, msg)) == msg


def test_decrypt_rejects_errors_touching_the_prefix(toy_kal1):
    # a weight-t error with support inside the first k positions is a
    # valid Niederreiter ciphertext but not a valid scheme ciphertext
    _, sk = toy_kal1
    inner_pub = niederreiter.public_key(sk.inner)
    e = 0b11  # weight 2, inside the zero prefix
    c = niederreiter.encrypt(inner_pub, e)
    with pytest.raises(FormatError):
        scheme.decrypt(sk, c)


def test_decrypt_rejects_out_of_range_words(toy_kal1):
    # weight is right but the colex rank is >= 2^msg_bits
    _, sk = toy_kal1
    inner_pub = niederreiter.public_key(sk.inner)
    word = (1 << 3) | (1 << 7)  # rank C(3,1)+C(7,2) = 24 >= 16
    c = niederreiter.encrypt(inner_pub, word << TOY.k)
    with pytest.raises(FormatError):
        scheme.decrypt(sk, c)


def test_decrypt_matches_baseline_chain(toy_kal1):
    pk, sk = toy_kal1
    cwp = scheme.cw_params(TOY)
    for msg in range(1 << cwp.msg_bits):
        c = scheme.encrypt(pk, msg)
        e = niederreiter.decrypt(sk.inner, c)
        assert e & ((1 << TOY.k) - 1) == 0
        word = e >> TOY.k
        assert word.bit_count() == TOY.t
        assert cw_decode(word, cwp) == scheme.decrypt(sk, c) == msg


def test_decrypt_ciphertext_length_check(toy_kal1):
    _, sk = toy_kal1
    with pytest.raises(DimensionMismatch):
        scheme.decrypt(sk, 1 << TOY.redundancy)


def test_sparse_and_run_forms():
    pk = scheme.Kal1PublicKey(TOY, 0b10110001)
    s1 = scheme.sparse_form(pk)
    assert s1.positions == (0, 4, 5, 7)
    assert s1.as_dense().seed_row == pk.seed_row
    with pytest.raises(PolicyError):
        scheme.run_form(pk)
    run_pk = scheme.Kal1PublicKey(TOY, 0b0111000)
    s2 = scheme.run_form(run_pk)
    assert (s2.start, s2.run) == (3, 3)
    assert s2.as_dense().seed_row == run_pk.seed_row
    with pytest.raises(PolicyError):
        scheme.run_form(scheme.Kal1PublicKey(TOY, 0))
    with pytest.raises(PolicyError):
        scheme.run_form(scheme.Kal1PublicKey(TOY, 0b1000))  # run of length 1


def test_key_type_invariants():
    with pytest.raises(FormatError):
        scheme.Kal1S1Key(TOY, (3, 1))
    with pytest.raises(FormatError):
        scheme.Kal1S1Key(TOY, (1, 300))
    with pytest.raises(FormatError):
        scheme.Kal1S1Key(TOY, (-1, 2))
    with pytest.raises(FormatError):
        scheme.Kal1S2Key(TOY, 0, 1)
    with pytest.raises(FormatError):
        scheme.Kal1S2Key(TOY, 7, 2)


def test_keygen_policies_round_trip():
    for tag, policy in ((1, scheme.SparseSeed(3)), (2, scheme.RunSeed(1, 4))):
        pk, sk = scheme.keygen(TOY, policy, SeededRng(seed_bytes(0x40 + tag)))
        if isinstance(policy, scheme.SparseSeed):
            assert pk.seed_row.bit_count() == policy.weight
        else:
            assert pk.seed_row == ((1 << policy.length) - 1) << policy.start
        cwp = scheme.cw_params(TOY)
        for msg in range(1 << cwp.msg_bits):
            assert scheme.decrypt(sk, scheme.encrypt(pk, msg)) == msg
