"""Kal1 scheme: cyclic expansion, masking structure, round trips."""

import hashlib
import random

import pytest

from kal1 import isd, keyio, niederreiter, scheme
from kal1.binmat import BinaryMatrix, vec_times_matrix
from kal1.cw import cw_decode, cw_encode
from kal1.errors import DecodingFailure, FormatError, PolicyError, RangeError
from kal1.goppa import CodeParams
from kal1.rng import SeededRng

from conftest import KINDS, MID, TOY, seed_bytes

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
    # the seed row is public; the private key is the inner Niederreiter key
    assert sk == niederreiter.keygen_private(TOY, SeededRng(seed_bytes(7)))
    blob = keyio.serialize_public_key(pk)
    assert hashlib.sha256(blob).hexdigest() == PINNED_PK_SHA256


def test_masking_matrix_structure(toy_kal1):
    pk, sk = toy_kal1
    inner_pub = niederreiter.public_key(sk)
    cyclic_t = scheme.expand_cyclic(pk)
    secondary = isd.secondary_check_t(cyclic_t, inner_pub)
    # cyclic = check + secondary, entry-exact, summed row by row here
    summed = [a ^ b for a, b in zip(inner_pub.check_t.row_ints, secondary.row_ints)]
    assert cyclic_t == BinaryMatrix(TOY.n, TOY.redundancy, summed)
    # bottom block of the masking matrix is all zeros
    for i in range(TOY.redundancy):
        assert secondary.row_ints[TOY.k + i] == 0
    # top block = cyclic rotations block + top block of check_t
    for i in range(TOY.k):
        assert secondary.row_ints[i] == (
            cyclic_t.row_ints[i] ^ inner_pub.check_t.row_ints[i]
        )


# the seed tag of each scheme's key: toy_nied's and toy_kal1's among the
# toy keys, and mid_kal1's among the mid ones
ROUND_TRIP_SEEDS = {
    "toy": (TOY, dict(zip(KINDS, (1, 7, 0x41, 0x42)))),
    "mid": (MID, dict(zip(KINDS, (0x12, 0x11, 0x13, 0x14)))),
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("scale", ROUND_TRIP_SEEDS)
def test_every_scheme_round_trips(scale, kind):
    # the key through its .pk and .sk; then every message at toy, 300
    # random ones at mid, each encrypted to its constant-weight word
    params, tags = ROUND_TRIP_SEEDS[scale]
    sid, w, run_start, run_len = KINDS[kind]
    seed = seed_bytes(tags[kind])
    pub, priv = keyio.regenerate(sid, params, w, run_start, run_len, seed)
    pk = keyio.serialize_public_key(pub)
    sk = keyio.serialize_private_key(sid, params, w, run_start, run_len, seed, pk)
    assert (len(pk), len(sk)) == (keyio._HEADER.size + (keyio.payload_bits(pub) + 7) // 8, 39)
    assert keyio.parse_public_key(pk) == pub
    assert keyio.load_private_key(sk) == (sid, pub, priv, pk)
    cwp = scheme.cw_params(params)
    rnd = random.Random(9)
    msgs = range(1 << cwp.msg_bits) if params == TOY else [rnd.getrandbits(cwp.msg_bits) for _ in range(300)]
    for msg in msgs:
        assert scheme.encrypt(pub, msg) == cw_encode(msg, cwp)
        assert scheme.decrypt(priv, cw_encode(msg, cwp)) == msg


def test_decryption_is_key_independent(mid_kal1):
    # a weight-t c is the syndrome of (0^k | c) under every published
    # [A; I], so by unique decoding every key decrypts it to cw_decode(c)
    keys = [mid_kal1[1], scheme.keygen(MID, scheme.DenseSeed(), SeededRng(seed_bytes(0x12)))[1]]
    assert keys[0].support != keys[1].support
    cwp = scheme.cw_params(MID)
    nk, t = MID.redundancy, MID.t
    rnd = random.Random(0x6B1)
    decoded = 0
    for _ in range(200):
        c = sum(1 << i for i in rnd.sample(range(nk), t))
        try:
            expected = cw_decode(c, cwp)
        except RangeError:
            # rank at or above 2^msg_bits: refused the same way by every key
            for sk in keys:
                with pytest.raises(FormatError):
                    scheme.decrypt(sk, c)
            continue
        decoded += 1
        assert [scheme.decrypt(sk, c) for sk in keys] == [expected, expected]
    assert decoded > 150
    # one error short decodes to a light word; one or two too many decode to nothing
    for weight, error in ((t - 1, FormatError), (t + 1, DecodingFailure), (t + 2, DecodingFailure)):
        for _ in range(20):
            c = sum(1 << i for i in rnd.sample(range(nk), weight))
            for sk in keys:
                with pytest.raises(error):
                    scheme.decrypt(sk, c)


def test_ciphertext_decomposition_masking_term_vanishes(toy_kal1):
    pk, sk = toy_kal1
    inner_pub = niederreiter.public_key(sk)
    secondary = isd.secondary_check_t(scheme.expand_cyclic(pk), inner_pub)
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


def test_sparse_and_run_forms():
    # the policy picks the wire form; the fields come from the seed row
    header = keyio._HEADER.size
    s1 = scheme.Kal1PublicKey(TOY, 0b10110001, scheme.SparseSeed(4))
    blob = keyio.serialize_public_key(s1)
    assert blob[header - 1] == 4
    assert blob[header:] == bytes.fromhex("12f0")  # positions 0, 4, 5, 7 in 3 bits each
    assert keyio.parse_public_key(blob) == s1
    s2 = scheme.Kal1PublicKey(TOY, 0b0111000, scheme.RunSeed(3, 3))
    blob = keyio.serialize_public_key(s2)
    assert blob[header:] == bytes.fromhex("6c")  # start 3, length 3
    assert keyio.parse_public_key(blob) == s2


def test_key_type_invariants():
    # the wire limits of keys that can be built: the weight byte holds
    # at most 255 positions
    nk = TOY.redundancy
    full = CodeParams(1024, 524, 50, 10)
    heavy = scheme.Kal1PublicKey(full, (1 << 256) - 1, scheme.SparseSeed(256))
    with pytest.raises(FormatError):
        keyio.serialize_public_key(heavy)
    most = scheme.Kal1PublicKey(full, (1 << 255) - 1, scheme.SparseSeed(255))
    assert keyio.parse_public_key(keyio.serialize_public_key(most)) == most
    # a run of the whole row does not fit the 3-bit length field at n-k = 8
    with pytest.raises(FormatError):
        keyio.serialize_public_key(scheme.Kal1PublicKey(TOY, (1 << nk) - 1, scheme.RunSeed(0, nk)))
