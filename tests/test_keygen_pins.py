"""Key generation pinned above m = 4.

The toy KAT only exercises GF(2^4), so a change to the draw order or to
an accept/reject decision at a larger field would pass it unnoticed.
These digests, Goppa polynomials and permutations were recorded with the
straightforward keygen that ``oracles`` keeps, and must never change.  The
stress-shape key's digests were recorded before the Four-Russians and
batched-gcd keygen kernels replaced the schoolbook ones.
"""

import hashlib

import pytest

from kal1 import keyio, scheme
from kal1.goppa import CodeParams

import oracles
from conftest import MID, key_perm, seed_bytes

FULL = CodeParams(1024, 524, 50, 10)

# (scheme id, w, run start, run length, seed tag, .pk SHA-256, .sk SHA-256,
#  accepted Goppa polynomial, SHA-256 of the permutation as decimal CSV)
MID_KEYS = {
    "niederreiter": (
        keyio.SCHEME_NIEDERREITER, 0, 0, 0, 0x60,
        "bf5782df9cf6f87a909a2a8030d475ce11b01efaf9b8bc84ecd19aa2e06b7151",
        "635fcfa92a1b43b011713d0d1967c59d9640681ab1edd271ab4ae9c74af45cad",
        [166, 242, 240, 190, 115, 226, 139, 223, 1],
        "89b76daeaf29ab7f288be252bacd61e661de258fe3cd8d57dabcdab0eb8ea1a4",
    ),
    "kal1": (
        keyio.SCHEME_KAL1, 0, 0, 0, 0x61,
        "b5bdac2a544e42a8853886680f3055ff4f7fb0810d7f1d717d2ccc7b54a26ffd",
        "75a0a7b3f778ab493cf8598d3056eb1ceac6d0373324f9af088c8abbeecc1a0e",
        [24, 60, 77, 161, 6, 19, 47, 35, 1],
        "11ad2499835b8ac11a608f651ae4710aa56ce8e1cb1e05ada2f78cd4e4da7861",
    ),
    "kal1-s1": (
        keyio.SCHEME_KAL1_S1, 10, 0, 0, 0x62,
        "12663f6301cca81e0cad568b44b083ced472ccdef8a75597606e0fae11cc79fe",
        "acbdca6a80df5b44f9f3e78f68c91ac8c550f979773f0bd33441d647516ed3fd",
        [119, 138, 207, 237, 3, 155, 236, 210, 1],
        "975348e41682b374591050f538689a0fe8e1395837f31fc13e03d9f89b80cb01",
    ),
    "kal1-s2": (
        keyio.SCHEME_KAL1_S2, 0, 4, 3, 0x63,
        "e139bacc5c6800463c92ff8eea0b32eab7bead39360f49f6a085457d118ca771",
        "cb5e57c85747dbd6d8a505fbad1b2e436ef06e28263270e2ffdbc0264679b07c",
        [32, 193, 146, 62, 120, 107, 70, 192, 1],
        "5850658901ce59e02d91e7f2f373c9628b750909aeb942c6c67f576d75f22e79",
    ),
}

HEADLINE_KEY = (
    keyio.SCHEME_KAL1, 0, 0, 0, 0x70,
    "9e6d9c4b42a61c157ec2940e96d2a5f06c836bc0f28962c2ad6126d2d59e27c5",
    "3f2bef9d9f2d7fcb99b5bcab37ec350145f40386ef3112e4c71f82a107733b46",
    [
        1, 628, 13, 899, 796, 198, 940, 51, 955, 729, 449, 824, 830, 703, 201, 602, 670,
        988, 763, 195, 816, 213, 953, 1021, 609, 672, 831, 562, 882, 583, 526, 771, 154,
        349, 925, 358, 759, 637, 416, 253, 469, 943, 490, 989, 984, 322, 212, 457, 235,
        313, 1,
    ],
    "b7f22d88c4b25ac6e8e5d59ee78691c26b9fc8f2517b225413ec10b13fb9a287",
)


# a dense Kal1 key at the stress shape: m = 12, t = 64 and 3488-bit rows;
# (seed tag, .pk SHA-256, .sk SHA-256)
STRESS = CodeParams(3488, 2720, 64, 12)
STRESS_KEY = (
    0x87,
    "05f19566f7b90513b20d1ab61e64d46fa74df4dd24dd8cd354bc87b0a3601acc",
    "3a3beaf8a2d5beb65af232624c05b605a85be87f4d095592744d5a011249b0c6",
)


# Niederreiter keys whose n-k (15 and 500) is not a multiple of 8, so
# the check rows do not start on byte boundaries: (params, seed tag,
# .pk SHA-256).  The pinned MID and toy keys have n-k of 64 and 8.
UNALIGNED_NIEDERREITER_KEYS = [
    (CodeParams(32, 17, 3, 5), 1, "20c3dd8b44780d9ee564a306de777ea3c32d74c367571100ff5d8c107828abbb"),
    (FULL, 1, "368e729b9dfcf906d5014846053eef1e853a8efc6e73bbcbadba62867ed08505"),
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_key(params, pin):
    sid, w, run_start, run_len, tag, pk_sha, sk_sha, goppa_poly, perm_sha = pin
    seed = seed_bytes(tag)
    pub, priv = keyio.regenerate(sid, params, w, run_start, run_len, seed)
    pk = keyio.serialize_public_key(pub)
    sk = keyio.serialize_private_key(sid, params, w, run_start, run_len, seed, pk)
    assert oracles.unpack(priv.field, priv.goppa_poly) == goppa_poly
    assert sha256(",".join(map(str, key_perm(params, seed, priv))).encode()) == perm_sha
    assert sha256(pk) == pk_sha
    assert sha256(sk) == sk_sha
    return pk, sk


@pytest.mark.parametrize("name", sorted(MID_KEYS))
def test_mid_keys_pinned(name):
    pk, sk = check_key(MID, MID_KEYS[name])
    assert keyio.load_private_key(sk)[3] == pk


def test_headline_kal1_key_pinned():
    check_key(FULL, HEADLINE_KEY)


def test_stress_kal1_key_pinned_and_round_trips():
    tag, pk_sha, sk_sha = STRESS_KEY
    seed = seed_bytes(tag)
    pub, priv = keyio.regenerate(keyio.SCHEME_KAL1, STRESS, 0, 0, 0, seed)
    pk = keyio.serialize_public_key(pub)
    sk = keyio.serialize_private_key(keyio.SCHEME_KAL1, STRESS, 0, 0, 0, seed, pk)
    assert sha256(pk) == pk_sha
    assert sha256(sk) == sk_sha
    msg = (1 << scheme.cw_params(STRESS).msg_bits) // 3
    assert scheme.decrypt(priv, scheme.encrypt(pub, msg)) == msg


@pytest.mark.parametrize("params, tag, pk_sha", UNALIGNED_NIEDERREITER_KEYS, ids=["n-k=15", "n-k=500"])
def test_unaligned_niederreiter_key_pinned_and_parsed(params, tag, pk_sha):
    pub, _ = keyio.regenerate(keyio.SCHEME_NIEDERREITER, params, 0, 0, 0, seed_bytes(tag))
    pk = keyio.serialize_public_key(pub)
    assert len(pk) == keyio._HEADER.size + (params.n * params.redundancy + 7) // 8
    assert sha256(pk) == pk_sha
    assert keyio.parse_public_key(pk).check_t.row_ints == pub.check_t.row_ints
