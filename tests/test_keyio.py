"""Wire formats: exact sizes, round trips, strict rejection, KATs."""

import hashlib
import random
import sys

import pytest

from kal1 import binmat, cli, keyio, niederreiter, scheme
from kal1.errors import FormatError, Kal1Error, KatMismatch, RangeError
from kal1.goppa import CodeParams
from kal1.rng import SeededRng
import oracles
from conftest import MID, MID_KAT, TOY, TOY_KAT, seed_bytes
from refusals import FULL, ODD, REFUSALS, key_files, private_blob, run_key, seed_payload_blob, sparse_key


def decrypted(data: bytes, params: CodeParams) -> int:
    """What `kal1 decrypt` makes of a .ct under the key of key_files."""
    c = keyio.decode_ciphertext(data, params)
    return scheme.decrypt(keyio.load_private_key(key_files(params)[1])[2], c)


# the library reader of each kind of input in the refusal table
READERS = {
    "pk": lambda data, params: keyio.parse_public_key(data),
    "sk": lambda data, params: keyio.load_private_key(data),
    "ct": decrypted,
    "msg": keyio.decode_message,
    "kat": lambda data, params: keyio.kat_verify(data.decode()),
}


def raised(fn, *args) -> tuple:
    """The class and the message of the Kal1Error fn raises."""
    with pytest.raises(Kal1Error) as info:
        fn(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("name", REFUSALS)
def test_each_refusal_is_raised_by_its_reader(name):
    row = REFUSALS[name]
    if row.writer_args is not None:
        assert raised(keyio.serialize_private_key, *row.writer_args) == (row.error, row.message)
    assert raised(READERS[row.kind], row.build(), row.params) == (row.error, row.message)


def test_payload_sizes_at_paper_parameters():
    # exact bit counts the rest of the tooling reports
    dense = scheme.Kal1PublicKey(FULL, (1 << 500) - 1 & 0x5A5A5A5A)
    assert keyio.payload_bits(dense) == 500
    sparse = sparse_key(FULL, tuple(range(10)))
    assert keyio.payload_bits(sparse) == 90
    run = run_key(FULL, 4, 3)
    assert keyio.payload_bits(run) == 18
    assert keyio.position_width(FULL.redundancy) == 9


def test_s2_payload_bytes_are_pinned():
    run = run_key(FULL, 4, 3)
    blob = keyio.serialize_public_key(run)
    assert blob[keyio._HEADER.size :] == bytes.fromhex("0200c0")
    toy_run = run_key(TOY, 4, 3)
    assert keyio.serialize_public_key(toy_run)[keyio._HEADER.size :] == bytes.fromhex("8c")


def test_private_blob_writes_what_serialize_does():
    args = (keyio.SCHEME_KAL1_S2, ODD, 0, 4, 3, seed_bytes(7), b"pk")
    assert private_blob(*args) == keyio.serialize_private_key(*args)


def test_seed_payload_blob_writes_canonical_fields_as_serialize_does():
    blob = seed_payload_blob(keyio.SCHEME_KAL1_S1, ODD, [3, 7])
    assert blob == keyio.serialize_public_key(sparse_key(ODD, (3, 7)))
    blob = seed_payload_blob(keyio.SCHEME_KAL1_S2, ODD, [4, 3])
    assert blob == keyio.serialize_public_key(run_key(ODD, 4, 3))


def random_wire_keys():
    """300 keys over four parameter sets, dense, sparse and run forms mixed."""
    rnd = random.Random(77)
    params_pool = [TOY, CodeParams(32, 17, 3, 5), CodeParams(64, 40, 4, 6), FULL]
    for _ in range(300):
        params = rnd.choice(params_pool)
        nk = params.redundancy
        kind = rnd.randrange(3)
        if kind == 0:
            key = scheme.Kal1PublicKey(params, rnd.getrandbits(nk))
        elif kind == 1:
            w = rnd.randint(0, min(nk, 20))
            key = sparse_key(params, tuple(sorted(rnd.sample(range(nk), w))))
        else:
            # the length field holds ceil(log2(nk)) bits, so a run
            # covering a power-of-two row is not representable
            run = rnd.randint(2, min(nk, (1 << keyio.position_width(nk)) - 1))
            start = rnd.randint(0, nk - run)
            key = run_key(params, start, run)
        yield key


def test_round_trip_randomized_all_three_forms():
    refused = 0
    for key in random_wire_keys():
        if key.policy == scheme.SparseSeed(0):
            # weight 0 is no valid policy, so it is neither written nor read
            with pytest.raises(FormatError, match="must have 1 to 255 ones"):
                keyio.serialize_public_key(key)
            refused += 1
        else:
            assert keyio.parse_public_key(keyio.serialize_public_key(key)) == key
    assert refused == 5


# frozen: SHA-256 over the serialized random_wire_keys(), in order, less
# the 5 Kal1-S1 keys with no positions, which are refused; the bytes of
# the other 295 are those the writer gave when it still wrote all 300
RANDOM_WIRE_KEYS_SHA256 = "4a8d6514dc5e855dd6c05f9c637953adf46ec0a4314ade3b38ae58b84b1bb853"


def test_randomized_wire_bytes_are_pinned():
    h = hashlib.sha256()
    for key in random_wire_keys():
        if key.policy != scheme.SparseSeed(0):
            h.update(keyio.serialize_public_key(key))
    assert h.hexdigest() == RANDOM_WIRE_KEYS_SHA256


def test_sparse_key_with_no_positions_is_refused_on_write():
    # the header-only file it would be names SparseSeed(0), which the
    # readers refuse (the table's pk- and sk-sparse-weight-0)
    key = sparse_key(FULL, ())
    assert keyio.payload_bits(key) == 0
    with pytest.raises(FormatError, match="a Kal1-S1 row must have 1 to 255 ones"):
        keyio.serialize_public_key(key)


@pytest.mark.parametrize(
    "row, policy",
    [(0b10110001, scheme.SparseSeed(3)), (0b0111000, scheme.RunSeed(0, 2))],
    ids=["sparse-weight", "run-fields"],
)
def test_public_key_refuses_a_row_its_policy_does_not_name(row, policy):
    # the reader rebuilds the policy from the row's fields, here
    # SparseSeed(4) and RunSeed(3, 3), so the bytes would name another
    # key; so no key holds such a row, and no writer is handed one
    with pytest.raises(FormatError, match="seed row does not match its policy"):
        scheme.Kal1PublicKey(TOY, row, policy)


@pytest.mark.parametrize("sid, w, run_start, run_len", [(4, 0, 0, 2), (keyio.SCHEME_KAL1, 1, 0, 0)])
def test_regenerate_refuses_scheme_fields_before_any_draw(monkeypatch, sid, w, run_start, run_len):
    # an unknown scheme id fell through to a Kal1-S2 key with that run
    def no_read(*args):
        raise AssertionError("a header the loader refuses was drawn from")

    monkeypatch.setattr(SeededRng, "read", no_read)
    with pytest.raises(FormatError, match="^(unknown scheme id|weight byte)"):
        keyio.regenerate(sid, TOY, w, run_start, run_len, seed_bytes(7))


BIG = CodeParams(65536, 65504, 2, 16)


def test_header_refuses_parameters_wider_than_its_fields():
    # CodeParams admits n = 2^16; the header's u16 fields do not
    # the message names the field and its width, not struct's internals
    key = scheme.Kal1PublicKey(BIG, 1, scheme.DenseSeed())
    n_too_wide = "^a header field is out of range: n = 65536 does not fit in 16 bits$"
    with pytest.raises(FormatError, match=n_too_wide) as info:
        keyio.serialize_public_key(key)
    assert "format requires" not in str(info.value)
    with pytest.raises(FormatError, match=n_too_wide):
        keyio.serialize_private_key(keyio.SCHEME_KAL1, BIG, 0, 0, 0, seed_bytes(7), b"")
    with pytest.raises(FormatError, match="^a header field is out of range: weight byte = 256 does"):
        keyio.serialize_private_key(keyio.SCHEME_KAL1_S1, TOY, 256, 0, 0, seed_bytes(7), b"")
    with pytest.raises(FormatError, match="^a header field is out of range: scheme id = -1 does"):
        keyio.serialize_private_key(-1, TOY, 0, 0, 0, seed_bytes(7), b"")
    # run fields outside u16 get the policy check's FormatError, never
    # struct.error from packing
    for run_start, run_len in [(-1, 2), (0, -2), (65536, 2), (0, 65536)]:
        with pytest.raises(FormatError, match="^invalid private key header: "):
            keyio.serialize_private_key(keyio.SCHEME_KAL1_S2, TOY, 0, run_start, run_len, seed_bytes(7), b"pk")


def test_cli_keygen_at_n_65536_exits_2_and_writes_nothing(monkeypatch, capsys, tmp_path):
    # the header is checked before the key is drawn, so nothing is read
    # from the keystream
    reads = []
    inner = SeededRng.read

    def counted(self, *args):
        reads.append(args)
        return inner(self, *args)

    monkeypatch.setattr(SeededRng, "read", counted)
    out = tmp_path / "big"
    argv = ["keygen", "--n", "65536", "--k", "65504", "--t", "2", "--m", "16"]
    code = cli.main(argv + ["--seed", "00" * 16, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: 2 FormatError\n")
    assert "a header field is out of range: n = 65536 does not fit in 16 bits" in err
    assert "format requires" not in err
    assert list(tmp_path.iterdir()) == []
    assert reads == []


def test_private_key_load_checks_the_policy_once_and_a_bad_one_before_keygen(monkeypatch):
    calls = []
    real = scheme.validate_policy

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(scheme, "validate_policy", counted)
    pub, _ = keyio.regenerate(keyio.SCHEME_KAL1_S1, TOY, 3, 0, 0, seed_bytes(7))
    pk_bytes = keyio.serialize_public_key(pub)
    sk = keyio.serialize_private_key(keyio.SCHEME_KAL1_S1, TOY, 3, 0, 0, seed_bytes(7), pk_bytes)
    calls.clear()
    keyio.load_private_key(sk)
    assert len(calls) == 1

    def no_keygen(*args):
        raise AssertionError("keygen ran for an invalid header")

    monkeypatch.setattr(niederreiter, "keygen_private", no_keygen)
    bad = private_blob(keyio.SCHEME_KAL1_S2, TOY, 0, 7, 2, seed_bytes(7), pk_bytes)
    with pytest.raises(FormatError, match="^invalid private key header: "):
        keyio.load_private_key(bad)


@pytest.mark.parametrize("params", [TOY, MID, FULL], ids=["toy", "mid", "headline"])
def test_encode_message_refuses_what_decode_message_refuses(params):
    bits = scheme.cw_params(params).msg_bits
    top = (1 << bits) - 1
    assert keyio.decode_message(keyio.encode_message(top, params), params) == top
    for msg in (-1, 1 << bits, 1 << 8 * keyio.message_bytes(params)):
        with pytest.raises(RangeError, match=f"^message exceeds the {bits}-bit capacity$"):
            keyio.encode_message(msg, params)


def test_ciphertext_bit_order():
    # position 0 of the vector is the MSB of the first byte
    assert keyio.encode_ciphertext(0b00000001, TOY) == b"\x80"
    assert keyio.decode_ciphertext(b"\x80", TOY) == 1


@pytest.mark.parametrize("params", [TOY, MID, FULL], ids=["toy", "mid", "headline"])
def test_ciphertext_codec_matches_pack_bits_oracle(params):
    nk = params.redundancy
    rnd = random.Random(nk)
    vectors = [0, 1, 1 << (nk - 1), (1 << nk) - 1] + [rnd.getrandbits(nk) for _ in range(200)]
    for c in vectors:
        blob = keyio.encode_ciphertext(c, params)
        assert blob == oracles.pack_bits(c, nk)
        assert keyio.decode_ciphertext(blob, params) == c == oracles.unpack_bits(blob, nk)


@pytest.mark.parametrize("c", [-1, 1 << 500, 1 << 504], ids=["negative", "padding", "past-end"])
def test_ciphertext_encoding_rejects_vectors_outside_n_minus_k_bits(c):
    # 1 << 500 would land in the padding, 1 << 504 past the last byte
    with pytest.raises(FormatError):
        keyio.encode_ciphertext(c, FULL)


def test_kat_verify_detects_ct_tamper():
    text = keyio.kat_generate(TOY, 3, seed_bytes(2))
    lines = text.splitlines()
    broken = lines[1]
    good_ct = broken.rsplit("ct=", 1)[1]
    flipped = format(int(good_ct, 16) ^ 0x10, f"0{len(good_ct)}x")
    lines[1] = broken.rsplit("ct=", 1)[0] + "ct=" + flipped
    with pytest.raises(KatMismatch) as exc_info:
        keyio.kat_verify("\n".join(lines) + "\n")
    assert exc_info.value.record == 2
    assert exc_info.value.field == "ct"


def test_shipped_kat_constants_stable():
    # first record of the shipped fixture, frozen
    text = keyio.kat_generate(TOY, 1, seed_bytes(1))
    assert text == (
        "params=16,8,2,4 seed=0545aad56da2a97c3663d1432a3d1c84 msg=01 ct=a0\n"
    )


@pytest.mark.parametrize(
    "params, kat, seed", [(TOY, TOY_KAT, seed_bytes(1)), (MID, MID_KAT, bytes(range(16)))], ids=["toy", "mid"]
)
def test_kat_generate_builds_no_key(monkeypatch, params, kat, seed):
    # the ciphertext is the message's constant-weight word, so the shipped
    # files come out with every key build refused
    def refuse(*args):
        raise AssertionError("kat generate built a key")

    monkeypatch.setattr(scheme, "keygen", refuse)
    monkeypatch.setattr(niederreiter, "keygen_private", refuse)
    assert keyio.kat_generate(params, 8, seed) == kat.read_text()


def count_transposes(monkeypatch) -> list:
    """Count transpose_ints calls under every kal1 name that binds it."""
    inner = binmat.transpose_ints
    calls = []

    def counted(rows, cols):
        calls.append(cols)
        return inner(rows, cols)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "kal1" and getattr(mod, "transpose_ints", None) is inner:
            monkeypatch.setattr(mod, "transpose_ints", counted)
    return calls


# (scheme id, w, run start, run length) per scheme, as `kal1 keygen` fills them
SCHEME_FIELDS = [
    (keyio.SCHEME_NIEDERREITER, 0, 0, 0),
    (keyio.SCHEME_KAL1, 0, 0, 0),
    (keyio.SCHEME_KAL1_S1, 10, 0, 0),
    (keyio.SCHEME_KAL1_S2, 0, 4, 3),
]


@pytest.mark.parametrize("params", [TOY, MID], ids=["toy", "mid"])
@pytest.mark.parametrize("fields", SCHEME_FIELDS)
def test_a_loaded_private_key_equals_and_hashes_as_the_regenerated_one(params, fields):
    # keys are values: the .sk's key is its seed's key, and == compares
    # the support and g, not the caches either key has built
    sid, w, run_start, run_len = fields
    w = min(w, params.redundancy)
    seed = seed_bytes(0xA0 + sid)
    pub, priv = keyio.regenerate(sid, params, w, run_start, run_len, seed)
    pk_bytes = keyio.serialize_public_key(pub)
    sk_bytes = keyio.serialize_private_key(sid, params, w, run_start, run_len, seed, pk_bytes)
    _, pub_again, priv_again, _ = keyio.load_private_key(sk_bytes)
    assert priv_again is not priv
    assert (pub_again, priv_again) == (pub, priv)
    assert hash(priv_again) == hash(priv) and len({priv, priv_again}) == 1
    assert priv_again._g_values == priv._g_values
    assert priv_again.parity_check() == priv.parity_check()
    other = keyio.regenerate(sid, params, w, run_start, run_len, seed_bytes(0xB0 + sid))[1]
    assert other != priv


@pytest.mark.parametrize("fields", SCHEME_FIELDS)
def test_regeneration_and_decode_transpose_nothing(monkeypatch, fields):
    # keygen works on the check's columns and decoding finds the
    # locator's roots on power planes, so the key never holds check rows
    calls = count_transposes(monkeypatch)
    sid, w, run_start, run_len = fields
    pub, priv = keyio.regenerate(sid, MID, w, run_start, run_len, seed_bytes(0x90 + sid))
    for msg in [3, 5]:
        assert scheme.decrypt(priv, scheme.encrypt(pub, msg)) == msg
    assert calls == []
    # the key holds the check's columns and no row matrix
    assert not any(isinstance(v, binmat.BinaryMatrix) for v in vars(priv).values())
    assert all(type(c) is int for c in priv.parity_check())
