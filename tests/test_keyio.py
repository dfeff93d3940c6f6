"""Wire formats: exact sizes, round trips, strict rejection, KATs."""

import hashlib
import random
import sys
import zlib

import pytest

from kal1 import binmat, cli, keyio, niederreiter, scheme
from kal1.errors import FormatError, KatMismatch, RangeError
from kal1.goppa import CodeParams, GoppaCode
from kal1.rng import SeededRng
import oracles
from conftest import MID, MID_KAT, TOY, TOY_KAT, seed_bytes
from conftest import odd_hex_kat, out_of_range_msg_kat, oversized_param_kat

FULL = CodeParams(1024, 524, 50, 10)


def sparse_key(params, positions):
    """The Kal1-S1 key with ones at the given positions."""
    row = sum(1 << p for p in positions)
    return scheme.Kal1PublicKey(params, row, scheme.SparseSeed(len(positions)))


def run_key(params, start, run):
    """The Kal1-S2 key whose seed row is one run of ones."""
    return scheme.Kal1PublicKey(params, ((1 << run) - 1) << start, scheme.RunSeed(start, run))


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


def test_dense_public_key_round_trip(toy_kal1):
    pk, _ = toy_kal1
    blob = keyio.serialize_public_key(pk)
    assert blob[:4] == b"K1PK"
    back = keyio.parse_public_key(blob)
    assert isinstance(back, scheme.Kal1PublicKey)
    assert back.params == pk.params and back.seed_row == pk.seed_row
    assert len(blob) == keyio._HEADER.size + (keyio.payload_bits(pk) + 7) // 8


def test_sparse_public_key_round_trip():
    key = sparse_key(TOY, (0, 4, 5, 7))
    back = keyio.parse_public_key(keyio.serialize_public_key(key))
    assert back == key


def test_run_public_key_round_trip():
    key = run_key(TOY, 2, 5)
    back = keyio.parse_public_key(keyio.serialize_public_key(key))
    assert back == key


def test_niederreiter_public_key_round_trip(toy_nied):
    pub, _ = toy_nied
    blob = keyio.serialize_public_key(pub)
    back = keyio.parse_public_key(blob)
    assert isinstance(back, niederreiter.NiederreiterPublicKey)
    assert back.check_t == pub.check_t
    assert keyio.payload_bits(pub) == TOY.n * TOY.redundancy


def test_parse_rejects_structured_garbage(toy_kal1):
    pk, _ = toy_kal1
    blob = bytearray(keyio.serialize_public_key(pk))
    with pytest.raises(FormatError):
        keyio.parse_public_key(bytes(blob[:3]))  # truncated header
    bad_magic = b"XXXX" + bytes(blob[4:])
    with pytest.raises(FormatError):
        keyio.parse_public_key(bad_magic)
    bad_version = bytes(blob[:4]) + b"\x02" + bytes(blob[5:])
    with pytest.raises(FormatError):
        keyio.parse_public_key(bad_version)
    bad_scheme = bytes(blob[:5]) + b"\x07" + bytes(blob[6:])
    with pytest.raises(FormatError):
        keyio.parse_public_key(bad_scheme)
    with pytest.raises(FormatError):
        keyio.parse_public_key(bytes(blob) + b"\x00")  # trailing bytes
    with pytest.raises(FormatError):
        keyio.parse_public_key(bytes(blob[:-1]))  # truncated payload
    # nonzero weight byte outside kal1-s1
    bad_w = bytes(blob[:14]) + b"\x05" + bytes(blob[15:])
    with pytest.raises(FormatError):
        keyio.parse_public_key(bad_w)
    # inconsistent parameters in the header (k != n - m*t)
    bad_params = bytearray(blob)
    bad_params[8:10] = (9).to_bytes(2, "big")
    with pytest.raises(FormatError):
        keyio.parse_public_key(bytes(bad_params))


def test_parse_rejects_nonzero_padding():
    key = run_key(TOY, 4, 3)
    blob = bytearray(keyio.serialize_public_key(key))
    blob[-1] |= 0x01  # set a padding bit
    with pytest.raises(FormatError):
        keyio.parse_public_key(bytes(blob))


def test_parse_rejects_unsorted_positions():
    key = sparse_key(TOY, (1, 6))
    blob = bytearray(keyio.serialize_public_key(key))
    # swap the two 3-bit position fields: 001 110 00 -> 110 001 00
    blob[-1] = 0b11000100
    with pytest.raises(FormatError):
        keyio.parse_public_key(bytes(blob))


def test_parse_rejects_run_overflow():
    key = run_key(TOY, 4, 3)
    blob = bytearray(keyio.serialize_public_key(key))
    blob[-1] = 0b111111_00  # start 7, run 7: overflows nk = 8
    with pytest.raises(FormatError):
        keyio.parse_public_key(bytes(blob))


# n-k = 15 is not a power of two, so a 4-bit field can name a position
# past the seed row
ODD = CodeParams(32, 17, 3, 5)


def seed_payload_blob(sid, params, fields):
    """A .pk file whose Kal1-S1/S2 payload holds the given fields."""
    out = oracles.BitWriter()
    for value in fields:
        out.put_uint(value, keyio.position_width(params.redundancy))
    w = len(fields) if sid == keyio.SCHEME_KAL1_S1 else 0
    return keyio._pack_header(keyio.MAGIC_PUBLIC, sid, params, w) + out.to_bytes()


def private_blob(sid, params, w, run_start, run_len, seed, pk_bytes):
    """A .sk file with the given header fields, whatever they are."""
    header = keyio._HEADER.pack(
        keyio.MAGIC_PRIVATE, keyio.VERSION, sid, params.n, params.k, params.t, params.m, w
    )
    return header + keyio._PRIVATE_TAIL.pack(run_start, run_len, seed, zlib.crc32(pk_bytes))


def test_private_blob_writes_what_serialize_does():
    args = (keyio.SCHEME_KAL1_S2, ODD, 0, 4, 3, seed_bytes(7), b"pk")
    assert private_blob(*args) == keyio.serialize_private_key(*args)


def test_seed_payload_blob_writes_canonical_fields_as_serialize_does():
    blob = seed_payload_blob(keyio.SCHEME_KAL1_S1, ODD, [3, 7])
    assert blob == keyio.serialize_public_key(sparse_key(ODD, (3, 7)))
    blob = seed_payload_blob(keyio.SCHEME_KAL1_S2, ODD, [4, 3])
    assert blob == keyio.serialize_public_key(run_key(ODD, 4, 3))


@pytest.mark.parametrize(
    "sid, fields",
    [
        pytest.param(keyio.SCHEME_KAL1_S1, [3, 15], id="position-past-row"),
        pytest.param(keyio.SCHEME_KAL1_S1, [3, 3], id="repeated-position"),
        pytest.param(keyio.SCHEME_KAL1_S1, [7, 3], id="descending-positions"),
        pytest.param(keyio.SCHEME_KAL1_S2, [4, 0], id="run-length-0"),
        pytest.param(keyio.SCHEME_KAL1_S2, [4, 1], id="run-length-1"),
        pytest.param(keyio.SCHEME_KAL1_S2, [10, 6], id="run-past-row"),
    ],
)
def test_parse_rejects_noncanonical_seed_fields(capsys, tmp_path, sid, fields):
    blob = seed_payload_blob(sid, ODD, fields)
    with pytest.raises(FormatError):
        keyio.parse_public_key(blob)
    path = tmp_path / "bad.pk"
    path.write_bytes(blob)
    assert cli.main(["inspect", "--key", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: 2 FormatError")


def test_parse_rejects_non_systematic_check(toy_nied):
    pub, _ = toy_nied
    rows = list(pub.check_t.row_ints)
    rows[TOY.k] ^= 0b10  # damage the identity block
    # no such key can be built, so its file is written by hand
    with pytest.raises(FormatError, match="not in systematic form"):
        niederreiter.NiederreiterPublicKey(TOY, binmat.BinaryMatrix(TOY.n, TOY.redundancy, rows))
    out = oracles.BitWriter()
    for row in rows:
        out.put_vector(row, TOY.redundancy)
    blob = keyio._pack_header(keyio.MAGIC_PUBLIC, keyio.SCHEME_NIEDERREITER, TOY, 0) + out.to_bytes()
    good = keyio.serialize_public_key(pub)
    assert (int.from_bytes(blob, "big") ^ int.from_bytes(good, "big")).bit_count() == 1
    with pytest.raises(FormatError, match="not in systematic form"):
        keyio.parse_public_key(blob)


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


def test_sparse_key_with_no_positions_is_refused_on_write(capsys, tmp_path):
    key = sparse_key(FULL, ())
    assert keyio.payload_bits(key) == 0
    with pytest.raises(FormatError, match="a Kal1-S1 row must have 1 to 255 ones"):
        keyio.serialize_public_key(key)
    # the header-only file it would be names SparseSeed(0), which the
    # readers refuse
    blob = seed_payload_blob(keyio.SCHEME_KAL1_S1, FULL, [])
    with pytest.raises(FormatError, match="invalid public key header: sparse weight"):
        keyio.parse_public_key(blob)
    path = tmp_path / "empty.pk"
    path.write_bytes(blob)
    assert cli.main(["inspect", "--key", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: 2 FormatError\n")
    # and so do the writer and the reader of a .sk that names it
    with pytest.raises(FormatError, match="invalid private key header: sparse weight"):
        keyio.serialize_private_key(keyio.SCHEME_KAL1_S1, FULL, 0, 0, 0, seed_bytes(7), blob)
    sk = private_blob(keyio.SCHEME_KAL1_S1, FULL, 0, 0, 0, seed_bytes(7), blob)
    with pytest.raises(FormatError, match="invalid private key header: sparse weight"):
        keyio.load_private_key(sk)


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


@pytest.mark.parametrize(
    "sid, w, run_start, run_len, message",
    [
        (4, 0, 0, 0, "unknown scheme id 0x04"),
        (keyio.SCHEME_KAL1, 3, 0, 0, "weight byte must be zero outside Kal1-S1"),
        (keyio.SCHEME_KAL1_S1, 3, 0, 2, "run fields must be zero outside Kal1-S2"),
        (keyio.SCHEME_NIEDERREITER, 0, 5, 0, "run fields must be zero outside Kal1-S2"),
        (keyio.SCHEME_KAL1_S2, 0, 7, 2, "invalid private key header: run must fit"),
        (keyio.SCHEME_KAL1_S2, 0, 0, 1, "invalid private key header: run length must be at least 2"),
        (keyio.SCHEME_KAL1_S2, 0, 65535, 2, "invalid private key header: run must fit"),
        (keyio.SCHEME_KAL1_S1, 9, 0, 0, "invalid private key header: sparse weight"),
    ],
)
def test_private_key_writer_refuses_what_the_loader_refuses(sid, w, run_start, run_len, message):
    # the same FormatError, with the same message, on write and on load
    with pytest.raises(FormatError, match=message):
        keyio.serialize_private_key(sid, TOY, w, run_start, run_len, seed_bytes(7), b"pk")
    with pytest.raises(FormatError, match=message):
        keyio.load_private_key(private_blob(sid, TOY, w, run_start, run_len, seed_bytes(7), b"pk"))


@pytest.mark.parametrize("sid, w, run_start, run_len", [(4, 0, 0, 2), (keyio.SCHEME_KAL1, 1, 0, 0)])
def test_regenerate_refuses_scheme_fields_before_any_draw(monkeypatch, sid, w, run_start, run_len):
    # an unknown scheme id fell through to a Kal1-S2 key with that run
    def no_read(*args):
        raise AssertionError("a header the loader refuses was drawn from")

    monkeypatch.setattr(SeededRng, "read", no_read)
    with pytest.raises(FormatError, match="^(unknown scheme id|weight byte)"):
        keyio.regenerate(sid, TOY, w, run_start, run_len, seed_bytes(7))


@pytest.mark.parametrize("run_start, run_len", [(-1, 2), (0, -2), (65536, 2), (0, 65536)])
def test_private_key_writer_refuses_run_fields_outside_u16(run_start, run_len):
    # a FormatError from the policy check, never struct.error from packing
    with pytest.raises(FormatError, match="^invalid private key header: "):
        keyio.serialize_private_key(
            keyio.SCHEME_KAL1_S2, TOY, 0, run_start, run_len, seed_bytes(7), b"pk"
        )


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


def test_parse_fuzz_random_bytes_never_crash():
    rnd = random.Random(55)
    rejected = 0
    for _ in range(10_000):
        blob = rnd.randbytes(rnd.randrange(0, 60))
        try:
            keyio.parse_public_key(blob)
        except FormatError:
            rejected += 1
    assert rejected == 10_000


def test_parse_fuzz_valid_prefix_random_tail():
    rnd = random.Random(56)
    prefix = keyio._HEADER.pack(b"K1PK", 1, keyio.SCHEME_KAL1, 16, 8, 2, 4, 0)
    for _ in range(2000):
        blob = prefix[: rnd.randrange(4, len(prefix))] + rnd.randbytes(rnd.randrange(0, 8))
        try:
            keyio.parse_public_key(blob)
        except FormatError:
            pass


def test_private_key_round_trip(tmp_path, toy_kal1):
    pk, _ = toy_kal1
    seed = seed_bytes(7)
    pk_bytes = keyio.serialize_public_key(pk)
    sk_bytes = keyio.serialize_private_key(keyio.SCHEME_KAL1, TOY, 0, 0, 0, seed, pk_bytes)
    assert len(sk_bytes) == 39
    sid, pub, priv, pk_again = keyio.load_private_key(sk_bytes)
    assert sid == keyio.SCHEME_KAL1
    assert pk_again == pk_bytes
    assert pub.seed_row == pk.seed_row
    assert isinstance(priv, GoppaCode)


def test_private_key_checksum_mismatch(toy_kal1):
    pk, _ = toy_kal1
    pk_bytes = keyio.serialize_public_key(pk)
    sk_bytes = bytearray(
        keyio.serialize_private_key(keyio.SCHEME_KAL1, TOY, 0, 0, 0, seed_bytes(7), pk_bytes)
    )
    sk_bytes[-20] ^= 1  # flip a seed bit: regenerated key no longer matches
    with pytest.raises(FormatError):
        keyio.load_private_key(bytes(sk_bytes))


def test_private_key_header_validation():
    with pytest.raises(FormatError):
        keyio.load_private_key(b"K1SK" + bytes(10))
    blob = bytearray(
        keyio.serialize_private_key(keyio.SCHEME_KAL1, TOY, 0, 0, 0, seed_bytes(7), b"x")
    )
    blob[0:4] = b"K1PK"
    with pytest.raises(FormatError):
        keyio.load_private_key(bytes(blob))
    # unused policy fields must stay zero
    stray_w = bytearray(
        keyio.serialize_private_key(keyio.SCHEME_KAL1, TOY, 0, 0, 0, seed_bytes(7), b"x")
    )
    stray_w[14] = 5
    with pytest.raises(FormatError):
        keyio.load_private_key(bytes(stray_w))


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


def test_message_and_ciphertext_codecs():
    assert keyio.message_bytes(TOY) == 1
    assert keyio.ciphertext_bytes(TOY) == 1
    msg = keyio.decode_message(b"\x0b", TOY)
    assert msg == 0x0B
    assert keyio.encode_message(msg, TOY) == b"\x0b"
    with pytest.raises(RangeError):
        keyio.decode_message(b"\xff", TOY)  # 255 >= 2^4
    with pytest.raises(FormatError):
        keyio.decode_message(b"\x00\x01", TOY)
    c = keyio.decode_ciphertext(b"\xa0", TOY)
    assert keyio.encode_ciphertext(c, TOY) == b"\xa0"
    with pytest.raises(FormatError):
        keyio.decode_ciphertext(b"", TOY)


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


def test_ciphertext_padding_bits_rejected_at_headline():
    # n-k = 500 leaves the 4 low bits of the last byte as padding
    blob = keyio.encode_ciphertext((1 << FULL.redundancy) - 1, FULL)
    assert blob[-1] == 0xF0
    for bit in range(4):
        with pytest.raises(FormatError):
            keyio.decode_ciphertext(blob[:-1] + bytes([blob[-1] | 1 << bit]), FULL)


@pytest.mark.parametrize("c", [-1, 1 << 500, 1 << 504], ids=["negative", "padding", "past-end"])
def test_ciphertext_encoding_rejects_vectors_outside_n_minus_k_bits(c):
    # 1 << 500 would land in the padding, 1 << 504 past the last byte
    with pytest.raises(FormatError):
        keyio.encode_ciphertext(c, FULL)


def test_kat_generate_verify_round_trip():
    text = keyio.kat_generate(TOY, 5, seed_bytes(1))
    assert keyio.kat_verify(text) == 5
    assert text == keyio.kat_generate(TOY, 5, seed_bytes(1))  # deterministic


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


def test_kat_verify_rejects_malformed_lines():
    with pytest.raises(FormatError):
        keyio.kat_verify("params=16,8,2 seed=00 msg=00 ct=00\n")
    with pytest.raises(FormatError):
        keyio.kat_verify("params=16,9,2,4 seed=" + "00" * 16 + " msg=01 ct=a0\n")
    with pytest.raises(FormatError):
        keyio.kat_verify("params=16,8,2,4 seed=0011 msg=01 ct=a0\n")


@pytest.mark.parametrize("pad", [False, True])
@pytest.mark.parametrize("field", ["seed", "msg", "ct"])
def test_kat_verify_rejects_odd_length_hex(field, pad):
    with pytest.raises(FormatError, match="line 2"):
        keyio.kat_verify(odd_hex_kat(field, pad))


@pytest.mark.parametrize("digits", [6, 4301, 5000])
@pytest.mark.parametrize("index", range(4))
def test_kat_verify_rejects_oversized_params(index, digits):
    # more than 4300 digits used to leak int()'s ValueError
    with pytest.raises(FormatError, match="line 2: not a KAT record"):
        keyio.kat_verify(oversized_param_kat(index, digits))


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


@pytest.mark.parametrize("msg", ["10", "ff"])
def test_kat_verify_out_of_range_message_is_format_error(msg):
    # the toy message space is 4 bits wide
    with pytest.raises(FormatError, match="^line 1: "):
        keyio.kat_verify(out_of_range_msg_kat(msg))


def test_kat_verify_wrong_length_message_has_line_prefix():
    # the toy message field is one byte
    with pytest.raises(FormatError, match="^line 1: "):
        keyio.kat_verify(out_of_range_msg_kat("0001"))


def test_kat_generate_of_zero_records_is_empty():
    assert keyio.kat_generate(TOY, 0, seed_bytes(1)) == ""
    assert keyio.kat_verify("") == 0


def test_kat_generate_rejects_negative_count():
    with pytest.raises(RangeError):
        keyio.kat_generate(TOY, -1, seed_bytes(1))


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

