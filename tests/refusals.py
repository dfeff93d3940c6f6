"""One table of bad inputs, refused alike by the library and by `kal1`.

Each row of ``REFUSALS`` gives the kind of input (``pk``, ``sk``, ``ct``,
``msg`` or ``kat``), a builder of its bytes, the Kal1Error class, the
whole message and the CLI's exit code.  ``test_keyio.py`` hands every
row to its library reader and ``test_cli.py`` to ``kal1``; a ``ct`` row
is decoded and then decrypted under the key of ``key_files``.  A ``.sk``
row with ``writer_args`` is also a writer row: ``serialize_private_key``
must refuse those arguments with the loader's class and message.  Every
input is built when its test runs, so a faulty writer fails its own
rows and not the collection.
"""

from __future__ import annotations

import functools
import zlib
from typing import Callable, NamedTuple

from kal1 import keyio, niederreiter, scheme
from kal1.binmat import vec_times_matrix
from kal1.errors import DecodingFailure, FormatError, Kal1Error, KatMismatch, RangeError
from kal1.goppa import CodeParams
from kal1.rng import SeededRng

import oracles
from conftest import TOY, TOY_KAT, seed_bytes

FULL = CodeParams(1024, 524, 50, 10)
# n-k = 15 is not a power of two, so a 4-bit field can name a position
# past the seed row
ODD = CodeParams(32, 17, 3, 5)
KEY_SEED = seed_bytes(7)
S1, S2 = keyio.SCHEME_KAL1_S1, keyio.SCHEME_KAL1_S2


class Refusal(NamedTuple):
    kind: str
    build: Callable[[], bytes]
    error: type[Kal1Error]
    message: str
    code: int
    params: CodeParams = TOY  # of the key a sk, ct or msg row is read with
    writer_args: tuple | None = None  # serialize_private_key's, which it refuses alike


def sparse_key(params, positions):
    """The Kal1-S1 key with ones at the given positions."""
    return scheme.Kal1PublicKey(params, sum(1 << p for p in positions), scheme.SparseSeed(len(positions)))


def run_key(params, start, run):
    """The Kal1-S2 key whose seed row is one run of ones."""
    return scheme.Kal1PublicKey(params, ((1 << run) - 1) << start, scheme.RunSeed(start, run))


def seed_payload_blob(sid, params, fields):
    """A .pk file whose Kal1-S1/S2 payload holds the given fields."""
    out = oracles.BitWriter()
    for value in fields:
        out.put_uint(value, keyio.position_width(params.redundancy))
    w = len(fields) if sid == S1 else 0
    return keyio._pack_header(keyio.MAGIC_PUBLIC, sid, params, w) + out.to_bytes()


def private_blob(sid, params, w, run_start, run_len, seed, pk_bytes):
    """A .sk file with the given header fields, whatever they are."""
    header = keyio._HEADER.pack(keyio.MAGIC_PRIVATE, keyio.VERSION, sid, params.n, params.k, params.t, params.m, w)
    return header + keyio._PRIVATE_TAIL.pack(run_start, run_len, seed, zlib.crc32(pk_bytes))


@functools.cache
def key_files(params: CodeParams) -> tuple[bytes, bytes]:
    """The .pk and .sk of the dense Kal1 key that KEY_SEED draws."""
    pk = keyio.serialize_public_key(keyio.regenerate(keyio.SCHEME_KAL1, params, 0, 0, 0, KEY_SEED)[0])
    return pk, keyio.serialize_private_key(keyio.SCHEME_KAL1, params, 0, 0, 0, KEY_SEED, pk)


def toy_pk() -> bytes:
    return key_files(TOY)[0]


def toy_sk() -> bytes:
    return key_files(TOY)[1]


def toy_run() -> bytes:
    return keyio.serialize_public_key(run_key(TOY, 4, 3))


def toy_encrypted(msg: int) -> bytes:
    return keyio.encode_ciphertext(scheme.encrypt(keyio.parse_public_key(toy_pk()), msg), TOY)


def toy_syndrome_ct(error: int) -> bytes:
    """The .ct of error's syndrome under the toy key's inner check."""
    check_t = niederreiter.public_key(keyio.load_private_key(toy_sk())[2]).check_t
    return keyio.encode_ciphertext(vec_times_matrix(error, check_t), TOY)


def edited(blob: bytes, at: int, new: bytes) -> bytes:
    """blob with its bytes from `at` (from the end if negative) on overwritten by new."""
    at %= len(blob)
    return blob[:at] + new + blob[at + len(new) :]


def flipped(blob: bytes, at: int, bit: int) -> bytes:
    return edited(blob, at, bytes([blob[at] ^ 1 << bit]))


def non_systematic_pk() -> bytes:
    """The toy Niederreiter .pk with bit 1 of row k, in the identity
    block, flipped: payload bit k(n-k) + 1 from the top.  No such key can
    be built, so no writer gives this file."""
    bit = TOY.k * TOY.redundancy + 1
    pk = keyio.serialize_public_key(niederreiter.keygen(TOY, SeededRng(seed_bytes(1)))[0])
    return flipped(pk, keyio._HEADER.size + bit // 8, 7 - bit % 8)


def edited_kat(record: int, field: str, edit: Callable[[str], str], text: str | None = None) -> bytes:
    """A KAT file, the shipped toy one by default, with one field of
    record `record` (from 1) edited."""
    lines = (TOY_KAT.read_text() if text is None else text).splitlines()
    fields = dict(item.split("=", 1) for item in lines[record - 1].split(" "))
    fields[field] = edit(fields[field])
    lines[record - 1] = " ".join(f"{name}={value}" for name, value in fields.items())
    return ("\n".join(lines) + "\n").encode()


def nines(index: int, digits: int) -> Callable[[str], str]:
    """Parameter `index` (n, k, t, m) replaced by `digits` nines."""
    return lambda value: ",".join("9" * digits if i == index else v for i, v in enumerate(value.split(",")))


def header_row(sid, w, run_start, run_len, message, params=TOY) -> Refusal:
    """A .sk whose header fields the loader and the writer both refuse."""
    args = (sid, params, w, run_start, run_len, KEY_SEED, b"pk")
    return Refusal("sk", functools.partial(private_blob, *args), FormatError, message, 2, params, args)


PREFIX = "decoded error touches the zero prefix"
NOT_SPLIT = "error locator does not split over the support"
FIT = "run must fit inside the seed row without wrapping"
RUN_2 = "run length must be at least 2"
CANONICAL = "payload fields are not the canonical form of a seed row"
PADDING = "nonzero or oversized payload padding"
NOT_A_RECORD = "line 2: not a KAT record"

REFUSALS: dict[str, Refusal] = {
    "pk-short-header": Refusal("pk", lambda: toy_pk()[:3], FormatError, "file shorter than the header", 2),
    "pk-bad-magic": Refusal("pk", lambda: edited(toy_pk(), 0, b"XXXX"), FormatError, "bad magic b'XXXX'", 2),
    "pk-bad-version": Refusal("pk", lambda: edited(toy_pk(), 4, b"\x02"), FormatError, "unsupported version 2", 2),
    "pk-unknown-scheme": Refusal("pk", lambda: edited(toy_pk(), 5, b"\x07"), FormatError, "unknown scheme id 0x07", 2),
    "pk-trailing-byte": Refusal("pk", lambda: toy_pk() + b"\x00", FormatError, "payload must be 1 bytes, got 2", 2),
    "pk-short-payload": Refusal("pk", lambda: toy_pk()[:-1], FormatError, "payload must be 1 bytes, got 0", 2),
    "pk-weight-byte-outside-s1": Refusal(
        "pk", lambda: edited(toy_pk(), 14, b"\x05"), FormatError, "weight byte must be zero outside Kal1-S1", 2
    ),
    "pk-k-not-n-minus-mt": Refusal(
        "pk", lambda: edited(toy_pk(), 8, b"\x00\x09"), FormatError,
        "invalid parameters in header: dimension must equal n - m*t = 8, got 9", 2,
    ),
    "pk-padding-bit": Refusal("pk", lambda: flipped(toy_run(), -1, 0), FormatError, PADDING, 2),
    # positions 1 and 6 in 3 bits each, swapped: 001 110 00 -> 110 001 00
    "pk-unsorted-positions": Refusal(
        "pk", lambda: edited(keyio.serialize_public_key(sparse_key(TOY, (1, 6))), -1, b"\xc4"),
        FormatError, CANONICAL, 2,
    ),
    # start 7, run 7: overflows n-k = 8
    "pk-run-overflow": Refusal(
        "pk", lambda: edited(toy_run(), -1, b"\xfc"), FormatError, f"invalid public key header: {FIT}", 2
    ),
    "pk-position-past-row": Refusal("pk", lambda: seed_payload_blob(S1, ODD, [3, 15]), FormatError, CANONICAL, 2),
    "pk-repeated-position": Refusal("pk", lambda: seed_payload_blob(S1, ODD, [3, 3]), FormatError, CANONICAL, 2),
    "pk-descending-positions": Refusal("pk", lambda: seed_payload_blob(S1, ODD, [7, 3]), FormatError, CANONICAL, 2),
    **{
        f"pk-run-length-{run}": Refusal(
            "pk", lambda run=run: seed_payload_blob(S2, ODD, [4, run]), FormatError,
            f"invalid public key header: {RUN_2}", 2,
        )
        for run in (0, 1)
    },
    "pk-run-past-row": Refusal(
        "pk", lambda: seed_payload_blob(S2, ODD, [10, 6]), FormatError, f"invalid public key header: {FIT}", 2
    ),
    # the header-only file a Kal1-S1 row with no ones would be
    "pk-sparse-weight-0": Refusal(
        "pk", lambda: seed_payload_blob(S1, FULL, []), FormatError,
        "invalid public key header: sparse weight must be in [1, 255]", 2,
    ),
    "pk-non-systematic": Refusal("pk", non_systematic_pk, FormatError, "check matrix is not in systematic form", 2),
    "sk-unknown-scheme": header_row(4, 0, 0, 0, "unknown scheme id 0x04"),
    "sk-weight-byte-outside-s1": header_row(keyio.SCHEME_KAL1, 3, 0, 0, "weight byte must be zero outside Kal1-S1"),
    "sk-run-fields-in-s1": header_row(S1, 3, 0, 2, "run fields must be zero outside Kal1-S2"),
    "sk-run-fields-in-niederreiter": header_row(
        keyio.SCHEME_NIEDERREITER, 0, 5, 0, "run fields must be zero outside Kal1-S2"
    ),
    "sk-run-past-row": header_row(S2, 0, 7, 2, f"invalid private key header: {FIT}"),
    "sk-run-length-1": header_row(S2, 0, 0, 1, f"invalid private key header: {RUN_2}"),
    "sk-run-start-65535": header_row(S2, 0, 65535, 2, f"invalid private key header: {FIT}"),
    "sk-sparse-weight-9": header_row(S1, 9, 0, 0, "invalid private key header: sparse weight must be in [1, 8]"),
    "sk-sparse-weight-0": header_row(
        S1, 0, 0, 0, "invalid private key header: sparse weight must be in [1, 255]", FULL
    ),
    "sk-short-file": Refusal(
        "sk", lambda: b"K1SK" + bytes(10), FormatError, "private key file must be 39 bytes, got 14", 2
    ),
    "sk-bad-magic": Refusal("sk", lambda: edited(toy_sk(), 0, b"K1PK"), FormatError, "bad magic b'K1PK'", 2),
    "sk-stray-weight-byte": Refusal(
        "sk", lambda: edited(toy_sk(), 14, b"\x05"), FormatError, "weight byte must be zero outside Kal1-S1", 2
    ),
    # a seed bit: the regenerated key no longer matches the checksum
    "sk-seed-bit": Refusal("sk", lambda: flipped(toy_sk(), -20, 0), FormatError, "public key checksum mismatch", 2),
    "sk-checksum-bit": Refusal("sk", lambda: flipped(toy_sk(), -1, 0), FormatError, "public key checksum mismatch", 2),
    "ct-empty": Refusal("ct", lambda: b"", FormatError, "ciphertext must be 1 bytes, got 0", 2),
    # n-k = 500 leaves the 4 low bits of the last byte as padding
    **{
        f"ct-padding-bit-{bit}": Refusal(
            "ct", lambda bit=bit: flipped(keyio.encode_ciphertext((1 << FULL.redundancy) - 1, FULL), -1, bit),
            FormatError, PADDING, 2, FULL,
        )
        for bit in range(4)
    },
    # a valid Niederreiter ciphertext but no scheme's: weight 2 in the
    # first k positions
    "ct-error-in-prefix": Refusal("ct", lambda: toy_syndrome_ct(0b11), FormatError, PREFIX, 2),
    # weight 2 in the last n-k positions, but colex rank C(3,1)+C(7,2) = 24 >= 16
    "ct-word-past-capacity": Refusal(
        "ct", lambda: toy_syndrome_ct(0b10001000 << TOY.k), FormatError,
        "decoded word outside the usable message space", 2,
    ),
    # each bit of message 0b's ciphertext under the toy key flipped
    **{
        f"ct-bit-{bit}-of-0b": Refusal(
            "ct", lambda bit=bit: flipped(toy_encrypted(0x0B), 0, bit), error, message, code
        )
        for bit, error, message, code in (
            (0, FormatError, PREFIX, 2),
            (1, DecodingFailure, NOT_SPLIT, 4),
            (2, FormatError, "decoded word weight 1 != 2", 2),
            (3, FormatError, PREFIX, 2),
            (4, FormatError, PREFIX, 2),
            (5, FormatError, PREFIX, 2),
            (6, FormatError, "decoded word weight 1 != 2", 2),
            (7, DecodingFailure, NOT_SPLIT, 4),
        )
    },
    "msg-two-bytes": Refusal("msg", lambda: b"\x00\x01", FormatError, "message must be 1 bytes, got 2", 2),
    # 255 >= 2^4
    "msg-past-capacity": Refusal("msg", lambda: b"\xff", RangeError, "message exceeds the 4-bit capacity", 3),
    "kat-three-params": Refusal(
        "kat", lambda: b"params=16,8,2 seed=00 msg=00 ct=00\n", FormatError, "line 1: not a KAT record", 2
    ),
    "kat-k-not-n-minus-mt": Refusal(
        "kat", lambda: b"params=16,9,2,4 seed=" + b"00" * 16 + b" msg=01 ct=a0\n", FormatError,
        "line 1: dimension must equal n - m*t = 8, got 9", 2,
    ),
    "kat-short-seed": Refusal(
        "kat", lambda: b"params=16,8,2,4 seed=0011 msg=01 ct=a0\n", FormatError, "line 1: seed must be 16 bytes", 2
    ),
    # one hex digit cut from or added to a field of record 2
    **{
        f"kat-odd-hex-{field}-{how}": Refusal(
            "kat", lambda field=field, edit=edit: edited_kat(2, field, edit), FormatError, NOT_A_RECORD, 2
        )
        for field in ("seed", "msg", "ct")
        for how, edit in (("cut", lambda v: v[1:]), ("pad", lambda v: "0" + v))
    },
    # more than 4300 digits used to leak int()'s ValueError
    **{
        f"kat-{'nktm'[index]}-of-{digits}-digits": Refusal(
            "kat", lambda i=index, d=digits: edited_kat(2, "params", nines(i, d)), FormatError, NOT_A_RECORD, 2
        )
        for index in range(4)
        for digits in (6, 4301, 5000)
    },
    # the toy message space is 4 bits wide and one byte long
    **{
        f"kat-message-{msg}": Refusal("kat", lambda msg=msg: edited_kat(1, "msg", lambda _: msg), FormatError, text, 2)
        for msg, text in (
            ("10", "line 1: message exceeds the 4-bit capacity"),
            ("ff", "line 1: message exceeds the 4-bit capacity"),
            ("0001", "line 1: message must be 1 bytes, got 2"),
        )
    },
    "kat-ct-mismatch": Refusal(
        "kat", lambda: edited_kat(2, "ct", lambda ct: f"{int(ct, 16) ^ 1:02x}", keyio.kat_generate(TOY, 3, KEY_SEED)),
        KatMismatch, "record 2: ct expected 45, got 44", 5,
    ),
}
