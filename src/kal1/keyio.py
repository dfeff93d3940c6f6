"""Key, ciphertext, message and KAT file formats: the one module that
knows the wire layout.

Public key file (bit exact):

    magic   b"K1PK"
    u8      version, currently 0x01
    u8      scheme id: 0x00 Niederreiter, 0x01 Kal1, 0x02 Kal1-S1,
            0x03 Kal1-S2
    u16be   n, k, t, m
    u8      w (Kal1-S1 position count; 0x00 for every other scheme)
    bytes   payload bits, MSB of each byte first, zero padded to a byte:
              0x00  the n rows of the n x (n-k) public check matrix
              0x01  the seed row, n-k bits
              0x02  w sorted positions, ceil(log2(n-k)) bits each
              0x03  run start then run length, ceil(log2(n-k)) bits each
            A row goes position 0 first, a position or run field MSB first.

All three Kal1 schemes publish one ``scheme.Kal1PublicKey``: its seed
policy (dense, sparse or run) picks the scheme id, and the positions or
the run are derived from its seed row when it is written (``seed_fields``).
The key classes refuse, when built, a row its policy does not name and a
Niederreiter check not in systematic form, so the writer refuses only
fields the wire cannot carry: a header field past its width, a Kal1-S1
weight byte outside 1 to 255, and a Kal1-S2 run shorter than two ones or
too long for its length field.  What cannot be read back is not written.
The same holds for a private key file, whose header fields the caller
names: its writer refuses, with the loader's message, any header the
loader refuses.
Parsing returns the same class, with the policy the scheme id names, and
accepts Kal1-S1/S2 fields only when they name a row of at most n-k bits
that ``seed_fields`` writes back as exactly those fields, and with a
policy ``validate_policy`` accepts, as for a .sk (so never Kal1-S1 w=0).

Private key file (fixed 39 bytes): magic b"K1SK", then the same
version/scheme/params/w prefix, u16be run start and run length (zero
unless scheme 0x03), the 16-byte generator seed that regenerates the
keypair, and a big-endian CRC-32 of the matching public key file.

Messages are raw big-endian integers of ceil(msg_bits/8) bytes;
ciphertexts are one n-k bit row in the payload layout.  Every payload is
fields of one width, so one writer and one reader carry them all.  KAT
files are text, one record per line:

    params=<n>,<k>,<t>,<m> seed=<hex16B> msg=<hex> ct=<hex>
"""

from __future__ import annotations

import re
import struct
import zlib

from . import niederreiter, scheme
from .binmat import BinaryMatrix
from .cw import cw_encode
from .errors import FormatError, KatMismatch, ParameterError, PolicyError, RangeError
from .goppa import CodeParams
from .rng import SEED_BYTES, SeededRng

MAGIC_PUBLIC = b"K1PK"
MAGIC_PRIVATE = b"K1SK"
VERSION = 0x01

SCHEME_NIEDERREITER = 0x00
SCHEME_KAL1 = 0x01
SCHEME_KAL1_S1 = 0x02
SCHEME_KAL1_S2 = 0x03

SCHEME_NAMES = {
    SCHEME_NIEDERREITER: "niederreiter",
    SCHEME_KAL1: "kal1",
    SCHEME_KAL1_S2: "kal1-s2",
    SCHEME_KAL1_S1: "kal1-s1",
}

# both key files start with this header; a private key file goes on
# with run start, run length, the seed and a CRC-32 of the .pk bytes
_HEADER = struct.Struct(">4sBBHHHHB")
# the fields after magic and version, with their widths in bits
_HEADER_FIELDS = (("scheme id", 8), ("n", 16), ("k", 16), ("t", 16), ("m", 16), ("weight byte", 8))
_PRIVATE_TAIL = struct.Struct(">HH16sI")
_PRIVATE_SIZE = _HEADER.size + _PRIVATE_TAIL.size


# bit reversal of a byte: vector position 0 is the first bit on the wire
_REV8 = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))


def _reverse_bits(value: int, nbits: int) -> int:
    """Reverse an nbits-wide value: bit i moves to bit nbits-1-i, as an
    MSB-first field goes through the codec; FormatError if it is wider."""
    if value >> nbits:
        raise FormatError(f"value {value} does not fit in {nbits} bits")
    nbytes = (nbits + 7) // 8
    rev = int.from_bytes(value.to_bytes(nbytes, "little").translate(_REV8), "big")
    return rev >> (8 * nbytes - nbits)


def position_width(redundancy: int) -> int:
    """ceil(log2(n-k)), the field width for positions and run fields."""
    return (redundancy - 1).bit_length()


def _write_fields(fields: list[int] | tuple[int, ...], width: int) -> bytes:
    """The payload bytes of fields of one width: field 0 first, each
    field's bit 0 first, zero padded to a byte boundary.  FormatError
    for a value wider than its field."""
    for value in fields:
        if value >> width:
            raise FormatError(f"value {value} does not fit in {width} bits")
    nbits = width * len(fields)
    # join neighbours, so each level copies the vector once
    while len(fields) > 1:
        odd = [fields[-1]] if len(fields) % 2 else []
        fields = [a | b << width for a, b in zip(fields[::2], fields[1::2])] + odd
        width *= 2
    return (fields[0] if fields else 0).to_bytes((nbits + 7) // 8, "little").translate(_REV8)


def _read_fields(data: bytes, width: int, count: int) -> list[int]:
    """The count fields _write_fields wrote into data, width >= 1; data
    is exactly their bytes.  FormatError when a padding bit is set."""
    data = data.translate(_REV8)
    nbits = width * count
    if int.from_bytes(data, "little") >> nbits:
        raise FormatError("nonzero or oversized payload padding")
    mask = (1 << width) - 1
    return [
        int.from_bytes(data[i >> 3 : (i + width + 7) >> 3], "little") >> (i & 7) & mask
        for i in range(0, nbits, width)
    ]


# the wire form each Kal1 seed policy is published in
_KAL1_SCHEMES = {
    scheme.DenseSeed: SCHEME_KAL1,
    scheme.SparseSeed: SCHEME_KAL1_S1,
    scheme.RunSeed: SCHEME_KAL1_S2,
}


def scheme_id(key: scheme.PublicKey) -> int:
    if isinstance(key, niederreiter.NiederreiterPublicKey):
        return SCHEME_NIEDERREITER
    sid = _KAL1_SCHEMES.get(type(getattr(key, "policy", None)))
    if sid is None:
        raise FormatError(f"not a serializable public key: {type(key).__name__}")
    return sid


def scheme_payload_bits(sid: int, params: CodeParams, w: int) -> int:
    """Payload size in bits, before byte padding, of a scheme at params
    (w positions for Kal1-S1)."""
    nk = params.redundancy
    if sid == SCHEME_NIEDERREITER:
        return params.n * nk
    if sid == SCHEME_KAL1:
        return nk
    return (w if sid == SCHEME_KAL1_S1 else 2) * position_width(nk)


def payload_bits(key: scheme.PublicKey) -> int:
    """Exact payload size in bits, before byte padding."""
    sid = scheme_id(key)
    w = key.seed_row.bit_count() if sid == SCHEME_KAL1_S1 else 0
    return scheme_payload_bits(sid, key.params, w)


def seed_fields(sid: int, seed_row: int) -> list[int]:
    """The Kal1-S1 positions or the Kal1-S2 (start, length) of a seed
    row, as the payload holds them; FormatError when the row has no
    such form."""
    if sid == SCHEME_KAL1_S1:
        positions = [i for i in range(seed_row.bit_length()) if seed_row >> i & 1]
        # w = 0 names no valid policy, and a u8 holds no more than 255
        if not 1 <= len(positions) <= 255:
            raise FormatError("a Kal1-S1 row must have 1 to 255 ones")
        return positions
    start = (seed_row & -seed_row).bit_length() - 1
    run = seed_row.bit_length() - start
    if run < 2 or seed_row != ((1 << run) - 1) << start:
        raise FormatError("seed row is not a single run of at least two ones")
    return [start, run]


def _header_misfit(sid: int, params: CodeParams, w: int) -> str:
    """The refusal of the first header field wider than its bits, or ""."""
    values = (sid, params.n, params.k, params.t, params.m, w)
    for (name, bits), value in zip(_HEADER_FIELDS, values):
        # CodeParams admits n = 2^16, one more than 16 bits hold
        if not 0 <= value < 1 << bits:
            return f"a header field is out of range: {name} = {value} does not fit in {bits} bits"
    return ""


def _pack_header(magic: bytes, sid: int, params: CodeParams, w: int) -> bytes:
    misfit = _header_misfit(sid, params, w)
    if misfit:
        raise FormatError(misfit)
    return _HEADER.pack(magic, VERSION, sid, params.n, params.k, params.t, params.m, w)


def serialize_public_key(key: scheme.PublicKey) -> bytes:
    """The .pk bytes; a Kal1 key is written in the form its seed policy
    names, with the fields derived from its seed row.  Its constructor
    checked its form, so only a wire limit raises FormatError here."""
    params = key.params
    nk = params.redundancy
    sid = scheme_id(key)
    w = key.seed_row.bit_count() if sid == SCHEME_KAL1_S1 else 0
    if sid == SCHEME_NIEDERREITER:
        payload = _write_fields(key.check_t.row_ints, nk)
    elif sid == SCHEME_KAL1:
        payload = _write_fields([key.seed_row], nk)
    else:
        fields = seed_fields(sid, key.seed_row)
        width = position_width(nk)
        # a run length at or above 2^width raises here
        payload = _write_fields([_reverse_bits(f, width) for f in fields], width)
    return _pack_header(MAGIC_PUBLIC, sid, params, w) + payload


def _parse_header(data: bytes, magic: bytes):
    """The magic, version, scheme id, parameters and weight byte that
    start both key files."""
    if len(data) < _HEADER.size:
        raise FormatError("file shorter than the header")
    got_magic, version, sid, n, k, t, m, w = _HEADER.unpack_from(data)
    if got_magic != magic:
        raise FormatError(f"bad magic {got_magic!r}")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    try:
        params = CodeParams(n, k, t, m)
    except ParameterError as exc:
        raise FormatError(f"invalid parameters in header: {exc}") from exc
    return sid, params, w


def _header_policy(sid: int, w: int, run_start: int, run_len: int) -> scheme.SeedPolicy | None:
    """The seed policy a key header names (None for Niederreiter); each
    caller validates it itself.  FormatError unless the scheme id is known,
    the weight byte is zero outside Kal1-S1 and the run fields (a .pk's
    are in its payload) are zero outside Kal1-S2: the header rules."""
    if sid not in SCHEME_NAMES:
        raise FormatError(f"unknown scheme id {sid:#04x}")
    if sid != SCHEME_KAL1_S1 and w != 0:
        raise FormatError("weight byte must be zero outside Kal1-S1")
    if sid != SCHEME_KAL1_S2 and (run_start != 0 or run_len != 0):
        raise FormatError("run fields must be zero outside Kal1-S2")
    if sid == SCHEME_NIEDERREITER:
        return None
    if sid == SCHEME_KAL1:
        return scheme.DenseSeed()
    if sid == SCHEME_KAL1_S1:
        return scheme.SparseSeed(w)
    return scheme.RunSeed(run_start, run_len)


def parse_public_key(data: bytes) -> scheme.PublicKey:
    """Strict inverse of serialize_public_key; FormatError on any defect."""
    sid, params, w = _parse_header(data, MAGIC_PUBLIC)
    _header_policy(sid, w, 0, 0)  # the scheme id sets the payload size
    nk = params.redundancy
    nbytes = (scheme_payload_bits(sid, params, w) + 7) // 8
    body = data[_HEADER.size :]
    if len(body) != nbytes:
        raise FormatError(f"payload must be {nbytes} bytes, got {len(body)}")
    if sid == SCHEME_NIEDERREITER:
        rows = _read_fields(body, nk, params.n)
        return niederreiter.NiederreiterPublicKey(params, BinaryMatrix(params.n, nk, rows))
    start = run = 0
    if sid == SCHEME_KAL1:
        (seed_row,) = _read_fields(body, nk, 1)
    else:
        width = position_width(nk)
        count = w if sid == SCHEME_KAL1_S1 else 2
        fields = [_reverse_bits(f, width) for f in _read_fields(body, width, count)]
        if sid == SCHEME_KAL1_S1:
            seed_row = sum({1 << p for p in fields})  # a repeated position must not carry
        else:
            start, run = fields
            seed_row = ((1 << run) - 1) << start
    policy = _header_policy(sid, w, start, run)
    try:
        scheme.validate_policy(policy, nk)
    except PolicyError as exc:
        raise FormatError(f"invalid public key header: {exc}") from exc
    # the fields are the ones serialize_public_key writes for this row
    if sid != SCHEME_KAL1 and (seed_row >> nk or seed_fields(sid, seed_row) != fields):
        raise FormatError("payload fields are not the canonical form of a seed row")
    return scheme.Kal1PublicKey(params, seed_row, policy)


# --- private key files ---


def regenerate(sid: int, params: CodeParams, w: int, run_start: int, run_len: int, seed: bytes):
    """Rebuild the keypair a private file describes: (public key,
    private key).  The private key of every scheme is a GoppaCode with
    its positions in public order.  Fields the key header cannot carry
    are refused before anything is drawn, and so are fields the header
    rules refuse: an unknown scheme id would otherwise name Kal1-S2."""
    policy = _header_policy(sid, w, run_start, run_len)
    # a bad policy is reported first, as keygen does; else keygen checks it
    if policy is not None and _header_misfit(sid, params, w):
        scheme.validate_policy(policy, params.redundancy)
    _pack_header(MAGIC_PRIVATE, sid, params, w)
    rng = SeededRng(seed)
    if policy is None:
        return niederreiter.keygen(params, rng)
    return scheme.keygen(params, policy, rng)


def serialize_private_key(
    sid: int, params: CodeParams, w: int, run_start: int, run_len: int, seed: bytes, pk_bytes: bytes
) -> bytes:
    """The .sk bytes.  A header that load_private_key would refuse raises
    FormatError with its message instead, a seed policy that keygen
    refuses included; a valid policy keeps every field in its width."""
    if len(seed) != SEED_BYTES:
        raise FormatError(f"seed must be {SEED_BYTES} bytes")
    header = _pack_header(MAGIC_PRIVATE, sid, params, w)
    policy = _header_policy(sid, w, run_start, run_len)
    if policy is not None:
        try:
            scheme.validate_policy(policy, params.redundancy)
        except PolicyError as exc:
            raise FormatError(f"invalid private key header: {exc}") from exc
    return header + _PRIVATE_TAIL.pack(run_start, run_len, seed, zlib.crc32(pk_bytes))


def load_private_key(data: bytes):
    """Parse, regenerate and verify a private key file.

    Returns (scheme id, public key object, private key (a GoppaCode in
    public order), public key file bytes).  The CRC check catches seeds
    paired with the wrong public key.
    """
    if len(data) != _PRIVATE_SIZE:
        raise FormatError(f"private key file must be {_PRIVATE_SIZE} bytes, got {len(data)}")
    sid, params, w = _parse_header(data, MAGIC_PRIVATE)
    run_start, run_len, seed, crc = _PRIVATE_TAIL.unpack_from(data, _HEADER.size)
    try:
        # regenerate checks the header and its seed policy before any draw
        pub, priv = regenerate(sid, params, w, run_start, run_len, seed)
    except PolicyError as exc:
        raise FormatError(f"invalid private key header: {exc}") from exc
    pk_bytes = serialize_public_key(pub)
    if zlib.crc32(pk_bytes) != crc:
        raise FormatError("public key checksum mismatch")
    return sid, pub, priv, pk_bytes


# --- message and ciphertext byte forms ---


def message_bytes(params: CodeParams) -> int:
    return (scheme.cw_params(params).msg_bits + 7) // 8


def ciphertext_bytes(params: CodeParams) -> int:
    return (params.redundancy + 7) // 8


def encode_message(msg: int, params: CodeParams) -> bytes:
    """The message bytes; RangeError, as from decode_message, past the capacity."""
    return scheme.in_capacity(msg, scheme.cw_params(params)).to_bytes(message_bytes(params), "big")


def decode_message(data: bytes, params: CodeParams) -> int:
    if len(data) != message_bytes(params):
        raise FormatError(f"message must be {message_bytes(params)} bytes, got {len(data)}")
    return scheme.in_capacity(int.from_bytes(data, "big"), scheme.cw_params(params))


def encode_ciphertext(c: int, params: CodeParams) -> bytes:
    return _write_fields([c], params.redundancy)


def decode_ciphertext(data: bytes, params: CodeParams) -> int:
    if len(data) != ciphertext_bytes(params):
        raise FormatError(f"ciphertext must be {ciphertext_bytes(params)} bytes, got {len(data)}")
    return _read_fields(data, params.redundancy, 1)[0]


# --- KAT records ---

# hex fields are whole bytes, so bytes.fromhex accepts every matched field;
# the parameters are u16 values, so int() never sees an oversized field
_HEX = r"((?:[0-9a-f]{2})+)"
_U16 = r"(\d{1,5})"
_KAT_LINE = re.compile(
    rf"^params={_U16},{_U16},{_U16},{_U16} seed={_HEX} msg={_HEX} ct={_HEX}$"
)


def kat_generate(params: CodeParams, count: int, master_seed: bytes) -> str:
    """Deterministic records: per-record seed and message drawn from
    one master stream.  The ciphertext is the message's constant-weight
    word, which every key of these parameters gives (scheme.encrypt), so
    no key is built: kat_verify regenerates the dense key from the seed.
    Every record is one line ending in a newline, so no records are the
    empty text."""
    if count < 0:
        raise RangeError(f"record count must be non-negative, got {count}")
    rng = SeededRng(master_seed)
    cwp = scheme.cw_params(params)
    lines = []
    for _ in range(count):
        seed = rng.read(SEED_BYTES)
        msg = rng.randbits(cwp.msg_bits)
        ct = cw_encode(msg, cwp)
        lines.append(
            f"params={params.n},{params.k},{params.t},{params.m}"
            f" seed={seed.hex()}"
            f" msg={encode_message(msg, params).hex()}"
            f" ct={encode_ciphertext(ct, params).hex()}\n"
        )
    return "".join(lines)


def kat_verify(text: str) -> int:
    """Replay every record; returns the record count on success.

    Raises KatMismatch on the first diverging record and FormatError on
    malformed input.
    """
    count = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        mt = _KAT_LINE.match(line.strip())
        if mt is None:
            raise FormatError(f"line {lineno}: not a KAT record")
        n, k, t, m = (int(mt.group(i)) for i in range(1, 5))
        try:
            params = CodeParams(n, k, t, m)
            seed = bytes.fromhex(mt.group(5))
            if len(seed) != SEED_BYTES:
                raise FormatError(f"seed must be {SEED_BYTES} bytes")
            msg = decode_message(bytes.fromhex(mt.group(6)), params)
        except (ParameterError, FormatError, RangeError) as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        pub, priv = scheme.keygen(params, scheme.DenseSeed(), SeededRng(seed))
        ct_actual = encode_ciphertext(scheme.encrypt(pub, msg), params).hex()
        if ct_actual != mt.group(7):
            raise KatMismatch(lineno, "ct", mt.group(7), ct_actual)
        msg_back = scheme.decrypt(priv, decode_ciphertext(bytes.fromhex(mt.group(7)), params))
        if msg_back != msg:
            raise KatMismatch(lineno, "msg", mt.group(6), encode_message(msg_back, params).hex())
        count += 1
    return count
