"""Untrusted bytes get a Kal1Error, never another exception.

Each property takes a valid toy or mid input (a .pk of every wire form,
a ciphertext, a message or a KAT record), applies one to four edits to
it (a bit flip, a byte overwrite, a cut or a few bytes appended) and
hands the result to the reader.  The reader may accept it or raise any
Kal1Error; anything else, and any traceback from the CLI, fails.
Decryption gets ints the same way: random, negative, too long, or a
valid ciphertext with bits flipped.  .sk files are left out: a 39-byte
header can name parameters whose regeneration takes seconds before the
checksum refuses it.  Kal1 keys built from random rows and policies are
refused when built, refused by the writer for a wire limit, or read back.
"""

import contextlib
import functools
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from kal1 import cli, keyio, niederreiter, scheme
from kal1.errors import FormatError, Kal1Error
from kal1.rng import SeededRng
from conftest import MID, MID_KAT, TOY, TOY_KAT, seed_bytes


def _edit(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for op, i, b in edits:
        if op == "cut":
            del out[i % (len(out) + 1) :]
        elif op == "grow":
            out += bytes([b]) * (1 + i % 4)
        elif out:
            i %= len(out)
            out[i] = out[i] ^ 1 << b % 8 if op == "flip" else b
    return bytes(out)


def mutated(inputs: list[bytes], byte=st.integers(0, 255)):
    """One of inputs with one to four edits applied; byte draws the
    values written or appended."""
    edits = st.tuples(
        st.sampled_from(("flip", "set", "cut", "grow")),
        # an index into the input, or past it; small ones hit the header
        st.one_of(st.integers(0, 20), st.integers(0, 1 << 12)),
        byte,
    )
    return st.builds(_edit, st.sampled_from(inputs), st.lists(edits, min_size=1, max_size=4))


@functools.cache
def public_key_files() -> list[bytes]:
    """A .pk of every wire form at toy and at mid."""
    out = []
    for params in (TOY, MID):
        nied, _ = niederreiter.keygen(params, SeededRng(seed_bytes(1)))
        nk = params.redundancy
        keys = [
            nied,
            scheme.Kal1PublicKey(params, 0b10110001, scheme.DenseSeed()),
            scheme.Kal1PublicKey(params, 0b10110001, scheme.SparseSeed(4)),
            scheme.Kal1PublicKey(params, 0b111 << (nk - 3), scheme.RunSeed(nk - 3, 3)),
        ]
        out += [keyio.serialize_public_key(key) for key in keys]
    return out


def _kal1_errors_only(call, *args):
    try:
        call(*args)
    except Kal1Error:
        pass


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_public_key_reader_raises_only_kal1_errors(data):
    _kal1_errors_only(keyio.parse_public_key, data.draw(mutated(public_key_files())))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((TOY, MID)), st.data())
def test_ciphertext_and_message_readers_raise_only_kal1_errors(params, data):
    ciphertexts = [keyio.encode_ciphertext(c, params) for c in (0, 1, (1 << params.redundancy) - 1)]
    top = (1 << scheme.cw_params(params).msg_bits) - 1
    messages = [keyio.encode_message(msg, params) for msg in (0, 1, top)]
    _kal1_errors_only(keyio.decode_ciphertext, data.draw(mutated(ciphertexts)), params)
    _kal1_errors_only(keyio.decode_message, data.draw(mutated(messages)), params)


def ciphertext_ints(pub: scheme.Kal1PublicKey):
    """Random ints of the ciphertext width, negative ints, ints past the
    width, and valid ciphertexts with one to four bits flipped."""
    nk = pub.params.redundancy
    top = (1 << scheme.cw_params(pub.params).msg_bits) - 1
    valid = st.integers(0, top).map(lambda msg: scheme.encrypt(pub, msg))
    flips = st.lists(st.integers(0, nk - 1), min_size=1, max_size=4)
    return st.one_of(
        st.integers(0, (1 << nk) - 1),
        st.integers(max_value=-1),
        st.integers(1 << nk, 1 << (nk + 64)),
        st.builds(lambda c, bits: functools.reduce(lambda v, b: v ^ 1 << b, bits, c), valid, flips),
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_decrypt_of_any_int_raises_only_kal1_errors(toy_kal1, mid_kal1, data):
    pub, priv = data.draw(st.sampled_from((toy_kal1, mid_kal1)))
    c = data.draw(ciphertext_ints(pub))
    try:
        msg = scheme.decrypt(priv, c)
    except Kal1Error:
        return
    # the ciphertext is the message's word, so an accepted one re-encrypts to itself
    assert scheme.encrypt(pub, msg) == c


def kal1_key_fields(params):
    """A seed row and a policy for a Kal1 key at params.  The row is
    random, a set of positions or a run, up to one bit past n-k, or
    negative; the policy is the row's own form or drawn apart from it."""
    nk = params.redundancy
    own = st.one_of(
        st.integers(-4, (1 << (nk + 1)) - 1).map(lambda row: (row, scheme.DenseSeed())),
        st.sets(st.integers(0, nk), max_size=nk + 1).map(
            lambda ps: (sum(1 << p for p in ps), scheme.SparseSeed(len(ps)))
        ),
        st.tuples(st.integers(0, nk), st.integers(0, nk + 1)).map(
            lambda sl: (((1 << sl[1]) - 1) << sl[0], scheme.RunSeed(*sl))
        ),
    )
    field = st.integers(-1, nk + 1)
    drawn = st.one_of(
        st.just(scheme.DenseSeed()), st.builds(scheme.SparseSeed, field), st.builds(scheme.RunSeed, field, field)
    )
    return st.one_of(own, st.tuples(own.map(lambda pair: pair[0]), drawn))


def has_its_form(params, row, policy) -> bool:
    """The key constructor's rule, restated on sets of positions."""
    if row < 0 or row.bit_length() > params.redundancy:
        return False
    ones = {p for p in range(row.bit_length()) if row >> p & 1}
    if isinstance(policy, scheme.SparseSeed):
        return len(ones) == policy.weight
    if isinstance(policy, scheme.RunSeed):
        start, length = policy.start, policy.length
        return start >= 0 and length >= 0 and ones == set(range(start, start + length))
    return True


def past_the_wire(params, policy) -> bool:
    """The writer's rule for a key that was built: a Kal1-S1 weight byte
    holds 1 to 255 positions, a Kal1-S2 run is at least two ones long
    and its length fits the ceil(log2(n-k))-bit field."""
    if isinstance(policy, scheme.SparseSeed):
        return not 1 <= policy.weight <= 255
    if isinstance(policy, scheme.RunSeed):
        return not 2 <= policy.length < 1 << keyio.position_width(params.redundancy)
    return False


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((TOY, MID)), st.data())
def test_a_kal1_key_is_refused_when_built_or_written_or_reads_back(params, data):
    # exactly one: the constructor refuses the row's form, the writer
    # refuses a wire limit, or the bytes read back as the same key
    row, policy = data.draw(kal1_key_fields(params))
    try:
        key = scheme.Kal1PublicKey(params, row, policy)
    except FormatError:
        assert not has_its_form(params, row, policy)
        return
    assert has_its_form(params, row, policy)
    try:
        blob = keyio.serialize_public_key(key)
    except FormatError:
        assert past_the_wire(params, policy)
        return
    assert not past_the_wire(params, policy)
    assert keyio.parse_public_key(blob) == key


@functools.cache
def kat_records() -> list[bytes]:
    return [path.read_bytes().splitlines(keepends=True)[0] for path in (TOY_KAT, MID_KAT)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kat_verify_raises_only_kal1_errors(data):
    # mostly characters of the record syntax, so that edits also make
    # well-formed records that mismatch; latin-1 maps each byte to one
    # character, so the others reach any of the first 256 code points
    byte = st.one_of(st.sampled_from(b"0123456789abcdef,= "), st.integers(0, 255))
    text = data.draw(mutated(kat_records(), byte)).decode("latin-1")
    _kal1_errors_only(keyio.kat_verify, text)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cli_inspect_of_a_damaged_public_key_prints_no_traceback(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "damaged.pk"
    path.write_bytes(data.draw(mutated(public_key_files())))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["inspect", "--key", str(path)])
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().startswith(f"error: {code} ")
    else:
        assert out.getvalue().startswith("public key, scheme ")
