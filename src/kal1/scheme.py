"""The Kal1 scheme: cyclic public keys over the Niederreiter engine.

The published matrix is cyclic_t = [rotations of a seed row; identity],
which equals the systematic Niederreiter check_t plus a masking matrix
whose bottom block is zero.  Error vectors are zero on their first k
positions, so the masking term vanishes and ciphertexts decrypt through
the plain Niederreiter chain.  A consequence worth knowing: the
ciphertext equals the constant-weight word itself.  That property is
inherent to the construction and is asserted by the test suite rather
than hidden; ``encrypt`` relies on it for every public key kind and
never builds or reads a published matrix.

There is one Kal1 public key class: the seed row plus the seed policy
it was drawn under.  Kal1-S1 (sorted positions of the ones) and Kal1-S2
(one run of ones) are ways to publish that row; the policy picks one
and ``keyio`` writes it.

The seed row is public, so the private key is the inner Niederreiter
private key itself (the Goppa code with its positions in public order)
and decryption is Niederreiter decryption plus the structural checks.
Key generation is private-only: it does not build the inner public
matrix, which only Niederreiter public keys (``niederreiter.public_key``)
and the analysis in ``isd`` need.  The draws are those of a full
Niederreiter keygen.
"""

from __future__ import annotations

from . import niederreiter
from .binmat import BinaryMatrix
from .cw import CwParams, cw_decode, cw_encode
from .errors import FormatError, Frozen, PolicyError, RangeError
from .goppa import CodeParams, GoppaCode
from .rng import SeededRng


def rotate_right(v: int, shift: int, width: int) -> int:
    """Cyclic right rotation: position p moves to (p + shift) mod width.

    With position 0 printed leftmost this reads as a right rotation;
    on the int layout it is a left shift with wraparound.
    """
    shift %= width
    if shift == 0:
        return v
    return ((v << shift) | (v >> (width - shift))) & ((1 << width) - 1)


# --- seed-row policies ---


class DenseSeed(Frozen):
    """Uniform random seed row."""


class SparseSeed(Frozen):
    """Seed row with a fixed number of uniformly placed ones."""

    _fields = ("weight",)

    def __init__(self, weight: int):
        self.__dict__.update(weight=weight)


class RunSeed(Frozen):
    """Seed row that is a single contiguous run of ones."""

    _fields = ("start", "length")

    def __init__(self, start: int, length: int):
        self.__dict__.update(start=start, length=length)


SeedPolicy = DenseSeed | SparseSeed | RunSeed


def validate_policy(policy: SeedPolicy, redundancy: int) -> None:
    if isinstance(policy, SparseSeed):
        if not 1 <= policy.weight <= min(redundancy, 255):
            raise PolicyError(f"sparse weight must be in [1, {min(redundancy, 255)}]")
    elif isinstance(policy, RunSeed):
        if policy.length < 2:
            raise PolicyError("run length must be at least 2")
        if policy.start < 0 or policy.start + policy.length > redundancy:
            raise PolicyError("run must fit inside the seed row without wrapping")
        # the wire format stores the length in ceil(log2(n-k)) bits
        if policy.length >= 1 << (redundancy - 1).bit_length():
            raise PolicyError("run length does not fit the serialized length field")
    elif not isinstance(policy, DenseSeed):
        raise PolicyError(f"unknown seed policy {policy!r}")


def draw_seed_row(policy: SeedPolicy, redundancy: int, rng: SeededRng) -> int:
    """The seed row a policy draws; the caller has validated the policy."""
    if isinstance(policy, DenseSeed):
        return rng.randbits(redundancy)
    if isinstance(policy, SparseSeed):
        return sum(1 << i for i in rng.sample(redundancy, policy.weight))
    return ((1 << policy.length) - 1) << policy.start


# --- key material ---


class Kal1PublicKey(Frozen):
    """The seed row and the policy it was drawn under, which also picks
    its wire form.  FormatError unless the row has at most n-k bits and
    its policy's form: w ones for SparseSeed(w), that run for RunSeed."""

    _fields = ("params", "seed_row", "policy")

    def __init__(self, params: CodeParams, seed_row: int, policy: SeedPolicy = DenseSeed()):
        if seed_row >> params.redundancy:  # a negative row too
            raise FormatError("seed row negative or longer than n-k bits")
        fits = True
        if isinstance(policy, SparseSeed):
            fits = seed_row.bit_count() == policy.weight
        elif isinstance(policy, RunSeed):
            start, length = policy.start, policy.length
            fits = 0 <= start and 0 <= length and seed_row == ((1 << length) - 1) << start
        if not fits:
            raise FormatError(f"seed row does not match its policy {policy!r}")
        self.__dict__.update(params=params, seed_row=seed_row, policy=policy)


PublicKey = niederreiter.NiederreiterPublicKey | Kal1PublicKey


def expand_cyclic(pk: Kal1PublicKey) -> BinaryMatrix:
    """The published n x (n-k) matrix cyclic_t: k rotations of the seed
    row above an identity.  Only the analysis needs it."""
    params = pk.params
    nk = params.redundancy
    rows = [rotate_right(pk.seed_row, i, nk) for i in range(params.k)]
    rows.extend(1 << r for r in range(nk))
    return BinaryMatrix(params.n, nk, rows)


def cw_params(params: CodeParams) -> CwParams:
    """The codec for a code: weight-t words of length n-k."""
    return CwParams(params.redundancy, params.t)


def keygen(
    params: CodeParams, policy: SeedPolicy, rng: SeededRng
) -> tuple[Kal1PublicKey, GoppaCode]:
    """Inner Niederreiter private key, then a seed row drawn per policy.

    The draw order (support, Goppa polynomial, permutations, seed row)
    is pinned: private key files regenerate from the 16-byte seed alone.
    """
    validate_policy(policy, params.redundancy)
    priv = niederreiter.keygen_private(params, rng)
    seed_row = draw_seed_row(policy, params.redundancy, rng)
    return Kal1PublicKey(params, seed_row, policy), priv


def in_capacity(msg: int, cwp: CwParams) -> int:
    """msg, if it lies in [0, 2^msg_bits), the range decryption returns;
    RangeError otherwise: encrypt's rule and keyio's message byte form's."""
    if msg < 0 or msg >> cwp.msg_bits:
        raise RangeError(f"message exceeds the {cwp.msg_bits}-bit capacity")
    return msg


def encrypt(pub: PublicKey, msg: int) -> int:
    """The ciphertext of a message under any public key kind.

    The error is the message's weight-t word behind k zeros, and every
    published matrix ends in an identity block, so the ciphertext is
    the word itself.  Messages must pass in_capacity, the range
    decryption returns; anything else raises its RangeError.
    """
    cwp = cw_params(pub.params)
    return cw_encode(in_capacity(msg, cwp), cwp)


def decrypt(priv: GoppaCode, c: int) -> int:
    """Niederreiter decryption plus the structural checks, for every
    public key kind.

    The recovered error must be zero on its first k positions and have
    weight exactly t; anything else marks a forged or damaged
    ciphertext and raises FormatError.
    """
    params = priv.params
    e = niederreiter.decrypt(priv, c)
    if e & ((1 << params.k) - 1):
        raise FormatError("decoded error touches the zero prefix")
    word = e >> params.k
    if word.bit_count() != params.t:
        raise FormatError(f"decoded word weight {word.bit_count()} != {params.t}")
    try:
        return cw_decode(word, cw_params(params))
    except RangeError as exc:
        raise FormatError("decoded word outside the usable message space") from exc


# the benchmark's tracer wraps decryption under this name
decrypt_with = decrypt
