"""Baseline Niederreiter scheme over binary Goppa codes.

A binary Goppa code with its columns permuted is the same Goppa code
with its support listed in the permuted order, so the private key is a
plain ``GoppaCode`` whose support, values of g and check columns are
already in public order.  Keygen draws permutations until R, the right
block of that check (its last n-k columns), is invertible.  The
scrambler is s = R^-1, so s times the check ends in an identity block:
the public key is that systematic check, transposed.  The systematic
form is what makes the cyclic construction in the scheme module cancel
correctly.

Decryption needs no scrambler: R*c is the syndrome of (0^k | c) under
the private check, so it decodes that syndrome directly.  So
``keygen_private`` builds the private key alone, testing each
permutation draw's right block with one rank computation;
``public_key`` builds the public matrix from the private key when it is
wanted.  ``keygen`` and ``keygen_private`` make the same random draws,
so both yield the same key for a seed.
"""

from __future__ import annotations

from .binmat import BinaryMatrix, random_permutation
from .errors import FormatError, Frozen, GenerationFailure
from .goppa import RESAMPLE_LIMIT, CodeParams, GoppaCode, generate_code, scatter
from .rng import SeededRng


class NiederreiterPublicKey(Frozen):
    """The transposed systematic check, n x (n-k) and ending in the identity; else FormatError."""

    _fields = ("params", "check_t")

    def __init__(self, params: CodeParams, check_t: BinaryMatrix):
        nk = params.redundancy
        if check_t.cols != nk or check_t.row_ints[params.k :] != tuple(1 << i for i in range(nk)):
            raise FormatError("check matrix is not in systematic form")
        self.__dict__.update(params=params, check_t=check_t)


def keygen_private(params: CodeParams, rng: SeededRng) -> GoppaCode:
    """Sample a code and a permutation whose right block is invertible;
    the key is the code with its positions in the permuted order.

    Permutations whose right block is singular are redrawn, up to the
    shared resample limit.
    """
    code = generate_code(params, rng)
    cols = code.parity_check()
    nk = params.redundancy
    for _ in range(RESAMPLE_LIMIT):
        dest = random_permutation(params.n, rng)
        # the rows of R^T are the permuted columns k..n-1
        if BinaryMatrix(nk, nk, scatter(cols, dest)[params.k :]).rank() == nk:
            return code.permuted(dest)
    raise GenerationFailure("no permutation yielded an invertible right block")


def keygen(params: CodeParams, rng: SeededRng) -> tuple[NiederreiterPublicKey, GoppaCode]:
    """A private key and its systematic public key."""
    priv = keygen_private(params, rng)
    return public_key(priv), priv


def public_key(priv: GoppaCode) -> NiederreiterPublicKey:
    """The transposed systematic check, from private material.

    Row i of check_t is column i of the check, read as a row, times
    s^T = (R^T)^-1.  For the last n-k columns, whose rows form R^T,
    that product is the identity, so those rows are written as is.
    """
    params = priv.params
    k, nk = params.k, params.redundancy
    cols = priv.parity_check()
    s_t = BinaryMatrix(nk, nk, cols[k:]).invert()
    top = BinaryMatrix(k, nk, cols[:k]).mul(s_t).row_ints
    return NiederreiterPublicKey(params, BinaryMatrix(params.n, nk, [*top, *(1 << i for i in range(nk))]))


def decrypt(priv: GoppaCode, c: int) -> int:
    """Recover the error vector: R*c is the syndrome of (0^k | c), so
    decode that.

    A negative ciphertext, or one longer than n-k bits, raises
    DimensionMismatch in the syndrome.
    """
    return priv.decode(priv.syndrome(c << priv.params.k))
