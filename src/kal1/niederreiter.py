"""Baseline Niederreiter scheme over binary Goppa codes.

A key is a code plus a column permutation under which the right block
R, the last n-k columns of the permuted binary check, is invertible.
The scrambler is s = R^-1, so s times the permuted check ends in an
identity block: the public key is that systematic check, transposed.
The systematic form is what makes the cyclic construction in the
scheme module cancel correctly.

The private key holds R by its columns, as the rows of right_t = R^T.
Decryption needs only R: the inner syndrome R*c is the XOR of the
columns c selects.  So ``keygen_private`` builds the private key alone:
each permutation draw reorders the check's columns and tests R with a
rank computation.  ``public_key`` builds the public matrix from the
private key when it is wanted.  ``keygen`` and ``keygen_private`` make
the same random draws, so both yield the same key for a seed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .binmat import BinaryMatrix, Permutation, random_permutation, vec_times_matrix
from .errors import GenerationFailure
from .goppa import RESAMPLE_LIMIT, CodeParams, GoppaCode, generate_code
from .rng import SeededRng


@dataclass
class NiederreiterPublicKey:
    params: CodeParams
    check_t: BinaryMatrix  # n x (n-k); bottom (n-k) rows are the identity


@dataclass
class NiederreiterPrivateKey:
    code: GoppaCode
    right_t: BinaryMatrix  # (n-k) x (n-k): row i is column k+i of the permuted check
    perm: Permutation  # length n

    @property
    def params(self) -> CodeParams:
        return self.code.params


def _permuted_columns(code: GoppaCode, perm: Permutation) -> list[int]:
    """Columns of the permuted binary check: column i moves to perm.map[i]."""
    out = [0] * len(perm.map)
    for col, dest in zip(code.parity_check().column_ints, perm.map):
        out[dest] = col
    return out


def keygen_private(params: CodeParams, rng: SeededRng) -> NiederreiterPrivateKey:
    """Sample a code and a permutation whose right block is invertible.

    Permutations whose right block is singular are redrawn, up to the
    shared resample limit.
    """
    code = generate_code(params, rng)
    nk = params.redundancy
    for _ in range(RESAMPLE_LIMIT):
        perm = random_permutation(params.n, rng)
        # the rows of R^T are the permuted columns k..n-1
        right_t = BinaryMatrix(nk, nk, _permuted_columns(code, perm)[params.k :])
        if right_t.rank() == nk:
            return NiederreiterPrivateKey(code, right_t, perm)
    raise GenerationFailure("no permutation yielded an invertible right block")


def keygen(params: CodeParams, rng: SeededRng) -> tuple[NiederreiterPublicKey, NiederreiterPrivateKey]:
    """A private key and its systematic public key."""
    priv = keygen_private(params, rng)
    return public_key(priv), priv


def public_key(priv: NiederreiterPrivateKey) -> NiederreiterPublicKey:
    """The transposed systematic check, from private material.

    Row i of check_t is column i of the permuted check, read as a row,
    times s^T = (R^T)^-1.  For the last n-k columns, whose rows form
    R^T, that product is the identity, so those rows are written as is.
    """
    params = priv.params
    k, nk = params.k, params.redundancy
    cols = _permuted_columns(priv.code, priv.perm)
    top = BinaryMatrix(k, nk, cols[:k]).mul(priv.right_t.invert()).row_ints
    return NiederreiterPublicKey(params, BinaryMatrix(params.n, nk, top + [1 << i for i in range(nk)]))


def decrypt(priv: NiederreiterPrivateKey, c: int) -> int:
    """Recover the error vector: unscramble, decode, unpermute.

    The inner syndrome R*c is c times R^T; a ciphertext longer than n-k
    bits raises DimensionMismatch there.
    """
    inner_syndrome = vec_times_matrix(c, priv.right_t)
    permuted_error = priv.code.decode(inner_syndrome)
    return priv.perm.apply(permuted_error)
