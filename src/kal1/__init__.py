"""Kal1: a short-public-key variant of the Niederreiter cryptosystem.

Library layout: gf2m (field arithmetic; one field per degree m), binmat
(GF(2) linear algebra), goppa (codes and Patterson decoding), cw
(constant-weight codec), niederreiter (baseline scheme; its private key,
a GoppaCode with its positions in public order, is the private key of
every scheme), scheme (Kal1 itself; one public key class whose seed
policy picks the wire form), keyio (the one wire codec: keys,
ciphertexts, messages and KATs), isd (Prange probe, masking matrix and
rank checks; imported by no other module, and by the CLI only for
inspect --rank-report), cli.  Every value class, the private key and the
rank report included, is an immutable errors.Frozen, equal and hashing by
its fields, so importing the package loads no dataclasses.
"""

from .cw import CwParams, cw_decode, cw_encode
from .errors import (
    DecodingFailure,
    DimensionMismatch,
    FormatError,
    GenerationFailure,
    Kal1Error,
    KatMismatch,
    ParameterError,
    PolicyError,
    RangeError,
    SingularMatrixError,
    WeightError,
)
from .goppa import CodeParams, GoppaCode, generate_code
from .rng import SeededRng, fresh_seed
from .scheme import (
    DenseSeed,
    Kal1PublicKey,
    RunSeed,
    SparseSeed,
    decrypt,
    encrypt,
    expand_cyclic,
    keygen,
)

__version__ = "0.1.0"

__all__ = [
    "CodeParams",
    "CwParams",
    "DecodingFailure",
    "DenseSeed",
    "DimensionMismatch",
    "FormatError",
    "GenerationFailure",
    "GoppaCode",
    "Kal1Error",
    "Kal1PublicKey",
    "KatMismatch",
    "ParameterError",
    "PolicyError",
    "RangeError",
    "RunSeed",
    "SeededRng",
    "SingularMatrixError",
    "SparseSeed",
    "WeightError",
    "cw_decode",
    "cw_encode",
    "decrypt",
    "encrypt",
    "expand_cyclic",
    "fresh_seed",
    "generate_code",
    "keygen",
    "__version__",
]
