"""The library's value classes: construction, validation, equality,
hashing, immutability and repr.

Messages embed ``{policy!r}`` and the like, so a repr is part of the
output, but a private key's repr names its params only; equality is by
exact type and fields; every value class, the private key and the rank
report included, is frozen and hashable, and a matrix's rows and a
code's support are tuples, so a key checked when built stays checked.
"""

import re

import pytest

from kal1 import isd
from kal1.binmat import BinaryMatrix
from kal1.cw import CwParams
from kal1.errors import DimensionMismatch, FormatError, ParameterError
from kal1.goppa import CodeParams
from kal1.niederreiter import NiederreiterPublicKey, keygen_private
from kal1.rng import SeededRng
from kal1.scheme import DenseSeed, Kal1PublicKey, RunSeed, SparseSeed

from conftest import TOY


# every value below is built when its test runs, so a faulty constructor
# fails its own cases and not the module's collection
def check_t():
    return BinaryMatrix(16, 8, [1 << (i % 8) for i in range(16)])


def report():
    return isd.RankReport(TOY, 8, 8, 7, 0)


def prange(syndrome, weight):
    return isd.prange_search(check_t(), syndrome, weight, 1, SeededRng(bytes(16)))


def private_key():
    return keygen_private(TOY, SeededRng(bytes(16)))


# The ids are written out, so removing an entry renames no other test;
# they keep the names that pytest once derived from each entry's position.
REPRS = {
    "CodeParams0": (lambda: CodeParams(16, 8, 2, 4), "CodeParams(n=16, k=8, t=2, m=4)"),
    "CwParams1": (lambda: CwParams(8, 2), "CwParams(length=8, weight=2)"),
    "DenseSeed2": (lambda: DenseSeed(), "DenseSeed()"),
    "SparseSeed3": (lambda: SparseSeed(4), "SparseSeed(weight=4)"),
    "RunSeed4": (lambda: RunSeed(0, 2), "RunSeed(start=0, length=2)"),
    "Kal1PublicKey5": (
        lambda: Kal1PublicKey(TOY, 5),
        "Kal1PublicKey(params=CodeParams(n=16, k=8, t=2, m=4), seed_row=5, policy=DenseSeed())",
    ),
    "Kal1PublicKey6": (
        lambda: Kal1PublicKey(TOY, 6, RunSeed(1, 2)),
        "Kal1PublicKey(params=CodeParams(n=16, k=8, t=2, m=4), seed_row=6,"
        " policy=RunSeed(start=1, length=2))",
    ),
    "NiederreiterPublicKey7": (
        lambda: NiederreiterPublicKey(TOY, check_t()),
        "NiederreiterPublicKey(params=CodeParams(n=16, k=8, t=2, m=4), check_t=BinaryMatrix(16x8))",
    ),
    "BinaryMatrix8": (check_t, "BinaryMatrix(16x8)"),
    "RankReport9": (
        report,
        "RankReport(params=CodeParams(n=16, k=8, t=2, m=4), cyclic_rank=8, check_rank=8,"
        " secondary_rank=7, full_rank_windows=0)",
    ),
    # neither the support nor g, which are the secret
    "GoppaCode10": (private_key, "GoppaCode(params=CodeParams(n=16, k=8, t=2, m=4))"),
}


@pytest.mark.parametrize("make, text", REPRS.values(), ids=REPRS)
def test_repr_is_the_class_and_its_fields(make, text):
    assert repr(make()) == text


# each pair built twice from the same arguments, so equal but not identical
FROZEN = {
    "<lambda>0": lambda: CodeParams(16, 8, 2, 4),
    "<lambda>1": lambda: CwParams(8, 2),
    "<lambda>2": lambda: DenseSeed(),
    "<lambda>3": lambda: SparseSeed(4),
    "<lambda>4": lambda: RunSeed(0, 2),
    "<lambda>5": lambda: Kal1PublicKey(TOY, 5, SparseSeed(2)),
    "<lambda>6": lambda: NiederreiterPublicKey(TOY, check_t()),
    "<lambda>7": check_t,  # the BinaryMatrix
    "<lambda>8": report,
    "private_key": private_key,
}


@pytest.mark.parametrize("make", FROZEN.values(), ids=FROZEN)
def test_equal_by_fields(make):
    a, b = make(), make()
    assert a is not b and a == b and not a != b


@pytest.mark.parametrize("make", FROZEN.values(), ids=FROZEN)
def test_frozen_values_hash_by_fields_and_refuse_assignment(make):
    a, b = make(), make()
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    names = ("n", "weight", "length", "syndrome", "seed_row", "check_t", "rows", "row_ints")
    for name in names + ("support", "goppa_poly", "notes", "unheard_of"):
        with pytest.raises(AttributeError):
            setattr(a, name, 1)
    with pytest.raises(AttributeError):
        del a.unheard_of
    assert a == b


def test_equality_needs_the_exact_type():
    # same field values, different classes
    assert RunSeed(2, 1) != CwParams(2, 1)
    assert CwParams(2, 1) != RunSeed(2, 1)
    assert SparseSeed(2) != RunSeed(2, 2)
    assert DenseSeed() != ()
    assert CodeParams(16, 8, 2, 4) != (16, 8, 2, 4)
    assert Kal1PublicKey(TOY, 5) != Kal1PublicKey(TOY, 5, SparseSeed(2))
    assert Kal1PublicKey(TOY, 5) != Kal1PublicKey(TOY, 4)


def test_positional_construction_and_the_dense_default():
    pk = Kal1PublicKey(TOY, 5)
    assert (pk.params, pk.seed_row, pk.policy) == (TOY, 5, DenseSeed())
    assert Kal1PublicKey(TOY, 5) == Kal1PublicKey(TOY, 5, DenseSeed())
    assert (CwParams(8, 2).length, CwParams(8, 2).weight) == (8, 2)
    assert (RunSeed(3, 4).start, RunSeed(3, 4).length, SparseSeed(5).weight) == (3, 4, 5)


VALIDATIONS = [
    (lambda: CodeParams(16, 8, 2, 3), ParameterError, "field degree must be in [4, 16], got 3"),
    (lambda: CodeParams(16, 8, 2, 17), ParameterError, "field degree must be in [4, 16], got 17"),
    (lambda: CodeParams(32, 24, 2, 4), ParameterError, "code length 32 exceeds field size 2^4"),
    (lambda: CodeParams(16, 12, 1, 4), ParameterError, "error capability must be at least 2, got 1"),
    (lambda: CodeParams(16, 9, 2, 4), ParameterError, "dimension must equal n - m*t = 8, got 9"),
    (lambda: CodeParams(8, 0, 2, 4), ParameterError, "parameters leave no message positions (k < 1)"),
    (lambda: CwParams(0, 0), ParameterError, "length must be at least 1"),
    (lambda: CwParams(4, 5), ParameterError, "weight must lie in [0, length]"),
    (lambda: CwParams(4, -1), ParameterError, "weight must lie in [0, length]"),
    (lambda: prange(-1, 2), DimensionMismatch, "syndrome negative or longer than n-k bits"),
    (lambda: prange(1 << 8, 2), DimensionMismatch, "syndrome negative or longer than n-k bits"),
    (lambda: prange(5, -1), DimensionMismatch, "negative weight bound"),
    (lambda: prange(5, 9), ParameterError, "weight bound exceeds n-k"),
    (lambda: Kal1PublicKey(TOY, -1), FormatError, "seed row negative or longer than n-k bits"),
    (lambda: Kal1PublicKey(TOY, 1 << 8), FormatError, "seed row negative or longer than n-k bits"),
    (
        lambda: Kal1PublicKey(TOY, 0b111, SparseSeed(2)),
        FormatError,
        "seed row does not match its policy SparseSeed(weight=2)",
    ),
    (
        lambda: Kal1PublicKey(TOY, 0b1110, RunSeed(0, 3)),
        FormatError,
        "seed row does not match its policy RunSeed(start=0, length=3)",
    ),
    (
        lambda: Kal1PublicKey(TOY, 0, RunSeed(-1, 0)),
        FormatError,
        "seed row does not match its policy RunSeed(start=-1, length=0)",
    ),
    (
        lambda: NiederreiterPublicKey(TOY, BinaryMatrix(16, 8, [1] * 16)),
        FormatError,
        "check matrix is not in systematic form",
    ),
    # the identity's rows, but one column too wide
    (
        lambda: NiederreiterPublicKey(TOY, BinaryMatrix(16, 9, check_t().row_ints)),
        FormatError,
        "check matrix is not in systematic form",
    ),
]


@pytest.mark.parametrize("make, error, message", VALIDATIONS, ids=[m for _, _, m in VALIDATIONS])
def test_constructor_validation_messages(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()
