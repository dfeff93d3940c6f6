import contextlib
import signal
from pathlib import Path

import pytest
from hypothesis import Phase, settings

from kal1 import keyio, niederreiter, scheme
from kal1.binmat import BinaryMatrix
from kal1.goppa import CodeParams, generate_code
from kal1.rng import SeededRng

# tests/mutants.py runs the tests under this profile: the first failing
# example is reported unshrunk, and the first failing explicit example
# ends the test, so a killed mutant stops early
settings.register_profile(
    "mutants",
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
    database=None,
    report_multiple_bugs=False,
)

TOY = CodeParams(16, 8, 2, 4)
MID = CodeParams(256, 192, 8, 8)
TOY_KAT = Path(__file__).parent / "data" / "toy.kat"
# 8 records at MID under one fixed seed, pinning the draws through whole keys
MID_KAT = Path(__file__).parent / "data" / "mid.kat"
# an irreducible quartic over GF(2^8); its square is the Goppa
# polynomial of caller-built mid codes with a repeated factor
SQUARE_Q = [166, 88, 69, 184, 1]
# scheme id, sparse weight, run start and run length of each key kind
KINDS = {
    "niederreiter": (keyio.SCHEME_NIEDERREITER, 0, 0, 0),
    "kal1": (keyio.SCHEME_KAL1, 0, 0, 0),
    "kal1-s1": (keyio.SCHEME_KAL1_S1, 3, 0, 0),
    "kal1-s2": (keyio.SCHEME_KAL1_S2, 0, 1, 4),
}


def seed_bytes(tag: int) -> bytes:
    return tag.to_bytes(16, "big")


@contextlib.contextmanager
def time_limit(seconds):
    """Fail the test by assertion once it runs past seconds: a loop that
    never ends (a division that never cancels its top coefficient, a
    keystream read that comes back short) would otherwise never return."""

    def expire(signum, frame):
        raise AssertionError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# dense views of bit matrices and permutations, for hand cases and oracles


def identity(n: int) -> BinaryMatrix:
    return BinaryMatrix(n, n, [1 << i for i in range(n)])


def from_dense(entries: list[list[int]]) -> BinaryMatrix:
    cols = len(entries[0]) if entries else 0
    return BinaryMatrix(len(entries), cols, [sum(b << j for j, b in enumerate(row)) for row in entries])


def entry(m: BinaryMatrix, i: int, j: int) -> int:
    return (m.row_ints[i] >> j) & 1


def perm_matrix(dest: list[int]) -> BinaryMatrix:
    """The matrix with its (i, dest[i]) entries set."""
    return BinaryMatrix(len(dest), len(dest), [1 << d for d in dest])


def perm_inverse(dest: list[int]) -> list[int]:
    inv = [0] * len(dest)
    for i, d in enumerate(dest):
        inv[d] = i
    return inv


def key_perm(params: CodeParams, seed: bytes, priv) -> list[int]:
    """The permutation keygen drew for a seed, read off the key: position
    i of the code generate_code draws first is position dest[i] of priv."""
    where = {alpha: i for i, alpha in enumerate(priv.support)}
    return [where[alpha] for alpha in generate_code(params, SeededRng(seed)).support]


@pytest.fixture(scope="session")
def toy_code():
    return generate_code(TOY, SeededRng(seed_bytes(1)))


@pytest.fixture(scope="session")
def toy_nied():
    return niederreiter.keygen(TOY, SeededRng(seed_bytes(1)))


@pytest.fixture(scope="session")
def toy_kal1():
    return scheme.keygen(TOY, scheme.DenseSeed(), SeededRng(seed_bytes(7)))


@pytest.fixture(scope="session")
def mid_kal1():
    return scheme.keygen(MID, scheme.DenseSeed(), SeededRng(seed_bytes(0x11)))
