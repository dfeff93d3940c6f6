"""Constant-weight codec against a full-enumeration colex oracle and
against the Pascal-table codec it replaced (``oracles``)."""

import math
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kal1.cw import CwParams, cw_decode, cw_encode
from kal1.errors import DimensionMismatch, ParameterError, RangeError, WeightError

import oracles


def word_of(support) -> int:
    return sum(1 << c for c in support)


def test_params_validation():
    with pytest.raises(ParameterError):
        CwParams(0, 0)
    with pytest.raises(ParameterError):
        CwParams(4, 5)
    p = CwParams(8, 2)
    assert p.capacity == comb(8, 2) == 28
    assert p.msg_bits == 4


def test_sizes_are_computed_once_at_construction(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return comb(*args)

    monkeypatch.setattr(math, "comb", counted)
    p = CwParams(500, 50)
    assert calls == [(500, 50)]
    for _ in range(100):
        assert (p.capacity, p.msg_bits) == (comb(500, 50), comb(500, 50).bit_length() - 1)
    assert len(calls) == 1
    # derived, so equality, hashing and repr see only the fields
    assert p == CwParams(500, 50) and hash(p) == hash(CwParams(500, 50))
    assert repr(p) == "CwParams(length=500, weight=50)"


def test_encode_examples():
    p = CwParams(8, 2)
    assert cw_encode(0, p) == word_of({0, 1})
    assert cw_encode(27, p) == word_of({6, 7})
    # weight == length: single word, all ones
    p_full = CwParams(5, 5)
    assert p_full.capacity == 1 and p_full.msg_bits == 0
    assert cw_encode(0, p_full) == 0b11111


def test_decode_examples():
    p = CwParams(8, 2)
    assert cw_decode(word_of({0, 1}), p) == 0
    with pytest.raises(WeightError):
        cw_decode(1, p)
    with pytest.raises(WeightError):
        cw_decode(0b111, p)
    with pytest.raises(DimensionMismatch):
        cw_decode(1 << 8 | 1, p)


@pytest.mark.parametrize("word", [-1, -7, -(1 << 10)])
def test_decode_negative_word_is_dimension_mismatch(word):
    # bit_count() ignores the sign, so a negative word must be refused
    # before the rank loop, which would never reach zero
    with pytest.raises(DimensionMismatch):
        cw_decode(word, CwParams(10, 3))


def test_encode_range_errors():
    p = CwParams(8, 2)
    with pytest.raises(RangeError):
        cw_encode(28, p)
    with pytest.raises(RangeError):
        cw_encode(-1, p)
    # {3, 7} has colex rank C(3,1) + C(7,2) = 24 >= 2^4: outside the
    # usable message space even though the weight is right
    with pytest.raises(RangeError):
        cw_decode(word_of({3, 7}), p)


def test_bijectivity_exhaustive_small_params():
    for length in range(1, 17):
        for weight in range(0, min(4, length) + 1):
            p = CwParams(length, weight)
            order = oracles.colex_order(length, weight)
            seen = set()
            for rank, supp in enumerate(order):
                word = word_of(supp)
                assert cw_encode(rank, p) == word
                assert word not in seen
                seen.add(word)
                if rank < (1 << p.msg_bits):
                    assert cw_decode(word, p) == rank
            assert len(seen) == p.capacity


def check_against_table(rank: int, p: CwParams) -> None:
    word = cw_encode(rank, p)
    assert word == oracles.table_cw_encode(rank, p)
    if rank < 1 << p.msg_bits:
        assert cw_decode(word, p) == oracles.table_cw_decode(word, p) == rank
    else:
        with pytest.raises(RangeError):
            cw_decode(word, p)
        with pytest.raises(RangeError):
            oracles.table_cw_decode(word, p)


@pytest.mark.parametrize("length", range(1, 13))
def test_codec_matches_table_oracle_exhaustively(length):
    # every weight from 0 to length (so length 1 and weight = length too)
    # and every rank below the capacity, the unusable top ranks included
    for weight in range(length + 1):
        p = CwParams(length, weight)
        for rank in range(p.capacity):
            check_against_table(rank, p)


# the headline codec and the stress set's (n - k, t)
LARGE = [CwParams(500, 50), CwParams(768, 64)]


@pytest.mark.parametrize("p", LARGE, ids=lambda p: f"{p.length}-{p.weight}")
def test_codec_matches_table_oracle_at_boundary_ranks(p):
    for rank in (0, 1, (1 << p.msg_bits) - 1, 1 << p.msg_bits, p.capacity - 1):
        check_against_table(rank, p)


@pytest.mark.parametrize("p", LARGE, ids=lambda p: f"{p.length}-{p.weight}")
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_codec_matches_table_oracle_at_scale(p, data):
    check_against_table(data.draw(st.integers(0, p.capacity - 1)), p)
