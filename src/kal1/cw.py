"""Constant-weight word codec.

Bijection between message integers and binary words of fixed length
and Hamming weight, by colexicographic combinadics: the word with
support {c_1 < c_2 < ... < c_w} has rank sum_j C(c_j, j).  Rank order
therefore matches integer order, and the usable message space is the
largest power of two not exceeding C(length, weight).
"""

from __future__ import annotations

import math
from functools import cached_property

from .errors import DimensionMismatch, Frozen, ParameterError, RangeError, WeightError


class CwParams(Frozen):
    _fields = ("length", "weight")

    def __init__(self, length: int, weight: int):
        if length < 1:
            raise ParameterError("length must be at least 1")
        if not 0 <= weight <= length:
            raise ParameterError("weight must lie in [0, length]")
        # derived, so outside _fields: capacity is the number of words,
        # C(length, weight), and msg_bits = floor(log2(capacity)) the
        # usable message width
        capacity = math.comb(length, weight)
        msg_bits = capacity.bit_length() - 1
        self.__dict__.update(length=length, weight=weight, capacity=capacity, msg_bits=msg_bits)

    @cached_property
    def _binom(self) -> list[list[int]]:
        # Pascal triangle clipped to the weight, computed once per params;
        # only the table-based test oracle reads it, and the benchmark's
        # tracer counts its builds
        table = [[0] * (self.weight + 1) for _ in range(self.length + 1)]
        for c in range(self.length + 1):
            table[c][0] = 1
            for j in range(1, min(c, self.weight) + 1):
                table[c][j] = table[c - 1][j - 1] + table[c - 1][j]
        return table


def cw_encode(msg: int, p: CwParams) -> int:
    """Map a message integer to its weight-p.weight word (as an int).

    Accepts any rank below the full capacity; messages meant to round
    trip must stay below 2^msg_bits, which cw_decode enforces.

    The support is found from the top down with one running binomial
    b = C(c, j): a step down in c is C(c-1, j) = C(c, j)(c-j)/c and a
    step to the next index is C(c-1, j-1) = C(c, j) j/c, both exact.
    """
    if not 0 <= msg < p.capacity:
        raise RangeError(f"rank must be below C({p.length}, {p.weight}) = {p.capacity}")
    rank = msg
    v = 0
    c = p.length - 1
    b = math.comb(c, p.weight)
    for j in range(p.weight, 0, -1):
        # largest c with C(c, j) <= rank; supports are strictly decreasing
        while b > rank:
            b = b * (c - j) // c
            c -= 1
        if not b:
            # c = j - 1 and rank = 0: the rest of the support is 0..j-1
            return v | ((1 << j) - 1)
        v |= 1 << c
        rank -= b
        b = b * j // c
        c -= 1
    return v


def cw_decode(word: int, p: CwParams) -> int:
    """Colex rank of the word's support; inverse of cw_encode."""
    if word < 0 or word.bit_length() > p.length:
        raise DimensionMismatch(f"word negative or longer than {p.length} bits")
    if word.bit_count() != p.weight:
        raise WeightError(f"word weight {word.bit_count()} != {p.weight}")
    rank = 0
    j = 1
    v = word
    while v:
        low = v & -v
        rank += math.comb(low.bit_length() - 1, j)
        j += 1
        v ^= low
    if rank >= (1 << p.msg_bits):
        raise RangeError("word lies outside the usable message space")
    return rank
