"""Field and polynomial arithmetic: the field family's property and its
rows (``differential.check_field``, against shift and reduce), the rows
of the packed and Ben-Or families at small and odd m, and the checks of
the references themselves."""

import functools
import operator
import random

import pytest
from hypothesis import given

from kal1.errors import ParameterError
from kal1.gf2m import REDUCTION_POLYS, Field, split

import oracles
from differential import FIELDS, check_field, check_irreducible, check_packed, check_patterson, field_elements
from oracles import field_mul, field_pow, poly_eval, poly_trim


def test_reduction_polys_are_primitive():
    # Field builds its tables from the powers of x, so x must generate
    assert sorted(REDUCTION_POLYS) == list(range(4, 17))
    for m, poly in REDUCTION_POLYS.items():
        assert poly.bit_length() == m + 1 and poly & 1
        assert oracles.gf2_poly_is_irreducible(poly)
        assert oracles.find_generator(m, poly) == 0b10


def test_field_construction_rejects_bad_inputs():
    for m in (3, 17, 0, -4):
        with pytest.raises(ParameterError, match="extension degree"):
            Field(m)


@pytest.mark.parametrize("m", range(4, 17))
def test_field_owns_the_split_its_pick_tables_and_the_taps(m):
    field = Field(m)
    assert (field.lo_bits, field.lo_mask) == (m // 2, (1 << (m // 2)) - 1)
    lo, hi = field.picks
    assert (len(lo), len(hi)) == (1 << (m // 2), 1 << (m - m // 2))
    for c in range(field.order):
        assert list(lo[c & field.lo_mask] + hi[c >> field.lo_bits]) == [s for s in range(m) if c >> s & 1]
    assert field.taps == tuple(s for s in range(m) if REDUCTION_POLYS[m] >> s & 1)
    assert field.red == REDUCTION_POLYS[m] ^ (1 << m) == sum(1 << s for s in field.taps)
    # split cuts its tables where the pick tables are cut
    split_lo, split_hi = split(field, [1 << s for s in range(m)])
    assert (len(split_lo), len(split_hi)) == (len(lo), len(hi))
    assert all(split_lo[c & field.lo_mask] ^ split_hi[c >> field.lo_bits] == c for c in range(field.order))


@given(field_elements())
def test_mul_matches_schoolbook_oracle(case):
    check_field(*case)


def test_mul_exhaustive_m4():
    for a in range(16):
        for b in range(16):
            check_field(FIELDS[4], a, b)


def test_add_is_xor():
    # addition is XOR, so a product is additive over it: every pair at
    # m = 5, whose bits split 2 + 3
    for a in range(32):
        for b in range(32):
            check_field(FIELDS[5], a, b)
            assert field_mul(FIELDS[5], a, a ^ b) == field_mul(FIELDS[5], a, a) ^ field_mul(FIELDS[5], a, b)


def test_mul_examples():
    f = FIELDS[4]
    assert field_mul(f, 0x2, 0x9) == 0x1
    assert [field_mul(f, a, 1) for a in range(16)] == list(range(16))
    assert [field_mul(f, a, 0) for a in range(16)] == [0] * 16


def test_inverse_examples_and_exhaustive_search_oracle():
    f = FIELDS[4]
    assert (f.inv(0x2), f.inv(1)) == (0x9, 1)
    for a in range(1, 16):
        assert f.inv(a) == next(b for b in range(16) if field_mul(f, a, b) == 1)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_inverse_and_order_exhaustive_small_fields():
    for f in (FIELDS[m] for m in range(4, 9)):
        for a in range(f.order):
            check_field(f, a, a)
            assert field_pow(f, a, f.order - 1) == (a != 0)


def test_field_axioms_random_triples():
    rnd = random.Random(7)
    for m in (10, 13):
        for _ in range(2000):
            check_field(FIELDS[m], rnd.randrange(1 << m), rnd.randrange(1 << m))


def test_field_sqrt():
    # every element of GF(2^12) is a square
    for a in range(1 << 12):
        check_field(FIELDS[12], a, 1)


def test_poly_eval_examples():
    f = FIELDS[4]
    assert [poly_eval(f, [0xC], x) for x in range(16)] == [0xC] * 16
    g = [1, 1, 1]  # x^2 + x + 1
    assert poly_eval(f, g, 0) == 1
    assert poly_eval(f, g, 0x2) == field_mul(f, 0x2, 0x2) ^ 0x2 ^ 1 == 0x7


def test_poly_eval_term_by_term_oracle():
    f = FIELDS[8]
    rnd = random.Random(5)
    for _ in range(300):
        coeffs = [rnd.randrange(256) for _ in range(rnd.randrange(1, 7))]
        x = rnd.randrange(256)
        terms = [field_mul(f, c, field_pow(f, x, j)) for j, c in enumerate(coeffs)]
        assert poly_eval(f, coeffs, x) == functools.reduce(operator.xor, terms)


def test_poly_inv_mod():
    # every s of degree below an irreducible quadratic g, 0 included
    f = FIELDS[4]
    g = [0xF, 0x9, 1]
    assert check_irreducible(f, g)
    for s in range(256):
        check_packed(f, [s & 15, s >> 4], g)


def test_is_irreducible_against_brute_force():
    # the reference against trial division by every monic of degree <= t/2
    f = FIELDS[4]
    rnd = random.Random(29)
    verdicts = []
    for _ in range(120):
        g = [rnd.randrange(16) for _ in range(rnd.randrange(2, 5))] + [1]
        verdicts.append(check_irreducible(f, g))
        assert verdicts[-1] == oracles.brute_force_irreducible(f, g)
    assert any(verdicts) and not all(verdicts)


def test_sqrt_mod_g():
    rnd = random.Random(31)
    for m, t in ((4, 2), (8, 4), (10, 3)):
        g = oracles.monic_irreducible(FIELDS[m], t, rnd)
        for _ in range(20):
            s = poly_trim([rnd.randrange(1 << m) for _ in range(t)]) or [1]
            check_patterson(FIELDS[m], g, s, t // 2)
