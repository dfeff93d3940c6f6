"""Field and polynomial arithmetic against independent oracles."""

import random

import pytest

from kal1.errors import ParameterError
from kal1.gf2m import (
    REDUCTION_POLYS,
    Field,
    euclid,
    is_irreducible,
    modulus,
    mul_mod,
    mul_tables,
    poly_eea_bounded,
    poly_inv_mod,
    poly_sqrt_mod,
    split,
    sqrt_halves,
    sqrt_x_mod,
)

import oracles
from oracles import (
    field_mul,
    field_pow,
    find_generator,
    gf2_poly_is_irreducible,
    poly_add,
    poly_deg,
    poly_eea,
    poly_eval,
    poly_gcd,
    poly_mod,
    pack,
    poly_mul,
    poly_sqr,
    poly_trim,
    unpack,
)


def schoolbook_mul(a: int, b: int, m: int, red: int) -> int:
    """Oracle: convolution over GF(2), then long division by red."""
    prod = 0
    for i in range(m):
        if (a >> i) & 1:
            prod ^= b << i
    for i in range(2 * m - 2, m - 1, -1):
        if (prod >> i) & 1:
            prod ^= red << (i - m)
    return prod


def test_reduction_polys_are_primitive():
    # Field builds its tables from the powers of x, so x must generate
    assert sorted(REDUCTION_POLYS) == list(range(4, 17))
    for m, poly in REDUCTION_POLYS.items():
        assert poly.bit_length() == m + 1 and poly & 1
        assert gf2_poly_is_irreducible(poly)
        assert find_generator(m, poly) == 0b10


def test_field_construction_rejects_bad_inputs():
    for m in (3, 17, 0, -4):
        with pytest.raises(ParameterError, match="extension degree"):
            Field(m)


@pytest.mark.parametrize("m", range(4, 17))
def test_field_owns_the_split_its_pick_tables_and_the_taps(m):
    field = Field(m)
    assert field.lo_bits == m // 2
    assert field.lo_mask == (1 << (m // 2)) - 1
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


def test_add_is_xor():
    # field addition is plain XOR: multiplication and squaring are
    # additive over it, exhaustively in GF(16)
    f = Field(4)
    for a in range(16):
        for b in range(16):
            assert field_mul(f, a ^ b, a ^ b) == field_mul(f, a, a) ^ field_mul(f, b, b)
            for c in range(16):
                assert field_mul(f, a, b ^ c) == field_mul(f, a, b) ^ field_mul(f, a, c)


def test_mul_examples():
    f = Field(4)
    assert field_mul(f, 0x2, 0x9) == 0x1
    for a in range(16):
        assert field_mul(f, a, 1) == a
        assert field_mul(f, a, 0) == 0


def test_mul_matches_schoolbook_oracle():
    rnd = random.Random(101)
    for m in (4, 8, 10, 13):
        f = Field(m)
        red = REDUCTION_POLYS[m]
        for _ in range(2000):
            a = rnd.randrange(f.order)
            b = rnd.randrange(f.order)
            assert field_mul(f, a, b) == schoolbook_mul(a, b, m, red)


def test_mul_exhaustive_m4():
    f = Field(4)
    red = REDUCTION_POLYS[4]
    for a in range(16):
        for b in range(16):
            assert field_mul(f, a, b) == schoolbook_mul(a, b, 4, red)


def test_inverse_examples_and_exhaustive_search_oracle():
    f = Field(4)
    assert f.inv(0x2) == 0x9
    assert f.inv(1) == 1
    for a in range(1, 16):
        brute = next(b for b in range(1, 16) if field_mul(f, a, b) == 1)
        assert f.inv(a) == brute
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_inverse_and_order_exhaustive_small_fields():
    for m in range(4, 9):
        f = Field(m)
        for a in range(1, f.order):
            assert field_mul(f, a, f.inv(a)) == 1
            assert field_pow(f, a, f.order - 1) == 1


def test_field_axioms_random_triples():
    f = Field(10)
    rnd = random.Random(7)
    for _ in range(10_000):
        a, b, c = (rnd.randrange(f.order) for _ in range(3))
        assert field_mul(f, a, b) == field_mul(f, b, a)
        assert field_mul(f, field_mul(f, a, b), c) == field_mul(f, a, field_mul(f, b, c))
        assert field_mul(f, a, b ^ c) == field_mul(f, a, b) ^ field_mul(f, a, c)


def test_poly_eval_examples():
    f = Field(4)
    for x in range(16):
        assert poly_eval(f, [0xC], x) == 0xC
    g = [1, 1, 1]  # x^2 + x + 1
    assert poly_eval(f, g, 0) == 1
    expected = field_mul(f, 0x2, 0x2) ^ 0x2 ^ 1
    assert expected == 0x7
    assert poly_eval(f, g, 0x2) == 0x7


def test_poly_eval_term_by_term_oracle():
    f = Field(8)
    rnd = random.Random(5)
    for _ in range(300):
        coeffs = [rnd.randrange(256) for _ in range(rnd.randrange(1, 7))]
        x = rnd.randrange(256)
        acc = 0
        for j, c in enumerate(coeffs):
            acc ^= field_mul(f, c, field_pow(f, x, j))
        assert poly_eval(f, coeffs, x) == acc


def test_poly_mul_and_divmod_roundtrip():
    f = Field(6)
    rnd = random.Random(11)
    for _ in range(400):
        a = poly_trim([rnd.randrange(64) for _ in range(rnd.randrange(1, 8))])
        b = poly_trim([rnd.randrange(64) for _ in range(rnd.randrange(1, 8))])
        if not b:
            continue
        # one round of the kernel's Euclid, bounded below b's degree, and
        # the long division it replaced, with the quotient collected by a
        # tag below both operands; the product modulo x^N is a plain product
        r, q = euclid(f, pack(f, a), pack(f, b), poly_deg(b) - 1)
        s = 6 * (len(a) + 1)
        assert oracles.remainder(f, pack(f, a) << s, pack(f, b) << s | 1) == r << s | q
        assert poly_deg(unpack(f, r)) < poly_deg(b)
        x_n = modulus(f, 1 << (6 * (len(a) + len(b))))
        assert unpack(f, mul_mod(f, mul_tables(f, q), pack(f, b), x_n) ^ r) == a


def test_eea_postcondition():
    f = Field(8)
    rnd = random.Random(13)
    for _ in range(300):
        a = poly_trim([rnd.randrange(256) for _ in range(rnd.randrange(1, 9))])
        b = poly_trim([rnd.randrange(256) for _ in range(rnd.randrange(1, 9))])
        d, u, v = poly_eea(f, a, b)
        assert poly_add(poly_mul(f, u, a), poly_mul(f, v, b)) == d
        if a or b:
            assert d
            assert not poly_mod(f, a, d)
            assert not poly_mod(f, b, d)
            assert d == poly_gcd(f, a, b)


def test_bounded_eea_identity_and_degrees():
    f = Field(8)
    rnd = random.Random(17)
    for _ in range(200):
        t = rnd.randrange(4, 12)
        g = [rnd.randrange(256) for _ in range(t)] + [1]
        r = poly_trim([rnd.randrange(256) for _ in range(rnd.randrange(1, t + 1))])
        if not r:
            continue
        a, b = (unpack(f, v) for v in poly_eea_bounded(f, pack(f, g), pack(f, r), t // 2))
        assert poly_deg(a) <= t // 2
        # a = b*r mod g
        assert poly_mod(f, poly_add(a, poly_mul(f, b, r)), g) == []


def test_poly_inv_mod():
    f = Field(4)
    g = [0xF, 0x9, 1]  # irreducible degree 2
    assert is_irreducible(f, pack(f, g))
    rnd = random.Random(19)
    for _ in range(200):
        s = poly_trim([rnd.randrange(16) for _ in range(2)])
        if not s:
            continue
        inv = unpack(f, poly_inv_mod(f, pack(f, s), pack(f, g)))
        assert poly_mod(f, poly_mul(f, s, inv), g) == [1]
    with pytest.raises(ZeroDivisionError):
        poly_inv_mod(f, 0, pack(f, g))


def brute_force_irreducible(field: Field, f: list[int]) -> bool:
    """Oracle: trial division by every monic polynomial of degree <= t/2."""
    t = poly_deg(f)

    def polys_of_degree(d):
        for low in range(field.order**d):
            coeffs = []
            v = low
            for _ in range(d):
                coeffs.append(v % field.order)
                v //= field.order
            yield coeffs + [1]

    for d in range(1, t // 2 + 1):
        for cand in polys_of_degree(d):
            if poly_mod(field, f, cand) == []:
                return False
    return True


def test_is_irreducible_against_brute_force():
    f = Field(4)
    rnd = random.Random(29)
    checked_irreducible = 0
    for _ in range(120):
        t = rnd.randrange(2, 5)
        g = [rnd.randrange(16) for _ in range(t)] + [1]
        expected = brute_force_irreducible(f, g)
        assert is_irreducible(f, pack(f, g)) == expected
        checked_irreducible += expected
    assert checked_irreducible > 0


def test_sqrt_mod_g():
    rnd = random.Random(31)
    for m, t in ((4, 2), (8, 4), (10, 3)):
        f = Field(m)
        while True:
            g = [rnd.randrange(f.order) for _ in range(t)] + [1]
            if is_irreducible(f, pack(f, g)):
                break
        mod = modulus(f, pack(f, g))
        sx = sqrt_x_mod(f, pack(f, g), mod)
        assert poly_mod(f, poly_sqr(f, unpack(f, sx)), g) == [0, 1]
        for _ in range(100):
            s = poly_trim([rnd.randrange(f.order) for _ in range(t)])
            root = unpack(f, poly_sqrt_mod(f, pack(f, s), mod, mul_tables(f, sx)))
            assert poly_mod(f, poly_sqr(f, root), g) == poly_mod(f, s, g)


def test_field_sqrt():
    # sqrt_halves roots each coefficient: a constant's root, at every element
    for m in (4, 8, 12):
        f = Field(m)
        for a in range(f.order):
            root, odd = sqrt_halves(f, a)
            assert odd == 0
            assert field_mul(f, root, root) == a
