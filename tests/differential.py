"""One differential property per kernel family, each against one
reference in ``oracles``.

The kernel test modules feed their cases to these checks: each family
has a Hypothesis strategy over m = 4..16 (or over shapes, seeds and
widths), and a test whose name pins an edge (f_0 = 0, alpha = 0, odd m,
degrees 2-3 and the degree-4 cut, a product by its smallest factor's
degree, a width or a row count) hands its rows to the same check.  A
check fails by assertion; where the reference raises, the kernel must
raise the same class.
"""

import random

import pytest
from hypothesis import strategies as st

from kal1 import keyio
from kal1.binmat import BinaryMatrix, eliminate
from kal1.errors import FormatError, Kal1Error
from kal1.gf2m import (
    Field,
    euclid,
    is_irreducible,
    modulus,
    mul_mod,
    mul_tables,
    poly_eea_bounded,
    poly_inv_mod,
    poly_sqrt_mod,
    power_planes,
    roots,
    sqrt_halves,
    sqrt_x_mod,
    squares,
)
from kal1.rng import SeededRng

import oracles
from conftest import time_limit
from oracles import field_mul, pack, poly_add, poly_deg, poly_mul, poly_trim

FIELDS = {m: Field(m) for m in range(4, 17)}


def outcome(fn, *args):
    """The value, or what fn raised: a ZeroDivisionError as its class, a
    Kal1Error as its class and message."""
    try:
        return fn(*args)
    except ZeroDivisionError:
        return ZeroDivisionError
    except Kal1Error as exc:
        return type(exc), str(exc)


def coefficients(field):
    """Any coefficient, with 0 and 2^m - 1 likely."""
    top = field.order - 1
    return st.integers(0, top) | st.just(0) | st.just(top)


def any_field(ms=tuple(FIELDS)):
    return st.sampled_from(sorted(ms)).map(FIELDS.__getitem__)


@st.composite
def field_elements(draw):
    """A field and two of its elements."""
    field = draw(any_field())
    return field, draw(coefficients(field)), draw(coefficients(field))


# --- field arithmetic, against shift and reduce ---


def check_field(field, a, b):
    """a*b and 1/a from the field's tables, and the square root of a from
    sqrt_halves, against shift and reduce in GF(2)[x] / REDUCTION_POLYS[m]."""
    m, red = field.m, field.reduction_poly
    assert field_mul(field, a, b) == oracles.gf2m_mul(a, b, m, red)
    if a:
        assert oracles.gf2m_mul(a, field.inv(a), m, red) == 1
    root, odd = sqrt_halves(field, a)
    assert odd == 0 and oracles.gf2m_mul(root, root, m, red) == a


# --- packed polynomials, against the list references ---


def check_packed(field, f, g=(), dbound=-1):
    """The packed kernels on raw lists f and g against the list
    references: f^2 and f's square-root halves; f*g; Euclid on (f, g)
    and on (g, f) to dbound; f's inverse modulo g; and for g != 0, g's
    division of f and (f mod g)*f modulo g, while g = 0 has no modulus.
    All within 2 s, so a division that never cancels its top
    coefficient fails by assertion."""
    f, g = list(f), list(g)
    f_, g_ = pack(field, f), pack(field, g)
    with time_limit(2):
        assert squares(field, f_) == pack(field, oracles.poly_sqr(field, f))
        halves = tuple(pack(field, [oracles.field_sqrt(field, c) for c in f[i::2]]) for i in (0, 1))
        assert sqrt_halves(field, f_) == halves
        x_n = modulus(field, 1 << field.m * (len(f) + len(g)))
        assert mul_mod(field, mul_tables(field, f_), g_, x_n) == pack(field, poly_mul(field, f, g))
        for a, b in ((f, g), (g, f)):
            r, u, v = oracles.poly_eea_bounded(field, a, b, dbound)
            assert poly_deg(r) <= dbound and poly_add(poly_mul(field, u, a), poly_mul(field, v, b)) == r
            assert euclid(field, pack(field, a), pack(field, b), dbound) == (pack(field, r), pack(field, v))
        inverse = outcome(lambda: pack(field, oracles.poly_inv_mod(field, f, g)))
        assert outcome(poly_inv_mod, field, f_, g_) == inverse
        if not poly_trim(g):
            with pytest.raises(ZeroDivisionError):
                modulus(field, g_)
            return
        q, r = oracles.poly_divmod(field, f, g)
        assert euclid(field, f_, g_, poly_deg(poly_trim(g)) - 1) == (pack(field, r), pack(field, q))
        product = pack(field, oracles.poly_mod(field, poly_mul(field, r, f), g))
        assert mul_mod(field, mul_tables(field, pack(field, r)), f_, modulus(field, g_)) == product


@st.composite
def poly_pairs(draw, max_len=12):
    """A field, two raw coefficient lists (trailing zeros allowed; about
    half the time of one degree, and about half the time sharing a
    factor of degree 1 to 3) and a Euclid bound from -1 to 12."""
    field = draw(any_field())
    coeff = coefficients(field)
    if draw(st.booleans()):
        d = draw(st.integers(0, max_len - 1))
        lead = st.integers(1, field.order - 1) | st.just(field.order - 1)
        f, g = (draw(st.lists(coeff, min_size=d, max_size=d)) + [draw(lead)] for _ in range(2))
    else:
        f, g = (draw(st.lists(coeff, max_size=max_len)) for _ in range(2))
    if draw(st.booleans()):
        h = draw(st.lists(coeff, min_size=1, max_size=3)) + [draw(st.integers(1, field.order - 1))]
        f, g = poly_mul(field, h, f), poly_mul(field, h, g)
    pad = st.integers(0, 2)
    return field, f + [0] * draw(pad), g + [0] * draw(pad), draw(st.integers(-1, 12))


def check_patterson(field, g, s, dbound):
    """Patterson's packed stages, in the decoder's order, on a monic
    irreducible g and a syndrome polynomial s != 0 of lower degree,
    against the list references: sqrt(x) mod g, T = 1/s mod g,
    sqrt(T + x) mod g, its Euclid split at dbound, and the locator
    a^2 + x*b^2."""
    m = field.m
    g_ = pack(field, g)
    mod = modulus(field, g_)
    sqrt_x, expected_sqrt_x = sqrt_x_mod(field, g_, mod), oracles.sqrt_x_mod(field, g)
    assert sqrt_x == pack(field, expected_sqrt_x)
    t_poly, expected = poly_inv_mod(field, pack(field, s), g_), oracles.poly_inv_mod(field, s, g)
    assert t_poly == pack(field, expected)
    r = poly_sqrt_mod(field, t_poly ^ 1 << m, mod, mul_tables(field, sqrt_x))
    expected = oracles.poly_sqrt_mod(field, poly_add(expected, [0, 1]), g, expected_sqrt_x)
    assert r == pack(field, expected)
    a, b = poly_eea_bounded(field, g_, r, dbound)
    ra, _, rb = oracles.poly_eea_bounded(field, g, expected, dbound)
    assert (a, b) == (pack(field, ra), pack(field, rb))
    sigma = poly_add(oracles.poly_sqr(field, ra), [0] + oracles.poly_sqr(field, rb))
    assert squares(field, a) | squares(field, b) << m == pack(field, sigma)


@st.composite
def patterson_cases(draw):
    """A field, a monic irreducible g of degree 2 to 8, a syndrome
    polynomial of lower degree (top zeros allowed, never 0) and a Euclid
    bound of -1 or t // 2."""
    field = draw(any_field((4, 8, 10, 12, 16)))
    t = draw(st.integers(2, 8))
    g = oracles.monic_irreducible(field, t, random.Random(draw(st.integers(0, 2**32))))
    s = draw(st.lists(coefficients(field), min_size=1, max_size=t))
    s[0] = s[0] or 1
    return field, g, s, draw(st.sampled_from([-1, t // 2]))


# --- Ben-Or's is_irreducible, against the level-by-level test ---


def check_irreducible(field, f) -> bool:
    """is_irreducible on packed f decides as the level-by-level oracle
    does on the list; returns the verdict."""
    expected = oracles.is_irreducible(field, f)
    assert is_irreducible(field, pack(field, f)) is expected
    return expected


def product(field, degrees, rnd):
    """A product of random monic irreducibles of the given degrees."""
    out = [1]
    for d in degrees:
        out = poly_mul(field, out, oracles.monic_irreducible(field, d, rnd))
    return out


@st.composite
def irreducibility_cases(draw):
    """A field and a coefficient list: raw (any leading coefficient,
    trailing zeros), monic of degree 1 to 12, or a product of two or
    three monic irreducibles of degrees 1 to 6, whose smallest degree is
    the level at which Ben-Or's test rejects it."""
    field = draw(any_field())
    kind = draw(st.sampled_from(["raw", "monic", "product"]))
    if kind == "product":
        degrees = draw(st.lists(st.integers(1, 6), min_size=2, max_size=3))
        return field, product(field, degrees, random.Random(draw(st.integers(0, 2**32))))
    t = draw(st.integers(kind == "monic", 12))
    f = draw(st.lists(coefficients(field), min_size=t, max_size=t))
    if kind == "monic":
        return field, f + [1]
    return field, f + [draw(st.integers(1, field.order - 1))] + [0] * draw(st.integers(0, 3))


# --- power planes and roots, against Horner at every lane ---


def lanes_to_check(field, rnd):
    """Every lane up to m = 12; above, 300 of them and both ends."""
    q1 = field.order - 1
    return range(q1) if field.m <= 12 else sorted({0, 1, q1 - 1, *rnd.sample(range(q1), 300)})


def check_planes(field, f, lanes):
    """power_planes puts f(alpha^e) in lane e of its m planes, and roots
    sets bit e where that is 0 and bit 2^m - 1 where f(0) = f_0 is 0,
    against Horner (oracles.poly_eval)."""
    packed = pack(field, f)
    planes, found = power_planes(field, packed), roots(field, packed)
    q1 = field.order - 1
    assert all(p >> q1 == 0 for p in planes)
    assert found >> q1 == (oracles.poly_eval(field, f, 0) == 0)
    for e in lanes:
        value = oracles.poly_eval(field, f, field.exp_table[e])
        assert sum((p >> e & 1) << b for b, p in enumerate(planes)) == value, e
        assert found >> e & 1 == (value == 0), e


@st.composite
def plane_cases(draw):
    """A field, a coefficient list of degree 0 to 12 with f_0 = 0 likely,
    and the lanes to check."""
    field = draw(any_field())
    f = draw(st.lists(coefficients(field), min_size=1, max_size=13))
    if draw(st.booleans()):
        f[0] = 0
    return field, f, lanes_to_check(field, random.Random(draw(st.integers(0, 2**32))))


# --- GF(2) matrices, against the row-at-a-time references ---


def random_matrix(rnd, rows, cols, density=0.5):
    if density == 0.5:
        return BinaryMatrix(rows, cols, [rnd.getrandbits(cols) for _ in range(rows)])
    bits = [[rnd.random() < density for _ in range(cols)] for _ in range(rows)]
    return BinaryMatrix(rows, cols, [sum(b << j for j, b in enumerate(r)) for r in bits])


def with_dependent_row(rnd, m):
    """m with one row replaced by the XOR of a random subset of the others."""
    rows = list(m.row_ints)
    i = rnd.randrange(len(rows))
    rows[i] = 0
    for j, r in enumerate(m.row_ints):
        if j != i and rnd.random() < 0.5:
            rows[i] ^= r
    return BinaryMatrix(m.rows, m.cols, rows)


def check_matrix(rnd, m):
    """rank, invert (the singular column's message too), a product with a
    random right factor, transpose and eliminate, on the rows and on the
    rows tagged with their index past the width (as isd's window solve
    runs it), against the row-at-a-time references."""
    assert m.rank() == oracles.rank(m)
    assert outcome(m.invert) == outcome(oracles.invert, m)
    right = random_matrix(rnd, m.cols, rnd.randint(0, 70))
    assert m.mul(right) == oracles.mul(m, right)
    assert m.transpose() == oracles.transpose(m)
    tagged = [r | 1 << (m.cols + i) for i, r in enumerate(m.row_ints)]
    for rows in (list(m.row_ints), tagged):
        assert eliminate(rows, m.cols, None) == oracles.eliminate(rows, m.cols)


@st.composite
def matrices(draw):
    """A matrix of 0 to 70 rows and columns, dense or sparse, with a
    dependent row about half the time, and the generator for its factor."""
    rnd = random.Random(draw(st.integers(0, 2**32)))
    rows, cols = draw(st.integers(0, 70)), draw(st.integers(0, 70))
    m = random_matrix(rnd, rows, cols, draw(st.sampled_from([0.5, 0.1])))
    return rnd, with_dependent_row(rnd, m) if rows and draw(st.booleans()) else m


# --- the keystream draws, against the value-by-value reader ---


def check_draws(seed, draws):
    """SeededRng makes each draw the unbuffered reference makes, and
    leaves its stream where the reference leaves it."""
    rng, ref = SeededRng(seed), oracles.UnbufferedRng(seed)
    for draw, *args in draws:
        assert getattr(rng, draw)(*args) == getattr(ref, draw)(*args), (draw, args)
    assert rng.read(16) == ref.read(16)


def _sized_sample(n):
    return st.tuples(st.just("sample"), st.just(n), st.integers(0, n))


DRAW_SEQUENCES = st.lists(
    st.one_of(
        st.tuples(st.just("randbits_each"), st.integers(0, 40), st.integers(0, 5000)),
        st.tuples(st.just("permutation"), st.integers(0, 4096)),
        st.integers(0, 4096).flatmap(_sized_sample),
    ),
    max_size=6,
)


# --- keyio's payload codec, against the one-accumulator bit writer and reader ---


def read(kind, width, count, data, oracle=False):
    """The fields keyio (or the old reader) reads from data, then "ok"; a
    FormatError's message ends the list.  Kind u reads MSB first
    (Kal1-S1/S2 positions), v position 0 first (rows)."""
    try:
        if oracle:
            reader = oracles.BitReader(data)
            fields = [(reader.take_uint if kind == "u" else reader.take_vector)(width) for _ in range(count)]
            reader.expect_zero_padding()
        else:
            fields = keyio._read_fields(data, width, count)
            fields = [keyio._reverse_bits(v, width) for v in fields] if kind == "u" else fields
    except FormatError as exc:
        return [str(exc)]
    return fields + ["ok"]


def write(kind, width, fields):
    """keyio's payload bytes, a u field reversed as serialize_public_key does."""
    if kind == "u":
        fields = [keyio._reverse_bits(value, width) for value in fields]
    return keyio._write_fields(fields, width)


def check_codec(kind, width, fields, rnd):
    """keyio writes the old writer's bytes and reads the fields back, and
    on the payload with each padding bit set, or with a few field bits
    flipped, reads what the old reader reads, or fails as it does."""
    writer = oracles.BitWriter()
    for value in fields:
        (writer.put_uint if kind == "u" else writer.put_vector)(value, width)
    data = write(kind, width, fields)
    nbits = width * len(fields)
    assert data == writer.to_bytes() and len(data) == (nbits + 7) // 8
    assert read(kind, width, len(fields), data) == fields + ["ok"]
    padding = range(nbits, 8 * len(data))
    for bit in [*padding, *rnd.sample(range(nbits), min(nbits, 8))]:
        blob = bytearray(data)
        blob[bit // 8] ^= 0x80 >> bit % 8
        got = read(kind, width, len(fields), bytes(blob))
        assert got == read(kind, width, len(fields), bytes(blob), oracle=True)
        if bit >= nbits:
            assert got == ["nonzero or oversized payload padding"]


@st.composite
def payloads(draw):
    """A kind, a width from 1 to 140 and up to 40 fields of that width."""
    width = draw(st.integers(1, 140))
    fields = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=40))
    return draw(st.sampled_from("uv")), width, fields
