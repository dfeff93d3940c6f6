"""The bitsliced root test, the values of g read off the same planes,
and keyio's byte-at-a-time bit codec, against the code they replaced.

``power_planes`` must put f(alpha^e) in lane e at every m from 4 to 16,
and ``roots``, which reads them, must set bit e exactly where
``oracles.poly_eval`` is 0 at alpha^e and bit 2^m - 1 exactly where
f_0 = 0, so that it finds a root exactly when a scan of the whole field
does.  ``is_irreducible`` must decide like the batched Ben-Or it
replaced, which took a gcd at level 1, and like the level-by-level
oracle, on both sides of the degree-4 cut below which a rootless
polynomial is irreducible, and on products whose gcd with a block's
product has the degree of the block's first level, where Euclid stops.
Both take f packed, and must agree with the list oracles on the zero
polynomial, a constant, degrees 1 to 3, f_0 = 0 and a degree one past
the cached powers.  A code's values of
g must equal ``poly_eval`` on supports with and without 0.  The bit writer and
reader must round-trip and give the old codec's bytes and errors on
truncated and padded payloads.
"""

import random

import pytest

from kal1 import gf2m, keyio
from kal1.errors import FormatError, ParameterError
from kal1.gf2m import Field, is_irreducible, power_planes, roots
from kal1.goppa import CodeParams, GoppaCode

import oracles
from oracles import pack, poly_mul, unpack

FIELDS = {m: Field(m) for m in range(4, 17)}


def irreducible(field, d, rnd, avoid=()):
    """A random monic irreducible of degree d, found with the oracle."""
    while True:
        g = [rnd.randrange(field.order) for _ in range(d)] + [1]
        if g not in avoid and oracles.is_irreducible(field, g):
            return g


def cases(m):
    """(label, f) pairs: random monics of degree 2-5 (more of them at
    m <= 12), polynomials built to have or to lack a root, products
    whose smallest factor meets each of Ben-Or's gcds, and ones whose
    coefficients are mostly 0 and 2^m - 1."""
    field = FIELDS[m]
    rnd = random.Random(f"roots/{m}")
    q = field.order
    last = field.exp_table[q - 2]  # alpha^(q-2), the top lane
    out = []
    for d in range(2, 6):
        for i in range(6 if m <= 12 else 1):
            out.append((f"random-{d}-{i}", [rnd.randrange(q) for _ in range(d)] + [1]))
    h = irreducible(field, 3, rnd)
    linear = [rnd.randrange(1, q), 1]
    out += [
        ("root-at-0", poly_mul(field, [0, 1], h)),
        ("root-at-1", poly_mul(field, [1, 1], h)),
        ("root-at-top-lane", poly_mul(field, [last, 1], h)),
        ("linear-times-irreducible", poly_mul(field, linear, irreducible(field, 4, rnd))),
        ("quadratic-squared", poly_mul(field, *[irreducible(field, 2, rnd)] * 2)),
        ("two-quadratics", poly_mul(field, irreducible(field, 2, rnd), irreducible(field, 2, rnd))),
        ("quadratic-times-cubic", poly_mul(field, irreducible(field, 2, rnd), h)),
        ("irreducible-4", irreducible(field, 4, rnd)),
        ("irreducible-5", irreducible(field, 5, rnd)),
    ]
    if m <= 12:
        h2 = poly_mul(field, h, h)
        out.append(("irreducible-9", irreducible(field, 9, rnd)))
        out.append(("cubics-and-quadratic", poly_mul(field, h2, irreducible(field, 2, rnd))))
    # Ben-Or's block that ends at level 3 meets x^(q^3) - x = 0 mod f
    out.append(("two-cubics", poly_mul(field, h, irreducible(field, 3, rnd, avoid=[h]))))
    top = q - 1
    out += [
        ("extreme-0", [top]),
        ("extreme-1", [0, top]),
        ("extreme-2", [top] * 6),
        ("extreme-3", [0, 0, 0, top]),
        ("extreme-4", [1, 0, top, 0, 0, top]),
    ]
    for i in range(4 if m <= 12 else 1):
        d = rnd.randrange(1, 12)
        out.append((f"extreme-random-{i}", [rnd.choice([0, top, rnd.randrange(q)]) for _ in range(d)] + [top]))
    # a nonzero block product whose gcd with f has the degree of the
    # block's first level, where the gcd stops: blocks {3, 4} and {6}
    out.append(("cubic-times-quintic", poly_mul(field, h, irreducible(field, 5, rnd))))
    out.append(("sextic-times-septic", poly_mul(field, irreducible(field, 6, rnd), irreducible(field, 7, rnd))))
    return out


def lane(planes, e):
    return sum((p >> e & 1) << b for b, p in enumerate(planes))


@pytest.mark.parametrize("m", sorted(FIELDS))
def test_power_planes_hold_f_at_every_element(m):
    field = FIELDS[m]
    q1 = field.order - 1
    rnd = random.Random(m)
    # every lane up to m = 12, a sample and both ends above
    lanes = range(q1) if m <= 12 else sorted({0, 1, q1 - 1, *rnd.sample(range(q1), 300)})
    for label, f in cases(m):
        packed = pack(field, f)
        planes, found = power_planes(field, packed), roots(field, packed)
        assert len(planes) == m and all(p >> q1 == 0 for p in planes), label
        assert found >> q1 == (f[0] == 0), label
        for e in lanes:
            value = oracles.poly_eval(field, f, field.exp_table[e])
            assert lane(planes, e) == value and found >> e & 1 == (value == 0), (label, e)


@pytest.mark.parametrize("m", [4, 10, 13])
def test_extended_power_cache_equals_a_fresh_build(monkeypatch, m):
    field = FIELDS[m]
    rnd = random.Random(f"extend/{m}")
    polys = [[rnd.randrange(field.order) for _ in range(d)] + [1] for d in (1, 3, 2, 9, 7)]
    monkeypatch.setattr(gf2m, "_POWER_PLANES", {})
    grown = [power_planes(field, pack(field, f)) for f in polys]
    assert len(gf2m._POWER_PLANES[m]) == 10
    for f, planes in zip(polys, grown):
        monkeypatch.setattr(gf2m, "_POWER_PLANES", {})
        assert power_planes(field, pack(field, f)) == planes
        assert len(gf2m._POWER_PLANES[m]) == max(2, len(f))


@pytest.mark.parametrize("m", sorted(FIELDS))
def test_root_test_matches_a_scan_of_the_field(m):
    field = FIELDS[m]
    for label, f in cases(m):
        has_root = roots(field, pack(field, f)) != 0
        scan = any(oracles.poly_eval(field, f, a) == 0 for a in range(field.order))
        assert has_root == scan, label
        if label.startswith("root-") or label.startswith("linear-"):
            assert has_root, label


@pytest.mark.parametrize("m", sorted(FIELDS))
def test_is_irreducible_decides_like_the_batched_and_level_by_level_oracles(m):
    field = FIELDS[m]
    for label, f in cases(m):
        expected = oracles.is_irreducible(field, f)
        batched = oracles.batched_is_irreducible(field, f)
        assert is_irreducible(field, pack(field, f)) is batched is expected, label
        if label.startswith("irreducible-"):
            assert expected, label
        elif not label.startswith(("random-", "extreme-")):
            assert not expected, label


@pytest.mark.parametrize("m", [4, 8, 10])
@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_is_irreducible_matches_the_batched_oracle_around_the_degree_4_cut(m, t):
    # below degree 4 a rootless f is accepted without a gcd; at 4 and 5
    # the rootless products of two factors must still be rejected
    field = FIELDS[m]
    rnd = random.Random(f"cut/{m}/{t}")
    for _ in range(200):
        f = [rnd.randrange(field.order) for _ in range(t)] + [1]
        assert is_irreducible(field, pack(field, f)) is oracles.batched_is_irreducible(field, f)


# --- packed f against the list oracles, at the edges of the form ---

PACKED_MS = (4, 8, 10, 12, 16)


def lanes_to_check(field, rnd):
    """Every lane up to m = 12, a sample and both ends above."""
    q1 = field.order - 1
    return range(q1) if field.m <= 12 else sorted({0, 1, q1 - 1, *rnd.sample(range(q1), 300)})


def edge_cases(field, rnd):
    """(label, f): the zero polynomial, a constant, then degrees 1 to 3
    with any leading coefficient, each with a random f_0 and with f_0 = 0."""
    q = field.order
    out = [("zero", []), ("constant", [rnd.randrange(1, q)])]
    for d in (1, 2, 3):
        f = [rnd.randrange(q) for _ in range(d)] + [rnd.randrange(1, q)]
        out += [(f"degree-{d}", f), (f"degree-{d}-f0-zero", [0] + f[1:])]
    return out


@pytest.mark.parametrize("m", PACKED_MS)
def test_packed_planes_and_irreducibility_match_the_list_oracles_at_the_edges(m):
    field = FIELDS[m]
    rnd = random.Random(f"edges/{m}")
    lanes = lanes_to_check(field, rnd)
    for label, f in edge_cases(field, rnd):
        packed = pack(field, f)
        assert unpack(field, packed) == oracles.poly_trim(f), label
        planes, found = power_planes(field, packed), roots(field, packed)
        assert found >> (field.order - 1) == (oracles.poly_eval(field, f, 0) == 0), label
        for e in lanes:
            value = oracles.poly_eval(field, f, field.exp_table[e])
            assert lane(planes, e) == value and found >> e & 1 == (value == 0), (label, e)
        assert is_irreducible(field, packed) is oracles.is_irreducible(field, f), label


@pytest.mark.parametrize("m", PACKED_MS)
def test_packed_planes_one_degree_past_the_cache_extend_it(m):
    # the cache holds A_0 .. A_(d-1); an f of degree d needs A_d as well
    field = FIELDS[m]
    rnd = random.Random(f"one-past/{m}")
    d = len(gf2m._powers_of_alpha(field, 1))
    f = [rnd.randrange(field.order) for _ in range(d)] + [rnd.randrange(1, field.order)]
    planes = power_planes(field, pack(field, f))
    assert len(gf2m._POWER_PLANES[m]) == d + 1
    for e in lanes_to_check(field, rnd):
        assert lane(planes, e) == oracles.poly_eval(field, f, field.exp_table[e]), e


# --- the values of g on the support ---


@pytest.mark.parametrize("m, t", [(4, 2), (10, 6), (13, 3), (16, 2)])
@pytest.mark.parametrize("with_zero", [True, False])
def test_goppa_values_match_poly_eval(m, t, with_zero):
    field = FIELDS[m]
    rnd = random.Random(f"values/{m}/{t}/{with_zero}")
    n = min(field.order - 1, m * t + 40)
    support = rnd.sample(range(1, field.order), n - with_zero) + ([0] if with_zero else [])
    rnd.shuffle(support)
    params = CodeParams(n, n - m * t, t, m)
    code = GoppaCode(params, support, pack(field, irreducible(field, t, rnd)))
    expected = [oracles.poly_eval(field, unpack(field, code.goppa_poly), a) for a in support]
    assert list(code._g_values) == expected == oracles.eval_goppa_poly(code)


@pytest.mark.parametrize("with_zero", [True, False])
def test_goppa_values_of_a_g_with_roots_off_the_support(with_zero):
    # a caller may pass a reducible g whose roots miss the support; its
    # values are read off the same planes, zero lanes and all
    field = FIELDS[8]
    rnd = random.Random(f"off-support/{with_zero}")
    roots = [0, 1, field.exp_table[254]] if not with_zero else [1, field.exp_table[254]]
    g = [1]
    for r in roots:
        g = poly_mul(field, g, [r, 1])
    t = len(g) - 1
    others = [a for a in range(1, field.order) if a not in roots]
    support = rnd.sample(others, 8 * t + 20)
    if with_zero:
        support[rnd.randrange(len(support))] = 0
    code = GoppaCode(CodeParams(len(support), 20, t, 8), support, pack(field, g))
    assert code._g_values == tuple(oracles.poly_eval(field, g, a) for a in support)
    # and a root on the support is refused
    with pytest.raises(ParameterError, match="vanishes"):
        GoppaCode(CodeParams(len(support), 20, t, 8), support[:-1] + [roots[-1]], pack(field, g))


# --- the payload writer and reader ---

# field counts: none, one, two, three and other odd counts, so every
# level of the writer's pairwise join meets a leftover field
COUNTS = (0, 1, 2, 3, 5, 7, 13, 31)
WIDTHS = (1, 9, 64, 65, 131)


def random_payload(seed):
    """(kind, width, fields): fields of one width, kind u (MSB first, as
    Kal1-S1/S2 positions) or v (position 0 first, as rows)."""
    rnd = random.Random(f"codec/{seed}")
    width = WIDTHS[seed // len(COUNTS) % len(WIDTHS)]
    count = COUNTS[seed % len(COUNTS)]
    return rnd.choice("uv"), width, [rnd.getrandbits(width) for _ in range(count)]


def write(kind, width, fields):
    """keyio's payload bytes for the fields, an MSB-first field reversed
    as serialize_public_key does."""
    if kind == "u":
        fields = [keyio._reverse_bits(value, width) for value in fields]
    return keyio._write_fields(fields, width)


def oracle_write(kind, width, fields):
    writer = oracles.BitWriter()
    for value in fields:
        (writer.put_uint if kind == "u" else writer.put_vector)(value, width)
    return writer.to_bytes()


def read(kind, width, count, data):
    """What keyio's reader gives for the fields, then "ok"; a
    FormatError's message ends the list."""
    try:
        fields = keyio._read_fields(data, width, count)
    except FormatError as exc:
        return [str(exc)]
    if kind == "u":
        fields = [keyio._reverse_bits(value, width) for value in fields]
    return fields + ["ok"]


def oracle_read(kind, width, count, data):
    reader = oracles.BitReader(data)
    out = []
    try:
        for _ in range(count):
            out.append((reader.take_uint if kind == "u" else reader.take_vector)(width))
        reader.expect_zero_padding()
    except FormatError as exc:
        return [str(exc)]
    return out + ["ok"]


@pytest.mark.parametrize("seed", range(40))
def test_codec_round_trips_with_the_old_bytes(seed):
    kind, width, fields = random_payload(seed)
    data = write(kind, width, fields)
    assert data == oracle_write(kind, width, fields)
    assert len(data) == (width * len(fields) + 7) // 8
    assert read(kind, width, len(fields), data) == fields + ["ok"]


@pytest.mark.parametrize("seed", range(40))
def test_codec_errors_match_the_old_codec_on_damaged_payloads(seed):
    # the callers check the payload length, so the damage keeps it
    kind, width, fields = random_payload(seed)
    count = len(fields)
    data = write(kind, width, fields)
    nbits = width * count
    damaged = []
    # every padding bit set, one at a time
    for bit in range(nbits, 8 * len(data)):
        blob = bytearray(data)
        blob[bit // 8] |= 0x80 >> bit % 8
        damaged.append(bytes(blob))
    assert len(damaged) == -nbits % 8
    # and a few field bits flipped
    rnd = random.Random(f"damaged/{seed}")
    for bit in rnd.sample(range(nbits), min(nbits, 8)):
        blob = bytearray(data)
        blob[bit // 8] ^= 0x80 >> bit % 8
        damaged.append(bytes(blob))
    for blob in damaged:
        assert read(kind, width, count, blob) == oracle_read(kind, width, count, blob)
    padding_refused = [read(kind, width, count, blob) for blob in damaged[: -nbits % 8]]
    assert padding_refused == [["nonzero or oversized payload padding"]] * (-nbits % 8)


@pytest.mark.parametrize("kind", "uv")
@pytest.mark.parametrize("value, width", [(8, 3), (-1, 5), (1, 0), (1 << 70, 70)])
def test_codec_refuses_a_value_wider_than_its_field_like_the_old_writer(kind, value, width):
    # both paths refuse with the old writer's message for a field, also
    # when the value sits between fields that fit
    with pytest.raises(FormatError) as old:
        oracles.BitWriter().put_uint(value, width)
    with pytest.raises(FormatError) as new:
        write(kind, width, [0, value, 0])
    assert str(new.value) == str(old.value) == f"value {value} does not fit in {width} bits"
