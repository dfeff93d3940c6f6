"""The bitsliced power planes and root test, Ben-Or's rows that they
decide, the values of g read off the same planes, and keyio's payload
codec, against the code they replaced.

``differential.check_planes`` must find f(alpha^e) in lane e at every m
from 4 to 16, a root exactly where Horner finds one, and alpha = 0 a
root exactly where f_0 = 0.  The rows of ``check_irreducible`` here sit
on both sides of the degree-4 cut below which a rootless polynomial is
irreducible, and on products whose gcd with a block's product has the
degree of the block's first level, where Euclid stops; the batched
Ben-Or these tests once compared with decided as the level-by-level
oracle on every one of them.  ``check_codec`` must give the old bit
writer's bytes and the old reader's fields and errors.
"""

import random

import pytest
from hypothesis import given

from kal1 import gf2m
from kal1.errors import FormatError, ParameterError
from kal1.gf2m import power_planes
from kal1.goppa import CodeParams, GoppaCode

import oracles
from differential import (
    FIELDS,
    check_codec,
    check_irreducible,
    check_planes,
    lanes_to_check,
    payloads,
    plane_cases,
    write,
)
from oracles import monic_irreducible, pack, poly_mul, unpack


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

    def irreducible(d, avoid=()):
        return monic_irreducible(field, d, rnd, avoid)

    h = irreducible(3)
    linear = [rnd.randrange(1, q), 1]
    out += [
        ("root-at-0", poly_mul(field, [0, 1], h)),
        ("root-at-1", poly_mul(field, [1, 1], h)),
        ("root-at-top-lane", poly_mul(field, [last, 1], h)),
        ("linear-times-irreducible", poly_mul(field, linear, irreducible(4))),
        ("quadratic-squared", poly_mul(field, *[irreducible(2)] * 2)),
        ("two-quadratics", poly_mul(field, irreducible(2), irreducible(2))),
        ("quadratic-times-cubic", poly_mul(field, irreducible(2), h)),
        ("irreducible-4", irreducible(4)),
        ("irreducible-5", irreducible(5)),
    ]
    if m <= 12:
        out.append(("irreducible-9", irreducible(9)))
        out.append(("cubics-and-quadratic", poly_mul(field, poly_mul(field, h, h), irreducible(2))))
    # Ben-Or's block that ends at level 3 meets x^(q^3) - x = 0 mod f
    out.append(("two-cubics", poly_mul(field, h, irreducible(3, avoid=[h]))))
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
        f = [rnd.choice([0, top, rnd.randrange(q)]) for _ in range(d)] + [top]
        out.append((f"extreme-random-{i}", f))
    # a nonzero block product whose gcd with f has the degree of the
    # block's first level, where the gcd stops: blocks {3, 4} and {6}
    out.append(("cubic-times-quintic", poly_mul(field, h, irreducible(5))))
    out.append(("sextic-times-septic", poly_mul(field, irreducible(6), irreducible(7))))
    return out


@given(plane_cases())
def test_power_planes_match_horner_on_any_f(case):
    check_planes(*case)


@pytest.mark.parametrize("m", sorted(FIELDS))
def test_power_planes_hold_f_at_every_element(m):
    field = FIELDS[m]
    lanes = lanes_to_check(field, random.Random(m))
    for label, f in cases(m):
        assert len(power_planes(field, pack(field, f))) == m, label
        check_planes(field, f, lanes)


@pytest.mark.parametrize("m", [4, 10, 13])
def test_extended_power_cache_equals_a_fresh_build(monkeypatch, m):
    # planes from a cache grown by earlier calls, against Horner and
    # against a fresh cache
    field = FIELDS[m]
    rnd = random.Random(f"extend/{m}")
    polys = [[rnd.randrange(field.order) for _ in range(d)] + [1] for d in (1, 3, 2, 9, 7)]
    monkeypatch.setattr(gf2m, "_POWER_PLANES", {})
    for f in polys:
        check_planes(field, f, lanes_to_check(field, rnd))
    assert len(gf2m._POWER_PLANES[m]) == 10
    for f in polys:
        grown = power_planes(field, pack(field, f))
        monkeypatch.setattr(gf2m, "_POWER_PLANES", {})
        assert power_planes(field, pack(field, f)) == grown
        assert len(gf2m._POWER_PLANES[m]) == max(2, len(f))


@pytest.mark.parametrize("m", sorted(FIELDS))
def test_root_test_matches_a_scan_of_the_field(m):
    field = FIELDS[m]
    for label, f in cases(m):
        has_root = gf2m.roots(field, pack(field, f)) != 0
        assert has_root == any(oracles.poly_eval(field, f, a) == 0 for a in range(field.order)), label
        assert has_root or not label.startswith(("root-", "linear-")), label


@pytest.mark.parametrize("m", sorted(FIELDS))
def test_is_irreducible_decides_each_labelled_case_like_the_oracle(m):
    for label, f in cases(m):
        expected = check_irreducible(FIELDS[m], f)
        if not label.startswith(("random-", "extreme-")):
            assert expected == label.startswith("irreducible-"), label


@pytest.mark.parametrize("m", [4, 8, 10])
@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_is_irreducible_matches_the_oracle_around_the_degree_4_cut(m, t):
    # below degree 4 a rootless f is accepted without a gcd; at 4 and 5
    # the rootless products of two factors must still be rejected
    rnd = random.Random(f"cut/{m}/{t}")
    for _ in range(200):
        check_irreducible(FIELDS[m], [rnd.randrange(FIELDS[m].order) for _ in range(t)] + [1])


def edge_cases(field, rnd):
    """(label, f): the zero polynomial, a constant, then degrees 1 to 3
    with any leading coefficient, each with a random f_0 and with f_0 = 0."""
    q = field.order
    out = [("zero", []), ("constant", [rnd.randrange(1, q)])]
    for d in (1, 2, 3):
        f = [rnd.randrange(q) for _ in range(d)] + [rnd.randrange(1, q)]
        out += [(f"degree-{d}", f), (f"degree-{d}-f0-zero", [0] + f[1:])]
    return out


@pytest.mark.parametrize("m", [4, 8, 10, 12, 16])
def test_packed_planes_and_irreducibility_match_the_list_oracles_at_the_edges(m):
    field = FIELDS[m]
    rnd = random.Random(f"edges/{m}")
    lanes = lanes_to_check(field, rnd)
    for label, f in edge_cases(field, rnd):
        assert unpack(field, pack(field, f)) == oracles.poly_trim(f), label
        check_planes(field, f, lanes)
        check_irreducible(field, f)


@pytest.mark.parametrize("m", [4, 8, 10, 12, 16])
def test_packed_planes_one_degree_past_the_cache_extend_it(m):
    # the cache holds A_0 .. A_(d-1); an f of degree d needs A_d as well
    field = FIELDS[m]
    rnd = random.Random(f"one-past/{m}")
    d = len(gf2m._powers_of_alpha(field, 1))
    f = [rnd.randrange(field.order) for _ in range(d)] + [rnd.randrange(1, field.order)]
    check_planes(field, f, lanes_to_check(field, rnd))
    assert len(gf2m._POWER_PLANES[m]) == d + 1


# --- the values of g on the support ---


@pytest.mark.parametrize("m, t", [(4, 2), (10, 6), (13, 3), (16, 2)])
@pytest.mark.parametrize("with_zero", [True, False])
def test_goppa_values_match_poly_eval(m, t, with_zero):
    field = FIELDS[m]
    rnd = random.Random(f"values/{m}/{t}/{with_zero}")
    n = min(field.order - 1, m * t + 40)
    support = rnd.sample(range(1, field.order), n - with_zero) + ([0] if with_zero else [])
    rnd.shuffle(support)
    g = monic_irreducible(field, t, rnd)
    code = GoppaCode(CodeParams(n, n - m * t, t, m), support, pack(field, g))
    assert list(code._g_values) == [oracles.poly_eval(field, g, a) for a in support]


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
    support = rnd.sample([a for a in range(1, field.order) if a not in roots], 8 * t + 20)
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


def check_payload(seed):
    """check_codec on fields of one width, kind u (MSB first, as
    Kal1-S1/S2 positions) or v (position 0 first, as rows)."""
    rnd = random.Random(f"codec/{seed}")
    width = WIDTHS[seed // len(COUNTS) % len(WIDTHS)]
    kind = rnd.choice("uv")
    fields = [rnd.getrandbits(width) for _ in range(COUNTS[seed % len(COUNTS)])]
    check_codec(kind, width, fields, random.Random(f"damaged/{seed}"))


@given(payloads())
def test_codec_matches_the_old_codec_on_any_payload(case):
    check_codec(*case, random.Random(0))


@pytest.mark.parametrize("seed", range(40))
def test_codec_round_trips_with_the_old_bytes(seed):
    check_payload(seed)


@pytest.mark.parametrize("seed", range(40))
def test_codec_errors_match_the_old_codec_on_damaged_payloads(seed):
    # the kinds and values of the round-trip rows, drawn again
    check_payload(seed + 40)


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
