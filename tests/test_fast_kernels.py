"""The fast keygen and decode kernels against the slow code they replaced.

Every kernel must return exactly what its oracle in ``oracles`` returns,
on inputs that include zero coefficients, non-monic divisors and
untrimmed lists, at m = 4, 8 and 10 (and 16 for the irreducibility
test, whose deep levels get products of known irreducible factors, and
for the packed division, reduction and product modulo f; Euclid, the
inverse and the irreducibility test on raw lists also run at m = 5,
whose bit tables split 2 + 3, and at 12, on inputs with all-ones
coefficients that share random common factors, in either order).
Each packed Euclid example must return within 2 s, so a division that
never cancels its top coefficient fails by assertion.  Keygen itself
must reproduce the oracle chain's code, permutation, scrambler and
public matrix, and decryption through the key's right block columns
must match the unscramble-by-matrix chain.  Decoding's
bitsliced root finder must mark exactly the support positions the
per-element scan marks; S(x), Patterson's locator and the whole decode
must match the chain of oracles, failures included.  The field
tables must equal those built from a searched generator.
"""

import functools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kal1 import goppa, keyio, niederreiter, scheme
from kal1.binmat import BinaryMatrix, eliminate
from kal1.errors import DecodingFailure, GenerationFailure, Kal1Error
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
    sqrt_halves,
    sqrt_x_mod,
    squares,
)
from kal1.goppa import POLY_TRIALS_PER_DEGREE, CodeParams, GoppaCode, generate_code
from kal1.rng import SeededRng

import oracles
from conftest import MID, SQUARE_Q, TOY, perm_inverse, seed_bytes, time_limit
from oracles import field_mul, pack, poly_add, poly_deg, poly_mod, poly_mul, poly_trim, unpack

FIELDS = {m: Field(m) for m in (4, 8, 10)}
DEEP_FIELDS = {**FIELDS, 16: Field(16)}
# every field the differential tests of Patterson's packed stages cover
PATTERSON_FIELDS = {**DEEP_FIELDS, 12: Field(12)}
# and of the Euclid loop that Patterson and Ben-Or share
EUCLID_FIELDS = {**PATTERSON_FIELDS, 5: Field(5)}
HEADLINE = CodeParams(1024, 524, 50, 10)


@st.composite
def field_and_polys(draw, count, max_len=12, fields=FIELDS):
    """A field and `count` raw coefficient lists (trailing zeros allowed)."""
    field = fields[draw(st.sampled_from(sorted(fields)))]
    coeff = st.integers(0, field.order - 1) | st.just(0)
    polys = [draw(st.lists(coeff, max_size=max_len)) for _ in range(count)]
    return field, polys


@st.composite
def field_and_monic(draw, max_deg=6):
    """A field and a monic polynomial of degree 1..max_deg."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    t = draw(st.integers(1, max_deg))
    low = draw(st.lists(st.integers(0, field.order - 1), min_size=t, max_size=t))
    return field, low + [1]


@given(field_and_polys(2, max_len=24, fields=DEEP_FIELDS))
def test_poly_divmod_matches_oracle(case):
    # one round of the kernel's Euclid, bounded just below g's degree, is
    # one division: (f mod g, f / g).  The long division it replaced
    # gives the remainder, and the quotient that a tag below both
    # operands collects: f*X mod (g*X + 1) = r*X + q
    field, (f, g) = case
    if not poly_trim(g):
        with pytest.raises(ZeroDivisionError):
            modulus(field, pack(field, g))
        return
    q, r = oracles.poly_divmod(field, f, g)
    f_, g_ = pack(field, f), pack(field, g)
    assert euclid(field, f_, g_, poly_deg(poly_trim(g)) - 1) == (pack(field, r), pack(field, q))
    assert oracles.remainder(field, f_, g_) == pack(field, r)
    s = field.m * (len(f) + 1)
    assert oracles.remainder(field, f_ << s, g_ << s | 1) == pack(field, r) << s | pack(field, q)


@given(field_and_polys(2, max_len=24, fields=DEEP_FIELDS))
def test_poly_mul_matches_oracle(case):
    # the kernel's product modulo x^N, for N above the product's degree
    field, (f, g) = case
    x_n = modulus(field, 1 << (field.m * (len(f) + len(g))))
    product = mul_mod(field, mul_tables(field, pack(field, f)), pack(field, g), x_n)
    assert unpack(field, product) == oracles.poly_mul(field, f, g)


@st.composite
def field_and_modulus(draw, monic):
    """A field with m in {4, 8, 10, 16}, a polynomial f of degree 1 to
    12 (monic, or with any leading coefficient and trailing zeros), and
    two raw coefficient lists of up to 30 entries, zero ones included."""
    field = DEEP_FIELDS[draw(st.sampled_from(sorted(DEEP_FIELDS)))]
    coeff = st.integers(0, field.order - 1) | st.just(0)
    t = draw(st.integers(1, 12))
    f = draw(st.lists(coeff, min_size=t, max_size=t))
    f.append(1 if monic else draw(st.integers(1, field.order - 1)))
    if not monic:
        f += [0] * draw(st.integers(0, 2))
    a, b = (draw(st.lists(coeff, max_size=30)) for _ in range(2))
    return field, f, a, b


@settings(max_examples=200)
@given(field_and_modulus(monic=True))
@example((DEEP_FIELDS[16], [7, 1], [], [0, 0]))
@example((DEEP_FIELDS[4], [0, 0, 1], [0, 3, 5, 0], [9, 0, 2]))
def test_packed_mul_mod_matches_oracle(case):
    # a reduced modulo f first, as mul_mod asks; b of any degree
    field, f, a, b = case
    expected = oracles.poly_mod(field, oracles.poly_mul(field, a, b), f)
    a_red, _ = euclid(field, pack(field, a), pack(field, f), len(f) - 2)
    product = mul_mod(field, mul_tables(field, a_red), pack(field, b), modulus(field, pack(field, f)))
    assert unpack(field, product) == expected


@settings(max_examples=200)
@given(field_and_modulus(monic=False))
@example((DEEP_FIELDS[10], [0, 3, 0], [], []))
@example((DEEP_FIELDS[16], [5, 0, 9, 0], [1] * 20, [0, 0]))
def test_packed_remainder_of_any_degree_matches_oracle(case):
    # euclid bounded below f's degree divides once; f is not monic
    field, f, a, b = case
    v = a + b  # up to degree 59, trailing zeros included
    q, expected = oracles.poly_divmod(field, v, f)
    r, quotient = euclid(field, pack(field, v), pack(field, f), poly_deg(poly_trim(f)) - 1)
    assert unpack(field, r) == expected
    assert unpack(field, quotient) == q
    assert unpack(field, oracles.remainder(field, pack(field, v), pack(field, f))) == expected


@st.composite
def field_and_pair(draw):
    """A field with m in {4, 5, 8, 10, 12, 16} and two raw coefficient
    lists with any leading coefficients and trailing zeros, zero and
    all-ones coefficients likely; about half the time the two are of
    one degree, and independently about half the time both are
    multiplied by a common factor of degree 1 to 3."""
    field = EUCLID_FIELDS[draw(st.sampled_from(sorted(EUCLID_FIELDS)))]
    coeff = st.integers(0, field.order - 1) | st.just(0) | st.just(field.order - 1)
    if draw(st.booleans()):
        lead = st.integers(1, field.order - 1) | st.just(field.order - 1)
        d = draw(st.integers(0, 11))
        f, g = (draw(st.lists(coeff, min_size=d, max_size=d)) + [draw(lead)] for _ in range(2))
    else:
        f, g = (draw(st.lists(coeff, max_size=12)) for _ in range(2))
    if draw(st.booleans()):
        h = draw(st.lists(coeff, min_size=1, max_size=3))
        h.append(draw(st.integers(1, field.order - 1)))
        f, g = oracles.poly_mul(field, h, f), oracles.poly_mul(field, h, g)
    return field, f + [0] * draw(st.integers(0, 2)), g + [0] * draw(st.integers(0, 2))


@settings(max_examples=200)
@given(field_and_pair(), st.integers(-1, 12))
def test_poly_eea_bounded_matches_oracle(case, dbound):
    field, f, g = case
    r, u, v = oracles.poly_eea_bounded(field, f, g, dbound)
    assert poly_eea_bounded(field, pack(field, f), pack(field, g), dbound) == (
        pack(field, r),
        pack(field, v),
    )
    assert poly_deg(r) <= dbound
    assert poly_add(oracles.poly_mul(field, u, f), oracles.poly_mul(field, v, g)) == r


@settings(max_examples=200)
@given(field_and_pair(), st.integers(-1, 12))
@example((DEEP_FIELDS[4], [], []), -1)
@example((DEEP_FIELDS[16], [0, 5, 0], [3, 0, 0]), -1)
@example((DEEP_FIELDS[8], [2, 7, 1], [0, 4, 0, 0]), 0)
@example((EUCLID_FIELDS[5], [0, 1], [31]), -1)
@example((DEEP_FIELDS[16], [65535, 0, 65535], [0, 65535, 65535]), 0)
@example((DEEP_FIELDS[4], [1, 1], []), 1)
@example((DEEP_FIELDS[4], [0, 1], [0, 2]), -1)
def test_packed_euclid_matches_oracle(case, dbound):
    # the loop's first round divides when deg r0 >= deg r1 and is a swap
    # otherwise, so each pair runs in both orders; at equal degrees the
    # first divisor's alpha multiples reach the widest coefficient
    field, f, g = case
    for r0, r1 in ((f, g), (g, f)):
        r, _, v = oracles.poly_eea_bounded(field, r0, r1, dbound)
        with time_limit(2):
            packed = euclid(field, pack(field, r0), pack(field, r1), dbound)
        assert packed == (pack(field, r), pack(field, v))


def inv_outcome(fn, *args):
    try:
        return fn(*args)
    except ZeroDivisionError:
        return ZeroDivisionError


def packed_inv(field, f, g):
    return unpack(field, poly_inv_mod(field, pack(field, f), pack(field, g)))


@settings(max_examples=200)
@given(field_and_pair())
@example((DEEP_FIELDS[10], [5, 7, 1], [3, 1]))
@example((PATTERSON_FIELDS[12], [0, 0, 9], [0, 1]))
def test_poly_inv_mod_matches_oracle(case):
    # f of any degree: unreduced, the loop's first round is a swap
    field, f, g = case
    expected = inv_outcome(oracles.poly_inv_mod, field, f, g)
    assert inv_outcome(packed_inv, field, f, g) == expected
    if expected is not ZeroDivisionError:
        assert poly_mod(field, oracles.poly_mul(field, f, expected), g) == [1]


@pytest.mark.parametrize("m", sorted(EUCLID_FIELDS))
def test_poly_inv_mod_refuses_a_constant_modulus(m):
    # nothing is invertible modulo a constant, as the oracle's f mod g = 0
    # says; Euclid alone would return f = 1 as its own inverse modulo 1
    field = EUCLID_FIELDS[m]
    for g in ([1], [field.order - 1], []):
        for f in ([1], [3, 1], [1] * 7, [field.order - 1, 0, 2]):
            assert inv_outcome(oracles.poly_inv_mod, field, f, g) is ZeroDivisionError
            assert inv_outcome(packed_inv, field, f, g) is ZeroDivisionError


@given(field_and_polys(1, max_len=30, fields=PATTERSON_FIELDS))
def test_squares_matches_oracle(case):
    field, (f,) = case
    assert unpack(field, squares(field, pack(field, f))) == oracles.poly_sqr(field, f)


@given(field_and_polys(1, max_len=30, fields=PATTERSON_FIELDS))
def test_sqrt_halves_match_field_sqrt(case):
    # the even and odd halves, each coefficient's square root moved to half its degree
    field, (f,) = case
    even, odd = sqrt_halves(field, pack(field, f))
    assert unpack(field, even) == poly_trim([oracles.field_sqrt(field, c) for c in f[0::2]])
    assert unpack(field, odd) == poly_trim([oracles.field_sqrt(field, c) for c in f[1::2]])


def frobenius_cases(field, rnd):
    """Packed polynomials for the byte-table kernels: 0, one coefficient
    at each of several degrees, all-ones coefficients and random ones,
    at lengths on both sides of every byte boundary up to 33
    coefficients (eight of them fill m bytes) and at 64 and 65."""
    m, q1 = field.m, field.order - 1
    yield 0
    for i in (0, 1, 2, 7, 8, 9, 31):
        for c in (1, q1, rnd.randrange(1, field.order)):
            yield c << (m * i)
    for length in [*range(1, 34), 64, 65]:
        yield pack(field, [q1] * length)
        yield pack(field, [rnd.randrange(field.order) for _ in range(length - 1)] + [q1])
        yield pack(field, [rnd.randrange(field.order) for _ in range(length)])


@pytest.mark.parametrize("m", sorted(REDUCTION_POLYS))
def test_squares_and_sqrt_halves_match_their_oracles_at_every_m(m):
    # odd m puts the m-bit slots out of step with the translated bytes
    field = Field(m)
    for v in frobenius_cases(field, random.Random(f"frobenius/{m}")):
        assert squares(field, v) == oracles.squares(field, v)
        assert sqrt_halves(field, v) == oracles.sqrt_halves(field, v)


@given(field_and_polys(1, max_len=8))
def test_is_irreducible_matches_oracle(case):
    field, (f,) = case
    assert is_irreducible(field, pack(field, f)) == oracles.is_irreducible(field, f)


@given(field_and_monic())
def test_is_irreducible_matches_oracle_on_monic(case):
    field, g = case
    assert is_irreducible(field, pack(field, g)) == oracles.is_irreducible(field, g)


def monic_irreducible(field, d, rnd):
    """A random monic irreducible polynomial of degree d, found with the oracle."""
    while True:
        g = [rnd.randrange(field.order) for _ in range(d)] + [1]
        if oracles.is_irreducible(field, g):
            return g


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(sorted(DEEP_FIELDS)),
    st.lists(st.integers(2, 12), min_size=2, max_size=3).filter(lambda ds: sum(ds) <= 24),
    st.integers(0, 2**32),
)
@example(16, [12, 12], 0)
@example(10, [11, 12], 1)
@example(4, [3, 2, 2], 2)
def test_is_irreducible_matches_oracle_on_products(m, degrees, seed):
    # the smallest factor degree d is at most deg(f)/2, so Ben-Or's test
    # runs d levels before it rejects f; each factor must be accepted
    field = DEEP_FIELDS[m]
    rnd = random.Random(seed)
    factors = [monic_irreducible(field, d, rnd) for d in degrees]
    for g in factors:
        assert is_irreducible(field, pack(field, g)) is True
    f = functools.reduce(lambda a, b: poly_mul(field, a, b), factors)
    assert oracles.is_irreducible(field, f) is False
    assert is_irreducible(field, pack(field, f)) is False


@st.composite
def deep_field_and_raw_poly(draw):
    """A field with m in {4, 5, 8, 10, 12, 16} and a coefficient list of
    degree at most 24 with any leading coefficient and trailing zeros,
    zero and all-ones coefficients likely."""
    field = EUCLID_FIELDS[draw(st.sampled_from(sorted(EUCLID_FIELDS)))]
    coeff = st.integers(0, field.order - 1) | st.just(0) | st.just(field.order - 1)
    f = draw(st.lists(coeff, max_size=24))
    f.append(draw(st.integers(1, field.order - 1)))
    return field, f + [0] * draw(st.integers(0, 3))


@settings(max_examples=200, deadline=None)
@given(deep_field_and_raw_poly())
def test_is_irreducible_matches_oracle_on_raw_lists(case):
    field, f = case
    assert is_irreducible(field, pack(field, f)) == oracles.is_irreducible(field, f)


@pytest.mark.parametrize("t", [2, 3])
@pytest.mark.parametrize("m", sorted(DEEP_FIELDS))
def test_is_irreducible_matches_oracle_at_degree_2_and_3(m, t):
    field = DEEP_FIELDS[m]
    rnd = random.Random(f"low-degree/{m}/{t}")
    for _ in range(150):
        f = [rnd.randrange(field.order) for _ in range(t)] + [rnd.randrange(1, field.order)]
        assert is_irreducible(field, pack(field, f)) == oracles.is_irreducible(field, f)


@pytest.mark.parametrize("tag", range(4))
def test_is_irreducible_decides_mid_candidates_like_oracle(monkeypatch, tag):
    # every candidate generate_code tries, rejected ones included
    decided = []

    def recording(field, f):
        accept = is_irreducible(field, f)
        decided.append((field, f, accept))
        return accept

    monkeypatch.setattr(goppa, "is_irreducible", recording)
    code = generate_code(MID, SeededRng(seed_bytes(tag)))
    assert decided[-1] == (code.field, code.goppa_poly, True)
    for field, f, accept in decided:
        assert accept == oracles.is_irreducible(field, unpack(field, f))


def packed_sqrt_x(field, g):
    packed = pack(field, g)
    return unpack(field, sqrt_x_mod(field, packed, modulus(field, packed)))


@given(field_and_monic())
def test_sqrt_x_mod_squares_to_x(case):
    field, g = case
    root = packed_sqrt_x(field, g)
    g1 = poly_trim([oracles.field_sqrt(field, c) for c in g[1::2]])
    try:
        packed_inv(field, g1, g)
    except ZeroDivisionError:
        # g has a repeated factor: the repeated-squaring fallback runs
        assert root == oracles.sqrt_x_mod(field, g)
        return
    assert poly_mod(field, oracles.poly_sqr(field, root), g) == poly_mod(field, [0, 1], g)
    if is_irreducible(field, pack(field, g)):
        assert root == oracles.sqrt_x_mod(field, g)


@given(field_and_monic(max_deg=5))
def test_sqrt_x_mod_of_a_square_falls_back(case):
    field, q = case
    g = oracles.poly_sqr(field, q)
    assert packed_sqrt_x(field, g) == oracles.sqrt_x_mod(field, g)


@given(st.integers(0, 70), st.integers(0, 70), st.randoms(use_true_random=False))
def test_transpose_matches_oracle(rows, cols, rnd):
    m = BinaryMatrix(rows, cols, [rnd.getrandbits(cols) for _ in range(rows)])
    assert m.transpose() == oracles.transpose(m)


@pytest.mark.parametrize(
    "params, tag", [(TOY, 1), (TOY, 2), (MID, 3), (MID, 4), (HEADLINE, 5)]
)
def test_field_rows_match_oracle(params, tag):
    # these supports cover the whole field, so 0 is always among them
    code = generate_code(params, SeededRng(seed_bytes(tag)))
    assert 0 in code.support
    assert code._field_rows() == oracles.parity_check_rows(code)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([4, 8]), st.integers(2, 6), st.integers(0, 2**32))
def test_field_rows_match_oracle_on_partial_supports(m, t, seed):
    # supports shorter than the field, with and without 0
    field = FIELDS[m]
    rnd = random.Random(seed)
    t = min(t, (field.order - 1) // m)
    n = rnd.randrange(m * t + 1, field.order + 1)
    support = rnd.sample(range(field.order), n)
    g = pack(field, monic_irreducible(field, t, rnd))
    code = GoppaCode(CodeParams(n, n - m * t, t, m), support, g)
    assert code._field_rows() == oracles.parity_check_rows(code)


def test_field_rows_on_support_without_zero():
    field = FIELDS[4]
    g = monic_irreducible(field, 2, random.Random(0))
    code = GoppaCode(CodeParams(12, 4, 2, 4), list(range(1, 13)), pack(field, g))
    assert code._field_rows() == oracles.parity_check_rows(code)


@settings(max_examples=25, deadline=None)
@given(st.binary(min_size=16, max_size=16))
def test_toy_keygen_matches_oracle_chain(seed):
    check_keygen(TOY, seed)


@settings(max_examples=5, deadline=None)
@given(st.binary(min_size=16, max_size=16))
def test_mid_keygen_matches_oracle_chain(seed):
    check_keygen(MID, seed)


@pytest.mark.parametrize("params, tag", [(TOY, 1), (TOY, 2), (MID, 3), (MID, 4)])
def test_generate_code_draws_the_packed_g_of_the_list_oracle(params, tag):
    # the oracle draws g as a list of coefficients, low to high, and
    # decides it on lists; the library's packed g is that list, packed
    code = generate_code(params, SeededRng(seed_bytes(tag)))
    ref = oracles.generate_code(params, SeededRng(seed_bytes(tag)))
    assert isinstance(code.goppa_poly, int)
    assert code == ref
    g = unpack(code.field, code.goppa_poly)
    assert len(g) == params.t + 1 and g[-1] == 1
    assert oracles.is_irreducible(code.field, g)


# k = 1 leaves one column past m*t, so rank-deficient codes are common:
# over a third of the seeds resample, and seed 12 resamples three times
SMALL_K = CodeParams(25, 1, 3, 8)


@pytest.mark.parametrize("spare", [goppa.RANK_SPARE_COLUMNS, 0])
@pytest.mark.parametrize("params, tag", [(TOY, 1), (MID, 4), (HEADLINE, 7), (SMALL_K, 12)])
def test_generate_code_picks_the_oracle_code_and_leaves_the_stream_there(
    monkeypatch, params, tag, spare
):
    # the full-rank test on the first m*t + spare columns, or on all n
    # when those fall short, decides as the oracle's rank of the binary
    # rows; with no spare column the fallback runs for these seeds
    fallbacks = []

    def counted(rows, width, solved):
        fallbacks.append(len(rows))
        return eliminate(rows, width, solved)

    monkeypatch.setattr(goppa, "RANK_SPARE_COLUMNS", spare)
    monkeypatch.setattr(goppa, "eliminate", counted)
    rng, ref_rng = SeededRng(seed_bytes(tag)), SeededRng(seed_bytes(tag))
    code = generate_code(params, rng)
    ref = oracles.generate_code(params, ref_rng)
    assert code == ref
    assert rng.read(16) == ref_rng.read(16)
    assert set(fallbacks) <= {params.n}
    if spare == 0 and params.n > params.m * params.t:
        assert fallbacks


def test_generate_code_ranks_a_code_no_longer_than_its_first_columns_once(monkeypatch):
    # at SMALL_K the first m*t + 16 columns are all 25, so their rank()
    # decides each code alone: seed 12 draws four codes, three of them
    # rank deficient, and no elimination repeats a rank just made
    ranks, fallbacks = [], []
    rank = BinaryMatrix.rank

    def counted_rank(self):
        ranks.append(self.rows)
        return rank(self)

    monkeypatch.setattr(BinaryMatrix, "rank", counted_rank)
    monkeypatch.setattr(goppa, "eliminate", lambda *args: fallbacks.append(args) or eliminate(*args))
    code = generate_code(SMALL_K, SeededRng(seed_bytes(12)))
    ref = oracles.generate_code(SMALL_K, SeededRng(seed_bytes(12)))
    assert code == ref
    assert ranks == [SMALL_K.n] * 4
    assert fallbacks == []


def check_keygen(params, seed):
    pub, priv = niederreiter.keygen(params, SeededRng(seed))
    chain = oracles.niederreiter_keygen(params, SeededRng(seed))
    check_key_against_chain(priv, chain)
    assert pub.check_t == chain.check_t


def check_key_against_chain(priv, chain):
    """The key is the chain's code with position i moved to perm[i], and
    the right block of its check is the chain's R = s_inv."""
    params = priv.params
    k, nk = params.k, params.redundancy
    assert priv.goppa_poly == chain.code.goppa_poly
    assert priv.support == tuple(chain.code.support[i] for i in perm_inverse(chain.perm))
    permuted = oracles.binary_check(chain.code).permute_columns(chain.perm)
    assert priv.parity_check() == oracles.transpose(permuted).row_ints
    right_t = BinaryMatrix(nk, nk, priv.parity_check()[k:])
    assert right_t == oracles.transpose(chain.scrambler.s_inv)
    assert right_t.invert() == oracles.transpose(chain.scrambler.s)
    assert niederreiter.public_key(priv).check_t == chain.check_t


class ReducibleRng:
    """Stub generator: the identity support and the Goppa candidate x^t,
    which is never irreducible; it counts the coefficients drawn."""

    def __init__(self):
        self.coefficient_draws = 0

    def sample(self, n, k):
        return list(range(k))

    def randbits_each(self, k, count):
        self.coefficient_draws += count
        return [0] * count


def test_goppa_polynomial_search_is_bounded():
    rng = ReducibleRng()
    with pytest.raises(GenerationFailure):
        generate_code(TOY, rng)
    assert rng.coefficient_draws == POLY_TRIALS_PER_DEGREE * TOY.t * TOY.t


# one generated code per scale; its support is the whole field, so it
# holds 0, and the same g on the support without 0 is the zero-free code
ROOT_CODES = {"toy": (TOY, 0x40), "mid": (MID, 0x41), "headline": (HEADLINE, 0x42)}
# the partial-support root test also runs at stress's m, where n < 2^m
ROOT_FIELDS = {4: FIELDS[4], 8: FIELDS[8], 12: Field(12)}


@functools.cache
def root_code(scale: str, with_zero: bool) -> GoppaCode:
    params, tag = ROOT_CODES[scale]
    code = generate_code(params, SeededRng(seed_bytes(tag)))
    assert 0 in code.support
    if with_zero:
        return code
    support = [a for a in code.support if a]
    n, t, m = len(support), params.t, params.m
    return GoppaCode(CodeParams(n, n - m * t, t, m), support, code.goppa_poly)


@functools.cache
def permuted_root_code(scale: str, with_zero: bool) -> tuple[GoppaCode, list[int]]:
    """root_code with its positions scattered, and the destinations."""
    code = root_code(scale, with_zero)
    dest = random.Random(f"{scale}/{with_zero}").sample(range(code.params.n), code.params.n)
    return code.permuted(dest), dest


@pytest.mark.parametrize("with_zero", [True, False], ids=["with-0", "without-0"])
@pytest.mark.parametrize("scale", sorted(ROOT_CODES))
@settings(max_examples=30, deadline=None)
@given(
    source=st.sampled_from(["error", "forged", "random"]),
    degree=st.integers(0, 64),
    seed=st.integers(0, 2**64),
)
@example(source="error", degree=64, seed=0)
@example(source="error", degree=1, seed=0)
@example(source="random", degree=64, seed=1)
@example(source="random", degree=0, seed=2)
def test_locator_roots_match_scan(scale, with_zero, source, degree, seed):
    # sigma of degree min(degree, t): Patterson's locator of a random
    # error of that weight (at least 1) or of a random forged syndrome
    # (whatever degree it has), or random coefficients; the permuted
    # code has the same roots at the scattered positions
    code = root_code(scale, with_zero)
    moved, dest = permuted_root_code(scale, with_zero)
    n, t, m = code.params.n, code.params.t, code.params.m
    order = code.field.order
    rnd = random.Random(seed)
    degree = min(degree, t)
    e = None
    if source == "error":
        e = sum(1 << i for i in rnd.sample(range(n), max(degree, 1)))
        sigma = unpack(code.field, code._locator(code.syndrome(e)))
    elif source == "forged":
        sigma = unpack(code.field, code._locator(rnd.getrandbits(m * t) or 1))
    else:
        sigma = [rnd.randrange(order) for _ in range(degree)] + [rnd.randrange(1, order)]
    assert poly_deg(sigma) <= t
    roots = code._locator_roots(pack(code.field, sigma))
    assert roots == oracles.scan_roots(code, sigma)
    if e is not None:
        assert roots == e
    moved_roots = moved._locator_roots(pack(code.field, sigma))
    assert moved_roots == oracles.scan_roots(moved, sigma)
    assert moved_roots == sum(1 << dest[i] for i in range(code.params.n) if roots >> i & 1)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ROOT_FIELDS)), st.integers(2, 6), st.integers(0, 2**32))
def test_locator_roots_match_scan_on_partial_supports(m, t, seed):
    # supports shorter than the field, with and without 0; each sigma is
    # a product of linear factors at random field elements (on or off
    # the support, repeats allowed) of every degree up to t
    field = ROOT_FIELDS[m]
    rnd = random.Random(seed)
    t = min(t, (field.order - 1) // m)
    n = rnd.randrange(m * t + 1, field.order + 1)
    support = rnd.sample(range(field.order), n)
    g = pack(field, monic_irreducible(field, t, rnd))
    code = GoppaCode(CodeParams(n, n - m * t, t, m), support, g)
    for degree in range(t + 1):
        sigma = [rnd.randrange(1, field.order)]
        for _ in range(degree):
            sigma = poly_mul(field, sigma, [rnd.randrange(field.order), 1])
        assert code._locator_roots(pack(field, sigma)) == oracles.scan_roots(code, sigma)


# caller-built codes at m = 12 and 16 on random partial supports: (m, t, n)
SMALL_CODES = {"m12": (12, 6, 150), "m16": (16, 4, 100)}


@functools.cache
def decode_code(name: str) -> GoppaCode:
    """A generated code per scale, the caller-built mid code whose g is
    SQUARE_Q squared, or a small code at m = 12 or 16."""
    if name == "mid-square":
        field = FIELDS[8]
        g = pack(field, oracles.poly_mul(field, SQUARE_Q, SQUARE_Q))
        return GoppaCode(MID, list(range(256)), g)
    if name in SMALL_CODES:
        m, t, n = SMALL_CODES[name]
        field = PATTERSON_FIELDS[m]
        rnd = random.Random(name)
        support = rnd.sample(range(field.order), n)
        g = pack(field, monic_irreducible(field, t, rnd))
        return GoppaCode(CodeParams(n, n - m * t, t, m), support, g)
    return root_code(name, True)


def synd_of_poly(code: GoppaCode, s_poly: list[int]) -> int:
    """The syndrome whose S(x) is s_poly, of degree < t: coefficient
    t-1-r of S(x) is S_r plus g_l * S_(l-t+r) for t-r <= l < t, so the
    components follow in order."""
    fld = code.field
    g = unpack(fld, code.goppa_poly)
    t, m = code.params.t, code.params.m
    p = s_poly + [0] * (t - len(s_poly))
    comps = []
    for r in range(t):
        j = t - 1 - r
        c = p[j]
        for l in range(j + 1, t):
            c ^= field_mul(fld, g[l], comps[l - 1 - j])
        comps.append(c)
    return sum(c << (r * m) for r, c in enumerate(comps))


def decode_syndrome(name: str, source: str, weight: int, seed: int) -> int:
    """The syndrome of a random error of weight min(weight, t), a random
    forged syndrome, or the syndrome of a drawn S(x), which on the
    square-g code is a multiple of SQUARE_Q and so not invertible.  A
    "s-short" S(x) has a random degree below t - 1 (top zeros)."""
    code = decode_code(name)
    n, t, m = code.params.n, code.params.t, code.params.m
    rnd = random.Random(seed)
    if source == "error":
        return code.syndrome(sum(1 << i for i in rnd.sample(range(n), min(weight, t))))
    if source == "forged":
        return rnd.getrandbits(m * t) or 1
    fld = code.field
    factor = SQUARE_Q if name == "mid-square" else [1]
    top = t - len(factor) if source == "s-poly" else rnd.randrange(t - len(factor))
    h = [rnd.randrange(1, fld.order)] + [rnd.randrange(fld.order) for _ in range(top)]
    s_poly = oracles.poly_mul(fld, factor, h)
    synd = synd_of_poly(code, s_poly)
    assert oracles.syndrome_poly(code, synd) == s_poly
    return synd


DECODE_CODES = ["headline", "m12", "m16", "mid", "mid-square", "toy"]
DECODE_SOURCES = st.sampled_from(["error", "forged", "s-poly", "s-short"])


@pytest.mark.parametrize("name", DECODE_CODES)
@settings(max_examples=25, deadline=None)
@given(source=DECODE_SOURCES, weight=st.integers(1, 64), seed=st.integers(0, 2**64))
@example(source="error", weight=64, seed=0)
@example(source="s-poly", weight=1, seed=0)
@example(source="s-short", weight=1, seed=1)
def test_syndrome_poly_and_locator_match_oracle(name, source, weight, seed):
    code = decode_code(name)
    synd = decode_syndrome(name, source, weight, seed)
    assert unpack(code.field, code.syndrome_poly(synd)) == oracles.syndrome_poly(code, synd)
    try:
        expected = oracles.locator(code, synd)
    except ZeroDivisionError:
        assert name == "mid-square"
        with pytest.raises(DecodingFailure) as info:
            code._locator(synd)
        assert info.value.reason == "syndrome-not-invertible"
    else:
        assert not (name == "mid-square" and source.startswith("s-"))
        assert unpack(code.field, code._locator(synd)) == expected


@pytest.mark.parametrize("name", DECODE_CODES)
@settings(max_examples=25, deadline=None)
@given(source=DECODE_SOURCES, weight=st.integers(1, 64), seed=st.integers(0, 2**64))
@example(source="error", weight=64, seed=0)
@example(source="s-poly", weight=1, seed=0)
@example(source="s-short", weight=1, seed=1)
def test_decode_matches_oracle_chain(name, source, weight, seed):
    code = decode_code(name)
    synd = decode_syndrome(name, source, weight, seed)
    assert outcome(code.decode, synd) == outcome(oracles.decode, code, synd)


@pytest.mark.parametrize("name", DECODE_CODES)
def test_decode_matches_oracle_at_every_weight(name):
    # one error of each weight 1..t, then forgeries: the value, or the
    # failure class and reason, is the oracle chain's
    code = decode_code(name)
    rnd = random.Random(name)
    n, t, m = code.params.n, code.params.t, code.params.m
    for w in range(1, t + 1):
        e = sum(1 << i for i in rnd.sample(range(n), w))
        synd = code.syndrome(e)
        assert outcome(code.decode, synd) == outcome(oracles.decode, code, synd)
        if name != "mid-square":
            assert code.decode(synd) == e
    for _ in range(4):
        synd = rnd.getrandbits(m * t) or 1
        assert outcome(code.decode, synd) == outcome(oracles.decode, code, synd)


def test_square_g_forgeries_fail_as_syndrome_not_invertible():
    # every S(x) that is a multiple of q has no inverse modulo g = q^2
    code = decode_code("mid-square")
    for seed in range(8):
        synd = decode_syndrome("mid-square", "s-short", 1, seed)
        expected = (DecodingFailure, "syndrome-not-invertible")
        assert outcome(code.decode, synd) == outcome(oracles.decode, code, synd) == expected


STRESS = CodeParams(3488, 2720, 64, 12)


@pytest.mark.parametrize("params", [TOY, MID, HEADLINE, STRESS], ids=["toy", "mid", "headline", "stress"])
def test_syndrome_poly_matches_oracle_at_every_scale(params):
    code = generate_code(params, SeededRng(seed_bytes(0x73)))
    n, t, m = params.n, params.t, params.m
    rnd = random.Random(t)
    synds = [1, 1 << (m * t - 1), rnd.getrandbits(m * (t // 2))]
    for w in (1, 2, t // 2, t):
        synds.append(code.syndrome(sum(1 << i for i in rnd.sample(range(n), w))))
    synds += [rnd.getrandbits(m * t) for _ in range(4)]
    for synd in synds:
        assert unpack(code.field, code.syndrome_poly(synd)) == oracles.syndrome_poly(code, synd)


@st.composite
def patterson_case(draw):
    """A field with m in {4, 8, 10, 12, 16}, a monic irreducible g of
    degree 2 to 8, a syndrome polynomial S of degree below it (top zeros
    allowed, never all zero) and a Euclid bound of -1 or t // 2."""
    field = PATTERSON_FIELDS[draw(st.sampled_from(sorted(PATTERSON_FIELDS)))]
    t = draw(st.integers(2, 8))
    g = monic_irreducible(field, t, random.Random(draw(st.integers(0, 2**32))))
    coeff = st.integers(0, field.order - 1) | st.just(0)
    s = draw(st.lists(coeff, min_size=1, max_size=t))
    s[0] = s[0] or 1
    return field, g, s, draw(st.sampled_from([-1, t // 2]))


@settings(max_examples=150, deadline=None)
@given(patterson_case())
def test_patterson_stages_match_oracle(case):
    # each packed stage of the locator against its list oracle, in the
    # order the decoder runs them
    field, g, s, dbound = case
    m = field.m
    packed_g = pack(field, g)
    mod = modulus(field, packed_g)
    sqrt_x = sqrt_x_mod(field, packed_g, mod)
    assert unpack(field, sqrt_x) == oracles.sqrt_x_mod(field, g)
    t_poly = poly_inv_mod(field, pack(field, s), packed_g)
    expected = oracles.poly_inv_mod(field, s, g)
    assert unpack(field, t_poly) == expected
    u = oracles.poly_add(expected, [0, 1])
    r = poly_sqrt_mod(field, t_poly ^ 1 << m, mod, mul_tables(field, sqrt_x))
    expected = oracles.poly_sqrt_mod(field, u, g, oracles.sqrt_x_mod(field, g))
    assert unpack(field, r) == expected
    a, b = poly_eea_bounded(field, packed_g, r, dbound)
    rr, _, vv = oracles.poly_eea_bounded(field, g, expected, dbound)
    assert (unpack(field, a), unpack(field, b)) == (rr, vv)
    sigma = squares(field, a) | squares(field, b) << m
    assert unpack(field, sigma) == poly_add(oracles.poly_sqr(field, rr), [0] + oracles.poly_sqr(field, vv))


@pytest.mark.parametrize("m", sorted(REDUCTION_POLYS))
def test_field_tables_match_generator_search(m):
    exp, log = oracles.field_tables(m, REDUCTION_POLYS[m])
    field = Field(m)
    assert field.exp_table == exp
    assert field.log_table == log


# (scheme id, w, run start, run length) per scheme, as `kal1 keygen` fills them
DECRYPT_SCHEMES = {
    "niederreiter": (keyio.SCHEME_NIEDERREITER, 0, 0, 0),
    "kal1": (keyio.SCHEME_KAL1, 0, 0, 0),
    "kal1-s1": (keyio.SCHEME_KAL1_S1, 3, 0, 0),
    "kal1-s2": (keyio.SCHEME_KAL1_S2, 0, 1, 2),
}
DECRYPT_SCALES = {"toy": (TOY, 0x60), "mid": (MID, 0x61), "headline": (HEADLINE, 0x62)}


def outcome(fn, *args):
    """The value, or the exception class and its DecodingFailure reason."""
    try:
        return fn(*args)
    except Kal1Error as exc:
        return type(exc), getattr(exc, "reason", None)


@functools.cache
def oracle_chain(scale):
    """The oracle keygen chain for a scale's seed; every scheme draws
    its inner key first, so the chain is the same for all four."""
    params, tag = DECRYPT_SCALES[scale]
    return oracles.niederreiter_keygen(params, SeededRng(seed_bytes(tag)))


@pytest.mark.parametrize("scheme_name", sorted(DECRYPT_SCHEMES))
@pytest.mark.parametrize("scale", sorted(DECRYPT_SCALES))
def test_decrypt_matches_oracle_chain(monkeypatch, scale, scheme_name):
    params, tag = DECRYPT_SCALES[scale]
    sid, w, run_start, run_len = DECRYPT_SCHEMES[scheme_name]
    _, priv = keyio.regenerate(sid, params, w, run_start, run_len, seed_bytes(tag))
    chain = oracle_chain(scale)
    check_key_against_chain(priv, chain)

    def chain_decrypt(_, c):
        return oracles.niederreiter_decrypt(chain.code, chain.perm, chain.scrambler.s_inv, c)

    nk, t = params.redundancy, params.t
    rnd = random.Random(tag)
    words = [0, 1 << nk, -1]
    words += [sum(1 << i for i in rnd.sample(range(nk), t)) for _ in range(8)]
    words += [rnd.getrandbits(nk) for _ in range(8)]
    inner = [outcome(niederreiter.decrypt, priv, c) for c in words]
    outer = [outcome(scheme.decrypt, priv, c) for c in words]
    assert [outcome(chain_decrypt, priv, c) for c in words] == inner
    # scheme.decrypt over the oracle chain
    monkeypatch.setattr(niederreiter, "decrypt", chain_decrypt)
    assert [outcome(scheme.decrypt, priv, c) for c in words] == outer
    # 0 and every weight-t word decode to an error vector
    assert sum(isinstance(r, int) for r in inner) >= 9
