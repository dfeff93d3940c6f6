"""The packed, Ben-Or and Patterson kernels, keygen and decoding
against the slow code they replaced in ``oracles``.

Each family's property from ``differential`` runs under Hypothesis in
one test (packed: test_packed_euclid_matches_oracle); the family's other
tests are rows.  Keygen must reproduce the oracle chain's code,
permutation, scrambler and public matrix; the root finder, S(x), the
locator, decoding and decryption must match it, failures included.
"""

import functools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kal1 import goppa, keyio, niederreiter, scheme
from kal1.binmat import BinaryMatrix, eliminate
from kal1.errors import DecodingFailure, GenerationFailure, Kal1Error
from kal1.gf2m import REDUCTION_POLYS, Field, is_irreducible, modulus, sqrt_x_mod
from kal1.goppa import POLY_TRIALS_PER_DEGREE, CodeParams, GoppaCode, generate_code
from kal1.rng import SeededRng

import oracles
from conftest import MID, SQUARE_Q, TOY, perm_inverse, seed_bytes
from differential import (
    FIELDS,
    check_irreducible,
    check_matrix,
    check_packed,
    check_patterson,
    irreducibility_cases,
    matrices,
    patterson_cases,
    poly_pairs,
    product,
)
from oracles import field_mul, pack, poly_deg, poly_mul, unpack

HEADLINE = CodeParams(1024, 524, 50, 10)
STRESS = CodeParams(3488, 2720, 64, 12)
F = FIELDS


# --- the packed family: its property, then its rows ---


@settings(max_examples=300, deadline=None)
@given(poly_pairs())
@example((F[4], [], [], -1))
@example((F[16], [0, 5, 0], [3, 0, 0], -1))
@example((F[8], [2, 7, 1], [0, 4, 0, 0], 0))
@example((F[5], [0, 1], [31], -1))
@example((F[16], [65535, 0, 65535], [0, 65535, 65535], 0))
@example((F[4], [1, 1], [], 1))
@example((F[4], [0, 1], [0, 2], -1))
def test_packed_euclid_matches_oracle(case):
    # the loop's first round divides when deg r0 >= deg r1 and is a swap
    # otherwise, so each pair runs in both orders; at equal degrees the
    # first divisor's alpha multiples reach the widest coefficient
    check_packed(*case)


def test_poly_divmod_matches_oracle():
    # a zero, a constant and a non-monic divisor with top zeros
    for field, f, g in [(F[4], [3, 1, 2], []), (F[10], [5] * 9, [7]), (F[16], [1] * 24, [0, 9, 0, 4, 0, 0])]:
        check_packed(field, f, g)


def test_poly_mul_matches_oracle():
    # products whose every coefficient is 2^m - 1, up to 24 by 24
    for m in (4, 5, 8, 16):
        top = F[m].order - 1
        check_packed(F[m], [top] * 24, [top] * 24)


def test_packed_mul_mod_matches_oracle():
    # (f mod g) * f modulo g: a zero product, a modulus with no low
    # terms, and ones whose folds take both halves of each coefficient
    check_packed(F[16], [], [7, 1])
    check_packed(F[4], [0, 3, 5, 0, 9, 0, 2], [0, 0, 1])
    check_packed(F[8], [200, 3, 255, 17, 96, 1, 0, 250], [9, 254, 77, 131])
    check_packed(F[13], [8191] * 9, [4097, 3, 8190, 1])


def test_packed_remainder_of_any_degree_matches_oracle():
    # remainders of degree-59 dividends by non-monic divisors
    check_packed(F[10], [], [0, 3, 0])
    check_packed(F[16], [1] * 20 + [0] * 39 + [3], [5, 0, 9, 0])


def test_poly_eea_bounded_matches_oracle():
    # every bound from -1 up to past both degrees
    for dbound in range(-1, 13):
        check_packed(F[12], [4095, 0, 7, 1, 0, 9, 3], [1, 2, 3, 4095], dbound)


def test_poly_inv_mod_matches_oracle():
    # f of any degree: unreduced, the loop's first round is a swap
    check_packed(F[10], [5, 7, 1], [3, 1])
    check_packed(F[12], [0, 0, 9], [0, 1])


@pytest.mark.parametrize("m", [4, 5, 8, 10, 12, 16])
def test_poly_inv_mod_refuses_a_constant_modulus(m):
    # nothing is invertible modulo a constant, as the oracle's f mod g = 0
    # says; Euclid alone would return f = 1 as its own inverse modulo 1
    field = F[m]
    for g in ([1], [field.order - 1], []):
        for f in ([1], [3, 1], [1] * 7, [field.order - 1, 0, 2]):
            check_packed(field, f, g)


def test_squares_matches_oracle():
    for m in (10, 16):
        check_packed(F[m], list(range(1, 31)))


def test_sqrt_halves_match_field_sqrt():
    # odd m swaps the even and odd bits of the odd-index coefficients
    for m in (5, 9, 13):
        check_packed(F[m], [F[m].order - 1 - i for i in range(30)])


def frobenius_cases(field, rnd):
    """0, one coefficient at each of several degrees, all-ones and random
    coefficients, at lengths on both sides of every byte boundary up to
    33 coefficients (eight of them fill m bytes) and at 64 and 65."""
    q1 = field.order - 1
    yield []
    for i in (0, 1, 2, 7, 8, 9, 31):
        for c in (1, q1, rnd.randrange(1, field.order)):
            yield [0] * i + [c]
    for length in [*range(1, 34), 64, 65]:
        yield [q1] * length
        yield [rnd.randrange(field.order) for _ in range(length - 1)] + [q1]
        yield [rnd.randrange(field.order) for _ in range(length)]


@pytest.mark.parametrize("m", sorted(REDUCTION_POLYS))
def test_squares_and_sqrt_halves_match_their_oracles_at_every_m(m):
    # odd m puts the m-bit slots out of step with the translated bytes
    for f in frobenius_cases(F[m], random.Random(f"frobenius/{m}")):
        check_packed(F[m], f)


# --- Ben-Or's is_irreducible: its property, then its rows ---


@settings(max_examples=150, deadline=None)
@given(irreducibility_cases())
def test_is_irreducible_matches_oracle(case):
    check_irreducible(*case)


def test_is_irreducible_matches_oracle_on_monic():
    rnd = random.Random("monic")
    for field in F.values():
        for t in range(1, 7):
            check_irreducible(field, [rnd.randrange(field.order) for _ in range(t)] + [1])


def test_is_irreducible_matches_oracle_on_products():
    # the smallest factor degree d is at most deg(f)/2, so Ben-Or's test
    # runs d levels before it rejects f
    for m, degrees, seed in [(16, [12, 12], 0), (10, [11, 12], 1), (4, [3, 2, 2], 2)]:
        assert check_irreducible(F[m], product(F[m], degrees, random.Random(seed))) is False


def test_is_irreducible_matches_oracle_on_raw_lists():
    # any leading coefficient, trailing zeros, zero and all-ones coefficients
    rnd = random.Random("raw")
    for field in (F[5], F[12]):
        top = field.order - 1
        for _ in range(40):
            f = [rnd.choice([0, top, rnd.randrange(field.order)]) for _ in range(rnd.randrange(25))]
            check_irreducible(field, f + [rnd.randrange(1, field.order)] + [0] * rnd.randrange(4))


@pytest.mark.parametrize("t", [2, 3])
@pytest.mark.parametrize("m", [4, 8, 10, 16])
def test_is_irreducible_matches_oracle_at_degree_2_and_3(m, t):
    field = F[m]
    rnd = random.Random(f"low-degree/{m}/{t}")
    for _ in range(150):
        f = [rnd.randrange(field.order) for _ in range(t)] + [rnd.randrange(1, field.order)]
        check_irreducible(field, f)


@pytest.mark.parametrize("tag", range(4))
def test_is_irreducible_decides_mid_candidates_like_oracle(monkeypatch, tag):
    # every candidate generate_code tries, rejected ones included
    decided = []

    def recording(field, f):
        decided.append(f)
        return is_irreducible(field, f)

    monkeypatch.setattr(goppa, "is_irreducible", recording)
    code = generate_code(MID, SeededRng(seed_bytes(tag)))
    verdicts = [check_irreducible(code.field, unpack(code.field, f)) for f in decided]
    assert decided[-1] == code.goppa_poly and verdicts[-1]


# --- Patterson's stages ---


@settings(max_examples=150, deadline=None)
@given(patterson_cases())
def test_patterson_stages_match_oracle(case):
    check_patterson(*case)


def packed_sqrt_x(field, g):
    packed = pack(field, g)
    return unpack(field, sqrt_x_mod(field, packed, modulus(field, packed)))


@given(st.sampled_from([4, 8, 10]), st.lists(st.integers(0, 1023), min_size=1, max_size=6))
def test_sqrt_x_mod_squares_to_x(m, low):
    # any monic g: the square root of x when g is squarefree, and the
    # repeated-squaring fallback's x^(2^(m*t-1)) when it is not
    field = F[m]
    g = [c % field.order for c in low] + [1]
    root = packed_sqrt_x(field, g)
    g1 = [oracles.field_sqrt(field, c) for c in g[1::2]]
    try:
        oracles.poly_inv_mod(field, g1, g)
    except ZeroDivisionError:
        assert root == oracles.sqrt_x_mod(field, g)
        return
    assert oracles.poly_mod(field, oracles.poly_sqr(field, root), g) == oracles.poly_mod(field, [0, 1], g)
    if oracles.is_irreducible(field, g):
        assert root == oracles.sqrt_x_mod(field, g)


def test_sqrt_x_mod_of_a_square_falls_back():
    rnd = random.Random("square")
    for m in (4, 8, 10):
        for t in range(1, 6):
            q = [rnd.randrange(F[m].order) for _ in range(t)] + [1]
            g = oracles.poly_sqr(F[m], q)
            assert packed_sqrt_x(F[m], g) == oracles.sqrt_x_mod(F[m], g)


# --- GF(2) matrices: the family's property ---


@settings(deadline=None)
@given(matrices())
def test_matrix_family_matches_oracle(case):
    # rank, invert, mul, transpose and eliminate on any shape up to 70 x 70
    check_matrix(*case)


# --- codes: the field rows, keygen and the root finder ---


@pytest.mark.parametrize("params, tag", [(TOY, 1), (TOY, 2), (MID, 3), (MID, 4), (HEADLINE, 5)])
def test_field_rows_match_oracle(params, tag):
    # these supports cover the whole field, so 0 is always among them
    code = generate_code(params, SeededRng(seed_bytes(tag)))
    assert 0 in code.support
    assert code._field_rows() == oracles.parity_check_rows(code)


def partial_code(field, t, rnd):
    """A code on a random support shorter than the field, 0 on it or not."""
    m = field.m
    t = min(t, (field.order - 1) // m)
    n = rnd.randrange(m * t + 1, field.order + 1)
    support = rnd.sample(range(field.order), n)
    g = pack(field, oracles.monic_irreducible(field, t, rnd))
    return GoppaCode(CodeParams(n, n - m * t, t, m), support, g)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([4, 8]), st.integers(2, 6), st.integers(0, 2**32))
def test_field_rows_match_oracle_on_partial_supports(m, t, seed):
    code = partial_code(F[m], t, random.Random(seed))
    assert code._field_rows() == oracles.parity_check_rows(code)


def test_field_rows_on_support_without_zero():
    g = oracles.monic_irreducible(F[4], 2, random.Random(0))
    code = GoppaCode(CodeParams(12, 4, 2, 4), list(range(1, 13)), pack(F[4], g))
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
    assert code == oracles.generate_code(params, SeededRng(seed_bytes(tag)))
    g = unpack(code.field, code.goppa_poly)
    assert len(g) == params.t + 1 and g[-1] == 1 and oracles.is_irreducible(code.field, g)


# k = 1 leaves one column past m*t, so rank-deficient codes are common:
# over a third of the seeds resample, and seed 12 resamples three times
SMALL_K = CodeParams(25, 1, 3, 8)


@pytest.mark.parametrize("spare", [goppa.RANK_SPARE_COLUMNS, 0])
@pytest.mark.parametrize("params, tag", [(TOY, 1), (MID, 4), (HEADLINE, 7), (SMALL_K, 12)])
def test_generate_code_picks_the_oracle_code_and_leaves_the_stream_there(monkeypatch, params, tag, spare):
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
    assert generate_code(params, rng) == oracles.generate_code(params, ref_rng)
    assert rng.read(16) == ref_rng.read(16)
    assert set(fallbacks) <= {params.n}
    assert fallbacks or spare or params.n == params.m * params.t


def test_generate_code_ranks_a_code_no_longer_than_its_first_columns_once(monkeypatch):
    # at SMALL_K the first m*t + 16 columns are all 25, so their rank()
    # decides each code alone: seed 12 draws four codes, three of them
    # rank deficient, and no elimination repeats a rank just made
    ranks, fallbacks = [], []
    rank = BinaryMatrix.rank
    monkeypatch.setattr(BinaryMatrix, "rank", lambda self: ranks.append(self.rows) or rank(self))
    monkeypatch.setattr(goppa, "eliminate", lambda *args: fallbacks.append(args) or eliminate(*args))
    code = generate_code(SMALL_K, SeededRng(seed_bytes(12)))
    assert code == oracles.generate_code(SMALL_K, SeededRng(seed_bytes(12)))
    assert (ranks, fallbacks) == ([SMALL_K.n] * 4, [])


def check_keygen(params, seed):
    pub, priv = niederreiter.keygen(params, SeededRng(seed))
    chain = oracles.niederreiter_keygen(params, SeededRng(seed))
    check_key_against_chain(priv, chain)
    assert pub.check_t == chain.check_t


def check_key_against_chain(priv, chain):
    """The key is the chain's code with position i moved to perm[i], and
    the right block of its check is the chain's R = s_inv."""
    k, nk = priv.params.k, priv.params.redundancy
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

    coefficient_draws = 0

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
    rnd = random.Random(seed)
    degree = min(degree, t)
    e = None
    if source == "error":
        e = sum(1 << i for i in rnd.sample(range(n), max(degree, 1)))
        sigma = unpack(code.field, code._locator(code.syndrome(e)))
    elif source == "forged":
        sigma = unpack(code.field, code._locator(rnd.getrandbits(m * t) or 1))
    else:
        order = code.field.order
        sigma = [rnd.randrange(order) for _ in range(degree)] + [rnd.randrange(1, order)]
    assert poly_deg(sigma) <= t
    roots = code._locator_roots(pack(code.field, sigma))
    assert roots == oracles.scan_roots(code, sigma)
    assert e is None or roots == e
    moved_roots = moved._locator_roots(pack(code.field, sigma))
    assert moved_roots == oracles.scan_roots(moved, sigma)
    assert moved_roots == sum(1 << dest[i] for i in range(n) if roots >> i & 1)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([4, 8, 12]), st.integers(2, 6), st.integers(0, 2**32))
def test_locator_roots_match_scan_on_partial_supports(m, t, seed):
    # each sigma is a product of linear factors at random field elements
    # (on or off the support, repeats allowed) of every degree up to t
    rnd = random.Random(seed)
    code = partial_code(F[m], t, rnd)
    sigma = [rnd.randrange(1, F[m].order)]
    for degree in range(code.params.t + 1):
        assert code._locator_roots(pack(F[m], sigma)) == oracles.scan_roots(code, sigma)
        sigma = poly_mul(F[m], sigma, [rnd.randrange(F[m].order), 1])


# --- S(x), the locator, decoding and decryption ---

# caller-built codes at m = 12 and 16 on random partial supports: (m, t, n)
SMALL_CODES = {"m12": (12, 6, 150), "m16": (16, 4, 100)}


@functools.cache
def decode_code(name: str) -> GoppaCode:
    """A generated code per scale, the caller-built mid code whose g is
    SQUARE_Q squared, or a small code at m = 12 or 16."""
    if name == "mid-square":
        return GoppaCode(MID, list(range(256)), pack(F[8], poly_mul(F[8], SQUARE_Q, SQUARE_Q)))
    if name in SMALL_CODES:
        m, t, n = SMALL_CODES[name]
        rnd = random.Random(name)
        support = rnd.sample(range(F[m].order), n)
        g = pack(F[m], oracles.monic_irreducible(F[m], t, rnd))
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
    s_poly = poly_mul(fld, factor, h)
    synd = synd_of_poly(code, s_poly)
    assert oracles.syndrome_poly(code, synd) == s_poly
    return synd


def failure(fn, *args):
    """The value, or the class of what fn raised, its DecodingFailure
    reason and its message."""
    try:
        return fn(*args)
    except Kal1Error as exc:
        return type(exc), getattr(exc, "reason", None), str(exc)


NOT_INVERTIBLE = (DecodingFailure, "syndrome-not-invertible", "syndrome not invertible modulo g")


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
        assert failure(code._locator, synd) == NOT_INVERTIBLE
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
    assert failure(code.decode, synd) == failure(oracles.decode, code, synd)


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
        assert failure(code.decode, synd) == failure(oracles.decode, code, synd)
        assert name == "mid-square" or code.decode(synd) == e
    for _ in range(4):
        synd = rnd.getrandbits(m * t) or 1
        assert failure(code.decode, synd) == failure(oracles.decode, code, synd)


def test_square_g_forgeries_fail_as_syndrome_not_invertible():
    # every S(x) that is a multiple of q has no inverse modulo g = q^2
    code = decode_code("mid-square")
    for seed in range(8):
        synd = decode_syndrome("mid-square", "s-short", 1, seed)
        assert failure(code.decode, synd) == failure(oracles.decode, code, synd) == NOT_INVERTIBLE


@pytest.mark.parametrize("params", [TOY, MID, HEADLINE, STRESS], ids=["toy", "mid", "headline", "stress"])
def test_syndrome_poly_matches_oracle_at_every_scale(params):
    code = generate_code(params, SeededRng(seed_bytes(0x73)))
    n, t, m = params.n, params.t, params.m
    rnd = random.Random(t)
    synds = [1, 1 << (m * t - 1), rnd.getrandbits(m * (t // 2))]
    synds += [code.syndrome(sum(1 << i for i in rnd.sample(range(n), w))) for w in (1, 2, t // 2, t)]
    synds += [rnd.getrandbits(m * t) for _ in range(4)]
    for synd in synds:
        assert unpack(code.field, code.syndrome_poly(synd)) == oracles.syndrome_poly(code, synd)


@pytest.mark.parametrize("m", sorted(REDUCTION_POLYS))
def test_field_tables_match_generator_search(m):
    exp, log = oracles.field_tables(m, REDUCTION_POLYS[m])
    field = Field(m)
    assert (field.exp_table, field.log_table) == (exp, log)


# (scheme id, w, run start, run length) per scheme, as `kal1 keygen` fills them
DECRYPT_SCHEMES = {
    "niederreiter": (keyio.SCHEME_NIEDERREITER, 0, 0, 0),
    "kal1": (keyio.SCHEME_KAL1, 0, 0, 0),
    "kal1-s1": (keyio.SCHEME_KAL1_S1, 3, 0, 0),
    "kal1-s2": (keyio.SCHEME_KAL1_S2, 0, 1, 2),
}
DECRYPT_SCALES = {"toy": (TOY, 0x60), "mid": (MID, 0x61), "headline": (HEADLINE, 0x62)}


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
    inner = [failure(niederreiter.decrypt, priv, c) for c in words]
    outer = [failure(scheme.decrypt, priv, c) for c in words]
    assert [failure(chain_decrypt, priv, c) for c in words] == inner
    # scheme.decrypt over the oracle chain
    monkeypatch.setattr(niederreiter, "decrypt", chain_decrypt)
    assert [failure(scheme.decrypt, priv, c) for c in words] == outer
    # 0 and every weight-t word decode to an error vector
    assert sum(isinstance(r, int) for r in inner) >= 9
