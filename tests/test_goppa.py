"""Goppa code construction and Patterson decoding, oracle-checked."""

import random
import time
from itertools import combinations

import pytest

from kal1 import gf2m, goppa
from kal1.binmat import BinaryMatrix
from kal1.errors import DecodingFailure, DimensionMismatch, ParameterError
from kal1.gf2m import Field, is_irreducible
from kal1.goppa import CodeParams, GoppaCode, generate_code
from kal1.rng import SeededRng

import oracles
from conftest import MID, SQUARE_Q, TOY, seed_bytes
from oracles import pack, poly_eval, poly_mul, unpack

# frozen draw for generate_code(TOY, seed 1)
TOY_SUPPORT = (5, 6, 12, 8, 1, 14, 2, 10, 9, 4, 3, 15, 7, 0, 13, 11)
TOY_G = [15, 9, 1]


def all_weights_upto(n, wmax):
    for w in range(wmax + 1):
        for supp in combinations(range(n), w):
            yield sum(1 << i for i in supp)


def test_params_validation():
    with pytest.raises(ParameterError):
        CodeParams(32, 16, 2, 4)  # n > 2^m
    with pytest.raises(ParameterError):
        CodeParams(16, 9, 2, 4)  # k != n - m*t
    with pytest.raises(ParameterError):
        CodeParams(16, 12, 1, 4)  # t < 2
    with pytest.raises(ParameterError):
        CodeParams(16, 8, 2, 3)  # m out of range
    with pytest.raises(ParameterError):
        CodeParams(8, 0, 2, 4)  # no message positions
    p = CodeParams(16, 8, 2, 4)
    assert p.redundancy == 8


def test_generate_code_pinned_fixture(toy_code):
    assert toy_code.support == TOY_SUPPORT
    assert toy_code.goppa_poly == pack(toy_code.field, TOY_G) == 0x19F


def test_support_is_permutation_when_full_length(toy_code):
    # n = 2^m: the support must hit every field element once
    assert sorted(toy_code.support) == list(range(16))


def test_goppa_poly_is_irreducible_and_rootless(toy_code):
    field = toy_code.field
    assert is_irreducible(field, toy_code.goppa_poly)
    for a in range(16):
        assert poly_eval(field, unpack(field, toy_code.goppa_poly), a) != 0


def test_code_constructor_validations(toy_code):
    field = Field(4)
    params = TOY
    g = pack(field, TOY_G)
    with pytest.raises(ParameterError):
        GoppaCode(params, TOY_SUPPORT[:-1] + TOY_SUPPORT[:1], g)  # duplicate
    with pytest.raises(ParameterError, match="vanishes"):
        GoppaCode(params, TOY_SUPPORT, pack(field, [0, 0, 1]))  # x^2 vanishes at 0
    # negative, not monic, or of another degree than t = 2
    bad = [-g, -(1 << 8), pack(field, [1, 0, 2]), pack(field, [15, 9, 3])]
    bad += [0, pack(field, [3, 1]), pack(field, [15, 9, 1, 1]), g << 4]
    for g in bad:
        with pytest.raises(ParameterError, match="monic of degree t"):
            GoppaCode(params, list(range(16)), g)


def test_code_rejects_goppa_poly_with_a_nonzero_root_on_the_support():
    # (x + root)(x + 14) on the support 1..12: the one root on the support
    # is nonzero, so only the evaluation at nonzero elements can catch it
    field = Field(4)
    params = CodeParams(12, 4, 2, 4)
    support = list(range(1, 13))
    for root in support:
        with pytest.raises(ParameterError, match="vanishes"):
            GoppaCode(params, support, pack(field, poly_mul(field, [root, 1], [14, 1])))
    GoppaCode(params, support, pack(field, poly_mul(field, [13, 1], [14, 1])))
    # mid scale, whole field: x + root times x^7 + x + 1, which stays
    # irreducible over GF(2^8) since gcd(7, 8) = 1, so root is g's only root
    field = Field(8)
    h = [1, 1, 0, 0, 0, 0, 0, 1]
    assert is_irreducible(field, pack(field, h))
    for root in (1, 2, 97, 255):
        with pytest.raises(ParameterError, match="vanishes"):
            GoppaCode(MID, list(range(256)), pack(field, poly_mul(field, [root, 1], h)))


def test_parity_check_first_row_and_shape(toy_code):
    field = toy_code.field
    for i, alpha in enumerate(toy_code.support):
        expected = field.inv(poly_eval(field, unpack(field, toy_code.goppa_poly), alpha))
        assert toy_code._field_rows()[0][i] == expected
    rows = oracles.binary_check(toy_code)
    assert rows.rows == 8 and rows.cols == 16
    assert rows.rank() == 8
    assert toy_code.parity_check() == oracles.transpose(rows).row_ints


def test_binary_expansion_bit_order(toy_code):
    # coefficient bit b of field row j lands in binary row j*m + b
    rows = oracles.binary_check(toy_code)
    m = toy_code.params.m
    for j, row in enumerate(toy_code._field_rows()):
        for b in range(m):
            expected = sum(((row[i] >> b) & 1) << i for i in range(toy_code.params.n))
            assert rows.row_ints[j * m + b] == expected


def test_codewords_have_zero_syndrome(toy_code):
    # a basis of the code: the sets of positions whose columns of the
    # reference's binary check sum to zero, by the reference elimination
    cols = oracles.transpose(oracles.binary_check(toy_code)).row_ints
    width = toy_code.params.m * toy_code.params.t
    _, basis = oracles.eliminate([c | 1 << (width + i) for i, c in enumerate(cols)], width)
    assert len(basis) == toy_code.params.k
    rnd = random.Random(3)
    for _ in range(200):
        cw = 0
        for b in basis:
            if rnd.getrandbits(1):
                cw ^= b
        assert toy_code.syndrome(cw) == 0


def test_syndrome_trivia(toy_code):
    assert toy_code.syndrome(0) == 0
    for i in range(16):
        assert toy_code.syndrome(1 << i) == toy_code.parity_check()[i]
    # weight-2 syndromes match the generic matrix product
    bt = oracles.binary_check(toy_code).transpose()
    for supp in combinations(range(16), 2):
        e = sum(1 << i for i in supp)
        expected = BinaryMatrix(1, 16, [e]).mul(bt).row_ints[0]
        assert toy_code.syndrome(e) == expected
    with pytest.raises(DimensionMismatch):
        toy_code.syndrome(1 << 16)


def test_syndrome_linearity(toy_code):
    rnd = random.Random(4)
    for _ in range(300):
        e1 = rnd.getrandbits(16)
        e2 = rnd.getrandbits(16)
        assert toy_code.syndrome(e1 ^ e2) == toy_code.syndrome(e1) ^ toy_code.syndrome(e2)


def test_decode_zero_syndrome(toy_code):
    assert toy_code.decode(0) == 0


def test_decode_exhaustive_toy(toy_code):
    start = time.perf_counter()
    count = 0
    syndromes = set()
    for e in all_weights_upto(16, 2):
        s = toy_code.syndrome(e)
        syndromes.add(s)
        assert toy_code.decode(s) == e
        count += 1
    elapsed = time.perf_counter() - start
    assert count == 137
    assert len(syndromes) == 137  # distinct syndromes for weight <= t
    assert elapsed < 1.0


def test_decode_rejects_undecodable_syndromes(toy_code):
    # syndromes of weight-3 errors: either outside the decodable set
    # (must fail) or a true weight <= 2 preimage exists (must return it)
    decodable = {toy_code.syndrome(e): e for e in all_weights_upto(16, 2)}
    failures = 0
    for supp in combinations(range(16), 3):
        e3 = sum(1 << i for i in supp)
        s = toy_code.syndrome(e3)
        if s in decodable:
            assert toy_code.decode(s) == decodable[s]
        else:
            with pytest.raises(DecodingFailure):
                toy_code.decode(s)
            failures += 1
    assert failures > 0


def test_decode_syndrome_length_check(toy_code):
    with pytest.raises(DimensionMismatch):
        toy_code.decode(1 << 8)


def test_negative_syndrome_inputs_are_dimension_mismatch(toy_code):
    for e in (-1, -3, -(1 << 16)):
        with pytest.raises(DimensionMismatch):
            toy_code.syndrome(e)
    for synd in (-1, -5, -(1 << 8)):
        with pytest.raises(DimensionMismatch):
            toy_code.decode(synd)


@pytest.mark.parametrize("params, tag", [(TOY, 0x21), (MID, 0x22)])
def test_permuted_code_is_the_code_on_the_permuted_support(params, tag):
    code = generate_code(params, SeededRng(seed_bytes(tag)))
    rnd = random.Random(tag)
    dest = rnd.sample(range(params.n), params.n)
    moved = code.permuted(dest)
    for i, d in enumerate(dest):
        assert moved.support[d] == code.support[i]
    # the same code built from scratch on the permuted support
    fresh = GoppaCode(params, moved.support, code.goppa_poly)
    assert moved._g_values == fresh._g_values
    assert moved._field_rows() == fresh._field_rows()
    assert moved.parity_check() == fresh.parity_check()
    permuted = oracles.binary_check(code).permute_columns(dest)
    assert moved.parity_check() == oracles.transpose(permuted).row_ints
    for _ in range(20):
        e = sum(1 << i for i in rnd.sample(range(params.n), rnd.randint(1, params.t)))
        assert moved.decode(moved.syndrome(e)) == e
    with pytest.raises(DimensionMismatch):
        code.permuted(dest[:-1])
    with pytest.raises(DimensionMismatch):
        code.permuted([0] * params.n)


def test_permuted_code_shares_the_decoder_tables(monkeypatch):
    # the tables depend on g alone: a copy permuted after the first
    # decode does not look for sqrt(x) mod g again
    code = generate_code(MID, SeededRng(seed_bytes(0x23)))
    rnd = random.Random(0x23)
    e = sum(1 << i for i in rnd.sample(range(MID.n), MID.t))
    assert code.decode(code.syndrome(e)) == e
    calls = []
    inner = goppa.sqrt_x_mod
    monkeypatch.setattr(goppa, "sqrt_x_mod", lambda *args: calls.append(args) or inner(*args))
    dest = rnd.sample(range(MID.n), MID.n)
    moved = code.permuted(dest)
    moved_e = sum(1 << dest[i] for i in range(MID.n) if e >> i & 1)
    assert moved.decode(moved.syndrome(moved_e)) == moved_e
    assert calls == []


def test_codes_over_one_degree_share_one_field(monkeypatch):
    shared = gf2m.shared_field(MID.m)
    assert gf2m.shared_field(MID.m) is shared and shared.m == MID.m
    built = []
    init = gf2m.Field.__init__
    monkeypatch.setattr(gf2m.Field, "__init__", lambda self, m: built.append(m) or init(self, m))
    code = generate_code(MID, SeededRng(seed_bytes(0x25)))
    moved = code.permuted(random.Random(0x25).sample(range(MID.n), MID.n))
    fresh = GoppaCode(MID, code.support, code.goppa_poly)
    assert code.field is moved.field is fresh.field is shared
    assert built == []
    # another degree, another field, built once
    assert generate_code(TOY, SeededRng(seed_bytes(0x25))).field is gf2m.shared_field(TOY.m) is not shared
    assert built in ([], [TOY.m])


def test_decode_random_round_trip_mid_scale():
    code = generate_code(MID, SeededRng(seed_bytes(0x20)))
    rnd = random.Random(5)
    for _ in range(500):
        supp = rnd.sample(range(MID.n), MID.t)
        e = sum(1 << i for i in supp)
        assert code.decode(code.syndrome(e)) == e
    # below-capability weights decode too
    for w in range(0, MID.t):
        supp = rnd.sample(range(MID.n), w)
        e = sum(1 << i for i in supp)
        assert code.decode(code.syndrome(e)) == e


def test_generated_codes_have_full_rank_various_params():
    for tag, params in enumerate(
        (TOY, CodeParams(32, 17, 3, 5), CodeParams(64, 40, 4, 6), CodeParams(128, 72, 8, 7))
    ):
        code = generate_code(params, SeededRng(seed_bytes(0x30 + tag)))
        assert oracles.rank(oracles.binary_check(code)) == params.m * params.t
        assert len(set(code.support)) == params.n


def test_square_goppa_poly_decodes_weight_one_errors():
    # A caller-built code whose g = q^2 is a square: its odd part is zero,
    # so sqrt(x) mod g has no closed form and must come from the
    # repeated-squaring fallback.  Weight-1 errors still decode.
    field = Field(8)
    q = next(
        [a, b, 1]
        for a in range(1, 256)
        for b in range(256)
        if is_irreducible(field, pack(field, [a, b, 1]))
    )
    g = pack(field, poly_mul(field, q, q))
    code = GoppaCode(CodeParams(64, 32, 4, 8), list(range(1, 65)), g)
    for i in range(64):
        assert code.decode(code.syndrome(1 << i)) == 1 << i


def test_forged_mid_syndromes_fail_as_locator_not_split():
    # with an irreducible g a locator that splits on the support always
    # has the decoded syndrome (Patterson's key equation), so every
    # forged syndrome that fails, fails at the root count
    code = generate_code(MID, SeededRng(seed_bytes(0x20)))
    rnd = random.Random(6)
    failures = 0
    for _ in range(200):
        synd = rnd.getrandbits(MID.m * MID.t) or 1
        try:
            e = code.decode(synd)
        except DecodingFailure as exc:
            assert exc.reason == "locator-not-split"
            assert str(exc) == "error locator does not split over the support"
            failures += 1
        else:
            assert e.bit_count() <= MID.t and code.syndrome(e) == synd
    assert failures > 190


def test_locator_above_degree_t_fails_as_locator_not_split(monkeypatch):
    # Patterson's locator has degree <= t; one of degree t + 1 with
    # t + 1 roots on the support is still refused at the root count
    code = generate_code(MID, SeededRng(seed_bytes(0x20)))
    field = code.field
    sigma = [1]
    for alpha in code.support[: MID.t + 1]:
        sigma = poly_mul(field, sigma, [alpha, 1])
    # a code is frozen, so the class's method is patched
    monkeypatch.setattr(GoppaCode, "_locator", lambda self, synd: pack(field, sigma))
    with pytest.raises(DecodingFailure) as info:
        code.decode(1)
    assert info.value.reason == "locator-not-split"
    assert str(info.value) == "error locator does not split over the support"


# A caller-built mid code with the square g = q^2 (q = SQUARE_Q), whose
# square root of x is not one, and a forged syndrome (found by search)
# whose locator splits into 8 roots on the support that do not give
# that syndrome
MISMATCH_SYNDROME = 0xF4E3918214B5C6BA
# a syndrome of that code whose S(x) is q itself, which has no inverse
# modulo q^2
NON_INVERTIBLE_SYNDROME = 0xA34D7FB801000000


def test_forged_mid_syndrome_fails_as_syndrome_mismatch():
    field = Field(8)
    code = GoppaCode(MID, list(range(256)), pack(field, poly_mul(field, SQUARE_Q, SQUARE_Q)))
    assert is_irreducible(field, pack(field, SQUARE_Q))
    sigma = code._locator(MISMATCH_SYNDROME)
    assert code._locator_roots(sigma).bit_count() == len(unpack(field, sigma)) - 1 == MID.t
    with pytest.raises(DecodingFailure) as info:
        code.decode(MISMATCH_SYNDROME)
    assert info.value.reason == "syndrome-mismatch"
    assert str(info.value) == "recomputed syndrome mismatch"


def test_non_invertible_syndrome_fails_as_syndrome_not_invertible():
    field = Field(8)
    code = GoppaCode(MID, list(range(256)), pack(field, poly_mul(field, SQUARE_Q, SQUARE_Q)))
    assert unpack(field, code.syndrome_poly(NON_INVERTIBLE_SYNDROME)) == SQUARE_Q
    with pytest.raises(DecodingFailure) as info:
        code.decode(NON_INVERTIBLE_SYNDROME)
    assert info.value.reason == "syndrome-not-invertible"
    assert str(info.value) == "syndrome not invertible modulo g"
