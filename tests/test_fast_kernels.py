"""The fast keygen kernels against the slow code they replaced.

Every kernel must return exactly what its oracle in ``oracles`` returns,
on inputs that include zero coefficients, non-monic divisors and
untrimmed lists, at m = 4, 8 and 10.  Keygen itself must reproduce the
oracle chain's code, permutation, scrambler and public matrix.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kal1 import niederreiter
from kal1.binmat import BinaryMatrix
from kal1.errors import GenerationFailure
from kal1.gf2m import (
    Field,
    is_irreducible,
    poly_divmod,
    poly_inv_mod,
    poly_mod,
    poly_sqr,
    poly_trim,
    sqrt_x_mod,
)
from kal1.goppa import POLY_TRIALS_PER_DEGREE, generate_code
from kal1.rng import SeededRng

import oracles
from conftest import MID, TOY

FIELDS = {m: Field(m) for m in (4, 8, 10)}


@st.composite
def field_and_polys(draw, count, max_len=12):
    """A field and `count` raw coefficient lists (trailing zeros allowed)."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
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


@given(field_and_polys(2, max_len=24))
def test_poly_divmod_matches_oracle(case):
    field, (f, g) = case
    if not poly_trim(g):
        with pytest.raises(ZeroDivisionError):
            poly_divmod(field, f, g)
        return
    assert poly_divmod(field, f, g) == oracles.poly_divmod(field, f, g)


@given(field_and_polys(1, max_len=30))
def test_poly_sqr_matches_oracle(case):
    field, (f,) = case
    assert poly_sqr(field, f) == oracles.poly_sqr(field, f)


@given(field_and_polys(1, max_len=8))
def test_is_irreducible_matches_oracle(case):
    field, (f,) = case
    assert is_irreducible(field, f) == oracles.is_irreducible(field, f)


@given(field_and_monic())
def test_is_irreducible_matches_oracle_on_monic(case):
    field, g = case
    assert is_irreducible(field, g) == oracles.is_irreducible(field, g)


@given(field_and_monic())
def test_sqrt_x_mod_squares_to_x(case):
    field, g = case
    root = sqrt_x_mod(field, g)
    g1 = poly_trim([field.sqrt(c) for c in g[1::2]])
    try:
        poly_inv_mod(field, g1, g)
    except ZeroDivisionError:
        # g has a repeated factor: the repeated-squaring fallback runs
        assert root == oracles.sqrt_x_mod(field, g)
        return
    assert poly_mod(field, poly_sqr(field, root), g) == poly_mod(field, [0, 1], g)
    if is_irreducible(field, g):
        assert root == oracles.sqrt_x_mod(field, g)


@given(field_and_monic(max_deg=5))
def test_sqrt_x_mod_of_a_square_falls_back(case):
    field, q = case
    g = oracles.poly_sqr(field, q)
    assert sqrt_x_mod(field, g) == oracles.sqrt_x_mod(field, g)


@given(st.integers(0, 70), st.integers(0, 70), st.randoms(use_true_random=False))
def test_transpose_matches_oracle(rows, cols, rnd):
    m = BinaryMatrix(rows, cols, [rnd.getrandbits(cols) for _ in range(rows)])
    assert m.transpose() == oracles.transpose(m)


@settings(max_examples=25, deadline=None)
@given(st.binary(min_size=16, max_size=16))
def test_toy_keygen_matches_oracle_chain(seed):
    check_keygen(TOY, seed)


@settings(max_examples=5, deadline=None)
@given(st.binary(min_size=16, max_size=16))
def test_mid_keygen_matches_oracle_chain(seed):
    check_keygen(MID, seed)


def check_keygen(params, seed):
    pub, priv = niederreiter.keygen(params, SeededRng(seed))
    code, check_t, scrambler, perm = oracles.niederreiter_keygen(params, SeededRng(seed))
    assert priv.code.support == code.support
    assert priv.code.goppa_poly == code.goppa_poly
    assert priv.code.parity_check().binary == oracles.binary_check(code)
    assert priv.perm == perm
    assert priv.s_inv == scrambler.s_inv
    assert priv.scrambler == scrambler
    assert pub.check_t == check_t


class ReducibleRng:
    """Stub generator: the identity support and the Goppa candidate x^t,
    which is never irreducible."""

    def __init__(self):
        self.randbits_calls = 0

    def sample(self, n, k):
        return list(range(k))

    def randbits(self, k):
        self.randbits_calls += 1
        return 0


def test_goppa_polynomial_search_is_bounded():
    rng = ReducibleRng()
    with pytest.raises(GenerationFailure):
        generate_code(TOY, rng)
    assert rng.randbits_calls == POLY_TRIALS_PER_DEGREE * TOY.t * TOY.t
