"""The keygen kernels' rows: GF(2) matrices, Ben-Or products, the packed
parity check and the keystream draws, against the code they replaced.

``differential.check_matrix`` (rank, inverse with the singular column's
message, product, transpose and elimination) runs on random, sparse,
singular, near-singular, non-square and empty matrices, at every width
and row count up to 70 and at 500 columns.  ``check_irreducible`` runs
on products whose smallest factor falls in each of Ben-Or's gcd blocks,
on squares of irreducibles and above the field order.  ``check_draws``
runs the batched draws against the value-by-value reader, which must
read the same bytes in more calls.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kal1 import Kal1Error
from kal1.binmat import BinaryMatrix
from kal1.goppa import CodeParams, GoppaCode, generate_code
from kal1.rng import SeededRng

import oracles
from conftest import MID, TOY, seed_bytes, time_limit
from differential import (
    DRAW_SEQUENCES,
    FIELDS,
    check_draws,
    check_irreducible,
    check_matrix,
    outcome,
    product,
    random_matrix,
    with_dependent_row,
)
from oracles import monic_irreducible, pack, poly_mul

HEADLINE = CodeParams(1024, 524, 50, 10)


# --- GF(2) matrices ---


@pytest.mark.parametrize("cols", range(1, 71))
def test_kernels_match_oracle_at_every_width(cols):
    rnd = random.Random(f"width/{cols}")
    for rows in {0, 1, cols // 2, cols - 1, cols, cols + 1, cols + 9}:
        for density in (0.5, 0.1):
            check_matrix(rnd, random_matrix(rnd, rows, cols, density))


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 15, 16, 17, 33, 64, 70])
def test_kernels_match_oracle_on_singular_and_structured_squares(n):
    # zero, a dependent row, a zero column, a repeated row and a reversed identity
    rnd = random.Random(f"singular/{n}")
    full = random_matrix(rnd, n, n)
    cases = [BinaryMatrix(n, n, [0] * n), with_dependent_row(rnd, full)]
    zero = ~(1 << rnd.randrange(n))
    cases.append(BinaryMatrix(n, n, [r & zero for r in full.row_ints]))
    cases.append(BinaryMatrix(n, n, [*full.row_ints[:-1], full.row_ints[0]]))
    cases.append(BinaryMatrix(n, n, [1 << (n - 1 - i) for i in range(n)]))
    for m in cases:
        check_matrix(rnd, m)


def test_kernels_match_oracle_on_empty_dimensions():
    rnd = random.Random(0)
    for rows, cols in [(0, 0), (0, 5), (5, 0), (0, 9), (9, 0)]:
        m = BinaryMatrix(rows, cols, [0] * rows)
        check_matrix(rnd, m)
        assert m.mul(BinaryMatrix(cols, 3, [0] * cols)) == BinaryMatrix(rows, 3, [0] * rows)


def test_kernels_match_oracle_at_500_columns():
    rnd = random.Random(500)
    tall = random_matrix(rnd, 1024, 500)
    assert tall.rank() == oracles.rank(tall) == 500
    wide = random_matrix(rnd, 500, 1024)
    assert wide.rank() == oracles.rank(wide)
    square = random_matrix(rnd, 500, 500)
    while oracles.rank(square) < 500:
        square = random_matrix(rnd, 500, 500)
    inv = square.invert()
    assert inv == oracles.invert(square)
    left = random_matrix(rnd, 524, 500)
    assert left.mul(inv) == oracles.mul(left, inv)
    near = with_dependent_row(rnd, square)
    assert near.rank() == oracles.rank(near) == 499
    assert outcome(near.invert) == outcome(oracles.invert, near)


@pytest.mark.parametrize("rows", range(1, 71))
def test_eliminate_matches_oracle_at_every_row_count(rows):
    # the chunk width follows the row count: 1 for up to 3 rows, 6 at 64
    rnd = random.Random(f"rows/{rows}")
    for cols in sorted({1, rows // 2 + 1, rows, rows + 5, 70}):
        for density in (0.5, 0.1):
            m = random_matrix(rnd, rows, cols, density)
            for case in (m, with_dependent_row(rnd, m)):
                check_matrix(rnd, case)


# --- Ben-Or's test on products, squares and high degrees ---


@pytest.mark.parametrize("m", [4, 10, 12])
@pytest.mark.parametrize("d", range(1, 12))
def test_is_irreducible_rejects_a_smallest_factor_in_every_block(m, d):
    # gcd blocks are levels {1}, {2}, {3, 4, 5}, {6, 7, 8}, {9, 10, 11};
    # the larger factor's degree moves the last level, so the smallest
    # factor sits at each place of a block and in a last, partial one
    field = FIELDS[m]
    rnd = random.Random(f"block/{m}/{d}")
    small = monic_irreducible(field, d, rnd)
    for e in (d, d + 1, d + 2):
        assert check_irreducible(field, poly_mul(field, small, monic_irreducible(field, e, rnd))) is False


@pytest.mark.parametrize("m", [4, 10, 12])
@pytest.mark.parametrize("d", range(1, 11))
def test_is_irreducible_rejects_squares_and_accepts_their_roots(m, d):
    field = FIELDS[m]
    g = monic_irreducible(field, d, random.Random(f"square/{m}/{d}"))
    assert check_irreducible(field, g) is True
    assert check_irreducible(field, poly_mul(field, g, g)) is False


@pytest.mark.parametrize("degrees", [(33,), (17, 20), (40,)])
def test_is_irreducible_matches_oracle_above_the_field_order(degrees):
    # at m = 4, x^(2^s) with 2^s < deg f overshoots x^q = x^16, where
    # level 1 must stop
    f = product(FIELDS[4], degrees, random.Random(f"high/{degrees}"))
    assert check_irreducible(FIELDS[4], f) is (len(degrees) == 1)


# --- the packed parity check ---


@pytest.mark.parametrize("params, tag", [(TOY, 1), (MID, 2), (HEADLINE, 3)])
def test_parity_check_matches_oracle(params, tag):
    code = generate_code(params, SeededRng(seed_bytes(tag)))
    assert 0 in code.support
    fresh = GoppaCode(params, code.support, code.goppa_poly)
    assert fresh.parity_check() == oracles.transpose(oracles.binary_check(fresh)).row_ints


@pytest.mark.parametrize("with_zero", [True, False])
def test_parity_check_matches_oracle_on_partial_supports(with_zero):
    field = FIELDS[10]
    rnd = random.Random(f"partial/{with_zero}")
    support = rnd.sample(range(1, field.order), 99) + ([0] if with_zero else [])
    rnd.shuffle(support)
    g = pack(field, monic_irreducible(field, 6, rnd))
    code = GoppaCode(CodeParams(len(support), len(support) - 60, 6, 10), support, g)
    assert code.parity_check() == oracles.transpose(oracles.binary_check(code)).row_ints


# --- the keystream draws ---


@settings(max_examples=40, deadline=None)
@given(seed=st.binary(min_size=16, max_size=16), draws=DRAW_SEQUENCES)
# a 4000-byte batch, then a 2-byte-wide batch from where it stopped
@example(seed=bytes(16), draws=[("randbits_each", 8, 4000), ("randbits_each", 16, 100)])
@example(seed=bytes(16), draws=[("randbits_each", 24, 1500), ("permutation", 300), ("sample", 4096, 4096)])
def test_interleaved_draws_match_the_unbuffered_oracle(seed, draws):
    # 1-, 2- and 3+-byte widths, batches of thousands of bytes, and the bound 1
    check_draws(seed, draws)


def test_buffered_draws_match_unbuffered_oracle():
    # reads and randbits too; a short read would leave a rejection round
    # owing values forever, so the alarm fails it instead
    rnd = random.Random(7)
    sizes = {"read": [0, 1, 15, 16, 17, 4095, 4096, 8195], "randbits": [0, 1, 7, 8, 9, 10, 500, 20000]}
    sizes["permutation"] = [1, 2, 16, 1024]
    with time_limit(10):
        for tag in range(6):
            draws = []
            for draw in (rnd.choice(["read", "randbits", "permutation", "sample"]) for _ in range(300)):
                if draw == "sample":
                    n = rnd.choice([1, 16, 300, 4096])
                    draws.append((draw, n, rnd.randint(0, n)))
                else:
                    draws.append((draw, rnd.choice(sizes[draw])))
            check_draws(seed_bytes(tag), draws)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 255, 256, 257, 1024, 1025, 3488, 4096])
def test_permutation_and_sample_match_the_unbuffered_oracle(n):
    # the one rejection loop over each power-of-two range of bounds, across
    # the one- and two-byte draw widths, down to the bound 1 when k = n
    draws = [("permutation", n)] + [("sample", n, k) for k in sorted({0, 1, n // 2, n}) if k <= n]
    for tag, draw in enumerate(draws):
        check_draws(seed_bytes(tag), [draw])


@pytest.mark.parametrize("k, count", [(0, 0), (0, 5), (9, 0), (1, 7), (8, 40), (10, 50), (16, 3), (17, 4)])
def test_randbits_each_matches_the_unbuffered_oracle(k, count):
    # k = 0 reads nothing
    check_draws(seed_bytes(k), [("randbits_each", k, count)])


def test_read_rejects_a_negative_count():
    with pytest.raises(Kal1Error):
        SeededRng(bytes(16)).read(-1)


# a bounded draw of up to 4096 values reads once per width range and
# once per rejection round; value by value it would read over 1,000 times
BOUNDED_DRAW_READS = 64


def test_draws_read_the_oracles_bytes_in_batches(monkeypatch):
    # the bytes SeededRng reads are those the unbuffered oracle reads value
    # by value, in order, and they come in few reads: exactly one per
    # randbits_each with k > 0 (none when k = 0), and at most
    # BOUNDED_DRAW_READS per permutation or sample; the sizes cross the
    # one- and two-byte draw widths
    reads = {SeededRng: [], oracles.UnbufferedRng: []}
    for cls in reads:
        def recorded(self, nbytes, inner=cls.read, cls=cls):
            reads[cls].append(inner(self, nbytes))
            return reads[cls][-1]

        monkeypatch.setattr(cls, "read", recorded)
    rng, ref = SeededRng(seed_bytes(1)), oracles.UnbufferedRng(seed_bytes(1))
    draws = [
        ("randbits", (0,), 0),
        ("randbits", (9,), 1),
        ("randbits_each", (0, 3), 0),
        ("randbits_each", (10, 50), 1),
        ("randbits_each", (9, 0), 1),
        ("permutation", (1025,), None),
        ("sample", (300, 300), None),
        ("sample", (4096, 3488), None),
    ]
    for draw, args, calls in draws:
        before = len(reads[SeededRng])
        assert getattr(rng, draw)(*args) == getattr(ref, draw)(*args), (draw, args)
        made = len(reads[SeededRng]) - before
        if calls is None:
            assert 0 < made <= BOUNDED_DRAW_READS, (draw, args, made)
        else:
            assert made == calls, (draw, args, made)
    assert b"".join(reads[SeededRng]) == b"".join(reads[oracles.UnbufferedRng])
    assert {1, 2} <= {len(data) for data in reads[oracles.UnbufferedRng]}
