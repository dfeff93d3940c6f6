"""The keygen kernels against the code they replaced.

The Four-Russians rank, inverse and product must equal the schoolbook
ones in ``oracles`` (the inverse's singular-column message included) on
random, sparse, singular, near-singular, non-square and empty matrices,
at every width up to 70 and at 500 columns.  The batched-gcd Ben-Or test
must decide like the level-by-level oracle on products whose smallest
factor falls in each gcd block, and on squares of irreducibles.  The
packed parity check must equal the bit-by-bit expansion, and the
batched draws must make the draws the value-by-value oracle makes, from
the same bytes, read in batches.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kal1 import Kal1Error
from kal1.binmat import BinaryMatrix, eliminate
from kal1.errors import DimensionMismatch, SingularMatrixError
from kal1.gf2m import Field, is_irreducible
from kal1.goppa import CodeParams, GoppaCode, generate_code
from kal1.rng import SeededRng

import oracles
from conftest import MID, TOY, seed_bytes, time_limit
from oracles import pack, poly_mul

HEADLINE = CodeParams(1024, 524, 50, 10)


def outcome(fn, *args):
    """The result, or the exception's class and message."""
    try:
        return fn(*args)
    except (SingularMatrixError, DimensionMismatch) as exc:
        return type(exc), str(exc)


def random_matrix(rnd, rows, cols, density=0.5):
    if density == 0.5:
        return BinaryMatrix(rows, cols, [rnd.getrandbits(cols) for _ in range(rows)])
    bits = [[rnd.random() < density for _ in range(cols)] for _ in range(rows)]
    return BinaryMatrix(rows, cols, [sum(b << j for j, b in enumerate(r)) for r in bits])


def with_dependent_row(rnd, m):
    """m with one row replaced by the XOR of a random subset of the others."""
    rows = list(m.row_ints)
    i = rnd.randrange(len(rows))
    acc = 0
    for j, r in enumerate(rows):
        if j != i and rnd.random() < 0.5:
            acc ^= r
    rows[i] = acc
    return BinaryMatrix(m.rows, m.cols, rows)


def check_matrix(rnd, m):
    assert m.rank() == oracles.rank(m)
    assert outcome(m.invert) == outcome(oracles.invert, m)
    right = random_matrix(rnd, m.cols, rnd.randint(0, 70))
    assert m.mul(right) == oracles.mul(m, right)


@pytest.mark.parametrize("cols", range(1, 71))
def test_kernels_match_oracle_at_every_width(cols):
    rnd = random.Random(f"width/{cols}")
    for rows in {0, 1, cols // 2, cols - 1, cols, cols + 1, cols + 9}:
        for density in (0.5, 0.1):
            check_matrix(rnd, random_matrix(rnd, rows, cols, density))


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 15, 16, 17, 33, 64, 70])
def test_kernels_match_oracle_on_singular_and_structured_squares(n):
    rnd = random.Random(f"singular/{n}")
    full = random_matrix(rnd, n, n)
    cases = [BinaryMatrix(n, n, [0] * n), with_dependent_row(rnd, full)]
    # a zero column, a repeated row and a reversed identity
    zero = ~(1 << rnd.randrange(n))
    cases.append(BinaryMatrix(n, n, [r & zero for r in full.row_ints]))
    rows = list(full.row_ints)
    rows[-1] = rows[0]
    cases.append(BinaryMatrix(n, n, rows))
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
    # the chunk width follows the row count: 1 for up to 3 rows, 6 at 64;
    # tagged rows are what the isd window solve eliminates
    rnd = random.Random(f"rows/{rows}")
    for cols in sorted({1, rows // 2 + 1, rows, rows + 5, 70}):
        for density in (0.5, 0.1):
            m = random_matrix(rnd, rows, cols, density)
            for case in (m, with_dependent_row(rnd, m)):
                check_matrix(rnd, case)
                tagged = [r | 1 << (cols + i) for i, r in enumerate(case.row_ints)]
                assert eliminate(tagged, cols, None) == oracles.eliminate(tagged, cols)
                assert eliminate(case.row_ints, cols, None) == oracles.eliminate(case.row_ints, cols)


# --- the batched-gcd irreducibility test ---

FIELDS = {m: Field(m) for m in (4, 10, 12)}


def monic_irreducible(field, d, rnd):
    """A random monic irreducible of degree d: the first candidate the
    library accepts, which the oracle must accept too."""
    while True:
        g = [rnd.randrange(field.order) for _ in range(d)] + [1]
        if is_irreducible(field, pack(field, g)):
            assert oracles.is_irreducible(field, g)
            return g


@pytest.mark.parametrize("m", sorted(FIELDS))
@pytest.mark.parametrize("d", range(1, 12))
def test_is_irreducible_rejects_a_smallest_factor_in_every_block(m, d):
    # gcd blocks are levels {1}, {2}, {3, 4, 5}, {6, 7, 8}, {9, 10, 11};
    # the larger factor's degree moves the last level, so the smallest
    # factor sits at each place of a block and in a last, partial one
    field = FIELDS[m]
    rnd = random.Random(f"block/{m}/{d}")
    small = monic_irreducible(field, d, rnd)
    for e in (d, d + 1, d + 2):
        f = poly_mul(field, small, monic_irreducible(field, e, rnd))
        assert oracles.is_irreducible(field, f) is False
        assert is_irreducible(field, pack(field, f)) is False


@pytest.mark.parametrize("m", sorted(FIELDS))
@pytest.mark.parametrize("d", range(1, 11))
def test_is_irreducible_rejects_squares_and_accepts_their_roots(m, d):
    field = FIELDS[m]
    rnd = random.Random(f"square/{m}/{d}")
    g = monic_irreducible(field, d, rnd)
    assert is_irreducible(field, pack(field, g)) is True
    assert oracles.is_irreducible(field, poly_mul(field, g, g)) is False
    assert is_irreducible(field, pack(field, poly_mul(field, g, g))) is False


@pytest.mark.parametrize("degrees", [(33,), (17, 20), (40,)])
def test_is_irreducible_matches_oracle_above_the_field_order(degrees):
    # at m = 4, x^(2^s) with 2^s < deg f overshoots x^q = x^16, where
    # level 1 must stop
    field = FIELDS[4]
    rnd = random.Random(f"high/{degrees}")
    factors = [monic_irreducible(field, d, rnd) for d in degrees]
    f = factors[0] if len(factors) == 1 else poly_mul(field, *factors)
    expected = len(factors) == 1
    assert is_irreducible(field, pack(field, f)) is oracles.is_irreducible(field, f) is expected


# --- the packed parity check ---


@pytest.mark.parametrize("params, tag", [(TOY, 1), (MID, 2), (HEADLINE, 3)])
def test_parity_check_matches_oracle(params, tag):
    code = generate_code(params, SeededRng(seed_bytes(tag)))
    assert 0 in code.support
    fresh = GoppaCode(params, code.support, code.goppa_poly)
    check = oracles.binary_check(fresh)
    assert fresh.parity_check() == oracles.transpose(check).row_ints


@pytest.mark.parametrize("with_zero", [True, False])
def test_parity_check_matches_oracle_on_partial_supports(with_zero):
    field = FIELDS[10]
    rnd = random.Random(f"partial/{with_zero}")
    t = 6
    support = rnd.sample(range(1, field.order), 99) + ([0] if with_zero else [])
    rnd.shuffle(support)
    n = len(support)
    g = pack(field, monic_irreducible(field, t, rnd))
    code = GoppaCode(CodeParams(n, n - 10 * t, t, 10), support, g)
    check = oracles.binary_check(code)
    assert code.parity_check() == oracles.transpose(check).row_ints


# --- batched draws against the value-by-value oracle ---


def test_buffered_draws_match_unbuffered_oracle():
    # about half a second; a short read would leave a rejection round
    # owing values forever, so the alarm fails it instead
    rnd = random.Random(7)
    with time_limit(10):
        for tag in range(6):
            rng, ref = SeededRng(seed_bytes(tag)), oracles.UnbufferedRng(seed_bytes(tag))
            for _ in range(300):
                draw = rnd.choice(["read", "randbits", "permutation", "sample"])
                if draw == "read":
                    args = (rnd.choice([0, 1, 15, 16, 17, 4095, 4096, 8195]),)
                elif draw == "randbits":
                    args = (rnd.choice([0, 1, 7, 8, 9, 10, 500, 20000]),)
                elif draw == "permutation":
                    args = (rnd.choice([1, 2, 16, 1024]),)
                else:
                    n = rnd.choice([1, 16, 300, 4096])
                    args = (n, rnd.randint(0, n))
                assert getattr(rng, draw)(*args) == getattr(ref, draw)(*args), (tag, draw, args)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 255, 256, 257, 1024, 1025, 3488, 4096])
def test_permutation_and_sample_match_the_unbuffered_oracle(n):
    # the one rejection loop over each power-of-two range of bounds, across
    # the one- and two-byte draw widths, down to the bound 1 when k = n;
    # the next bytes show that the stream stopped where the oracle's did
    draws = [("permutation", (n,))]
    draws += [("sample", (n, k)) for k in sorted({0, 1, n // 2, n}) if k <= n]
    for tag, (draw, args) in enumerate(draws):
        rng, ref = SeededRng(seed_bytes(tag)), oracles.UnbufferedRng(seed_bytes(tag))
        assert getattr(rng, draw)(*args) == getattr(ref, draw)(*args), (draw, args)
        assert rng.read(16) == ref.read(16), (draw, args)


@pytest.mark.parametrize("k, count", [(0, 0), (0, 5), (9, 0), (1, 7), (8, 40), (10, 50), (16, 3), (17, 4)])
def test_randbits_each_matches_the_unbuffered_oracle(k, count):
    # count randbits(k) values; the next bytes show that the stream
    # stopped where the oracle's did, so k = 0 read nothing
    rng, ref = SeededRng(seed_bytes(k)), oracles.UnbufferedRng(seed_bytes(k))
    assert rng.randbits_each(k, count) == ref.randbits_each(k, count)
    assert rng.read(16) == ref.read(16)


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
            data = inner(self, nbytes)
            reads[cls].append(data)
            return data

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


@settings(max_examples=40, deadline=None)
@given(seed=st.binary(min_size=16, max_size=16), draws=DRAW_SEQUENCES)
# a 4000-byte batch, then a 2-byte-wide batch from where it stopped
@example(seed=bytes(16), draws=[("randbits_each", 8, 4000), ("randbits_each", 16, 100)])
@example(seed=bytes(16), draws=[("randbits_each", 24, 1500), ("permutation", 300), ("sample", 4096, 4096)])
def test_interleaved_draws_match_the_unbuffered_oracle(seed, draws):
    # 1-, 2- and 3+-byte widths, batches of thousands of bytes, and the bound 1;
    # the next bytes show that the streams stopped at the same place
    rng, ref = SeededRng(seed), oracles.UnbufferedRng(seed)
    for draw, *args in draws:
        assert getattr(rng, draw)(*args) == getattr(ref, draw)(*args), (draw, args)
    assert rng.read(16) == ref.read(16)
