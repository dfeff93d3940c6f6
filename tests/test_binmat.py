"""Bit-packed GF(2) matrices against naive dense oracles."""

import random

import pytest

from kal1 import isd
from kal1.binmat import BinaryMatrix, eliminate, matrix_times_vec, random_permutation, vec_times_matrix
from kal1.errors import DimensionMismatch, SingularMatrixError
from kal1.niederreiter import NiederreiterPublicKey
from kal1.rng import SeededRng

import oracles
from conftest import TOY, entry, from_dense, identity, perm_inverse, perm_matrix, to_dense

# frozen draws for the pinned generator (seed 3)
PERM16 = [1, 2, 14, 12, 4, 3, 9, 8, 11, 15, 7, 10, 5, 6, 0, 13]


def seed_bytes(tag: int) -> bytes:
    return tag.to_bytes(16, "big")


def naive_mul(a: BinaryMatrix, b: BinaryMatrix) -> BinaryMatrix:
    out = [[0] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            s = 0
            for k in range(a.cols):
                s ^= entry(a, i, k) & entry(b, k, j)
            out[i][j] = s
    return from_dense(out) if out else BinaryMatrix(0, b.cols, [])


def random_matrix(rnd, rows, cols):
    return BinaryMatrix(rows, cols, [rnd.getrandbits(cols) for _ in range(rows)])


def xor(a, b):
    """The sum of two matrices of one shape, row by row."""
    return BinaryMatrix(a.rows, a.cols, [x ^ y for x, y in zip(a.row_ints, b.row_ints)])


def test_mul_identity():
    rnd = random.Random(1)
    a = random_matrix(rnd, 3, 5)
    assert identity(3).mul(a) == a


def test_mul_hand_case():
    a = from_dense([[1, 1], [0, 1]])
    b = from_dense([[1], [1]])
    assert a.mul(b) == from_dense([[0], [1]])


def test_mul_matches_naive_oracle():
    rnd = random.Random(2)
    for _ in range(1000):
        r, c, c2 = rnd.randint(1, 12), rnd.randint(1, 12), rnd.randint(1, 12)
        a = random_matrix(rnd, r, c)
        b = random_matrix(rnd, c, c2)
        assert a.mul(b) == naive_mul(a, b)


def test_mul_dimension_mismatch():
    rnd = random.Random(3)
    with pytest.raises(DimensionMismatch):
        random_matrix(rnd, 2, 3).mul(random_matrix(rnd, 4, 2))


def test_add():
    # the library's one matrix sum is isd's masking matrix, cyclic_t + check_t
    rnd = random.Random(4)
    top = random_matrix(rnd, 8, 8).row_ints
    pub = NiederreiterPublicKey(TOY, BinaryMatrix(16, 8, [*top, *identity(8).row_ints]))
    a = random_matrix(rnd, 16, 8)
    zero = BinaryMatrix(16, 8, [0] * 16)
    assert isd.secondary_check_t(pub.check_t, pub) == zero
    assert isd.secondary_check_t(zero, pub) == pub.check_t
    assert isd.secondary_check_t(a, pub) == xor(a, pub.check_t)
    for rows, cols in [(16, 9), (15, 8)]:
        with pytest.raises(DimensionMismatch, match=f"^cannot add {rows}x{cols} and 16x8$"):
            isd.secondary_check_t(BinaryMatrix(rows, cols, [0] * rows), pub)


def test_invert_trivial_cases():
    eye = identity(5)
    assert eye.invert() == eye
    ut = from_dense([[1, 1], [0, 1]])
    assert ut.invert() == ut


def test_invert_random_verified_by_mul():
    rnd = random.Random(5)
    done = 0
    while done < 50:
        a = random_matrix(rnd, 16, 16)
        try:
            inv = a.invert()
        except SingularMatrixError:
            continue
        assert a.mul(inv) == identity(16)
        assert inv.mul(a) == identity(16)
        done += 1


def test_invert_singular_raises():
    with pytest.raises(SingularMatrixError):
        from_dense([[1, 1], [1, 1]]).invert()
    with pytest.raises(DimensionMismatch):
        BinaryMatrix(2, 3, [0] * 2).invert()


def naive_rank(m: BinaryMatrix) -> int:
    rows = to_dense(m)
    rank = 0
    pivot_row = 0
    for col in range(m.cols):
        piv = next((r for r in range(pivot_row, m.rows) if rows[r][col]), None)
        if piv is None:
            continue
        rows[pivot_row], rows[piv] = rows[piv], rows[pivot_row]
        for r in range(m.rows):
            if r != pivot_row and rows[r][col]:
                rows[r] = [x ^ y for x, y in zip(rows[r], rows[pivot_row])]
        rank += 1
        pivot_row += 1
    return rank


def test_rank_trivial_and_oracle():
    assert BinaryMatrix(4, 7, [0] * 4).rank() == 0
    assert identity(9).rank() == 9
    rnd = random.Random(6)
    for _ in range(300):
        m = random_matrix(rnd, rnd.randint(1, 10), rnd.randint(1, 10))
        assert m.rank() == naive_rank(m)


def test_eliminate_dependencies_are_a_left_kernel_basis():
    rnd = random.Random(61)
    for _ in range(400):
        rows, width = rnd.randint(0, 40), rnd.randint(0, 40)
        pool = [rnd.getrandbits(width) & rnd.getrandbits(width) for _ in range(rnd.randint(1, 6))]
        # few distinct rows, zeros among them: most matrices are deficient
        m = BinaryMatrix(rows, width, [rnd.choice(pool + [0]) for _ in range(rows)])
        tagged = [r | 1 << (width + i) for i, r in enumerate(m.row_ints)]
        before = list(tagged)
        pivots, deps = eliminate(tagged, width, None)
        assert tagged == before
        rank = oracles.rank(m)
        assert len(pivots) == rank and len(deps) == rows - rank
        for dep in deps:
            assert 0 < dep < 1 << rows
            assert vec_times_matrix(dep, m) == 0
        assert oracles.rank(BinaryMatrix(len(deps), rows, deps)) == len(deps)
        assert eliminate(m.row_ints, width, None) == (pivots, [])


def test_vector_products_reject_negative_vectors():
    m = BinaryMatrix(3, 4, [0b1010, 0b0110, 0b0001])
    for v in (-1, -5):
        with pytest.raises(DimensionMismatch):
            vec_times_matrix(v, m)
        with pytest.raises(DimensionMismatch):
            matrix_times_vec(m, v)


def test_rank_subadditivity():
    rnd = random.Random(7)
    for _ in range(1000):
        r, c = rnd.randint(1, 10), rnd.randint(1, 10)
        a = random_matrix(rnd, r, c)
        b = random_matrix(rnd, r, c)
        assert xor(a, b).rank() <= a.rank() + b.rank()


def test_transpose():
    rnd = random.Random(8)
    for _ in range(100):
        m = random_matrix(rnd, rnd.randint(1, 9), rnd.randint(1, 9))
        tt = m.transpose()
        assert tt.rows == m.cols and tt.cols == m.rows
        assert all(entry(m, i, j) == entry(tt, j, i) for i in range(m.rows) for j in range(m.cols))
        assert tt.transpose() == m


def test_random_permutation_pinned_fixture():
    p = random_permutation(16, SeededRng(seed_bytes(3)))
    assert p == PERM16
    assert sorted(p) == list(range(16))
    assert random_permutation(1, SeededRng(seed_bytes(0))) == [0]


def apply(dest: list[int], v: int) -> int:
    """A vector with position i moved to dest[i], as a one-row matrix."""
    return BinaryMatrix(1, len(dest), [v]).permute_columns(dest).row_ints[0]


def test_permutation_validation():
    m = BinaryMatrix(1, 3, [0b101])
    with pytest.raises(DimensionMismatch):
        m.permute_columns([0, 0, 1])
    with pytest.raises(DimensionMismatch):
        m.permute_columns([1, 2, 3])
    with pytest.raises(DimensionMismatch):
        m.permute_columns([1, 0])


def test_apply_perm_convention():
    # position i moves to dest[i]: out[dest[i]] = v[i]
    dest = [2, 0, 1]
    v = 0b001  # vector (1, 0, 0)
    assert apply(dest, v) == 0b100  # (0, 0, 1)
    # the forward direction, out[i] = v[dest[i]], is the inverse's
    assert apply(perm_inverse(dest), v) == 0b010  # (0, 1, 0)
    assert apply(perm_inverse(dest), apply(dest, v)) == v
    for v in (0, 0b101010, 0b111111):
        assert apply(list(range(6)), v) == v


def test_apply_perm_round_trip_random():
    rnd = random.Random(9)
    for _ in range(200):
        n = rnd.randint(1, 24)
        dest = rnd.sample(range(n), n)
        v = rnd.getrandbits(n)
        assert apply(perm_inverse(dest), apply(dest, v)) == v
        assert apply(dest, apply(perm_inverse(dest), v)) == v
        assert apply(dest, v) == sum(((v >> i) & 1) << d for i, d in enumerate(dest))


def test_permutation_matrix_is_orthogonal():
    rnd = random.Random(10)
    for _ in range(50):
        n = rnd.randint(1, 12)
        pm = perm_matrix(rnd.sample(range(n), n))
        assert pm.mul(pm.transpose()) == identity(n)


def test_apply_perm_agrees_with_matrix_product():
    rnd = random.Random(11)
    for _ in range(100):
        n = rnd.randint(1, 10)
        dest = rnd.sample(range(n), n)
        v = rnd.getrandbits(n)
        vm = BinaryMatrix(1, n, [v])
        assert apply(dest, v) == vm.mul(perm_matrix(dest)).row_ints[0]
        forward = vm.mul(perm_matrix(dest).transpose()).row_ints[0]
        assert apply(perm_inverse(dest), v) == forward


def test_permute_columns_is_right_multiplication():
    rnd = random.Random(12)
    for _ in range(100):
        r, n = rnd.randint(1, 8), rnd.randint(1, 10)
        m = random_matrix(rnd, r, n)
        dest = rnd.sample(range(n), n)
        assert m.permute_columns(dest) == m.mul(perm_matrix(dest))


def test_vector_products_match_matrix_forms():
    rnd = random.Random(13)
    for _ in range(200):
        r, c = rnd.randint(1, 10), rnd.randint(1, 10)
        m = random_matrix(rnd, r, c)
        v = rnd.getrandbits(r)
        assert vec_times_matrix(v, m) == BinaryMatrix(1, r, [v]).mul(m).row_ints[0]
        w = rnd.getrandbits(c)
        col = m.mul(BinaryMatrix(c, 1, [(w >> i) & 1 for i in range(c)]))
        expected = sum(col.row_ints[i] << i for i in range(r))
        assert matrix_times_vec(m, w) == expected


def test_columns_selection():
    m = from_dense([[1, 0, 1, 1], [0, 1, 0, 1]])
    sel = oracles.columns(m, [3, 0])
    assert sel == from_dense([[1, 1], [1, 0]])

