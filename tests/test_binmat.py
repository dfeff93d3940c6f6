"""Bit-packed GF(2) matrices: hand cases, small shapes through the
matrix family's property (``differential.check_matrix``, against the
row-at-a-time references in ``oracles``), and the permutation and
vector conventions."""

import random

import pytest

from kal1 import isd
from kal1.binmat import BinaryMatrix, eliminate, matrix_times_vec, random_permutation, vec_times_matrix
from kal1.errors import DimensionMismatch, SingularMatrixError
from kal1.niederreiter import NiederreiterPublicKey
from kal1.rng import SeededRng

import oracles
from conftest import TOY, entry, from_dense, identity, perm_inverse, perm_matrix, seed_bytes
from differential import check_matrix, random_matrix

# frozen draws for the pinned generator (seed 3)
PERM16 = [1, 2, 14, 12, 4, 3, 9, 8, 11, 15, 7, 10, 5, 6, 0, 13]


def xor(a, b):
    """The sum of two matrices of one shape, row by row."""
    return BinaryMatrix(a.rows, a.cols, [x ^ y for x, y in zip(a.row_ints, b.row_ints)])


def small_matrices(seed, count, top=12):
    rnd = random.Random(seed)
    for _ in range(count):
        yield rnd, random_matrix(rnd, rnd.randint(1, top), rnd.randint(1, top))


def test_mul_identity():
    a = random_matrix(random.Random(1), 3, 5)
    assert identity(3).mul(a) == a


def test_mul_hand_case():
    assert from_dense([[1, 1], [0, 1]]).mul(from_dense([[1], [1]])) == from_dense([[0], [1]])


def test_mul_matches_naive_oracle():
    for rnd, m in small_matrices(2, 300):
        check_matrix(rnd, m)


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
    assert identity(5).invert() == identity(5)
    ut = from_dense([[1, 1], [0, 1]])
    assert ut.invert() == ut


def test_invert_random_verified_by_mul():
    rnd = random.Random(5)
    for _ in range(50):
        a = random_matrix(rnd, 16, 16)
        check_matrix(rnd, a)
        if a.rank() == 16:
            assert a.mul(a.invert()) == a.invert().mul(a) == identity(16)


def test_invert_singular_raises():
    with pytest.raises(SingularMatrixError):
        from_dense([[1, 1], [1, 1]]).invert()
    with pytest.raises(DimensionMismatch):
        BinaryMatrix(2, 3, [0] * 2).invert()


def test_rank_trivial_and_oracle():
    assert BinaryMatrix(4, 7, [0] * 4).rank() == 0
    assert identity(9).rank() == 9
    for rnd, m in small_matrices(6, 300, top=10):
        check_matrix(rnd, m)


def test_eliminate_dependencies_are_a_left_kernel_basis():
    # the reference's dependencies are what the name says: independent
    # rows that each sum rows of m to zero, one per unit of rank deficiency
    rnd = random.Random(61)
    for _ in range(400):
        rows, width = rnd.randint(0, 40), rnd.randint(0, 40)
        pool = [rnd.getrandbits(width) & rnd.getrandbits(width) for _ in range(rnd.randint(1, 6))]
        # few distinct rows, zeros among them: most matrices are deficient
        m = BinaryMatrix(rows, width, [rnd.choice(pool + [0]) for _ in range(rows)])
        check_matrix(rnd, m)
        tagged = [r | 1 << (width + i) for i, r in enumerate(m.row_ints)]
        pivots, deps = eliminate(tagged, width, None)
        assert len(pivots) == m.rank() and len(deps) == rows - m.rank()
        assert all(0 < dep < 1 << rows and vec_times_matrix(dep, m) == 0 for dep in deps)
        assert oracles.rank(BinaryMatrix(len(deps), rows, deps)) == len(deps)


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
        a, b = random_matrix(rnd, r, c), random_matrix(rnd, r, c)
        assert xor(a, b).rank() <= a.rank() + b.rank()


def test_transpose():
    for rnd, m in small_matrices(8, 100, top=9):
        check_matrix(rnd, m)
        tt = m.transpose()
        assert all(entry(m, i, j) == entry(tt, j, i) for i in range(m.rows) for j in range(m.cols))
        assert tt.transpose() == m


def test_random_permutation_pinned_fixture():
    p = random_permutation(16, SeededRng(seed_bytes(3)))
    assert p == PERM16 and sorted(p) == list(range(16))
    assert random_permutation(1, SeededRng(seed_bytes(0))) == [0]


def apply(dest: list[int], v: int) -> int:
    """A vector with position i moved to dest[i], as a one-row matrix."""
    return BinaryMatrix(1, len(dest), [v]).permute_columns(dest).row_ints[0]


def test_permutation_validation():
    m = BinaryMatrix(1, 3, [0b101])
    for dest in ([0, 0, 1], [1, 2, 3], [1, 0]):
        with pytest.raises(DimensionMismatch):
            m.permute_columns(dest)


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
        assert apply(perm_inverse(dest), apply(dest, v)) == v == apply(dest, apply(perm_inverse(dest), v))
        assert apply(dest, v) == sum(((v >> i) & 1) << d for i, d in enumerate(dest))


def test_permutation_matrix_is_orthogonal():
    rnd = random.Random(10)
    for _ in range(50):
        n = rnd.randint(1, 12)
        pm = perm_matrix(rnd.sample(range(n), n))
        assert pm.mul(pm.transpose()) == identity(n)


def test_permute_columns_is_right_multiplication():
    rnd = random.Random(12)
    for _ in range(100):
        m = random_matrix(rnd, rnd.randint(1, 8), rnd.randint(1, 10))
        dest = rnd.sample(range(m.cols), m.cols)
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
        assert matrix_times_vec(m, w) == sum(col.row_ints[i] << i for i in range(r))


def test_columns_selection():
    m = from_dense([[1, 0, 1, 1], [0, 1, 0, 1]])
    assert oracles.columns(m, [3, 0]) == from_dense([[1, 1], [1, 0]])
