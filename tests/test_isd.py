"""Prange probe: planted recovery, edge cases, rank report.

The window solve and the rank report run on binmat's one elimination;
they must agree with the basis-dict solve and the per-bit column gather
they replaced, kept in ``oracles``.
"""

import random
from math import comb

import pytest

from kal1 import isd, scheme
from kal1.binmat import BinaryMatrix, matrix_times_vec, vec_times_matrix
from kal1.errors import DimensionMismatch, ParameterError
from kal1.niederreiter import public_key
from kal1.rng import SeededRng

import oracles
from conftest import MID, TOY, seed_bytes


@pytest.fixture(scope="module")
def toy_instance_parts(toy_nied):
    pub, priv = toy_nied
    return pub, priv


def test_instance_from_public(toy_instance_parts):
    pub, _ = toy_instance_parts
    inst = isd.instance_from_public(pub, 0b1)
    assert inst.check.rows == TOY.redundancy and inst.check.cols == TOY.n
    assert inst.weight == TOY.t


def test_zero_syndrome_returns_zero(toy_instance_parts):
    pub, _ = toy_instance_parts
    inst = isd.instance_from_public(pub, 0)
    assert isd.prange_search(inst, 1, SeededRng(seed_bytes(0))) == 0


def test_negative_syndrome_rejected(toy_instance_parts):
    pub, _ = toy_instance_parts
    with pytest.raises(DimensionMismatch):
        isd.instance_from_public(pub, -1)
    with pytest.raises(DimensionMismatch):
        isd.IsdInstance(pub.check_t.transpose(), -(1 << TOY.redundancy), TOY.t)


def test_weight_zero_nonzero_syndrome_not_found(toy_instance_parts):
    pub, _ = toy_instance_parts
    inst = isd.IsdInstance(pub.check_t.transpose(), 1, 0)
    assert isd.prange_search(inst, 100, SeededRng(seed_bytes(1))) is None


def test_weight_bound_exceeding_redundancy_rejected(toy_instance_parts):
    pub, _ = toy_instance_parts
    inst = isd.IsdInstance(pub.check_t.transpose(), 1, TOY.redundancy + 1)
    with pytest.raises(ParameterError):
        isd.prange_search(inst, 1, SeededRng(seed_bytes(2)))


def test_length_limit_guard(toy_instance_parts):
    pub, _ = toy_instance_parts
    inst = isd.instance_from_public(pub, 0b1)
    with pytest.raises(ParameterError):
        isd.prange_search(inst, 1, SeededRng(seed_bytes(3)), length_limit=8)
    # explicit override unlocks larger codes
    assert isd.prange_search(inst, 0, SeededRng(seed_bytes(3)), length_limit=1 << 12) is None


def test_planted_recovery_with_iteration_budget(toy_instance_parts):
    # success probability per iteration is about 0.23, so 10^4 draws
    # recover every planted error in practice
    pub, _ = toy_instance_parts
    rnd = random.Random(4)
    for trial in range(25):
        supp = rnd.sample(range(TOY.n), TOY.t)
        e = sum(1 << i for i in supp)
        c = vec_times_matrix(e, pub.check_t)
        inst = isd.instance_from_public(pub, c)
        found = isd.prange_search(inst, 10_000, SeededRng(seed_bytes(0x100 + trial)))
        assert found == e


def test_returned_vector_always_satisfies_instance(toy_instance_parts):
    pub, _ = toy_instance_parts
    check = pub.check_t.transpose()
    rnd = random.Random(5)
    for trial in range(50):
        supp = rnd.sample(range(TOY.n), TOY.t)
        e = sum(1 << i for i in supp)
        c = vec_times_matrix(e, pub.check_t)
        inst = isd.instance_from_public(pub, c)
        found = isd.prange_search(inst, 3, SeededRng(seed_bytes(0x200 + trial)))
        if found is not None:
            assert matrix_times_vec(check, found) == c
            assert found.bit_count() <= TOY.t


def test_single_iteration_rate_matches_analytic(toy_instance_parts):
    # deterministic seeds; bound is 3 standard errors of the binomial
    pub, _ = toy_instance_parts
    analytic = comb(TOY.redundancy, TOY.t) / comb(TOY.n, TOY.t)
    rnd = random.Random(6)
    trials = 1200
    window_rng = SeededRng(seed_bytes(0xABC))
    hits = 0
    for _ in range(trials):
        supp = rnd.sample(range(TOY.n), TOY.t)
        e = sum(1 << i for i in supp)
        c = vec_times_matrix(e, pub.check_t)
        inst = isd.instance_from_public(pub, c)
        found = isd.prange_search(inst, 1, window_rng)
        if found is not None:
            assert found == e
            hits += 1
    rate = hits / trials
    stderr = (analytic * (1 - analytic) / trials) ** 0.5
    assert abs(rate - analytic) <= 3 * stderr


def test_rank_report_fields(toy_kal1):
    pk, sk = toy_kal1
    report = isd.rank_report(scheme.expand_cyclic(pk), sk, SeededRng(seed_bytes(9)), samples=16)
    nk = TOY.redundancy
    assert report.cyclic_rank == nk  # identity block forces full rank
    assert report.check_rank == nk
    assert report.subadditive
    assert 0 <= report.full_rank_windows <= report.sampled_windows == 16
    text = str(report)
    assert "rank(cyclic_t) = 8 of 8" in text
    assert "subadditivity" in text and "ok" in text


def test_rank_report_deterministic(toy_kal1):
    pk, sk = toy_kal1
    a = isd.rank_report(scheme.expand_cyclic(pk), sk, SeededRng(seed_bytes(9)), samples=16)
    b = isd.rank_report(scheme.expand_cyclic(pk), sk, SeededRng(seed_bytes(9)), samples=16)
    assert a == b


# --- the window solve and the rank report against the code they replaced ---


def xor_of(cols: list[int], x: int) -> int:
    acc = 0
    for j, c in enumerate(cols):
        if (x >> j) & 1:
            acc ^= c
    return acc


def window_columns(rnd, width: int, deficiency: int) -> list[int]:
    """width columns of width bits spanning width - deficiency
    dimensions; the dependent ones are zero, repeats or sums."""
    cols: list[int] = []
    while len(cols) < width - deficiency:
        v = rnd.getrandbits(width)
        if oracles.rank(BinaryMatrix(len(cols) + 1, width, cols + [v])) > len(cols):
            cols.append(v)
    basis = list(cols)
    for i in range(deficiency):
        kind = i % 3
        if kind == 0 or not basis:
            cols.append(0)
        elif kind == 1:
            cols.append(rnd.choice(cols))
        else:
            cols.append(xor_of(basis, rnd.getrandbits(len(basis))))
    rnd.shuffle(cols)
    return cols


def syndromes(rnd, cols: list[int]) -> list[int]:
    """One syndrome in the span of cols and, if the span is not the
    whole space, one outside it."""
    width = len(cols)
    out = [xor_of(cols, rnd.getrandbits(width))]
    span = oracles.rank(BinaryMatrix(width, width, cols))
    if span < width:
        while True:
            s = rnd.getrandbits(width)
            if oracles.rank(BinaryMatrix(width + 1, width, cols + [s])) > span:
                out.append(s)
                break
    return out


def assert_solve_matches_oracle(cols: list[int], syndrome: int, weight: int):
    width = len(cols)
    got = isd._solve_window(cols, syndrome, weight)
    # the oracle takes the window as equations: row i is bit i of each column
    want = oracles.solve_window(oracles.transpose(BinaryMatrix(width, width, cols)), syndrome, weight)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.bit_count() == want.bit_count() <= weight
        assert xor_of(cols, got) == syndrome == xor_of(cols, want)


@pytest.mark.parametrize("width", range(1, 25))
def test_solve_window_matches_oracle(width):
    rnd = random.Random(width)
    for deficiency in sorted({0, 1, min(3, width), rnd.randint(0, width), width}):
        cols = window_columns(rnd, width, deficiency)
        for syndrome in syndromes(rnd, cols):
            for weight in (width, rnd.randint(0, width)):
                assert_solve_matches_oracle(cols, syndrome, weight)


@pytest.mark.parametrize("deficiency", range(isd.NULLSPACE_CAP + 2))
def test_solve_window_matches_oracle_up_to_the_nullspace_cap(deficiency):
    # beyond the cap both abandon the window, however consistent
    rnd = random.Random(100 + deficiency)
    width = 24
    cols = window_columns(rnd, width, deficiency)
    for syndrome in syndromes(rnd, cols):
        assert_solve_matches_oracle(cols, syndrome, width)
    if deficiency > isd.NULLSPACE_CAP:
        assert isd._solve_window(cols, 0, width) is None


def test_solve_window_hand_cases():
    # column 1 repeats column 0 and column 2 is zero: of the four
    # solutions 0b001, 0b010, 0b101 and 0b110 one of weight 1 wins
    cols = [0b011, 0b011, 0]
    assert isd._solve_window(cols, 0b011, 3).bit_count() == 1
    assert isd._solve_window(cols, 0b011, 0) is None
    assert isd._solve_window(cols, 0b100, 3) is None  # outside the span
    assert isd._solve_window(cols, 0, 3) == 0


@pytest.mark.parametrize("params", [TOY, MID], ids=["toy", "mid"])
def test_rank_report_matches_oracle(params):
    # the cyclic windows repeat rows at mid, so none has full rank; the
    # Niederreiter check, passed in its place, has full-rank windows too
    pub, priv = scheme.keygen(params, scheme.DenseSeed(), SeededRng(seed_bytes(0x31)))
    check_t = public_key(priv).check_t
    nk = params.redundancy
    for matrix_t in (scheme.expand_cyclic(pub), check_t):
        report = isd.rank_report(matrix_t, priv, SeededRng(seed_bytes(12)), samples=32)
        matrix = oracles.transpose(matrix_t)
        rng = SeededRng(seed_bytes(12))
        windows = [oracles.columns(matrix, rng.sample(params.n, nk)) for _ in range(32)]
        assert report.full_rank_windows == sum(oracles.rank(w) == nk for w in windows)
        assert report.cyclic_rank == oracles.rank(matrix)
        assert report.check_rank == oracles.rank(oracles.transpose(check_t))
        secondary = [a ^ b for a, b in zip(matrix_t.row_ints, check_t.row_ints)]
        assert report.secondary_rank == oracles.rank(BinaryMatrix(params.n, nk, secondary))
