"""Prange probe: planted recovery, edge cases, rank report.

The window solve and the rank report run on binmat's one elimination;
they must agree with the basis-dict solve and the per-bit column gather
they replaced, kept in ``oracles``.
"""

import random
import sys
from math import comb

import pytest

from kal1 import isd, scheme
from kal1.binmat import BinaryMatrix, matrix_times_vec, vec_times_matrix
from kal1.errors import DimensionMismatch, ParameterError
from kal1.niederreiter import public_key
from kal1.rng import SeededRng

import oracles
from conftest import MID, TOY, seed_bytes


def test_zero_syndrome_returns_zero(toy_nied):
    pub, _ = toy_nied
    assert isd.prange_search(pub.check_t, 0, TOY.t, 1, SeededRng(seed_bytes(0))) == 0


def test_negative_syndrome_rejected(toy_nied):
    pub, _ = toy_nied
    for syndrome in (-1, -(1 << TOY.redundancy)):
        with pytest.raises(DimensionMismatch):
            isd.prange_search(pub.check_t, syndrome, TOY.t, 1, SeededRng(seed_bytes(0)))


def test_weight_zero_nonzero_syndrome_not_found(toy_nied):
    pub, _ = toy_nied
    assert isd.prange_search(pub.check_t, 1, 0, 100, SeededRng(seed_bytes(1))) is None


def test_weight_bound_exceeding_redundancy_rejected(toy_nied):
    pub, _ = toy_nied
    with pytest.raises(ParameterError):
        isd.prange_search(pub.check_t, 1, TOY.redundancy + 1, 1, SeededRng(seed_bytes(2)))


def test_length_limit_guard():
    # the probe takes codes up to LENGTH_LIMIT long and refuses longer ones
    for n in (isd.LENGTH_LIMIT, isd.LENGTH_LIMIT + 1):
        check_t = BinaryMatrix(n, 8, [1 << (i % 8) for i in range(n)])
        if n > isd.LENGTH_LIMIT:
            with pytest.raises(ParameterError, match=f"^code length {n} above the probe limit 64$"):
                isd.prange_search(check_t, 1, 2, 0, SeededRng(seed_bytes(3)))
        else:
            assert isd.prange_search(check_t, 1, 2, 0, SeededRng(seed_bytes(3))) is None


def planted(rnd) -> int:
    return sum(1 << i for i in rnd.sample(range(TOY.n), TOY.t))


def test_planted_recovery_with_iteration_budget(toy_nied, monkeypatch):
    # success probability per iteration is about 0.23, so 10^4 draws
    # recover every planted error in practice.  The rows of check_t are
    # the columns of H, so Prange reads its windows straight from them
    # and checks its answer against them: it transposes nothing
    def refuse(*args):
        raise AssertionError("Prange transposed a matrix")

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "kal1" and hasattr(mod, "transpose_ints"):
            monkeypatch.setattr(mod, "transpose_ints", refuse)
    monkeypatch.setattr(BinaryMatrix, "transpose", refuse)
    pub, _ = toy_nied
    rnd = random.Random(4)
    for trial in range(25):
        e = planted(rnd)
        c = vec_times_matrix(e, pub.check_t)
        found = isd.prange_search(pub.check_t, c, TOY.t, 10_000, SeededRng(seed_bytes(0x100 + trial)))
        assert found == e


def test_returned_vector_always_satisfies_instance(toy_nied):
    pub, _ = toy_nied
    check = pub.check_t.transpose()
    rnd = random.Random(5)
    for trial in range(50):
        e = planted(rnd)
        c = vec_times_matrix(e, pub.check_t)
        found = isd.prange_search(pub.check_t, c, TOY.t, 3, SeededRng(seed_bytes(0x200 + trial)))
        if found is not None:
            assert matrix_times_vec(check, found) == c
            assert found.bit_count() <= TOY.t


def test_single_iteration_rate_matches_analytic(toy_nied):
    # deterministic seeds; bound is 3 standard errors of the binomial
    pub, _ = toy_nied
    analytic = comb(TOY.redundancy, TOY.t) / comb(TOY.n, TOY.t)
    rnd = random.Random(6)
    trials = 1200
    window_rng = SeededRng(seed_bytes(0xABC))
    hits = 0
    for _ in range(trials):
        e = planted(rnd)
        c = vec_times_matrix(e, pub.check_t)
        found = isd.prange_search(pub.check_t, c, TOY.t, 1, window_rng)
        if found is not None:
            assert found == e
            hits += 1
    rate = hits / trials
    stderr = (analytic * (1 - analytic) / trials) ** 0.5
    assert abs(rate - analytic) <= 3 * stderr


def test_rank_report_fields(toy_kal1):
    pk, sk = toy_kal1
    report = isd.rank_report(scheme.expand_cyclic(pk), sk)
    nk = TOY.redundancy
    assert report.params == TOY
    assert report.cyclic_rank == nk  # identity block forces full rank
    assert report.check_rank == nk
    assert 0 <= report.full_rank_windows <= isd.WINDOW_SAMPLES
    text = str(report)
    assert "rank(cyclic_t) = 8 of 8" in text
    assert "subadditivity" in text and "ok" in text
    assert text.endswith("identity block forces full row rank of cyclic_t")


def test_rank_report_deterministic(toy_kal1):
    pk, sk = toy_kal1
    assert isd.rank_report(scheme.expand_cyclic(pk), sk) == isd.rank_report(scheme.expand_cyclic(pk), sk)


# --- the window solve and the rank report against the code they replaced ---


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
            cols.append(oracles.xor_selected(basis, rnd.getrandbits(len(basis))))
    rnd.shuffle(cols)
    return cols


def syndromes(rnd, cols: list[int]) -> list[int]:
    """One syndrome in the span of cols and, if the span is not the
    whole space, one outside it."""
    width = len(cols)
    out = [oracles.xor_selected(cols, rnd.getrandbits(width))]
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
        assert oracles.xor_selected(cols, got) == syndrome == oracles.xor_selected(cols, want)


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
        report = isd.rank_report(matrix_t, priv)
        matrix = oracles.transpose(matrix_t)
        rng = SeededRng(bytes(16))
        windows = [oracles.columns(matrix, rng.sample(params.n, nk)) for _ in range(isd.WINDOW_SAMPLES)]
        assert report.full_rank_windows == sum(oracles.rank(w) == nk for w in windows)
        assert report.cyclic_rank == oracles.rank(matrix)
        assert report.check_rank == oracles.rank(oracles.transpose(check_t))
        secondary = [a ^ b for a, b in zip(matrix_t.row_ints, check_t.row_ints)]
        assert report.secondary_rank == oracles.rank(BinaryMatrix(params.n, nk, secondary))
