"""Prange probe: planted recovery, edge cases, rank report."""

import random
from math import comb

import pytest

from kal1 import isd, scheme
from kal1.binmat import matrix_times_vec, vec_times_matrix
from kal1.errors import ParameterError
from kal1.rng import SeededRng

from conftest import TOY, seed_bytes


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
    assert a.lines() == b.lines()
