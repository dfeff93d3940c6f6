"""Acceptance suite: one test and one printed verdict per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; every tolerance is pinned in the assertions below.
"""

import random
import time
from itertools import combinations
from math import comb
from pathlib import Path

from kal1 import cli, isd, keyio, niederreiter, scheme
from kal1.binmat import vec_times_matrix
from kal1.cw import CwParams, cw_decode, cw_encode
from kal1.goppa import CodeParams
from kal1.rng import SeededRng

from conftest import MID, TOY, seed_bytes

FULL = CodeParams(1024, 524, 50, 10)
KAT_FILE = Path(__file__).parent / "data" / "toy.kat"


def _verdict(num: int, desc: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {num}: {desc}{suffix}")
    assert ok, f"criterion {num}: {desc}{suffix}"


def test_criterion_1_key_sizes_and_keygen_time():
    sizes = {}
    elapsed = {}
    policies = [
        ("kal1", scheme.DenseSeed(), 0x1001),
        ("kal1-s1", scheme.SparseSeed(10), 0x1002),
        ("kal1-s2", scheme.RunSeed(4, 3), 0x1003),
    ]
    for tag, policy, seed_tag in policies:
        start = time.perf_counter()
        pub, _ = scheme.keygen(FULL, policy, SeededRng(seed_bytes(seed_tag)))
        elapsed[tag] = time.perf_counter() - start
        blob = keyio.serialize_public_key(pub)
        assert keyio.parse_public_key(blob) == pub
        sizes[tag] = keyio.payload_bits(pub)
    ok = (
        sizes == {"kal1": 500, "kal1-s1": 90, "kal1-s2": 18}
        and all(dt < 30.0 for dt in elapsed.values())
    )
    _verdict(
        1,
        "payloads 500/90/18 bits at (1024,524,50,10), keygen under 30 s",
        ok,
        f"sizes={sizes} times=" + ",".join(f"{v:.1f}s" for v in elapsed.values()),
    )


def test_criterion_2_exhaustive_decoder(toy_code):
    start = time.perf_counter()
    failures = 0
    count = 0
    for w in range(TOY.t + 1):
        for supp in combinations(range(TOY.n), w):
            e = sum(1 << i for i in supp)
            if toy_code.decode(toy_code.syndrome(e)) != e:
                failures += 1
            count += 1
    elapsed = time.perf_counter() - start
    ok = count == 137 and failures == 0 and elapsed < 1.0
    _verdict(2, "decode(syndrome(e)) = e for all 137 toy errors under 1 s", ok,
             f"{count} cases, {failures} failures, {elapsed:.3f}s")


def test_criterion_3_round_trip_full_message_space(toy_kal1, mid_kal1):
    pk, sk = toy_kal1
    cwp = scheme.cw_params(TOY)
    failures = sum(
        scheme.decrypt(sk, scheme.encrypt(pk, msg)) != msg for msg in range(1 << cwp.msg_bits)
    )
    mpk, msk = mid_kal1
    mid_cwp = scheme.cw_params(MID)
    rnd = random.Random(0xC3)
    mid_failures = 0
    trials = 10_000
    for _ in range(trials):
        msg = rnd.getrandbits(mid_cwp.msg_bits)
        if scheme.decrypt(msk, scheme.encrypt(mpk, msg)) != msg:
            mid_failures += 1
    ok = failures == 0 and mid_failures == 0
    _verdict(3, "round trip over full toy space and 10^4 mid-scale messages", ok,
             f"toy 2^{cwp.msg_bits} exhaustive, {trials} at (256,192,8,8)")


def test_criterion_4_decomposition_structure():
    param_sets = [
        (TOY, 40),
        (CodeParams(32, 17, 3, 5), 30),
        (CodeParams(64, 40, 4, 6), 20),
        (CodeParams(128, 72, 8, 7), 10),
    ]
    checked = 0
    bad = 0
    for params, count in param_sets:
        for i in range(count):
            pub, priv = scheme.keygen(
                params, scheme.DenseSeed(), SeededRng(seed_bytes(0x4000 + checked))
            )
            inner_pub = niederreiter.public_key(priv)
            cyclic_t = scheme.expand_cyclic(pub)
            secondary = isd.secondary_check_t(cyclic_t, inner_pub)
            # the sum row by row, apart from the one isd takes
            summed = tuple(a ^ b for a, b in zip(inner_pub.check_t.row_ints, secondary.row_ints))
            if cyclic_t.row_ints != summed:
                bad += 1
            if any(secondary.row_ints[params.k + i] for i in range(params.redundancy)):
                bad += 1
            checked += 1
    ok = checked >= 100 and bad == 0
    _verdict(4, "cyclic = check xor secondary with zero bottom block, 100 keypairs", ok,
             f"{checked} keypairs across {len(param_sets)} parameter sets")


def test_criterion_5_masking_term_vanishes():
    param_sets = [TOY, CodeParams(32, 17, 3, 5), CodeParams(64, 40, 4, 6)]
    failures = 0
    per_key = 1000
    for idx, params in enumerate(param_sets):
        pub, priv = scheme.keygen(params, scheme.DenseSeed(), SeededRng(seed_bytes(0x5000 + idx)))
        secondary = isd.secondary_check_t(
            scheme.expand_cyclic(pub), niederreiter.public_key(priv)
        )
        cwp = scheme.cw_params(params)
        rnd = random.Random(0x50 + idx)
        for _ in range(per_key):
            msg = rnd.getrandbits(cwp.msg_bits)
            e = cw_encode(msg, cwp) << params.k
            if vec_times_matrix(e, secondary) != 0:
                failures += 1
    ok = failures == 0
    _verdict(5, "e * secondary = 0 for 10^3 random valid e per keypair", ok,
             f"{per_key} vectors x {len(param_sets)} keypairs")


def test_criterion_6_cross_scheme_equivalence(toy_kal1):
    pk, sk = toy_kal1
    cwp = scheme.cw_params(TOY)
    mismatches = 0
    for msg in range(1 << cwp.msg_bits):
        c = scheme.encrypt(pk, msg)
        via_scheme = scheme.decrypt(sk, c)
        e = niederreiter.decrypt(sk, c)
        assert e & ((1 << TOY.k) - 1) == 0 and (e >> TOY.k).bit_count() == TOY.t
        via_baseline = cw_decode(e >> TOY.k, cwp)
        if via_scheme != via_baseline or via_scheme != msg:
            mismatches += 1
    ok = mismatches == 0
    _verdict(6, "scheme decryption equals the baseline chain on all toy cases", ok,
             f"2^{cwp.msg_bits} messages")


def test_criterion_7_codec_bijectivity():
    collisions = 0
    round_trip_failures = 0
    params_checked = 0
    for length in range(1, 17):
        for weight in range(0, min(4, length) + 1):
            p = CwParams(length, weight)
            seen = set()
            for msg in range(1 << p.msg_bits):
                word = cw_encode(msg, p)
                if word in seen:
                    collisions += 1
                seen.add(word)
                if cw_decode(word, p) != msg:
                    round_trip_failures += 1
            params_checked += 1
    ok = collisions == 0 and round_trip_failures == 0
    _verdict(7, "constant-weight codec bijective for length <= 16, weight <= 4", ok,
             f"{params_checked} parameterizations")


def test_criterion_8_prange_calibration(toy_nied):
    pub, _ = toy_nied
    analytic = comb(TOY.redundancy, TOY.t) / comb(TOY.n, TOY.t)
    trials = 1500
    start = time.perf_counter()
    rnd = random.Random(0x88)
    window_rng = SeededRng(seed_bytes(0x8888))
    hits = 0
    for _ in range(trials):
        supp = rnd.sample(range(TOY.n), TOY.t)
        e = sum(1 << i for i in supp)
        found = isd.prange_search(pub.check_t, vec_times_matrix(e, pub.check_t), TOY.t, 1, window_rng)
        if found is not None:
            assert found == e
            hits += 1
    elapsed = time.perf_counter() - start
    rate = hits / trials
    stderr = (analytic * (1 - analytic) / trials) ** 0.5
    ok = abs(rate - analytic) <= 3 * stderr and elapsed < 60.0
    _verdict(8, "Prange rate within 3 SE of C(8,2)/C(16,2) over 10^3+ trials under 60 s", ok,
             f"rate={rate:.4f} analytic={analytic:.4f} z={(rate - analytic) / stderr:+.2f} {elapsed:.1f}s")


def test_criterion_9_shipped_kat_verifies():
    text = KAT_FILE.read_text()
    count = keyio.kat_verify(text)
    exit_code = cli.main(["kat", "verify", "--kat", str(KAT_FILE)])
    ok = count == 8 and exit_code == 0
    _verdict(9, "shipped toy KAT file verifies byte-exactly on a fresh build", ok,
             f"{count} records, cli exit {exit_code}")
