"""Tests of the benchmark itself, at the tiny size.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time

import pytest

import run
from tracer import LAYER_METRICS, self_times

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMED = {
    "warm-headline": ["encrypt_ms_p50", "encrypt_ms_p95", "decrypt_ms_p50", "decrypt_ms_p95",
                      "reject_ms_p50"],
    "keygen-headline": ["keygen_s_p50"],
    "cli-regen": ["cli_decrypt_s_p50", "kat_record_ms_p50"],
}
COMMON = ["setup_s", "ops_per_s", "fail_ratio", "peak_rss_mb"]


def bench(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == run.END_TO_END
    layers = [(name, unit) for name, unit, _ in LAYER_METRICS] + run.OVERHEAD
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == layers


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "2", "--trace", str(trace),
                 "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {m: last["metrics"][m]["unit"] for m in last["metrics"]} == {
        m["name"]: m["unit"] for m in declared
    }
    # the report names every end-to-end metric of the workload with its unit
    report = {line.split()[0]: line.split()[2] for line in lines if line.startswith("  ")}
    for name in COMMON + NAMED[workload]:
        assert name in report, name
        if name == "setup_s" or "_s_p" in name:
            assert report[name] == "s"
        elif "_ms_p" in name:
            assert report[name] == "ms"


def test_traced_self_times_add_up_to_wall_time():
    record = run.run_workload("cli-regen", 2, 0.5, True, "tiny")
    assert not record["failures"] and not record["mismatches"]
    spans = record["spans"]
    self_ms = sum(
        t for t, span in zip(self_times(spans), spans) if span[4] >= 0 and span[0] != "bench.ref"
    ) / 1e6
    bound = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}["ops_per_s"]
    assert abs(self_ms - record["traced_busy_ms"]) <= bound * record["traced_busy_ms"]
    # every CLI decrypt was checked against its key's pinned exact counts
    assert record["layers"]["niederreiter.perm_draws"][0] > 0


def test_host_sampling_interrupts_the_work_and_stops():
    host = run.HostSpeed()
    previous = signal.getsignal(signal.SIGALRM)
    with host.sampling():
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            pass
    assert host.passes > 5 and 0 < host.spent < 0.2
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def corrupt_after_setup(monkeypatch, workload_cls, corrupt):
    original = workload_cls.setup

    def setup(self, lib, size, seed):
        st = original(self, lib, size, seed)
        corrupt(monkeypatch, lib)
        return st

    monkeypatch.setattr(workload_cls, "setup", setup)


def flip_decrypt(monkeypatch, lib):
    real = lib.scheme.decrypt
    monkeypatch.setattr(lib.scheme, "decrypt", lambda sk, c: real(sk, c) ^ 1)


def flip_parse(monkeypatch, lib):
    real = lib.keyio.parse_public_key
    monkeypatch.setattr(lib.keyio, "parse_public_key", lambda data: real(data[:-1] + bytes([data[-1] ^ 0x80])))


def flip_message(monkeypatch, lib):
    real = lib.keyio.encode_message
    monkeypatch.setattr(lib.keyio, "encode_message", lambda msg, params: real(msg ^ 1, params))


@pytest.mark.parametrize(
    "workload_cls, corrupt",
    [(run.WarmHeadline, flip_decrypt), (run.KeygenHeadline, flip_parse), (run.CliRegen, flip_message)],
)
def test_corrupted_output_raises_fail_ratio(monkeypatch, workload_cls, corrupt):
    corrupt_after_setup(monkeypatch, workload_cls, corrupt)
    record = run.run_workload(workload_cls.name, 3, 0.2, False, "tiny")
    assert record["named"]["fail_ratio"]["value"] > 0
    assert run.result_line(record)["correct"] is False


def test_pinned_keys_are_checked(monkeypatch):
    pins = run.load_pins()
    label = next(iter(k for k in pins["keys"] if k.startswith("256,192,8,8/kal1/")))
    pins["keys"][label] = dict(pins["keys"][label], perm_draws=-1, pk_sha256="0" * 64)
    monkeypatch.setattr(run, "load_pins", lambda: pins)
    record = run.run_workload("keygen-headline", 4, 0.2, True, "tiny")
    assert any("differs from the pinned one" in f for f in record["failures"])
    assert any("perm_draws" in m for m in record["mismatches"])


def test_relabelled_key_is_a_mismatch(monkeypatch):
    real = run.fixed_keys

    def relabelled(size):
        keys = real(size)
        workload, scheme, _ = keys[0]
        return [(workload, scheme, run.fixed_seed("relabelled")), *keys[1:]]

    monkeypatch.setattr(run, "fixed_keys", relabelled)
    record = run.run_workload("keygen-headline", 4, 0.2, True, "tiny")
    assert any("no pinned key" in f for f in record["failures"])
    assert any("no pinned counts" in m for m in record["mismatches"])
    assert run.result_line(record)["correct"] is False


def test_missing_digest_of_a_documented_seed_is_a_mismatch(monkeypatch):
    pins = run.load_pins()
    del pins["digests"]["warm-headline/tiny/1"]
    monkeypatch.setattr(run, "load_pins", lambda: pins)
    record = run.run_workload("warm-headline", 1, 0.1, False, "tiny")
    assert any("no pinned digest" in m for m in record["mismatches"])
    assert run.result_line(record)["correct"] is False


def test_missing_pins_file_aborts(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "PINS", tmp_path / "pins.json")
    with pytest.raises(run.BenchError):
        run.run_workload("warm-headline", 1, 0.1, False, "tiny")


def test_toy_kat_divergence_aborts(monkeypatch, tmp_path):
    text = run.TOY_KAT.read_text().replace("ct=a0", "ct=a1", 1)
    (tmp_path / "toy.kat").write_text(text)
    monkeypatch.setattr(run, "TOY_KAT", tmp_path / "toy.kat")
    with pytest.raises(run.BenchError):
        run.run_workload("warm-headline", 1, 0.1, False, "tiny")


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "warm-headline", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
