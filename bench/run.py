"""Benchmark for the kal1 library and CLI.

    python3 bench/run.py --workload warm-headline --seed 1 --seconds 20 --trace 0

Each invocation runs one workload in this single process as a closed
loop with one caller: every operation waits for the previous one, and
no thread or worker is started.  Inputs come from --seed alone.  The
loop runs whole cycles of operations until --seconds have passed, checks
every output, and prints a report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
run alternates untraced and traced cycles, and reports the per-layer
metrics plus the tracing overhead.  Times that gate a change are scaled
by a reference loop run inside the work (see HostSpeed).  The full
record (environment, every named metric with its sample count, digests)
goes to .bench_out/.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
import types
from collections import defaultdict
from pathlib import Path

import cryptography

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TOY_KAT = ROOT / "tests" / "data" / "toy.kat"
OUT = ROOT / ".bench_out"
PINS = BENCH / "pins.json"

sys.path.insert(0, str(BENCH))
from tracer import Tracer, layer_metrics, op_counts, span_cost_ms  # noqa: E402

SIZES = {
    "full": {
        "key": (1024, 524, 50, 10),
        "kat": (256, 192, 8, 8),
        "pool": 4,
        "cli_keys": 3,
        "cts_per_key": 2,
        "kat_records": 4,
    },
    # for the benchmark's own tests only
    "tiny": {
        "key": (256, 192, 8, 8),
        "kat": (16, 8, 2, 4),
        "pool": 4,
        "cli_keys": 2,
        "cts_per_key": 2,
        "kat_records": 2,
    },
}
SCHEMES = ("kal1", "kal1-s1", "kal1-s2", "niederreiter")
SETUP_REPS = 3  # set-ups per run, more while they take under two seconds in all
SETUP_MAX_REPS = 40
DIGEST_SEEDS = {"full": range(32), "tiny": range(4)}  # seeds with pinned digests
WARM_OPS = 64  # messages and forgeries per warm-headline cycle
P95_MIN_SAMPLES = 200  # ten samples beyond the p95

END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MB")]
# measured: traced minus untraced ms per op; estimated: wrapped calls per
# op times what wrapping adds to one call
OVERHEAD = [("trace.overhead_ms", "ms"), ("trace.overhead_est_ms", "ms")]


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


def import_kal1():
    """Import kal1 from this checkout's src/, dropping any earlier import
    so that each timed set-up includes the library's module-level work."""
    if not (SRC / "kal1").is_dir():
        raise BenchError(f"no kal1 package under {SRC}")
    for name in [n for n in sys.modules if n == "kal1" or n.startswith("kal1.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("kal1")
    if Path(pkg.__file__).resolve().parent != SRC / "kal1":
        raise BenchError(f"kal1 imported from {pkg.__file__}, not from {SRC}")
    mods = ("cli", "errors", "goppa", "keyio", "rng", "scheme")
    return types.SimpleNamespace(**{m: importlib.import_module("kal1." + m) for m in mods})


def check_toy_kat(lib) -> None:
    """Replay the shipped toy KAT; any divergence aborts the run."""
    try:
        text = TOY_KAT.read_text()
        count = lib.keyio.kat_verify(text)
    except (OSError, lib.errors.Kal1Error) as exc:
        raise BenchError(f"toy KAT check failed: {exc!r}") from exc
    if count != len(text.splitlines()):
        raise BenchError(f"toy KAT verified {count} of {len(text.splitlines())} records")


def fixed_seed(label: str) -> bytes:
    """A 16-byte key seed that does not depend on the workload seed."""
    return hashlib.sha256(f"kal1-bench/{label}".encode()).digest()[:16]


def inputs(workload: str, size: str, seed: int, cycle: int) -> random.Random:
    return random.Random(f"kal1-bench/{workload}/{size}/{seed}/{cycle}")


def msg_bits(params) -> int:
    return math.comb(params.redundancy, params.t).bit_length() - 1


def key_label(params, scheme: str, seed: bytes) -> str:
    return f"{params.n},{params.k},{params.t},{params.m}/{scheme}/{seed.hex()}"


def fixed_keys(size: str) -> list[tuple[str, str, bytes]]:
    """(workload, scheme, key seed) of every fixed key the workloads build
    at a size; neither depends on the workload seed."""
    cfg = SIZES[size]
    return [
        ("keygen-headline", SCHEMES[i % len(SCHEMES)], fixed_seed(f"keygen-headline/{i}"))
        for i in range(cfg["pool"])
    ] + [
        ("cli-regen", SCHEMES[j % len(SCHEMES)], fixed_seed(f"cli-regen/key/{j}"))
        for j in range(cfg["cli_keys"])
    ]


def workload_keys(name: str, size: str) -> list[tuple[str, bytes]]:
    return [(scheme, seed) for w, scheme, seed in fixed_keys(size) if w == name]


def load_pins() -> dict:
    if not PINS.exists():
        raise BenchError(f"{PINS.name} is missing, so the work cannot be checked")
    return json.loads(PINS.read_text())


def quiet_main(lib, argv: list[str]):
    """Run the CLI in-process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = lib.cli.main(argv)
    return code, out.getvalue()


REF_ITERS = 3000
REF_NOMINAL_S = 0.001  # a pass's nominal time; it sets only the scale of scaled figures
REF_PERIOD_S = 0.0067  # one pass per period: about 15% of the time measured
_REF_WORD = (1 << 1024) - 12345


def ref_pass() -> float:
    """One pass of a fixed loop mixing big- and small-integer work, as the
    library does; returns its wall time in seconds."""
    start = time.perf_counter()
    acc = 0
    for i in range(REF_ITERS):
        acc = ((acc << 1) ^ (_REF_WORD >> (i & 511))) & _REF_WORD
        acc += i * i
    return time.perf_counter() - start


class HostSpeed:
    """How much slower than nominal the host runs a fixed reference loop.

    Other tenants of a shared host slow this process by up to about 60%,
    in bursts lasting from under a second to minutes, and CPU time tracks
    wall time, so neither longer runs nor process time remove it.  While
    a set-up or a cycle runs, a timer interrupts it with passes of the
    reference loop, whose time is taken out of the work's; the work's
    time is then divided by the loop's slowdown over the same stretch.
    A change to the library does not touch the loop, so its own cost
    still shows in full.
    """

    def __init__(self):
        self.spent = 0.0
        self.passes = 0
        self.run_pass()  # so that even a stretch shorter than a period has one

    def run_pass(self) -> None:
        self.spent += ref_pass()
        self.passes += 1

    @contextlib.contextmanager
    def sampling(self, tracer: Tracer | None = None):
        """Run a reference pass every REF_PERIOD_S of wall time while the
        body runs, from a SIGALRM timer.  The passes' time is added to
        self.spent, for the caller to take out of the body's.  Under a
        tracer each pass is a `bench.ref` span, so that the layer it
        interrupts does not count it as self time."""
        run_pass = self.run_pass if tracer is None else tracer.wrap("bench.ref", self.run_pass)
        running = False

        def tick(signum, frame):
            nonlocal running
            if not running:  # a pass slower than the period is not re-entered
                running = True
                run_pass()
                running = False

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def slowdown(self) -> float:
        return self.spent / (self.passes * REF_NOMINAL_S)


class Run:
    """Timings and failures of one measured phase."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failures: list[str] = []
        self.busy = 0.0
        self.op_labels: dict[int, str] = {}
        self.host = HostSpeed()
        # (busy seconds, ops, host slowdown) per cycle
        self.cycles: list[tuple[float, int, float]] = []

    def cycle(self, workload, st, c: int) -> None:
        """Run one cycle of the workload, recording its totals."""
        busy, ops = self.busy, self.attempted
        self.host = HostSpeed()
        if self.tracer is not None:
            self.tracer.install()
        try:
            with self.host.sampling(self.tracer):
                workload.cycle(st, self, c)
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
        self.cycles.append((self.busy - busy, self.attempted - ops, self.host.slowdown()))

    def op(self, kind: str, call, check, label: str | None = None):
        """Time one call; check its output after the clock stops.

        ``check`` returns None for a correct output and a reason
        otherwise.  An exception the check does not expect is a failure;
        no operation is dropped or retried.
        """
        if self.tracer is not None:
            self.tracer.op_id = self.attempted
            call = self.tracer.wrap("op." + kind, call)
        if label is not None:
            self.op_labels[self.attempted] = label
        ref_spent = self.host.spent
        start = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # counted in fail_ratio by the check
            out = exc
        elapsed = time.perf_counter() - start - (self.host.spent - ref_spent)
        if self.tracer is not None:
            self.tracer.op_id = -1  # input generation between ops is not an op
        self.attempted += 1
        self.busy += elapsed
        self.samples[kind].append(elapsed)
        reason = check(out)
        if reason is not None:
            self.failures.append(f"{kind}: {reason}")
        return out


def unexpected(out) -> str | None:
    return f"raised {type(out).__name__}: {out}" if isinstance(out, Exception) else None


# --- workloads ---


class Workload:
    name = ""

    def teardown(self, st) -> None:
        """Remove what set-up left on disk; most workloads leave nothing."""


class WarmHeadline(Workload):
    """Encrypt, decrypt and reject forgeries under one warm key."""

    name = "warm-headline"

    def setup(self, lib, size: str, seed: int):
        params = lib.goppa.CodeParams(*SIZES[size]["key"])
        key_seed = fixed_seed(f"{self.name}/key")
        pub, priv = lib.scheme.keygen(params, lib.scheme.DenseSeed(), lib.rng.SeededRng(key_seed))
        # first use builds the expanded matrix and the sqrt(x) table
        if lib.scheme.decrypt(priv, lib.scheme.encrypt(pub, 1)) != 1:
            raise BenchError("warm-up round trip failed")
        st = types.SimpleNamespace(lib=lib, size=size, seed=seed, params=params, pub=pub, priv=priv)
        st.parts = [lib.keyio.serialize_public_key(pub)]
        return st

    def cycle(self, st, run: Run, c: int) -> None:
        lib, params = st.lib, st.params
        rnd = inputs(self.name, st.size, st.seed, c)
        width = msg_bits(params)
        record = st.parts.append if c == 0 else (lambda data: None)
        for i in range(WARM_OPS):
            if i % 4 == 3:
                forged = rnd.getrandbits(params.redundancy)
                record(b"reject %d" % forged)
                run.op(
                    "reject",
                    lambda: lib.scheme.decrypt(st.priv, forged),
                    lambda out: None
                    if isinstance(out, lib.errors.Kal1Error)
                    else unexpected(out) or f"forgery decrypted to {out}",
                )
                continue
            msg = rnd.getrandbits(width)
            ct = run.op(
                "encrypt",
                lambda: lib.scheme.encrypt(st.pub, msg),
                lambda out: unexpected(out)
                or (None if 0 <= out < 1 << params.redundancy else "ciphertext out of range"),
            )
            if isinstance(ct, Exception):
                continue
            record(b"msg %d ct %d" % (msg, ct))
            run.op(
                "decrypt",
                lambda: lib.scheme.decrypt(st.priv, ct),
                lambda out: unexpected(out) or (None if out == msg else f"got {out}, sent {msg}"),
            )

    def metrics(self, run: Run, st) -> list:
        return [
            *latency("encrypt_ms", run.samples["encrypt"], 1e3, "ms", p95=True),
            *latency("decrypt_ms", run.samples["decrypt"], 1e3, "ms", p95=True),
            *latency("reject_ms", run.samples["reject"], 1e3, "ms"),
        ]


class KeygenHeadline(Workload):
    """Cold keygen plus wire forms over a fixed list of key seeds."""

    name = "keygen-headline"

    def setup(self, lib, size: str, seed: int):
        params = lib.goppa.CodeParams(*SIZES[size]["key"])
        # keygen cost varies about 4x between seeds, so the seeds are
        # fixed and every cycle runs all of them; the workload seed only
        # orders them
        pool = workload_keys(self.name, size)
        st = types.SimpleNamespace(lib=lib, size=size, seed=seed, params=params, pool=pool)
        st.pins = load_pins()["keys"]
        st.parts = []
        return st

    def cycle(self, st, run: Run, c: int) -> None:
        lib, keyio, params = st.lib, st.lib.keyio, st.params
        order = list(range(len(st.pool)))
        inputs(self.name, st.size, st.seed, c).shuffle(order)
        for i in order:
            scheme, key_seed = st.pool[i]
            label = key_label(params, scheme, key_seed)
            fields = keygen_fields(lib, scheme, params, key_seed)

            def call():
                pub, _ = keyio.regenerate(*fields)
                pk = keyio.serialize_public_key(pub)
                sk = keyio.serialize_private_key(*fields, pk)
                return pub, pk, sk, keyio.parse_public_key(pk)

            def check(out):
                if isinstance(out, Exception):
                    return unexpected(out)
                pub, pk, sk, parsed = out
                if parsed != pub:
                    return f"{label}: parsed public key differs"
                if c == 0:
                    st.parts.append(pk + sk)
                return pin_mismatch(st.pins, label, pk, sk)

            run.op("keygen", call, check, label)

    def metrics(self, run: Run, st) -> list:
        return latency("keygen_s", run.samples["keygen"], 1, "s", p95=True)


class CliRegen(Workload):
    """In-process CLI decrypts on repeated keys, interleaved with
    `kat verify` of files whose records never repeat."""

    name = "cli-regen"

    def setup(self, lib, size: str, seed: int):
        cfg = SIZES[size]
        params = lib.goppa.CodeParams(*cfg["key"])
        st = types.SimpleNamespace(lib=lib, size=size, seed=seed, cfg=cfg, params=params)
        st.work = OUT / f"work-{os.getpid()}-{time.perf_counter_ns()}"
        st.work.mkdir(parents=True)
        try:
            self._write_files(st)
        except BaseException:
            self.teardown(st)
            raise
        return st

    def _write_files(self, st) -> None:
        """Headline key files, message files and their ciphertexts."""
        lib, cfg, params = st.lib, st.cfg, st.params
        st.parts = []
        st.mismatches = []
        pins = load_pins()["keys"]
        rnd = inputs(self.name, st.size, st.seed, -1)
        width = msg_bits(params)
        st.keys = []
        for j, (scheme, key_seed) in enumerate(workload_keys(self.name, st.size)):
            prefix = st.work / f"key{j}"
            call_cli(lib, ["keygen", *param_flags(params), "--scheme", scheme,
                           "--seed", key_seed.hex(), "--out", str(prefix)])
            pk = prefix.with_suffix(".pk").read_bytes()
            sk = prefix.with_suffix(".sk").read_bytes()
            label = key_label(params, scheme, key_seed)
            reason = pin_mismatch(pins, label, pk, sk)
            if reason:
                st.mismatches.append(reason)
            st.parts.append(pk + sk)
            cts = []
            for i in range(cfg["cts_per_key"]):
                msg = rnd.getrandbits(width).to_bytes((width + 7) // 8, "big")
                msg_path, ct_path = st.work / f"key{j}-msg{i}", st.work / f"key{j}-ct{i}"
                msg_path.write_bytes(msg)
                call_cli(lib, ["encrypt", "--key", str(prefix.with_suffix(".pk")),
                               "--in", str(msg_path), "--out", str(ct_path)])
                st.parts.append(msg + ct_path.read_bytes())
                cts.append((ct_path, msg))
            st.keys.append((label, prefix.with_suffix(".sk"), cts))

    def teardown(self, st) -> None:
        shutil.rmtree(st.work, ignore_errors=True)

    def cycle(self, st, run: Run, c: int) -> None:
        lib, cfg = st.lib, st.cfg
        kat_params = lib.goppa.CodeParams(*cfg["kat"])
        records = cfg["kat_records"]
        out_path = st.work / "out"
        for kat_index, (label, sk_path, cts) in enumerate(st.keys):
            # pairs of cycles share a ciphertext, so a traced run, which
            # alternates cycles, decrypts every ciphertext both ways
            ct_path, msg = cts[c // 2 % len(cts)]
            out_path.unlink(missing_ok=True)
            run.op(
                "cli_decrypt",
                lambda: quiet_main(lib, ["decrypt", "--key", str(sk_path),
                                         "--in", str(ct_path), "--out", str(out_path)]),
                lambda out: unexpected(out)
                or (None if out[0] == 0 and out_path.read_bytes() == msg
                    else f"{label}: exit {out[0]}, wrong or missing output"),
                label,
            )
            # a fresh master seed per file: no KAT record repeats in a run
            kat_seed = fixed_seed(f"{self.name}/{st.size}/{st.seed}/kat/{c}/{kat_index}")
            kat_path = st.work / f"kat-{c}-{kat_index}.kat"
            call_cli(lib, ["kat", "generate", "--kat", str(kat_path), "--count", str(records),
                           *param_flags(kat_params), "--seed", kat_seed.hex()])
            if c == 0:
                st.parts.append(kat_path.read_bytes())
            run.op(
                "kat_verify",
                lambda: quiet_main(lib, ["kat", "verify", "--kat", str(kat_path)]),
                lambda out: unexpected(out)
                or (None if out == (0, f"verified {records} records\n")
                    else f"kat verify returned {out}"),
            )
            kat_path.unlink()

    def metrics(self, run: Run, st) -> list:
        per_record = [s / st.cfg["kat_records"] for s in run.samples["kat_verify"]]
        return [
            *latency("cli_decrypt_s", run.samples["cli_decrypt"], 1, "s"),
            *latency("kat_record_ms", per_record, 1e3, "ms"),
        ]


WORKLOADS = {w.name: w for w in (WarmHeadline(), KeygenHeadline(), CliRegen())}


def param_flags(params) -> list[str]:
    return ["--n", str(params.n), "--k", str(params.k), "--t", str(params.t), "--m", str(params.m)]


def call_cli(lib, argv: list[str]) -> None:
    """A CLI call that makes inputs, which must succeed."""
    code, _ = quiet_main(lib, argv)
    if code != 0:
        raise BenchError(f"kal1 {' '.join(argv[:2])} exited with {code}")


def keygen_fields(lib, scheme: str, params, key_seed: bytes) -> tuple:
    """(scheme id, params, w, run start, run length, seed) as `kal1 keygen`
    fills them with its default flags."""
    sid = lib.cli.SCHEME_IDS[scheme]
    w = 10 if scheme == "kal1-s1" else 0
    run_start, run_len = (0, 2) if scheme == "kal1-s2" else (0, 0)
    return sid, params, w, run_start, run_len, key_seed


def digest(st) -> str:
    """SHA-256 over the inputs and outputs a workload recorded in its
    set-up and its first cycle, independent of their order."""
    h = hashlib.sha256()
    for part in sorted(st.parts):
        h.update(len(part).to_bytes(8, "big") + part)
    return h.hexdigest()


def pin_mismatch(pins: dict, label: str, pk: bytes, sk: bytes) -> str | None:
    pin = pins.get(label)
    if pin is None:
        return f"{label}: no pinned key"
    if hashlib.sha256(pk).hexdigest() != pin["pk_sha256"]:
        return f"{label}: public key differs from the pinned one"
    if hashlib.sha256(sk).hexdigest() != pin["sk_sha256"]:
        return f"{label}: private key differs from the pinned one"
    return None


# --- metrics ---


def latency(name: str, samples: list[float], scale: float, unit: str, p95: bool = False) -> list:
    """(metric, value, unit, samples): the median, and the p95 where at
    least ten samples lie beyond it."""
    if not samples:
        return [(f"{name}_p50", None, unit, 0)]
    out = [(f"{name}_p50", statistics.median(samples) * scale, unit, len(samples))]
    if p95 and len(samples) >= P95_MIN_SAMPLES:
        out.append((f"{name}_p95", statistics.quantiles(samples, n=20)[-1] * scale, unit, len(samples)))
    return out


def ops_per_s(cycles: list[tuple[float, int, float]]) -> float:
    """Ops per busy second at nominal host speed, the median over cycles.

    Every cycle of a workload does the same mix of work, so the median
    also drops a cycle that a burst of host contention hit harder than
    the reference passes inside it.
    """
    return statistics.median(ops * slowdown / busy for busy, ops, slowdown in cycles)


def op_ms(cycles: list[tuple[float, int, float]]) -> float:
    """Milliseconds per op at nominal host speed, the median over cycles."""
    return statistics.median(busy / slowdown / ops * 1e3 for busy, ops, slowdown in cycles)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(workload, st, seconds: float, tracer: Tracer | None):
    """Run whole cycles until `seconds` have passed.

    With a tracer every second cycle runs traced, so host drift hits
    traced and untraced cycles alike, and the run ends on a traced one.
    Returns (untraced run, traced run or None, cycles run).
    """
    plain = Run()
    traced = Run(tracer) if tracer is not None else None
    start = time.perf_counter()
    cycle = 0
    while True:
        run = traced if traced is not None and cycle % 2 else plain
        run.cycle(workload, st, cycle)
        cycle += 1
        if time.perf_counter() - start >= seconds and (traced is None or cycle % 2 == 0):
            break
    return plain, traced, cycle


def count_mismatches(pins: dict, run: Run, spans) -> list[str]:
    """Exact keygen counts of every labelled op against the pins."""
    out = []
    for op_id, counts in op_counts(spans).items():
        if op_id not in run.op_labels:
            continue
        label = run.op_labels[op_id]
        pin = pins.get(label)
        if pin is None:
            out.append(f"{label}: no pinned counts")
            continue
        for key in ("is_irreducible_calls", "perm_draws", "resamples"):
            if counts[key] != pin[key]:
                out.append(f"{label}: {key} {counts[key]} != pinned {pin[key]}")
    return out


def timed_setup(workload, size: str, seed: int):
    """One set-up; returns (state, seconds at nominal host speed)."""
    gc.collect()  # the modules of the previous set-up are garbage now
    host = HostSpeed()
    before = host.spent
    start = time.perf_counter()
    with host.sampling():
        lib = import_kal1()
        check_toy_kat(lib)
        st = workload.setup(lib, size, seed)
    elapsed = time.perf_counter() - start - (host.spent - before)
    return st, elapsed / host.slowdown()


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Set up, measure and check one workload; returns the full record."""
    workload = WORKLOADS[name]
    pins = load_pins()
    load_before = os.getloadavg()
    setups = []
    st = None
    while len(setups) < SETUP_REPS or (sum(setups) < 2 and len(setups) < SETUP_MAX_REPS):
        if st is not None:
            workload.teardown(st)
        st, seconds_taken = timed_setup(workload, size, seed)
        setups.append(seconds_taken)
    mismatches = list(getattr(st, "mismatches", []))
    try:
        run, traced, cycles = measure(workload, st, seconds, Tracer() if trace else None)
        record = {"cycles": cycles, "cycle_busy_ops_slowdown": run.cycles,
                  "samples": dict(run.samples)}
        runs = [run]
        if trace:
            runs.append(traced)
            spans = traced.tracer.spans
            record["traced_cycle_busy_ops_slowdown"] = traced.cycles
            mismatches += count_mismatches(pins["keys"], traced, spans)
            layers = layer_metrics(spans, traced.attempted)
            wrapped = sum(1 for span in spans if span[4] >= 0 and span[0] != "bench.ref")
            (measured, unit), (estimated, _) = OVERHEAD
            layers[measured] = (op_ms(traced.cycles) - op_ms(run.cycles), unit)
            layers[estimated] = (wrapped / traced.attempted * span_cost_ms(), unit)
            record["layers"] = layers
            record["traced_busy_ms"] = traced.busy * 1e3
            record["spans"] = spans
    finally:
        workload.teardown(st)
    attempted = sum(r.attempted for r in runs)
    failures = [f for r in runs for f in r.failures]
    work_digest = digest(st)
    pinned = pins["digests"].get(f"{name}/{size}/{seed}")
    if pinned is None and seed in DIGEST_SEEDS.get(size, ()):
        mismatches.append(f"no pinned digest for {name}/{size}/{seed}")
    elif pinned is not None and pinned != work_digest:
        mismatches.append(f"input/output digest {work_digest} != pinned {pinned}")
    slowdowns = [s for _, _, s in run.cycles]
    named = [
        ("setup_s", statistics.median(setups), "s", len(setups)),
        ("ops_per_s", ops_per_s(run.cycles), "1/s", run.attempted),
        ("ops_per_s_wall", run.attempted / run.busy, "1/s", run.attempted),
        ("fail_ratio", len(failures) / attempted, "ratio", attempted),
        ("peak_rss_mb", peak_rss_mb(), "MB", 1),
        *workload.metrics(run, st),
    ]
    record.update(
        workload=name,
        seed=seed,
        size=size,
        seconds=seconds,
        trace=trace,
        env={
            "python": sys.version.split()[0],
            "cryptography": cryptography.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
            "host_slowdown_min_median_max": [min(slowdowns), statistics.median(slowdowns),
                                             max(slowdowns)],
        },
        named={m: {"value": v, "unit": u, "samples": n} for m, v, u, n in named},
        setup_runs_s=setups,
        attempted=attempted,
        failures=failures,
        mismatches=mismatches,
        digest=work_digest,
        digest_pinned=pinned,
    )
    return record


def result_line(record: dict) -> dict:
    """The contract's last line: end-to-end metrics, or per-layer ones
    when traced."""
    if record["trace"]:
        metrics = {m: {"value": v, "unit": u} for m, (v, u) in record["layers"].items()}
    else:
        metrics = {m: {"value": record["named"][m]["value"], "unit": u} for m, u in END_TO_END}
    return {
        "correct": not record["failures"] and not record["mismatches"],
        "attempted": record["attempted"],
        "failed": len(record["failures"]),
        "metrics": metrics,
    }


def report(record: dict) -> None:
    env = record["env"]
    print(f"workload {record['workload']}  seed {record['seed']}  size {record['size']}"
          f"  trace {int(record['trace'])}  cycles {record['cycles']}")
    print(f"env python {env['python']}  cryptography {env['cryptography']}  nproc {env['nproc']}"
          f"  loadavg {env['loadavg_before'][0]:.2f} -> {env['loadavg_after'][0]:.2f}"
          "  host slowdown min/median/max "
          + "/".join(f"{x:.2f}" for x in env["host_slowdown_min_median_max"]))
    for metric, m in record["named"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {metric:<20} {value:>12} {m['unit']:<5} n={m['samples']}")
    if record["trace"]:
        for metric, (value, unit) in record["layers"].items():
            print(f"  {metric:<34} {value:>12.6g} {unit}")
    pin = record["digest_pinned"]
    status = "not pinned" if pin is None else ("matches pin" if pin == record["digest"] else "MISMATCH")
    print(f"digest sha256 {record['digest']} ({status})")
    for failure in record["failures"][:10]:
        print(f"FAILED {failure}")
    for mismatch in record["mismatches"][:10]:
        print(f"PIN MISMATCH {mismatch}")


def write_record(record: dict) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{record['workload']}-{record['size']}-seed{record['seed']}-trace{int(record['trace'])}"
    spans = record.pop("spans", None)
    if spans is not None:
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    args = ap.parse_args(argv)
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2
    report(record)
    write_record(record)
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
