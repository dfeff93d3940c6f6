"""Regenerate bench/pins.json, which pins the work the benchmark does.

    python3 bench/pin.py

For every fixed key the workloads build (keygen-headline's seed list
and cli-regen's keys, at both sizes) it records the SHA-256 of the
.pk and .sk files and the exact counts of irreducibility tests,
permutation draws and Goppa-code resamples that regenerating the key
takes.  For the seeds in run.DIGEST_SEEDS (0-31 at full size, 0-3 at
tiny size) it records the digest of each workload's inputs and outputs.

The benchmark checks every pinned value it meets and reports a
mismatch as a failure.  Rerun this only in a change that is meant to
alter the work itself, and say so in that change.
"""

from __future__ import annotations

import hashlib
import json
import types

import run
from tracer import Tracer, op_counts

def key_pin(lib, scheme: str, params, key_seed: bytes) -> tuple[dict, bytes]:
    """The key's pin, and its .pk and .sk bytes."""
    fields = run.keygen_fields(lib, scheme, params, key_seed)
    tracer = Tracer()
    tracer.install()
    try:
        pub, _ = lib.keyio.regenerate(*fields)
    finally:
        tracer.uninstall()
    pk = lib.keyio.serialize_public_key(pub)
    sk = lib.keyio.serialize_private_key(*fields, pk)
    counts = op_counts(tracer.spans)[-1]
    pin = {
        "pk_sha256": hashlib.sha256(pk).hexdigest(),
        "sk_sha256": hashlib.sha256(sk).hexdigest(),
        "is_irreducible_calls": counts["is_irreducible_calls"],
        "perm_draws": counts["perm_draws"],
        "resamples": counts["resamples"],
    }
    return pin, pk + sk


def main() -> None:
    lib = run.import_kal1()
    run.check_toy_kat(lib)
    keys = {}
    digests = {}
    for size, cfg in run.SIZES.items():
        params = lib.goppa.CodeParams(*cfg["key"])
        pool_parts = []
        for workload, scheme, key_seed in run.fixed_keys(size):
            pin, files = key_pin(lib, scheme, params, key_seed)
            keys[run.key_label(params, scheme, key_seed)] = pin
            if workload == "keygen-headline":
                pool_parts.append(files)
        # keygen-headline runs the same keys whatever the seed
        pool_digest = run.digest(types.SimpleNamespace(parts=pool_parts))
        for seed in run.DIGEST_SEEDS[size]:
            digests[f"keygen-headline/{size}/{seed}"] = pool_digest
    # the digests below check the keys against these pins as they go
    run.PINS.write_text(json.dumps({"keys": keys, "digests": {}}, indent=1, sort_keys=True) + "\n")
    for size, seeds in run.DIGEST_SEEDS.items():
        for name in ("warm-headline", "cli-regen"):
            workload = run.WORKLOADS[name]
            for seed in seeds:
                st = workload.setup(lib, size, seed)
                try:
                    phase = run.Run()
                    workload.cycle(st, phase, 0)
                finally:
                    workload.teardown(st)
                problems = phase.failures + getattr(st, "mismatches", [])
                if problems:
                    raise run.BenchError(f"{name} seed {seed}: {problems[0]}")
                digests[f"{name}/{size}/{seed}"] = run.digest(st)
                print(name, size, seed, digests[f"{name}/{size}/{seed}"], flush=True)
    run.PINS.write_text(
        json.dumps({"keys": keys, "digests": digests}, indent=1, sort_keys=True) + "\n"
    )


if __name__ == "__main__":
    main()
