"""Reach census of the product path: which functions of src/kal1 does
no command enter?

    python tests/reach.py

In this interpreter, before kal1 is imported, a sys.setprofile hook
starts recording every Python function entered.  The census then drives
kal1.cli.main in-process at toy (16,8,2,4) and mid (256,192,8,8):
keygen with and without --seed on every scheme, encrypt, decrypt,
inspect of each .pk and .sk and --rank-report, kat generate and kat
verify, bench in text and csv, and one failing command per exit code.
It also runs what the benchmark's keygen-headline workload does to each
key: regenerate, serialize both files, parse the .pk and compare.

Every function defined in src/kal1 (found by compiling each module, so
nested functions count) that none of this entered must have a one-line
reason: an entry in REASONS, or being a target of the benchmark's
tracer.  The exit status is 1 on an unentered function without one, on
a stale REASONS entry (its function was entered or no longer exists),
or on a command that exits with another status than the census expects.
A fresh interpreter matters: a cached parser or table built by an
earlier caller would hide the functions that build it.  Only the
standard library is used.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import sys
import tempfile
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kal1"
BENCH = ROOT / "bench"
CO_OPTIMIZED = 0x1  # set on function code, not on class or module bodies

# unentered function -> why it stays
REASONS = {
    "binmat.BinaryMatrix.__repr__": "value contract pinned by test_values",
    "binmat.transpose_ints": "behind BinaryMatrix.transpose, a target of bench/tracer.py",
    "errors.Frozen.__delattr__": "value contract pinned by test_values",
    "errors.Frozen.__hash__": "value contract pinned by test_values",
    "errors.Frozen.__repr__": "value contract pinned by test_values",
    "errors.Frozen.__setattr__": "value contract pinned by test_values",
    "goppa.GoppaCode.__repr__": "value contract pinned by test_values",
    "isd._solve_window": "Prange analysis, kept in isd for the attack estimates",
    "isd.prange_search": "Prange analysis, kept in isd for the attack estimates",
}
TRACER_REASON = "a target of bench/tracer.py, which nothing on the product path calls"

TOY = (16, 8, 2, 4)
MID = (256, 192, 8, 8)
SCHEMES = ("kal1", "kal1-s1", "kal1-s2", "niederreiter")
SEED = "000102030405060708090a0b0c0d0e0f"


def import_tracer():
    """The benchmark's tracer module, imported read-only: no bytecode is
    written under bench/."""
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path[:], sys.dont_write_bytecode = saved_path, saved_flag


def defined_functions() -> dict[tuple[str, int, str], str]:
    """(file name, first line, name) -> dotted name, e.g. gf2m.Field.inv,
    for every function and method in src/kal1 but lambdas and
    comprehensions."""
    out = {}

    def walk(code: types.CodeType, prefix: str, file: str) -> None:
        for const in code.co_consts:
            if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
                name = f"{prefix}.{const.co_name}"
                if const.co_flags & CO_OPTIMIZED:
                    out[file, const.co_firstlineno, const.co_name] = name
                walk(const, name, file)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.stem, path.name)
    return out


def tracer_targets() -> set[str]:
    tracer = import_tracer()
    names = {f"{mod.removeprefix('kal1.')}.{attr}" for mod, attr in tracer.FUNCTIONS.values()}
    names |= {f"{mod.removeprefix('kal1.')}.{cls}.{attr}" for mod, cls, attr in tracer.METHODS.values()}
    _, mod, cls, attr = tracer.BINOM
    return names | {f"{mod.removeprefix('kal1.')}.{cls}.{attr}"}


def drive(work: Path) -> list[str]:
    """Run every command; the ones that exit otherwise than expected."""
    from kal1 import cli, keyio
    from kal1.goppa import CodeParams

    wrong = []

    def call(*argv: str) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return cli.main(list(argv)), err.getvalue().strip()

    def run(expect: int, *argv: str) -> None:
        code, err = call(*argv)
        if code != expect:
            wrong.append(f"{' '.join(argv)}: exit {code}, expected {expect}: {err}")

    def param_flags(n, k, t, m) -> tuple[str, ...]:
        return ("--n", str(n), "--k", str(k), "--t", str(t), "--m", str(m))

    for size, dims in (("toy", TOY), ("mid", MID)):
        flags = param_flags(*dims)
        params = CodeParams(*dims)
        msg = work / f"{size}.msg"
        msg.write_bytes(b"\x01" * keyio.message_bytes(params))
        for name in SCHEMES:
            out = work / f"{size}-{name}"
            run(0, "keygen", *flags, "--scheme", name, "--out", f"{out}-fresh")
            run(0, "keygen", *flags, "--scheme", name, "--seed", SEED, "--out", str(out))
            run(0, "encrypt", "--key", f"{out}.pk", "--in", str(msg), "--out", f"{out}.ct")
            run(0, "decrypt", "--key", f"{out}.sk", "--in", f"{out}.ct", "--out", f"{out}.back")
            if Path(f"{out}.back").read_bytes() != msg.read_bytes():
                wrong.append(f"{size} {name}: the decrypted message differs")
            for suffix in (".pk", ".sk", "-fresh.pk", "-fresh.sk"):
                run(0, "inspect", "--key", f"{out}{suffix}")
            run(0, "inspect", "--key", f"{out}.sk", "--rank-report")

            # the benchmark's keygen-headline op: regenerate, both files, parse and compare
            sid = cli.SCHEME_IDS[name]
            w = min(10, params.redundancy) if name == "kal1-s1" else 0
            fields = (sid, params, w, *((0, 2) if name == "kal1-s2" else (0, 0)), bytes.fromhex(SEED))
            pub, _ = keyio.regenerate(*fields)
            pk = keyio.serialize_public_key(pub)
            keyio.serialize_private_key(*fields, pk)
            if keyio.parse_public_key(pk) != pub:
                wrong.append(f"{size} {name}: the parsed public key differs")
        kat = work / f"{size}.kat"
        run(0, "kat", "generate", "--kat", str(kat), "--count", "2", *flags, "--seed", SEED)
        run(0, "kat", "generate", "--kat", f"{kat}-fresh", "--count", "1", *flags)
        run(0, "kat", "verify", "--kat", str(kat))
        run(0, "kat", "verify", "--kat", f"{kat}-fresh")
        run(0, "bench", *flags)
        run(0, "bench", *flags, "--format", "csv")

    # one failing command per exit code, at toy
    key = work / "toy-kal1"
    run(1, "keygen", *param_flags(16, 9, 2, 4), "--out", str(work / "bad"))
    run(1, "decrypt", "--key", str(work / "missing.sk"), "--in", f"{key}.ct", "--out", str(work / "x"))
    run(2, "keygen", *param_flags(*TOY), "--seed", "zz", "--out", str(work / "bad"))
    run(2, "inspect", "--key", str(work / "toy.msg"))
    big = work / "big.msg"
    big.write_bytes(b"\xff")
    run(3, "encrypt", "--key", f"{key}.pk", "--in", str(big), "--out", str(work / "x"))
    # the first toy ciphertext that Patterson cannot decode
    ct = work / "junk.ct"
    for c in range(1, 256):
        ct.write_bytes(bytes([c]))
        if call("decrypt", "--key", f"{key}.sk", "--in", str(ct), "--out", str(work / "x"))[0] == 4:
            break
    else:
        wrong.append("no toy ciphertext fails to decode")
    lines = (work / "toy.kat").read_text().splitlines()
    head, value = lines[0].rsplit("ct=", 1)
    lines[0] = f"{head}ct={value[:-1]}{'1' if value[-1] == '0' else '0'}"
    (work / "bad.kat").write_text("\n".join(lines) + "\n")
    run(5, "kat", "verify", "--kat", str(work / "bad.kat"))
    return wrong


def main() -> int:
    start = time.perf_counter()
    entered: set[tuple[str, int, str]] = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    sys.path.insert(0, str(ROOT / "src"))
    sys.setprofile(profile)
    try:
        with tempfile.TemporaryDirectory(prefix="kal1-reach-") as name:
            wrong = drive(Path(name))
    finally:
        sys.setprofile(None)
    took = time.perf_counter() - start

    import kal1

    if Path(kal1.__file__).resolve().parent != PACKAGE.resolve():
        print(f"kal1 was imported from {kal1.__file__}, not from this checkout; no census")
        return 1
    package = str(PACKAGE.resolve())
    reached = {(Path(f).name, line, name) for f, line, name in entered if str(Path(f).resolve().parent) == package}
    functions = defined_functions()
    traced = tracer_targets()
    unentered = sorted(name for key, name in functions.items() if key not in reached)
    print(f"{len(functions) - len(unentered)} of {len(functions)} src/kal1 functions entered in {took:.1f} s")
    unlisted = []
    for name in unentered:
        reason = REASONS.get(name) or (TRACER_REASON if name in traced else None)
        print(f"  {name}: {reason or 'UNLISTED'}")
        if reason is None:
            unlisted.append(name)
    stale = sorted(set(REASONS) - set(unentered))
    for name in stale:
        print(f"stale reason for {name}: it is entered or no longer defined")
    for line in wrong:
        print(f"unexpected: {line}")
    return 1 if unlisted or stale or wrong else 0


if __name__ == "__main__":
    sys.exit(main())
