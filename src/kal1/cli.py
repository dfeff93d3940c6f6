"""Command-line front end.

Commands: keygen, encrypt, decrypt, inspect, kat, bench.  keygen and
kat generate draw from --seed, or from system entropy without it; every
other command is a function of its inputs.  bench prints the public-key
size table; timings come from the benchmark harness in bench/.  Error
exits print a machine-parsable first line ``error: <code> <name>``;
codes are 1 generic/parameter (a usage error too), 2 format, 3 range,
4 decoding, 5 KAT mismatch.  Each run imports this module afresh, so
the analysis module isd is imported only by inspect --rank-report.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys

from . import keyio, scheme
from .errors import (
    DecodingFailure,
    FormatError,
    Kal1Error,
    KatMismatch,
    ParameterError,
    RangeError,
)
from .goppa import CodeParams
from .rng import SEED_BYTES, fresh_seed

SCHEME_IDS = {name: sid for sid, name in keyio.SCHEME_NAMES.items()}

# Published public-key sizes (bits) of the NIST final-round code-based
# schemes, cited for the size comparison only.
CITED_KEY_BITS = [
    ("Classic McEliece", "-", 536576),
    ("BIKE", "L1", 1541),
    ("BIKE", "L3", 3083),
    ("HQC", "128", 2289),
    ("HQC", "192", 4522),
    ("HQC", "256", 7245),
]


def _add_param_flags(p: argparse.ArgumentParser, required: bool = True):
    p.add_argument("--n", type=int, required=required, help="code length")
    p.add_argument("--k", type=int, required=required, help="code dimension (must be n - m*t)")
    p.add_argument("--t", type=int, required=required, help="error weight")
    p.add_argument("--m", type=int, required=required, help="field extension degree")


def _add_seed_flag(p: argparse.ArgumentParser):
    p.add_argument("--seed", help="32 hex chars; defaults to system entropy")


def _usage_error(parser: argparse.ArgumentParser, message: str):
    raise ParameterError(message)


class _Parser(argparse.ArgumentParser):
    # a usage error reaches main, which prints it as ParameterError and
    # exits 1, in place of argparse's usage text and exit 2; the
    # subcommands' parsers are of this class too
    error = _usage_error


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args leaves it unchanged."""
    ap = _Parser(prog="kal1", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    kg = sub.add_parser("keygen", help="generate a keypair and write .pk/.sk files")
    _add_param_flags(kg)
    _add_seed_flag(kg)
    kg.add_argument("--scheme", choices=sorted(SCHEME_IDS), default="kal1")
    kg.add_argument(
        "--sparse-weight", type=int, help="seed-row weight for kal1-s1 (default: min(10, n-k))"
    )
    kg.add_argument("--run-start", type=int, default=0, help="run start for kal1-s2")
    kg.add_argument("--run-len", type=int, default=2, help="run length for kal1-s2")
    kg.add_argument("--out", required=True, help="output path prefix")

    for name, what, key in (("encrypt", "a message", "public"), ("decrypt", "a ciphertext", "private")):
        p = sub.add_parser(name, help=f"{name} {what} file")
        p.add_argument("--key", required=True, help=f"{key} key file")
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--out", required=True)

    ins = sub.add_parser("inspect", help="describe a key file")
    ins.add_argument("--key", required=True)
    ins.add_argument(
        "--rank-report", action="store_true", help="regenerate a private key and print rank checks"
    )

    ka = sub.add_parser("kat", help="generate or verify known-answer records")
    ka.add_argument("mode", choices=("generate", "verify"))
    ka.add_argument("--kat", required=True, help="KAT file path")
    ka.add_argument("--count", type=int, default=8)
    _add_param_flags(ka, required=False)
    _add_seed_flag(ka)

    be = sub.add_parser("bench", help="public-key size table")
    _add_param_flags(be)
    be.add_argument(
        "--sparse-weight", type=int, help="Kal1-S1 seed-row weight (default: min(10, n-k))"
    )
    be.add_argument("--format", choices=("text", "csv"), default="text")

    return ap


def _params(args) -> CodeParams:
    return CodeParams(args.n, args.k, args.t, args.m)


def _seed(args) -> bytes:
    if args.seed is None:
        return fresh_seed()
    try:
        seed = bytes.fromhex(args.seed)
    except ValueError as exc:
        raise FormatError(f"seed is not hex: {exc}") from exc
    if len(seed) != SEED_BYTES:
        raise FormatError(f"seed must be {2 * SEED_BYTES} hex chars")
    return seed


def _sparse_weight(args, params: CodeParams) -> int:
    # the paper's weight, or every position of a seed row shorter than 10
    if args.sparse_weight is None:
        return min(10, params.redundancy)
    return args.sparse_weight


def cmd_keygen(args) -> int:
    params = _params(args)
    seed = _seed(args)
    sid = SCHEME_IDS[args.scheme]
    w = _sparse_weight(args, params) if sid == keyio.SCHEME_KAL1_S1 else 0
    run_start = args.run_start if sid == keyio.SCHEME_KAL1_S2 else 0
    run_len = args.run_len if sid == keyio.SCHEME_KAL1_S2 else 0
    pub, _ = keyio.regenerate(sid, params, w, run_start, run_len, seed)
    pk_bytes = keyio.serialize_public_key(pub)
    sk_bytes = keyio.serialize_private_key(sid, params, w, run_start, run_len, seed, pk_bytes)
    pk_path = args.out + ".pk"
    sk_path = args.out + ".sk"
    # a path that is a directory fails before any file is written; past
    # that the .sk goes into place first and is put back if the .pk's move
    # fails, so a failing keygen changes neither file
    _write_files([(pk_path, pk_bytes), (sk_path, sk_bytes)])
    print(f"public key: {keyio.payload_bits(pub)} bits")
    print(f"wrote {pk_path} and {sk_path}")
    return 0


def _write_files(files: list[tuple[str, bytes]]) -> None:
    """Refuse a path that is a directory, then write each (path, data)
    under a temporary name beside its path and os.replace them into
    place, last first.  An OSError removes the temporaries, puts each
    path already replaced back as it was (its older bytes, or no file)
    and names its path."""
    for path, _ in files:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    temps, placed = [], []
    try:
        for path, data in files:
            with open(f"{path}.{os.getpid()}.tmp", "xb") as fh:
                temps.append(fh.name)
                fh.write(data)
        for (path, _), tmp in reversed(list(zip(files, temps))):
            older = _read_if_any(path)
            os.replace(tmp, path)
            placed.append((path, older))
    except OSError as exc:
        for tmp in filter(os.path.exists, temps):
            os.remove(tmp)
        for done, older in placed:
            if older is None:
                os.remove(done)
            else:
                with open(done, "wb") as fh:
                    fh.write(older)
        raise type(exc)(exc.errno, exc.strerror, path) from None


def _read_if_any(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def cmd_encrypt(args) -> int:
    with open(args.key, "rb") as fh:
        pub = keyio.parse_public_key(fh.read())
    params = pub.params
    with open(args.infile, "rb") as fh:
        msg = keyio.decode_message(fh.read(), params)
    c = scheme.encrypt(pub, msg)
    with open(args.out, "wb") as fh:
        fh.write(keyio.encode_ciphertext(c, params))
    print(f"ciphertext: {params.redundancy} bits")
    return 0


def cmd_decrypt(args) -> int:
    with open(args.key, "rb") as fh:
        _, _, priv, _ = keyio.load_private_key(fh.read())
    params = priv.params
    with open(args.infile, "rb") as fh:
        c = keyio.decode_ciphertext(fh.read(), params)
    msg = scheme.decrypt(priv, c)
    with open(args.out, "wb") as fh:
        fh.write(keyio.encode_message(msg, params))
    print(f"message: {scheme.cw_params(params).msg_bits} bits")
    return 0


def cmd_inspect(args) -> int:
    with open(args.key, "rb") as fh:
        data = fh.read()
    if data[:4] == keyio.MAGIC_PRIVATE:
        sid, pub, priv, _ = keyio.load_private_key(data)
        params = pub.params
        print(f"private key, scheme {keyio.SCHEME_NAMES[sid]}")
        print(f"params: n={params.n} k={params.k} t={params.t} m={params.m}")
        print("checksum: ok")
        if args.rank_report and sid != keyio.SCHEME_NIEDERREITER:
            from . import isd  # here, not at the top: no other command needs it

            print(isd.rank_report(scheme.expand_cyclic(pub), priv))
        return 0
    pub = keyio.parse_public_key(data)
    params = pub.params
    sid = keyio.scheme_id(pub)
    print(f"public key, scheme {keyio.SCHEME_NAMES[sid]}")
    print(f"params: n={params.n} k={params.k} t={params.t} m={params.m}")
    print(f"payload: {keyio.payload_bits(pub)} bits")
    if sid == keyio.SCHEME_KAL1:
        print(f"seed row weight: {pub.seed_row.bit_count()}")
        if params.redundancy <= 128:
            print(f"seed row: {_bit_string(pub.seed_row, params.redundancy)}")
    elif sid == keyio.SCHEME_KAL1_S1:
        print(f"positions: {keyio.seed_fields(sid, pub.seed_row)}")
    elif sid == keyio.SCHEME_KAL1_S2:
        print(f"run: start={pub.policy.start} length={pub.policy.length}")
    return 0


def _bit_string(value: int, nbits: int) -> str:
    """A vector with position 0 leftmost."""
    return "".join("1" if (value >> i) & 1 else "0" for i in range(nbits))


def cmd_kat(args) -> int:
    if args.mode == "generate":
        if None in (args.n, args.k, args.t, args.m):
            raise FormatError("kat generate needs --n --k --t --m")
        params = _params(args)
        text = keyio.kat_generate(params, args.count, _seed(args))
        with open(args.kat, "w") as fh:
            fh.write(text)
        print(f"wrote {args.count} records to {args.kat}")
        return 0
    with open(args.kat) as fh:
        count = keyio.kat_verify(fh.read())
    print(f"verified {count} records")
    return 0


def _bench_sizes(params: CodeParams, sparse_weight: int) -> list[tuple[str, str, int, str]]:
    def computed(name: str, ident: str, sid: int, w: int):
        return (name, ident, keyio.scheme_payload_bits(sid, params, w), "computed")

    rows = [(name, ident, bits, "cited") for name, ident, bits in CITED_KEY_BITS]
    # a systematic key publishes only the k x (n-k) block above the
    # identity, which no wire form here stores
    rows.insert(1, ("Niederreiter", "systematic", params.k * params.redundancy, "computed"))
    rows.insert(2, computed("Niederreiter", "full matrix", keyio.SCHEME_NIEDERREITER, 0))
    rows.append(computed("Kal1", "-", keyio.SCHEME_KAL1, 0))
    rows.append(computed("Kal1-S1", f"w={sparse_weight}", keyio.SCHEME_KAL1_S1, sparse_weight))
    rows.append(computed("Kal1-S2", "-", keyio.SCHEME_KAL1_S2, 0))
    return rows


def cmd_bench(args) -> int:
    params = _params(args)
    w = _sparse_weight(args, params)
    scheme.validate_policy(scheme.SparseSeed(w), params.redundancy)
    rows = _bench_sizes(params, w)
    if args.format == "csv":
        print("name,id,public_key_bits,kind")
        for name, ident, bits, kind in rows:
            print(f"{name},{ident},{bits},{kind}")
    else:
        print(f"public-key sizes at n={params.n} k={params.k} t={params.t} m={params.m}")
        namew = max(len(r[0]) for r in rows)
        idw = max(len(r[1]) for r in rows)
        for name, ident, bits, kind in rows:
            print(f"  {name:<{namew}}  {ident:<{idw}}  {bits:>8} bits  ({kind})")
    return 0


_HANDLERS = {
    "keygen": cmd_keygen,
    "encrypt": cmd_encrypt,
    "decrypt": cmd_decrypt,
    "inspect": cmd_inspect,
    "kat": cmd_kat,
    "bench": cmd_bench,
}


# the exit code of each error class the docstring names; any other is 1
_EXIT_CODES = ((FormatError, 2), (RangeError, 3), (DecodingFailure, 4), (KatMismatch, 5))


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _HANDLERS[args.command](args)
    except (Kal1Error, OSError, ValueError) as exc:
        code = next((code for cls, code in _EXIT_CODES if isinstance(exc, cls)), 1)
        name = type(exc).__name__
        print(f"error: {code} {name}", file=sys.stderr)
        print(str(exc), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
