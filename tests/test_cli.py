"""Command-line behavior: files, determinism, exit codes."""

import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kal1 import cli, keyio
from kal1.goppa import CodeParams

from conftest import KINDS, MID_KAT
from refusals import REFUSALS, key_files

TOY_ARGS = ["--n", "16", "--k", "8", "--t", "2", "--m", "4"]
SEED = "00000000000000000000000000000007"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def keygen(capsys, tmp_path, name="key", scheme="kal1", seed=SEED, extra=()):
    out = str(tmp_path / name)
    code, stdout, stderr = run(
        capsys, "keygen", *TOY_ARGS, "--scheme", scheme, "--seed", seed, "--out", out, *extra
    )
    assert code == 0, stderr
    return out


@pytest.mark.parametrize(
    "directory, older",
    [(".sk", None), (".sk", b"an older public key"), (".pk", None), (".pk", b"an older private key")],
)
def test_keygen_that_cannot_write_a_file_leaves_no_new_pk(capsys, tmp_path, directory, older):
    # a path that is a directory fails keygen before any file is
    # written, so the other file of the pair is the same file as before
    # and no temporary file is left behind
    other = tmp_path / ("key.pk" if directory == ".sk" else "key.sk")
    (tmp_path / f"key{directory}").mkdir()
    if older is not None:
        other.write_bytes(older)
        inode = other.stat().st_ino
    out = str(tmp_path / "key")
    code, stdout, err = run(capsys, "keygen", *TOY_ARGS, "--seed", SEED, "--out", out)
    assert (code, stdout) == (1, "")
    assert err == f"error: 1 IsADirectoryError\n[Errno 21] Is a directory: '{out}{directory}'\n"
    assert (tmp_path / f"key{directory}").is_dir()
    assert other.exists() == (older is not None)
    if older is not None:
        assert (other.stat().st_ino, other.read_bytes()) == (inode, older)
    assert not list(tmp_path.glob("*.tmp"))


def refuse_moves_onto(monkeypatch, suffix: str) -> list[str]:
    """Make os.replace refuse every destination ending in suffix; the
    destinations it is asked for, in order."""
    replace, moves = os.replace, []

    def refusing(src, dst):
        moves.append(dst)
        if dst.endswith(suffix):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        replace(src, dst)

    monkeypatch.setattr(os, "replace", refusing)
    return moves


def test_keygen_whose_sk_cannot_be_moved_leaves_no_new_pk(capsys, tmp_path, monkeypatch):
    # past the directory check, the .sk goes into place before the .pk,
    # so no .pk is ever on disk without its .sk
    moves = refuse_moves_onto(monkeypatch, ".sk")
    code, stdout, err = run(capsys, "keygen", *TOY_ARGS, "--seed", SEED, "--out", str(tmp_path / "key"))
    assert (code, stdout) == (1, "")
    assert err.startswith("error: 1 PermissionError\n") and "key.sk'" in err
    assert moves == [str(tmp_path / "key.sk")]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "older", [None, (b"an older public key", b"an older private key")], ids=["no-older-pair", "older-pair"]
)
def test_keygen_whose_pk_cannot_be_moved_changes_neither_file(capsys, tmp_path, monkeypatch, older):
    # the .sk is already in place when the .pk's move fails, so it is
    # put back as it was: the older key's bytes, or no file
    pk, sk = tmp_path / "key.pk", tmp_path / "key.sk"
    if older is not None:
        pk.write_bytes(older[0])
        sk.write_bytes(older[1])
    refuse_moves_onto(monkeypatch, ".pk")
    code, stdout, err = run(capsys, "keygen", *TOY_ARGS, "--seed", SEED, "--out", str(tmp_path / "key"))
    assert (code, stdout) == (1, "")
    assert err == f"error: 1 PermissionError\n[Errno 13] Permission denied: '{pk}'\n"
    if older is None:
        assert not list(tmp_path.iterdir())
    else:
        assert sorted(tmp_path.iterdir()) == [pk, sk]
        assert (pk.read_bytes(), sk.read_bytes()) == older


def test_keygen_output_line(capsys, tmp_path):
    out = str(tmp_path / "k")
    code, stdout, _ = run(
        capsys, "keygen", *TOY_ARGS, "--scheme", "kal1", "--seed", SEED, "--out", out
    )
    assert code == 0
    assert "public key: 8 bits" in stdout


def test_keygen_deterministic(capsys, tmp_path):
    a = keygen(capsys, tmp_path, "a")
    b = keygen(capsys, tmp_path, "b")
    assert (tmp_path / "a.pk").read_bytes() == (tmp_path / "b.pk").read_bytes()
    assert (tmp_path / "a.sk").read_bytes() == (tmp_path / "b.sk").read_bytes()


def test_every_scheme_round_trips_to_one_ciphertext(capsys, tmp_path):
    # keygen, encrypt and decrypt under each scheme; the systematic forms
    # make every scheme write the same ciphertext bytes
    keys = {}
    for name, (_, w, run_start, run_len) in KINDS.items():
        extra = ("--sparse-weight", str(w)) if w else ()
        extra += ("--run-start", str(run_start), "--run-len", str(run_len)) if run_len else ()
        keys[name] = keygen(capsys, tmp_path, name, scheme=name, extra=extra)
    msg, back = tmp_path / "msg", tmp_path / "back"
    for byte in (0x05, 0x09, 0x0B):
        msg.write_bytes(bytes([byte]))
        cts = set()
        for name, out in keys.items():
            ct = tmp_path / f"{name}.ct"
            code, _, err = run(capsys, "encrypt", "--key", out + ".pk", "--in", str(msg), "--out", str(ct))
            assert code == 0, (name, err)
            code, _, err = run(capsys, "decrypt", "--key", out + ".sk", "--in", str(ct), "--out", str(back))
            assert code == 0, (name, err)
            assert back.read_bytes() == msg.read_bytes(), name
            cts.add(ct.read_bytes())
        assert len(cts) == 1


@pytest.mark.parametrize("name", REFUSALS)
def test_each_refusal_exits_with_its_code(capsys, tmp_path, name):
    # the row's bad file among good ones: the exit code, then exactly the
    # class and the message on stderr, and no --out file
    row = REFUSALS[name]
    pk, sk = key_files(row.params)
    files = {"pk": pk, "sk": sk, "ct": bytes(keyio.ciphertext_bytes(row.params)), row.kind: row.build()}
    for kind, data in files.items():
        (tmp_path / kind).write_bytes(data)
    path = {kind: str(tmp_path / kind) for kind in ("pk", "sk", "ct", "msg", "kat")}
    out = tmp_path / "out"
    argv = {
        "pk": ["inspect", "--key", path["pk"]],
        "sk": ["decrypt", "--key", path["sk"], "--in", path["ct"], "--out", str(out)],
        "ct": ["decrypt", "--key", path["sk"], "--in", path["ct"], "--out", str(out)],
        "msg": ["encrypt", "--key", path["pk"], "--in", path["msg"], "--out", str(out)],
        "kat": ["kat", "verify", "--kat", path["kat"]],
    }[row.kind]
    assert run(capsys, *argv) == (row.code, "", f"error: {row.code} {row.error.__name__}\n{row.message}\n")
    assert not out.exists()


def test_inspect_public_and_private(capsys, tmp_path):
    out = keygen(capsys, tmp_path)
    code, stdout, _ = run(capsys, "inspect", "--key", out + ".pk")
    assert code == 0
    assert "public key, scheme kal1" in stdout
    assert "payload: 8 bits" in stdout
    assert "seed row: 10001101" in stdout  # position 0 leftmost
    code, stdout, _ = run(capsys, "inspect", "--key", out + ".sk", "--rank-report")
    assert code == 0
    assert "checksum: ok" in stdout
    assert "rank(cyclic_t) = 8 of 8" in stdout


SCHEME_FLAGS = {
    "niederreiter": (),
    "kal1": (),
    "kal1-s1": ("--sparse-weight", "3"),
    "kal1-s2": ("--run-start", "4", "--run-len", "3"),
}
TOY_PARAMS_LINE = "params: n=16 k=8 t=2 m=4\n"
# frozen `kal1 inspect` stdout for the toy key files of every scheme
INSPECT_PK = {
    "niederreiter": "payload: 128 bits\n",
    "kal1": "payload: 8 bits\nseed row weight: 4\nseed row: 10001101\n",
    "kal1-s1": "payload: 9 bits\npositions: [1, 5, 6]\n",
    "kal1-s2": "payload: 6 bits\nrun: start=4 length=3\n",
}
RANK_REPORT_S1 = (
    "rank report: n=16 k=8 t=2 m=4\n"
    "rank(cyclic_t) = 8 of 8\n"
    "rank(check_t) = 8\n"
    "rank(secondary_t) = 7\n"
    "subadditivity rank(cyclic) <= rank(check) + rank(secondary): ok\n"
    "full-rank (n-k)-column windows: 10/32\n"
    "identity block forces full row rank of cyclic_t\n"
)


@pytest.mark.parametrize("scheme", sorted(SCHEME_FLAGS))
def test_inspect_output_is_pinned(capsys, tmp_path, scheme):
    out = keygen(capsys, tmp_path, scheme=scheme, extra=SCHEME_FLAGS[scheme])
    code, stdout, _ = run(capsys, "inspect", "--key", out + ".pk")
    assert code == 0
    assert stdout == f"public key, scheme {scheme}\n" + TOY_PARAMS_LINE + INSPECT_PK[scheme]
    code, stdout, _ = run(capsys, "inspect", "--key", out + ".sk")
    assert code == 0
    assert stdout == f"private key, scheme {scheme}\n" + TOY_PARAMS_LINE + "checksum: ok\n"


def test_rank_report_of_sparse_private_key_is_pinned(capsys, tmp_path):
    out = keygen(capsys, tmp_path, scheme="kal1-s1", extra=SCHEME_FLAGS["kal1-s1"])
    code, stdout, _ = run(capsys, "inspect", "--key", out + ".sk", "--rank-report")
    assert code == 0
    assert stdout == "private key, scheme kal1-s1\n" + TOY_PARAMS_LINE + "checksum: ok\n" + RANK_REPORT_S1


def test_import_loads_no_dataclasses_inspect_or_isd():
    # every `kal1` command starts a fresh interpreter that imports the
    # CLI; none of these buys it anything (isd serves inspect
    # --rank-report alone), so none is imported.  Nor is array: its
    # extension module alone costs about 0.3 MB of peak RSS, which the
    # benchmark pays again each time it re-imports the library.  Nor is
    # the cipher: rng loads it when the first SeededRng is built, so
    # encrypt and inspect, which draw nothing, never pay for it
    src = Path(cli.__file__).resolve().parents[1]
    script = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import kal1.cli, json; "
        "print(json.dumps([kal1.cli.__file__, sorted(sys.modules)]))"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    path, modules = json.loads(out.stdout)
    assert Path(path).resolve() == Path(cli.__file__).resolve()
    assert "kal1.keyio" in modules
    unwanted = {"array", "dataclasses", "inspect", "kal1.isd", "cryptography.hazmat.primitives.ciphers"}
    assert unwanted & set(modules) == set()


def test_kat_generate_then_verify(capsys, tmp_path):
    kat = tmp_path / "records.kat"
    code, _, _ = run(
        capsys, "kat", "generate", *TOY_ARGS, "--seed", SEED, "--count", "4", "--kat", str(kat)
    )
    assert code == 0
    code, stdout, _ = run(capsys, "kat", "verify", "--kat", str(kat))
    assert code == 0
    assert "verified 4 records" in stdout


def test_shipped_mid_kat_verifies(capsys):
    # regeneration, the codec and decryption at m = 8, byte for byte
    code, stdout, err = run(capsys, "kat", "verify", "--kat", str(MID_KAT))
    assert code == 0, err
    assert "verified 8 records" in stdout


def test_kat_generate_negative_count_writes_no_file(capsys, tmp_path):
    kat = tmp_path / "neg.kat"
    code, stdout, err = run(
        capsys, "kat", "generate", "--kat", str(kat), "--count", "-1", *TOY_ARGS, "--seed", SEED
    )
    assert code == 3
    assert err.startswith("error: 3 RangeError")
    assert stdout == ""
    assert not kat.exists()


def test_kat_generate_zero_count_writes_an_empty_file(capsys, tmp_path):
    kat = tmp_path / "empty.kat"
    code, stdout, _ = run(
        capsys, "kat", "generate", *TOY_ARGS, "--seed", SEED, "--count", "0", "--kat", str(kat)
    )
    assert code == 0
    assert stdout == f"wrote 0 records to {kat}\n"
    assert kat.read_bytes() == b""
    code, stdout, _ = run(capsys, "kat", "verify", "--kat", str(kat))
    assert code == 0
    assert stdout == "verified 0 records\n"


def test_kat_generate_requires_params(capsys, tmp_path):
    code, _, err = run(capsys, "kat", "generate", "--kat", str(tmp_path / "x.kat"))
    assert code == 2
    assert err.startswith("error: 2 FormatError")


# frozen `kal1 bench` stdout for the toy parameters: sizes only, since
# bench/run.py is the one timing harness
BENCH_TEXT = """\
public-key sizes at n=16 k=8 t=2 m=4
  Classic McEliece  -              536576 bits  (cited)
  Niederreiter      systematic         64 bits  (computed)
  Niederreiter      full matrix       128 bits  (computed)
  BIKE              L1               1541 bits  (cited)
  BIKE              L3               3083 bits  (cited)
  HQC               128              2289 bits  (cited)
  HQC               192              4522 bits  (cited)
  HQC               256              7245 bits  (cited)
  Kal1              -                   8 bits  (computed)
  Kal1-S1           w=8                24 bits  (computed)
  Kal1-S2           -                   6 bits  (computed)
"""
BENCH_CSV = """\
name,id,public_key_bits,kind
Classic McEliece,-,536576,cited
Niederreiter,systematic,64,computed
Niederreiter,full matrix,128,computed
BIKE,L1,1541,cited
BIKE,L3,3083,cited
HQC,128,2289,cited
HQC,192,4522,cited
HQC,256,7245,cited
Kal1,-,8,computed
Kal1-S1,w=8,24,computed
Kal1-S2,-,6,computed
"""


def test_bench_text_and_csv(capsys, tmp_path):
    code, stdout, _ = run(capsys, "bench", *TOY_ARGS)
    assert code == 0
    assert stdout == BENCH_TEXT
    code, stdout, _ = run(capsys, "bench", *TOY_ARGS, "--format", "csv")
    assert code == 0
    assert stdout == BENCH_CSV
    assert "timing" not in stdout


SIZE_ARGS = {"toy": TOY_ARGS, "headline": ["--n", "1024", "--k", "524", "--t", "50", "--m", "10"]}


@pytest.mark.parametrize(
    "size, weight",
    [("toy", w) for w in ("-1", "1", "8", "9")] + [("headline", w) for w in ("-3", "256", "600")],
)
def test_bench_checks_a_given_sparse_weight_as_keygen_does(capsys, tmp_path, size, weight):
    # keygen refuses every rejected weight before it draws anything
    flags = (*SIZE_ARGS[size], "--sparse-weight", weight)
    code, stdout, err = run(capsys, "bench", *flags)
    out = str(tmp_path / "k")
    keygen_code, _, keygen_err = run(
        capsys, "keygen", *flags, "--scheme", "kal1-s1", "--seed", SEED, "--out", out
    )
    assert (code, err) == (keygen_code, keygen_err)
    if weight in ("1", "8"):
        assert code == 0 and f"Kal1-S1           w={weight}  " in stdout
    else:
        assert code == 1 and stdout == "" and err.startswith("error: 1 PolicyError")


def test_default_sparse_weight_is_10_or_every_position(capsys, tmp_path):
    # toy keys have n-k = 8, so both commands default to w=8 there
    out = keygen(capsys, tmp_path, scheme="kal1-s1")
    code, stdout, err = run(capsys, "inspect", "--key", out + ".pk")
    assert code == 0, err
    assert "positions: [0, 1, 2, 3, 4, 5, 6, 7]" in stdout
    code, stdout, _ = run(capsys, "bench", *SIZE_ARGS["toy"])
    assert code == 0 and "Kal1-S1           w=8  " in stdout
    code, stdout, _ = run(capsys, "bench", *SIZE_ARGS["headline"])
    assert code == 0 and "Kal1-S1           w=10  " in stdout


def test_bench_size_table_reproduces_published_rows():
    rows = cli._bench_sizes(CodeParams(1024, 524, 50, 10), sparse_weight=10)
    by_name = {(name, ident): bits for name, ident, bits, _ in rows}
    assert by_name[("Kal1", "-")] == 500
    assert by_name[("Kal1-S1", "w=10")] == 90
    assert by_name[("Kal1-S2", "-")] == 18
    assert by_name[("Niederreiter", "systematic")] == 262000
    assert by_name[("Niederreiter", "full matrix")] == 512000
    assert by_name[("Classic McEliece", "-")] == 536576
    assert by_name[("BIKE", "L1")] == 1541
    assert by_name[("BIKE", "L3")] == 3083
    assert by_name[("HQC", "128")] == 2289
    assert by_name[("HQC", "192")] == 4522
    assert by_name[("HQC", "256")] == 7245


def test_keygen_full_params_reports_500_bits(capsys, tmp_path):
    # slowest CLI test: a real keygen at the headline parameters
    code, stdout, err = run(
        capsys,
        "keygen",
        "--n", "1024", "--k", "524", "--t", "50", "--m", "10",
        "--scheme", "kal1",
        "--seed", "000000000000000000000000000010aa",
        "--out", str(tmp_path / "full"),
    )
    assert code == 0, err
    assert "public key: 500 bits" in stdout
    pk = (tmp_path / "full.pk").read_bytes()
    assert len(pk) == 15 + (500 + 7) // 8


def test_bad_seed_rejected(capsys, tmp_path):
    code, _, err = run(
        capsys, "keygen", *TOY_ARGS, "--seed", "zz", "--out", str(tmp_path / "k")
    )
    assert code == 2
    assert err.startswith("error: 2 FormatError")


def test_missing_key_file_errors(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "encrypt",
        "--key",
        str(tmp_path / "nope.pk"),
        "--in",
        str(tmp_path / "m"),
        "--out",
        str(tmp_path / "c"),
    )
    assert code == 1
    assert err.startswith("error: 1 FileNotFoundError")


def test_a_usage_error_keeps_the_error_line_and_help_exits_0(capsys):
    for argv, message in (
        (["keygen", *TOY_ARGS], "the following arguments are required: --out"),
        (["keygen", "--n", "x", *TOY_ARGS[2:], "--out", "k"], "argument --n: invalid int value: 'x'"),
    ):
        assert run(capsys, *argv) == (1, "", f"error: 1 ParameterError\n{message}\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["keygen", "--help"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: kal1 keygen ")


def test_successive_calls_share_one_parser_without_carrying_state(capsys, tmp_path):
    # main builds its parser once per process; a flag given to one call
    # must not become the default of the next
    assert cli.build_parser() is cli.build_parser()
    keygen(capsys, tmp_path, "w5", scheme="kal1-s1", extra=("--sparse-weight", "5"))
    keygen(capsys, tmp_path, "w", scheme="kal1-s1")
    for name, weight in (("w5", 5), ("w", 8)):  # the default weight is every one of 8
        code, stdout, _ = run(capsys, "inspect", "--key", str(tmp_path / f"{name}.pk"))
        positions = stdout.split("positions: [", 1)[1].split("]", 1)[0]
        assert code == 0 and len(positions.split(",")) == weight
    for _ in range(2):
        code, stdout, err = run(capsys, "keygen", *TOY_ARGS, "--no-such-flag", "--out", str(tmp_path / "x"))
        assert (code, stdout, err) == (1, "", "error: 1 ParameterError\nunrecognized arguments: --no-such-flag\n")
    msg, ct, back = tmp_path / "m", tmp_path / "c", tmp_path / "b"
    msg.write_bytes(b"\x05")
    code, _, err = run(capsys, "encrypt", "--key", str(tmp_path / "w.pk"), "--in", str(msg), "--out", str(ct))
    assert code == 0, err
    code, _, err = run(capsys, "decrypt", "--key", str(tmp_path / "w.sk"), "--in", str(ct), "--out", str(back))
    assert code == 0, err
    assert back.read_bytes() == msg.read_bytes()
