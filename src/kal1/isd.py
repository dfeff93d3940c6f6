"""Desk-scale security instruments: Prange decoding and rank checks.

The Prange runner samples an (n-k)-column candidate window per
iteration, solves the restricted linear system and keeps any solution
of weight at most t.  Rank-deficient windows are handled by
enumerating the small solution space instead of being skipped, so an
iteration succeeds exactly when the planted support falls inside the
window; the per-iteration success probability is then the textbook
C(n-k, t) / C(n, t).

The rank report compares the published cyclic_t with the Niederreiter
check_t and the masking matrix secondary_t = cyclic_t + check_t.

Both run on ``binmat.eliminate``, the kernel keygen uses: a window is
solved by one tagged elimination of its columns, and the ranks are
taken of the n x (n-k) transposed forms directly, since a matrix and
its transpose have the same rank.
"""

from __future__ import annotations

from .binmat import BinaryMatrix, eliminate, matrix_times_vec, transpose_ints, xor_rows
from .errors import DimensionMismatch, Frozen, ParameterError
from .goppa import GoppaCode
from .niederreiter import NiederreiterPublicKey, public_key
from .rng import SeededRng

# Windows whose solution space is larger than 2^NULLSPACE_CAP are
# abandoned; at probe scales the deficiency never gets near this.
NULLSPACE_CAP = 16

DEFAULT_LENGTH_LIMIT = 64


class IsdInstance(Frozen):
    _fields = ("check", "syndrome", "weight")

    def __init__(self, check: BinaryMatrix, syndrome: int, weight: int):
        # check is the (n-k) x n parity check, weight the target error weight t
        if syndrome < 0 or syndrome.bit_length() > check.rows:
            raise DimensionMismatch("syndrome negative or longer than n-k bits")
        if weight < 0:
            raise DimensionMismatch("negative weight bound")
        self.__dict__.update(check=check, syndrome=syndrome, weight=weight)


def instance_from_public(pub: NiederreiterPublicKey, c: int) -> IsdInstance:
    return IsdInstance(pub.check_t.transpose(), c, pub.params.t)


def _solve_window(cols: list[int], syndrome: int, weight: int) -> int | None:
    """Minimum-weight x with the XOR of cols[j] over x's bits j equal to
    syndrome, if of weight at most weight; None otherwise.

    One elimination of the window columns, column j tagged with bit
    nk + j and the syndrome with bit 2*nk: the dependency carrying the
    syndrome's tag is a solution x0, the others span the nullspace.  The
    affine space x0 + nullspace is enumerated exhaustively; a nullspace
    of dimension beyond the cap abandons the window.
    """
    nk = len(cols)
    rows = [c | 1 << (nk + j) for j, c in enumerate(cols)]
    rows.append(syndrome | 1 << (2 * nk))
    _, deps = eliminate(rows, nk, None)
    base = next((d for d in deps if d >> nk), None)
    if base is None:
        return None  # inconsistent: the syndrome is no sum of columns
    base ^= 1 << nk
    basis = [d for d in deps if not d >> nk]
    if len(basis) > NULLSPACE_CAP:
        return None
    best = None
    for combo in range(1 << len(basis)):
        x = base ^ xor_rows(basis, combo)
        wt = x.bit_count()
        if wt <= weight and (best is None or wt < best.bit_count()):
            best = x
    return best


def prange_search(
    inst: IsdInstance,
    max_iters: int,
    rng: SeededRng,
    length_limit: int = DEFAULT_LENGTH_LIMIT,
) -> int | None:
    """Prange attack: returns e with e * check^T = syndrome and
    weight(e) <= t, or None after max_iters window draws."""
    nk, n = inst.check.rows, inst.check.cols
    if inst.weight > nk:
        raise ParameterError("weight bound exceeds n-k")
    if n > length_limit:
        raise ParameterError(
            f"code length {n} above the probe limit {length_limit}; raise length_limit to override"
        )
    if inst.syndrome == 0:
        return 0
    columns = transpose_ints(inst.check.row_ints, n)
    for _ in range(max_iters):
        window = rng.sample(n, nk)
        x = _solve_window([columns[w] for w in window], inst.syndrome, inst.weight)
        if x is None:
            continue
        # the window's positions are distinct, so the XOR places each bit
        e = xor_rows([1 << w for w in window], x)
        assert matrix_times_vec(inst.check, e) == inst.syndrome
        assert e.bit_count() <= inst.weight
        return e
    return None


class RankReport(Frozen):
    _fields = (
        "params_line", "cyclic_rank", "check_rank", "secondary_rank", "redundancy",
        "subadditive", "full_rank_windows", "sampled_windows", "notes",
    )

    def __init__(
        self, params_line: str, cyclic_rank: int, check_rank: int, secondary_rank: int,
        redundancy: int, subadditive: bool, full_rank_windows: int, sampled_windows: int,
        notes: tuple[str, ...],
    ):
        self.__dict__.update(
            params_line=params_line, cyclic_rank=cyclic_rank, check_rank=check_rank,
            secondary_rank=secondary_rank, redundancy=redundancy, subadditive=subadditive,
            full_rank_windows=full_rank_windows, sampled_windows=sampled_windows,
            notes=tuple(notes),
        )

    def __str__(self) -> str:
        return "\n".join([
            f"rank report: {self.params_line}",
            f"rank(cyclic_t) = {self.cyclic_rank} of {self.redundancy}",
            f"rank(check_t) = {self.check_rank}",
            f"rank(secondary_t) = {self.secondary_rank}",
            "subadditivity rank(cyclic) <= rank(check) + rank(secondary): "
            + ("ok" if self.subadditive else "VIOLATED"),
            f"full-rank (n-k)-column windows: {self.full_rank_windows}/{self.sampled_windows}",
            *self.notes,
        ])


def secondary_check_t(cyclic_t: BinaryMatrix, inner_pub: NiederreiterPublicKey) -> BinaryMatrix:
    """Masking matrix: cyclic_t plus check_t, row by row; its bottom block is zero."""
    check_t = inner_pub.check_t
    if (cyclic_t.rows, cyclic_t.cols) != (check_t.rows, check_t.cols):
        raise DimensionMismatch(
            f"cannot add {cyclic_t.rows}x{cyclic_t.cols} and {check_t.rows}x{check_t.cols}"
        )
    rows = [a ^ b for a, b in zip(cyclic_t.row_ints, check_t.row_ints)]
    return BinaryMatrix(check_t.rows, check_t.cols, rows)


def rank_report(
    cyclic_t: BinaryMatrix,
    priv: GoppaCode,
    rng: SeededRng | None = None,
    samples: int = 32,
) -> RankReport:
    """Rank triple of the published decomposition, plus how often a
    random attacker window of the cyclic matrix is invertible.  That
    count reads 0/32 at mid and headline: cyclic_t's top k rows rotate by
    i mod n-k, so for k > n-k only n-k of them are distinct, and almost
    every window of n-k rows repeats one."""
    params = priv.params
    inner_pub = public_key(priv)
    secondary = secondary_check_t(cyclic_t, inner_pub)
    # rank(A) = rank(A^T): the transposed forms rank as they are
    cyc_rank = cyclic_t.rank()
    chk_rank = inner_pub.check_t.rank()
    sec_rank = secondary.rank()
    rng = rng if rng is not None else SeededRng(bytes(16))
    nk = params.redundancy
    full = 0
    for _ in range(samples):
        window = rng.sample(params.n, nk)
        if BinaryMatrix(nk, nk, [cyclic_t.row_ints[w] for w in window]).rank() == nk:
            full += 1
    notes = ("identity block forces full row rank of cyclic_t",) if cyc_rank == nk else ()
    return RankReport(
        params_line=f"n={params.n} k={params.k} t={params.t} m={params.m}",
        cyclic_rank=cyc_rank, check_rank=chk_rank, secondary_rank=sec_rank, redundancy=nk,
        subadditive=cyc_rank <= chk_rank + sec_rank, full_rank_windows=full,
        sampled_windows=samples, notes=notes,
    )
