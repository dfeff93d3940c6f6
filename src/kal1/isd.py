"""Desk-scale security instruments: Prange decoding and rank checks.

The Prange runner reads the published n x (n-k) check_t as it is: its
rows are the columns of H.  Each iteration samples an (n-k)-row window
of it, solves the restricted linear system and keeps any solution of
weight at most t.  Rank-deficient windows are handled by enumerating
the small solution space instead of being skipped, so an iteration
succeeds exactly when the planted support falls inside the window; the
per-iteration success probability is then the textbook
C(n-k, t) / C(n, t).

The rank report compares the published cyclic_t with the Niederreiter
check_t and the masking matrix secondary_t = cyclic_t + check_t.

Both run on ``binmat.eliminate``, the kernel keygen uses: a window is
solved by one tagged elimination of its columns, and the ranks are
taken of the n x (n-k) transposed forms directly, since a matrix and
its transpose have the same rank.  Nothing here transposes.
"""

from __future__ import annotations

from .binmat import BinaryMatrix, eliminate, xor_rows
from .errors import DimensionMismatch, Frozen, ParameterError
from .goppa import CodeParams, GoppaCode
from .niederreiter import NiederreiterPublicKey, public_key
from .rng import SeededRng

# Windows whose solution space is larger than 2^NULLSPACE_CAP are
# abandoned; at probe scales the deficiency never gets near this.
NULLSPACE_CAP = 16

# Prange refuses codes longer than this: it is a probe, not an attack.
LENGTH_LIMIT = 64

# The rank report samples this many attacker windows of cyclic_t.
WINDOW_SAMPLES = 32


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
    check_t: BinaryMatrix, syndrome: int, weight: int, max_iters: int, rng: SeededRng
) -> int | None:
    """Prange attack: returns e with e * check_t = syndrome and
    weight(e) <= weight, or None after max_iters window draws."""
    n, nk = check_t.rows, check_t.cols
    if syndrome < 0 or syndrome.bit_length() > nk:
        raise DimensionMismatch("syndrome negative or longer than n-k bits")
    if weight < 0:
        raise DimensionMismatch("negative weight bound")
    if weight > nk:
        raise ParameterError("weight bound exceeds n-k")
    if n > LENGTH_LIMIT:
        raise ParameterError(f"code length {n} above the probe limit {LENGTH_LIMIT}")
    if syndrome == 0:
        return 0
    for _ in range(max_iters):
        window = rng.sample(n, nk)
        x = _solve_window([check_t.row_ints[w] for w in window], syndrome, weight)
        if x is None:
            continue
        # the window's positions are distinct, so the XOR places each bit
        e = xor_rows([1 << w for w in window], x)
        assert xor_rows(check_t.row_ints, e) == syndrome
        assert e.bit_count() <= weight
        return e
    return None


class RankReport(Frozen):
    """The measured ranks and full-rank window count; the text derives the rest."""

    _fields = ("params", "cyclic_rank", "check_rank", "secondary_rank", "full_rank_windows")

    def __init__(
        self, params: CodeParams, cyclic_rank: int, check_rank: int, secondary_rank: int,
        full_rank_windows: int,
    ):
        self.__dict__.update(
            params=params, cyclic_rank=cyclic_rank, check_rank=check_rank,
            secondary_rank=secondary_rank, full_rank_windows=full_rank_windows,
        )

    def __str__(self) -> str:
        p, nk = self.params, self.params.redundancy
        subadditive = self.cyclic_rank <= self.check_rank + self.secondary_rank
        return "\n".join([
            f"rank report: n={p.n} k={p.k} t={p.t} m={p.m}",
            f"rank(cyclic_t) = {self.cyclic_rank} of {nk}",
            f"rank(check_t) = {self.check_rank}",
            f"rank(secondary_t) = {self.secondary_rank}",
            "subadditivity rank(cyclic) <= rank(check) + rank(secondary): "
            + ("ok" if subadditive else "VIOLATED"),
            f"full-rank (n-k)-column windows: {self.full_rank_windows}/{WINDOW_SAMPLES}",
            *(["identity block forces full row rank of cyclic_t"] if self.cyclic_rank == nk else []),
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


def rank_report(cyclic_t: BinaryMatrix, priv: GoppaCode) -> RankReport:
    """Rank triple of the published decomposition, plus how often a
    random attacker window of the cyclic matrix is invertible, over
    WINDOW_SAMPLES windows drawn from the all-zero seed.  That count
    reads 0/32 at mid and headline: cyclic_t's top k rows rotate by
    i mod n-k, so for k > n-k only n-k of them are distinct, and almost
    every window of n-k rows repeats one."""
    params = priv.params
    inner_pub = public_key(priv)
    secondary = secondary_check_t(cyclic_t, inner_pub)
    rng = SeededRng(bytes(16))
    nk = params.redundancy
    full = sum(
        BinaryMatrix(nk, nk, [cyclic_t.row_ints[w] for w in rng.sample(params.n, nk)]).rank() == nk
        for _ in range(WINDOW_SAMPLES)
    )
    # rank(A) = rank(A^T): the transposed forms rank as they are
    return RankReport(params, cyclic_t.rank(), inner_pub.check_t.rank(), secondary.rank(), full)
