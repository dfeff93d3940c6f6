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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .binmat import BinaryMatrix, matrix_times_vec
from .errors import DimensionMismatch, ParameterError
from .goppa import GoppaCode
from .niederreiter import NiederreiterPublicKey, public_key
from .rng import SeededRng

# Windows whose solution space is larger than 2^NULLSPACE_CAP are
# abandoned; at probe scales the deficiency never gets near this.
NULLSPACE_CAP = 16

DEFAULT_LENGTH_LIMIT = 64


@dataclass(frozen=True)
class IsdInstance:
    check: BinaryMatrix  # (n-k) x n parity check
    syndrome: int  # n-k bits
    weight: int  # target error weight t

    def __post_init__(self):
        if self.syndrome.bit_length() > self.check.rows:
            raise DimensionMismatch("syndrome longer than n-k bits")
        if self.weight < 0:
            raise DimensionMismatch("negative weight bound")


def instance_from_public(pub: NiederreiterPublicKey, c: int) -> IsdInstance:
    return IsdInstance(pub.check_t.transpose(), c, pub.params.t)


def _solve_window(sub: BinaryMatrix, syndrome: int, weight: int) -> int | None:
    """Minimum-weight solution of sub * x = syndrome, if light enough.

    Enumerates the (small) affine solution space exhaustively and
    returns an x of weight <= weight, or None.  Free columns beyond the
    nullspace cap abort the window.
    """
    nk = sub.rows
    rows = [sub.row_ints[i] | (((syndrome >> i) & 1) << nk) for i in range(nk)]
    pivot_of_col: dict[int, int] = {}
    for row in rows:
        cur = row
        for col, rr in pivot_of_col.items():
            if (cur >> col) & 1:
                cur ^= rr
        body = cur & ((1 << nk) - 1)
        if body == 0:
            if cur:
                return None  # inconsistent: 0 = 1
            continue
        col = (body & -body).bit_length() - 1
        # renormalize earlier pivot rows against the new one
        for c2, rr in list(pivot_of_col.items()):
            if (rr >> col) & 1:
                pivot_of_col[c2] = rr ^ cur
        pivot_of_col[col] = cur
    free_cols = [c for c in range(nk) if c not in pivot_of_col]
    if len(free_cols) > NULLSPACE_CAP:
        return None
    base = 0
    for col, rr in pivot_of_col.items():
        if (rr >> nk) & 1:
            base |= 1 << col
    # nullspace basis vector per free column
    basis = []
    for fc in free_cols:
        v = 1 << fc
        for col, rr in pivot_of_col.items():
            if (rr >> fc) & 1:
                v |= 1 << col
        basis.append(v)
    best = None
    for combo in range(1 << len(free_cols)):
        x = base
        cc = combo
        while cc:
            low = cc & -cc
            x ^= basis[low.bit_length() - 1]
            cc ^= low
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
    for _ in range(max_iters):
        window = rng.sample(n, nk)
        sub = inst.check.columns(window)
        x = _solve_window(sub, inst.syndrome, inst.weight)
        if x is None:
            continue
        e = 0
        while x:
            low = x & -x
            e |= 1 << window[low.bit_length() - 1]
            x ^= low
        assert matrix_times_vec(inst.check, e) == inst.syndrome
        assert e.bit_count() <= inst.weight
        return e
    return None


@dataclass
class RankReport:
    params_line: str
    cyclic_rank: int
    check_rank: int
    secondary_rank: int
    redundancy: int
    subadditive: bool
    full_rank_windows: int
    sampled_windows: int
    notes: list[str] = field(default_factory=list)

    def lines(self) -> list[str]:
        out = [
            f"rank report: {self.params_line}",
            f"rank(cyclic_t) = {self.cyclic_rank} of {self.redundancy}",
            f"rank(check_t) = {self.check_rank}",
            f"rank(secondary_t) = {self.secondary_rank}",
            "subadditivity rank(cyclic) <= rank(check) + rank(secondary): "
            + ("ok" if self.subadditive else "VIOLATED"),
            f"full-rank (n-k)-column windows: {self.full_rank_windows}/{self.sampled_windows}",
        ]
        out.extend(self.notes)
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())


def secondary_check_t(cyclic_t: BinaryMatrix, inner_pub: NiederreiterPublicKey) -> BinaryMatrix:
    """Masking matrix: cyclic_t plus check_t; its bottom block is zero."""
    return cyclic_t.add(inner_pub.check_t)


def rank_report(
    cyclic_t: BinaryMatrix,
    priv: GoppaCode,
    rng: SeededRng | None = None,
    samples: int = 32,
) -> RankReport:
    """Rank triple of the published decomposition, plus how often a
    random attacker window of the cyclic matrix is invertible."""
    params = priv.params
    inner_pub = public_key(priv)
    secondary = secondary_check_t(cyclic_t, inner_pub)
    cyclic = cyclic_t.transpose()
    check = inner_pub.check_t.transpose()
    cyc_rank = cyclic.rank()
    chk_rank = check.rank()
    sec_rank = secondary.rank()
    rng = rng if rng is not None else SeededRng(bytes(16))
    nk = params.redundancy
    full = 0
    for _ in range(samples):
        window = rng.sample(params.n, nk)
        if cyclic.columns(window).rank() == nk:
            full += 1
    notes = []
    if cyc_rank == nk:
        notes.append("identity block forces full row rank of cyclic_t")
    return RankReport(
        params_line=f"n={params.n} k={params.k} t={params.t} m={params.m}",
        cyclic_rank=cyc_rank,
        check_rank=chk_rank,
        secondary_rank=sec_rank,
        redundancy=nk,
        subadditive=cyc_rank <= chk_rank + sec_rank,
        full_rank_windows=full,
        sampled_windows=samples,
        notes=notes,
    )
