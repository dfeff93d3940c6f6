"""Bit-packed linear algebra over GF(2).

A matrix stores its rows as ints: bit j of a row is column j, and bits
at or above the column count stay zero.  Matrices are treated as
immutable values; every operation returns a fresh matrix.
"""

from __future__ import annotations

from .errors import DimensionMismatch, SingularMatrixError
from .rng import SeededRng


class BinaryMatrix:
    __slots__ = ("rows", "cols", "row_ints")

    def __init__(self, rows: int, cols: int, row_ints: list[int]):
        if rows < 0 or cols < 0:
            raise DimensionMismatch("negative dimension")
        if len(row_ints) != rows:
            raise DimensionMismatch(f"expected {rows} rows, got {len(row_ints)}")
        mask = (1 << cols) - 1
        for r in row_ints:
            if r & ~mask:
                raise DimensionMismatch("row has bits beyond the column count")
        self.rows = rows
        self.cols = cols
        self.row_ints = list(row_ints)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BinaryMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.row_ints == other.row_ints
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.row_ints)))

    def __repr__(self) -> str:
        return f"BinaryMatrix({self.rows}x{self.cols})"

    def add(self, other: "BinaryMatrix") -> "BinaryMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(
                f"cannot add {self.rows}x{self.cols} and {other.rows}x{other.cols}"
            )
        return BinaryMatrix(
            self.rows, self.cols, [a ^ b for a, b in zip(self.row_ints, other.row_ints)]
        )

    def mul(self, other: "BinaryMatrix") -> "BinaryMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        orows = other.row_ints
        out = []
        for row in self.row_ints:
            acc = 0
            r = row
            while r:
                low = r & -r
                acc ^= orows[low.bit_length() - 1]
                r ^= low
            out.append(acc)
        return BinaryMatrix(self.rows, other.cols, out)

    def transpose(self) -> "BinaryMatrix":
        return BinaryMatrix(self.cols, self.rows, transpose_ints(self.row_ints, self.cols))

    def rank(self) -> int:
        # incremental reduction against a basis keyed by leading bit; no
        # rank exceeds min(rows, cols), so the remaining rows are skipped
        # once it is reached
        basis: dict[int, int] = {}
        rank = 0
        full = min(self.rows, self.cols)
        for row in self.row_ints:
            if rank == full:
                break
            cur = row
            while cur:
                top = cur.bit_length() - 1
                other = basis.get(top)
                if other is None:
                    basis[top] = cur
                    rank += 1
                    break
                cur ^= other
        return rank

    def invert(self) -> "BinaryMatrix":
        if self.rows != self.cols:
            raise DimensionMismatch("only square matrices can be inverted")
        n = self.rows
        aug = [self.row_ints[i] | (1 << (n + i)) for i in range(n)]
        for col in range(n):
            piv = None
            for r in range(col, n):
                if (aug[r] >> col) & 1:
                    piv = r
                    break
            if piv is None:
                raise SingularMatrixError(f"matrix is singular at column {col}")
            aug[col], aug[piv] = aug[piv], aug[col]
            prow = aug[col]
            for r in range(n):
                if r != col and (aug[r] >> col) & 1:
                    aug[r] ^= prow
        return BinaryMatrix(n, n, [row >> n for row in aug])

    def columns(self, idxs: list[int]) -> "BinaryMatrix":
        """New matrix keeping the given columns, in the given order."""
        out = []
        for row in self.row_ints:
            acc = 0
            for j, c in enumerate(idxs):
                if (row >> c) & 1:
                    acc |= 1 << j
            out.append(acc)
        return BinaryMatrix(self.rows, len(idxs), out)

    def permute_columns(self, dest: list[int]) -> "BinaryMatrix":
        """Product with the permutation matrix whose (i, dest[i]) entries
        are set: column i moves to dest[i]."""
        if sorted(dest) != list(range(self.cols)):
            raise DimensionMismatch("destinations must be a permutation of the columns")
        out = []
        for row in self.row_ints:
            acc = 0
            for i, d in enumerate(dest):
                if (row >> i) & 1:
                    acc |= 1 << d
            out.append(acc)
        return BinaryMatrix(self.rows, self.cols, out)


def transpose_ints(rows: list[int], cols: int) -> list[int]:
    """The columns of a bit matrix given by its rows, as ints whose bit
    i is row i.  Formatting, zip and int() do the per-bit work in C."""
    if not rows or not cols:
        return [0] * cols
    fmt = f"0{cols}b"
    # character j of each reversed string is bit j of the row
    strs = [format(r, fmt)[::-1] for r in rows]
    return [int("".join(col)[::-1], 2) for col in zip(*strs)]


def vec_times_matrix(v: int, m: BinaryMatrix) -> int:
    """Row vector (m.rows bits) times matrix; XOR of the selected rows."""
    if v < 0 or v.bit_length() > m.rows:
        raise DimensionMismatch("vector negative or longer than the matrix row count")
    acc = 0
    rows = m.row_ints
    while v:
        low = v & -v
        acc ^= rows[low.bit_length() - 1]
        v ^= low
    return acc


def matrix_times_vec(m: BinaryMatrix, v: int) -> int:
    """Matrix times column vector (m.cols bits); parity per row."""
    if v < 0 or v.bit_length() > m.cols:
        raise DimensionMismatch("vector negative or longer than the matrix column count")
    acc = 0
    for i, row in enumerate(m.row_ints):
        if (row & v).bit_count() & 1:
            acc |= 1 << i
    return acc


def random_permutation(n: int, rng: SeededRng) -> list[int]:
    """A uniform permutation of [0, n), as the destination of each index."""
    if n < 1:
        raise DimensionMismatch("permutation length must be at least 1")
    return rng.permutation(n)
