"""Bit-packed linear algebra over GF(2).

A matrix is a frozen value that stores its rows as a tuple of ints: bit
j of a row is column j, and bits at or above the column count stay
zero.  Every operation returns a fresh matrix.

Rank, inversion and the product are "Four Russians" kernels, as in M4RI
(Albrecht, Bard and Hart): eight columns or rows at a time, a table of
the 256 XOR combinations of eight rows replaces up to eight row XORs by
one lookup.  Rank, inversion and the ``isd`` window solve share one
elimination, ``eliminate``, which takes fewer columns at a time when it
has under 256 rows.
"""

from __future__ import annotations

from .errors import DimensionMismatch, Frozen, SingularMatrixError
from .rng import SeededRng


class BinaryMatrix(Frozen):
    _fields = ("rows", "cols", "row_ints")

    def __init__(self, rows: int, cols: int, row_ints: list[int] | tuple[int, ...]):
        if rows < 0 or cols < 0:
            raise DimensionMismatch("negative dimension")
        if len(row_ints) != rows:
            raise DimensionMismatch(f"expected {rows} rows, got {len(row_ints)}")
        mask = (1 << cols) - 1
        for r in row_ints:
            if r & ~mask:
                raise DimensionMismatch("row has bits beyond the column count")
        self.__dict__.update(rows=rows, cols=cols, row_ints=tuple(row_ints))

    def __repr__(self) -> str:
        return f"BinaryMatrix({self.rows}x{self.cols})"

    def mul(self, other: "BinaryMatrix") -> "BinaryMatrix":
        """Four-Russians product: for each 8 rows of other, a table of
        their 256 XOR combinations, picked by each row's byte there."""
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        orows = other.row_ints
        left = [r.to_bytes((self.cols + 7) // 8, "little") for r in self.row_ints]
        out = [0] * self.rows
        for j in range(0, self.cols, CHUNK):
            table = combinations(orows[j : j + CHUNK])
            byte = j // CHUNK
            out = [acc ^ table[row[byte]] for acc, row in zip(out, left)]
        return BinaryMatrix(self.rows, other.cols, out)

    def transpose(self) -> "BinaryMatrix":
        return BinaryMatrix(self.cols, self.rows, transpose_ints(self.row_ints, self.cols))

    def rank(self) -> int:
        return len(eliminate(self.row_ints, self.cols, None)[0])

    def invert(self) -> "BinaryMatrix":
        if self.rows != self.cols:
            raise DimensionMismatch("only square matrices can be inverted")
        n = self.rows
        # Gauss-Jordan on (self | identity): the pivot rows end as the inverse's rows
        solved: list[int] = []
        pivots, _ = eliminate([r | 1 << (n + i) for i, r in enumerate(self.row_ints)], n, solved)
        if len(pivots) < n:
            col = next(c for c, p in enumerate(pivots + [n]) if c != p)
            raise SingularMatrixError(f"matrix is singular at column {col}")
        return BinaryMatrix(n, n, solved)

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


CHUNK = 8  # columns per Four-Russians step; its tables have 2^CHUNK entries


def combinations(rows: list[int]) -> list[int]:
    """Entry v is the XOR of the rows picked by the bits of v, built by
    doubling: each row is XORed into a copy of the table so far.  gf2m
    builds its split tables and its byte tables with it too."""
    table = [0]
    for row in rows:
        table += [acc ^ row for acc in table] if row else table
    return table


def xor_rows(rows: list[int], v: int) -> int:
    """The XOR of rows[i] over the set bits i of v, for v >= 0: one
    entry of combinations(rows), without the table."""
    acc = 0
    while v:
        low = v & -v
        acc ^= rows[low.bit_length() - 1]
        v ^= low
    return acc


def eliminate(
    rows: list[int], width: int, solved: list[int] | None
) -> tuple[list[int], list[int]]:
    """Four-Russians elimination of the low width bits of rows; returns
    (pivots, dependencies).  The pivots are the pivot columns in
    increasing order, as many as the rank.  The dependencies are the
    rows that reduce to zero over width, shifted down past it: when each
    row carries a distinct tag bit above width, they are the tags of a
    basis of the left kernel, rows minus rank of them.  Untagged rows
    that reduce to zero vanish, so for those the list is empty.

    Columns go CHUNK at a time from bit 0, or floor(log2(rows)) at a
    time, at least one, when there are under 2^CHUNK rows.  Rows are
    scanned in order, each one's chunk reduced by the chunk's pivots so
    far; the first left nonzero becomes the pivot of its lowest bit
    there, and the earlier pivots are cleared at that bit, so each pivot
    has a 1 at its own column and 0 at the others'.  A row's chunk bits
    then index the pivots' XOR combination that clears them, so one
    lookup reduces each other row.  Every row is shifted down past the
    chunk, and the other rows left zero are dropped.

    With solved given, the pivot rows are reduced by every later chunk
    too (Gauss-Jordan) and collected there in column order, shifted
    down past width.  The list rows itself is left as it is.
    """
    found: list[int] = []
    # a table of 2^chunk entries for fewer rows than that costs more than
    # it saves, so a small elimination takes narrower chunks
    chunk = max(1, min(CHUNK, len(rows).bit_length() - 1))
    for start in range(0, width, chunk):
        if not rows:
            break
        step = min(chunk, width - start)
        low = (1 << step) - 1
        pivots = [0] * step  # pivot row by chunk bit
        have = 0  # the chunk bits with a pivot
        rest = []
        for i, row in enumerate(rows):
            if have == low:
                rest += rows[i:]
                break
            reduced = row
            bits = row & have
            while bits:
                b = bits & -bits
                reduced ^= pivots[b.bit_length() - 1]
                bits ^= b
            v = reduced & low
            if not v:
                rest.append(row)
                continue
            b = v & -v
            for c, p in enumerate(pivots):
                if p & b:
                    pivots[c] = p ^ reduced
            pivots[b.bit_length() - 1] = reduced
            have |= b
        table = combinations(pivots)
        if solved is not None:
            solved[:] = [(r ^ table[r & low]) >> step for r in solved]
            solved += [p >> step for p in pivots if p]
        found += [start + b for b, p in enumerate(pivots) if p]
        rows = list(filter(None, [(r ^ table[r & low]) >> step for r in rest]))
    return found, list(filter(None, rows))


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
    return xor_rows(m.row_ints, v)


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
