"""Binary Goppa codes: construction and syndrome decoding.

A code is a support sequence of n distinct GF(2^m) elements plus a
monic irreducible degree-t polynomial g(x), one int packed as gf2m packs
every polynomial.  The parity-check matrix over the field has entries
alpha_i^j / g(alpha_i); its binary expansion stacks the m coefficient
bits of each entry, coefficient 0 topmost.  A code holds it by columns
only, takes every syndrome from them, and shares gf2m.shared_field(m).
Decoding is Patterson's algorithm, which corrects any error of weight
up to t when g is irreducible.  Its error locator's roots come from
gf2m.roots, over the whole field at once, so root finding costs O(2^m),
not O(n); the values of g are read off the same power_planes.  Either
way alpha^e is index e and alpha = 0 index 2^m - 1.
"""

from __future__ import annotations

import operator
import struct

from .binmat import BinaryMatrix, eliminate, xor_rows
from .errors import DecodingFailure, DimensionMismatch, Frozen, GenerationFailure, ParameterError
from .gf2m import (
    is_irreducible,
    modulus,
    mul_tables,
    poly_eea_bounded,
    poly_inv_mod,
    poly_sqrt_mod,
    power_planes,
    roots,
    shared_field,
    sqrt_x_mod,
    squares,
)
from .rng import SeededRng

RESAMPLE_LIMIT = 100
# A random monic polynomial of degree t is irreducible with probability
# about 1/t, so 40*t candidates all fail with probability about e^-40.
POLY_TRIALS_PER_DEGREE = 40
# m*t random columns span GF(2)^(m*t) with probability about 0.29; each
# column past them makes a shortfall about half as likely, so with 16
# more, generate_code ranks all n columns for about one code in 2^16.
RANK_SPARE_COLUMNS = 16


class CodeParams(Frozen):
    _fields = ("n", "k", "t", "m")

    def __init__(self, n: int, k: int, t: int, m: int):
        if not 4 <= m <= 16:
            raise ParameterError(f"field degree must be in [4, 16], got {m}")
        if n > (1 << m):
            raise ParameterError(f"code length {n} exceeds field size 2^{m}")
        if t < 2:
            raise ParameterError(f"error capability must be at least 2, got {t}")
        # the block layouts need n - k = m*t exactly; other k are rejected
        if k != n - m * t:
            raise ParameterError(f"dimension must equal n - m*t = {n - m * t}, got {k}")
        if k < 1:
            raise ParameterError("parameters leave no message positions (k < 1)")
        # redundancy is derived, so it stays out of _fields
        self.__dict__.update(n=n, k=k, t=t, m=m, redundancy=n - k)


def scatter(values: tuple[int, ...], dest: list[int]) -> tuple[int, ...]:
    """The values with values[i] moved to position dest[i]."""
    out = [0] * len(dest)
    for v, d in zip(values, dest):
        out[d] = v
    return tuple(out)


class GoppaCode(Frozen):
    """The private key, a value of params, support tuple and packed g; g's
    values on the support, the check's columns (a tuple) and the decoder's
    tables are cached.  Its repr hides the secret: it names the params."""

    _fields = ("params", "support", "goppa_poly")

    def __init__(self, params: CodeParams, support: list[int], goppa_poly: int):
        field = shared_field(params.m)
        if len(support) != params.n:
            raise ParameterError("support length does not match the code length")
        if len(set(support)) != params.n:
            raise ParameterError("support elements must be pairwise distinct")
        if any(not 0 <= a < field.order for a in support):
            raise ParameterError("support element outside the field")
        # a negative int fails too: shifted down, it stays negative
        if goppa_poly >> (params.m * params.t) != 1:
            raise ParameterError("Goppa polynomial must be monic of degree t")
        self.__dict__.update(field=field, params=params, support=tuple(support), goppa_poly=goppa_poly)
        self.__dict__.update(_g_values=self._eval_goppa_poly(), _columns=None, _decoder=None, _where=None)
        if 0 in self._g_values:
            raise ParameterError("Goppa polynomial vanishes on the support")

    def __repr__(self) -> str:
        return f"GoppaCode(params={self.params!r})"

    def parity_check(self) -> tuple[int, ...]:
        """The binary check as a tuple of columns: column i packs the m
        bits of each of the t field entries of column i, entry j at bit
        m*j: bit b of entry j is binary row j*m + b.

        The field rows are packed by struct, 64 // m at a time: with each
        entry in a 64-bit lane and each row shifted m bits above the one
        before, a group ORs into one int whose lanes are its share of
        every column.  The code keeps no binary rows.
        """
        # cached; recomputation would be identical, so races are benign
        if self._columns is None:
            n, m, t = self.params.n, self.params.m, self.params.t
            wide = struct.Struct("<" + "H6x" * n)
            group = 64 // m
            field_rows = self._field_rows()
            cols = [0] * n
            lanes = 0
            for j, entries in enumerate(field_rows):
                field_rows[j] = None  # released once packed
                lanes |= int.from_bytes(wide.pack(*entries), "little") << (m * (j % group))
                if j % group == group - 1 or j == t - 1:
                    shift = m * (j - j % group)
                    share = struct.unpack(f"<{n}Q", lanes.to_bytes(8 * n, "little"))
                    cols = [c | v << shift for c, v in zip(cols, share)]
                    lanes = 0
            self.__dict__["_columns"] = tuple(cols)
        return self._columns

    def syndrome(self, e: int) -> int:
        """e times the transposed binary check, as an m*t-bit int."""
        if e < 0 or e.bit_length() > self.params.n:
            raise DimensionMismatch("error vector negative or longer than the code length")
        return xor_rows(self.parity_check(), e)

    def permuted(self, dest: list[int]) -> GoppaCode:
        """The same code with position i moved to dest[i]: the support,
        the values of g on it and the check's columns are scattered, and
        nothing is validated or evaluated again.  The decoder's tables
        depend on g alone, so the copy shares them."""
        if sorted(dest) != list(range(self.params.n)):
            raise DimensionMismatch("destinations must be a permutation of the positions")
        out = object.__new__(GoppaCode)
        out.__dict__.update(
            vars(self),
            support=scatter(self.support, dest),
            _g_values=scatter(self._g_values, dest),
            _columns=scatter(self.parity_check(), dest),
            _where=None,
        )
        return out

    def _eval_goppa_poly(self) -> tuple[int, ...]:
        """g(alpha_i) for every support element, read off g's power
        planes: g(alpha^e) is lane e, and g(0) = g_0 goes at index q - 1.

        Each plane's binary digits, as ASCII bytes less b"0", hold bit e
        at byte e, so planes 0-7 OR into one int of byte lanes and
        planes 8-15 into another.
        """
        fld = self.field
        q1 = fld.order - 1
        zeros = int.from_bytes(b"0" * q1, "big")
        low = high = 0
        for b, plane in enumerate(power_planes(fld, self.goppa_poly)):
            lanes = int.from_bytes(format(plane, f"0{q1}b").encode(), "big") ^ zeros
            if b < 8:
                low |= lanes << b
            else:
                high |= lanes << (b - 8)
        lows, highs = low.to_bytes(q1, "little"), high.to_bytes(q1, "little")
        values = [lo | hi << 8 for lo, hi in zip(lows, highs)]
        values.append(self.goppa_poly & q1)
        log = fld.log_table
        return tuple([values[log[a] if a else q1] for a in self.support])

    def _field_rows(self) -> list[list[int]]:
        """Rows r < t of alpha_i^r / g(alpha_i), in the log domain: the
        entries are never zero off an alpha = 0 column, so each product
        is one exp lookup at a sum of logs."""
        fld = self.field
        exp = fld.exp_table
        log = fld.log_table
        alpha_logs = [log[a] for a in self.support]
        row = [exp[fld.order - 1 - log[v]] for v in self._g_values]
        rows = [row]
        for _ in range(1, self.params.t):
            row = [exp[log[v] + la] for v, la in zip(row, alpha_logs)]
            rows.append(row)
        # the alpha = 0 column is 1/g_0 above zeros
        zero = self.support.index(0) if 0 in self.support else None
        if zero is not None:
            for row in rows[1:]:
                row[zero] = 0
        return rows

    def _tables(self) -> tuple:
        """g's modulus and mul_tables, and the mul_tables of sqrt(x) mod
        g: what decoding needs of g, built at the first."""
        if self._decoder is None:
            fld = self.field
            g = self.goppa_poly
            mod = modulus(fld, g)
            root_x = sqrt_x_mod(fld, g, mod)
            self.__dict__["_decoder"] = (mod, mul_tables(fld, g), mul_tables(fld, root_x))
        return self._decoder

    def syndrome_poly(self, synd: int) -> int:
        """Packed syndrome polynomial sum(1/(x - alpha_i)) mod g for the
        error behind synd, recovered linearly from the m*t syndrome bits.

        With field components S_r read off the syndrome, coefficient j
        equals sum over l > j of g_l * S_{l-1-j}: S(x) is the quotient of
        g(x) * S'(x) by x^t, where S' holds the components in reverse
        order.  So it is one Horner pass over S', from S_0 down, that
        adds S_r * g from g's mul_tables.
        """
        m, t = self.params.m, self.params.t
        mask = self.field.order - 1
        lo_bits, lo_mask = self.field.lo_bits, self.field.lo_mask
        _, (g_lo, g_hi), _ = self._tables()
        acc = 0
        for r in range(t):
            c = (synd >> (m * r)) & mask
            acc = (acc << m) ^ g_lo[c & lo_mask] ^ g_hi[c >> lo_bits]
        return acc >> (m * t)

    def decode(self, synd: int) -> int:
        """Patterson decoding of a binary syndrome.

        Returns the unique error vector of weight <= t whose syndrome
        is synd; raises DecodingFailure when no such vector exists.
        Its reason is "locator-not-split" when the error locator has
        fewer distinct roots on the support than its degree,
        "syndrome-mismatch" when the located error has another
        syndrome, and "syndrome-not-invertible" when S(x) has no inverse
        modulo g, which only a g with a repeated factor allows.
        """
        params = self.params
        if synd == 0:
            return 0
        if synd < 0 or synd.bit_length() > params.m * params.t:
            raise DimensionMismatch("syndrome negative or longer than m*t bits")
        sigma = self._locator(synd)
        e = self._locator_roots(sigma)
        nroots = e.bit_count()
        if nroots != (sigma.bit_length() - 1) // params.m or nroots > params.t:
            raise DecodingFailure(
                "error locator does not split over the support", "locator-not-split"
            )
        if self.syndrome(e) != synd:
            raise DecodingFailure("recomputed syndrome mismatch", "syndrome-mismatch")
        return e

    def _locator(self, synd: int) -> int:
        """Patterson's error locator sigma for a nonzero syndrome; every
        step from S(x) to sigma = a^2 + x*b^2 is packed in one int."""
        fld = self.field
        mod, _, root_x = self._tables()
        g = self.goppa_poly
        try:
            t_poly = poly_inv_mod(fld, self.syndrome_poly(synd), g)
        except ZeroDivisionError:
            raise DecodingFailure(
                "syndrome not invertible modulo g", "syndrome-not-invertible"
            ) from None
        x = 1 << fld.m
        r = poly_sqrt_mod(fld, t_poly ^ x, mod, root_x)
        if not r:
            # T(x) = x, whose root is 0: the locator is x itself, a
            # single error at alpha = 0
            return x
        a, b = poly_eea_bounded(fld, g, r, self.params.t // 2)
        return squares(fld, a) | squares(fld, b) << fld.m

    def _locator_roots(self, sigma: int) -> int:
        """The support positions where a nonzero packed sigma vanishes, as
        a bit vector: each root from gf2m.roots maps to its support
        position, and roots off the support are dropped."""
        found = roots(self.field, sigma)
        where = self._positions()
        e = 0
        while found:
            low = found & -found
            i = where[low.bit_length() - 1]
            if i is not None:
                e |= 1 << i
            found ^= low
        return e

    def _positions(self) -> list[int | None]:
        """The support position of alpha^e at index e and of 0 at index
        2^m - 1, None for an element off the support."""
        if self._where is None:
            q1 = self.field.order - 1
            log = self.field.log_table
            where = [None] * (q1 + 1)
            for i, a in enumerate(self.support):
                where[log[a] if a else q1] = i
            self.__dict__["_where"] = where
        return self._where


def generate_code(params: CodeParams, rng: SeededRng) -> GoppaCode:
    """Sample a code: uniform distinct support, then g until irreducible.

    At most POLY_TRIALS_PER_DEGREE * t candidates are tried for g before
    GenerationFailure is raised.

    Irreducibility implies g has no roots in GF(2^m), so the support
    never needs filtering.  Codes whose binary parity check is rank
    deficient are resampled so that n - k = m*t holds exactly.  The
    check has full rank when its columns, as m*t-bit rows, do: one
    rank() of the first m*t + RANK_SPARE_COLUMNS of them decides almost
    every code, and only when those fall short, and are fewer than n,
    does an elimination of all n decide.
    """
    m, t = params.m, params.t
    field = shared_field(m)
    for _ in range(RESAMPLE_LIMIT):
        support = rng.sample(field.order, params.n)
        for _ in range(POLY_TRIALS_PER_DEGREE * t):
            # g_0 .. g_(t-1) drawn in that order, under the leading 1
            coeffs = rng.randbits_each(m, t)
            g = sum(map(operator.lshift, coeffs, range(0, m * t, m))) | 1 << (m * t)
            if is_irreducible(field, g):
                break
        else:
            raise GenerationFailure("no irreducible Goppa polynomial among the candidates")
        code = GoppaCode(params, support, g)
        cols = code.parity_check()
        first = cols[: m * t + RANK_SPARE_COLUMNS]
        if BinaryMatrix(len(first), m * t, first).rank() == m * t or (
            len(first) < params.n and len(eliminate(cols, m * t, None)[0]) == m * t
        ):
            return code
    raise GenerationFailure("could not sample a full-rank code")


# the benchmark's tracer wraps syndrome under this class name
ParityCheckMatrix = GoppaCode
