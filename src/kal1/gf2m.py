"""Arithmetic in GF(2^m) and in GF(2^m)[x].

Field elements are ints: bit i is the coefficient of x^i, reduced
modulo the one primitive polynomial of degree m in REDUCTION_POLYS.
A polynomial over the field is packed into one int, coefficient i at
bits [m*i, m*i + m); products, Euclid and Patterson's steps take and
return packed ints, and so do Ben-Or's test and power_planes: no other
form of a polynomial is kept, and no packed int can hold a coefficient
outside the field.  One Euclid loop serves Patterson's inverse, his
split of (a, b) and Ben-Or's gcds: each quotient term is the XOR of the
divisor's alpha multiples over the set bits of a scalar, read from two
small tables, one per half of its bits: Field owns that split, those
tables and every other constant derived from m.  The Frobenius maps,
squares and sqrt_halves, move bits by bytes.translate tables over the
whole int and fold or scale what the move leaves: no loop per
coefficient.  Those tables and the split tables come from
binmat.combinations.  The one root finder, roots, serves Ben-Or's
level 1 and Patterson's locator.
"""

from __future__ import annotations

import functools
import operator
import struct

from .binmat import combinations, xor_rows
from .errors import ParameterError

# One reduction polynomial per extension degree, each primitive: x
# generates the multiplicative group.  Deterministic fixtures depend on
# these; as in Classic McEliece, the field is fixed by m alone.
REDUCTION_POLYS = {
    4: 0x13,      # x^4 + x + 1
    5: 0x25,      # x^5 + x^2 + 1
    6: 0x43,      # x^6 + x + 1
    7: 0x89,      # x^7 + x^3 + 1
    8: 0x11D,     # x^8 + x^4 + x^3 + x^2 + 1
    9: 0x211,     # x^9 + x^4 + 1
    10: 0x409,    # x^10 + x^3 + 1
    11: 0x805,    # x^11 + x^2 + 1
    12: 0x1053,   # x^12 + x^6 + x^4 + x + 1
    13: 0x201B,   # x^13 + x^4 + x^3 + x + 1
    14: 0x4443,   # x^14 + x^10 + x^6 + x + 1
    15: 0x8003,   # x^15 + x + 1
    16: 0x1100B,  # x^16 + x^12 + x^3 + x + 1
}


class Field:
    """GF(2^m) in polynomial basis; immutable and freely shareable.

    A product of nonzero elements is the antilog of the sum of their
    logs, from tables built once at construction: the powers of x, by
    shift and reduce, run through every nonzero element because the
    reduction polynomial is primitive.

    A scalar c is read in two halves, c & lo_mask and c >> lo_bits, as
    split cuts its tables: picks = (lo, hi) lists the set bits of each
    half, hi's shifted up by lo_bits.  taps are the reduction
    polynomial's low set bits, and red is them as one int.
    """

    def __init__(self, m: int):
        if m not in REDUCTION_POLYS:
            raise ParameterError(f"extension degree must be in [4, 16], got {m}")
        self.m = m
        self.reduction_poly = REDUCTION_POLYS[m]
        self.order = 1 << m
        q1 = self.order - 1
        # exp table doubled so a product can index log[a]+log[b] without a mod
        exp = [0] * (2 * q1)
        log = [0] * self.order
        v = 1
        for i in range(q1):
            exp[i] = exp[i + q1] = v
            log[v] = i
            v <<= 1
            if v >> m:
                v ^= self.reduction_poly
        self.exp_table = exp
        self.log_table = log
        self.lo_bits = lo_bits = m // 2
        self.lo_mask = (1 << lo_bits) - 1
        # lists of bytes, at most 2^8 each: as tuples, built per key, they raised peak RSS
        bits = [bytes(s for s in range(m) if c >> s & 1) for c in range(1 << (m - lo_bits))]
        self.picks = bits[: 1 << lo_bits], [bytes(lo_bits + s for s in b) for b in bits]
        self.red = self.reduction_poly & q1
        self.taps = tuple(s for s in range(m) if self.red >> s & 1)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in GF(2^m)")
        return self.exp_table[self.order - 1 - self.log_table[a]]


@functools.cache
def shared_field(m: int) -> Field:
    """The one Field of degree m, which every code over it shares; at
    most 13 are ever built, one per m in REDUCTION_POLYS."""
    return Field(m)


# --- packed polynomials: coefficient i at bits [m*i, m*i + m) of one int ---


@functools.cache
def _slots(m: int, size: int) -> tuple[int, int, int, int]:
    """Masks over 2^size coefficients of m bits: the top bit of each, the
    odd m-bit slots of their spread (twice as many), and the low
    ceil(m/2) and floor(m/2) bits of each.  A mask serves every narrower
    packed int, and size = (bit length // m).bit_length() covers an int
    of that length."""
    count = 1 << size
    ones = ((1 << (m * count)) - 1) // ((1 << m) - 1)
    pairs = ((1 << (2 * m * count)) - 1) // ((1 << (2 * m)) - 1)
    return (
        ones << (m - 1),
        pairs * (((1 << m) - 1) << m),
        ones * ((1 << (m + 1) // 2) - 1),
        ones * ((1 << m // 2) - 1),
    )


def alpha_multiples(field: Field, v: int, count: int) -> list[int]:
    """Packed v, alpha*v, alpha^2*v, ...: count of them.  Times alpha
    shifts every coefficient up one bit and folds the bit that leaves
    it back in through the low bits of the reduction polynomial."""
    m = field.m
    tops = _slots(m, (v.bit_length() // m).bit_length())[0]
    red = field.red
    out = [v]
    for _ in range(count - 1):
        top = v & tops
        v = ((v ^ top) << 1) ^ (top >> (m - 1)) * red
        out.append(v)
    return out


def split(field: Field, basis: list[int]) -> tuple[list[int], list[int]]:
    """c -> the XOR of basis[s] over the bits s of c, as a table for the
    low field.lo_bits bits of c and one for the rest."""
    lo_bits = field.lo_bits
    return combinations(basis[:lo_bits]), combinations(basis[lo_bits:])


def mul_tables(field: Field, v: int) -> tuple[list[int], list[int]]:
    """The split tables of c -> c * v, for packed v."""
    return split(field, alpha_multiples(field, v, field.m))


def scale(field: Field, v: int, c: int) -> int:
    """Packed c * v: the XOR of v's alpha multiples over the bits of c."""
    return xor_rows(alpha_multiples(field, v, c.bit_length()), c)


def modulus(field: Field, f: int) -> tuple[int, list[int], list[int]]:
    """What mul_mod needs of a nonzero packed f: its degree t and the split
    tables of c -> c * x^t mod f, which for f made monic is f less its top."""
    if not f:
        raise ZeroDivisionError("polynomial division by zero")
    m = field.m
    t = (f.bit_length() - 1) // m
    f = scale(field, f, field.inv(f >> (m * t)))
    return (t, *mul_tables(field, f ^ (1 << (m * t))))


def mul_mod(
    field: Field, a: tuple[list[int], list[int]], b: int, mod: tuple[int, list[int], list[int]]
) -> int:
    """Packed a * b modulo the f of mod, for a reduced modulo f (given
    by its mul_tables) and b of any degree: Horner over b's coefficients
    from the top; each times x folds coefficient t back in as c * x^t."""
    t, fold_lo, fold_hi = mod
    a_lo, a_hi = a
    m = field.m
    mask = field.order - 1
    lo_bits, lo_mask = field.lo_bits, field.lo_mask
    full = (1 << (m * t)) - 1
    acc = 0
    for i in range((b.bit_length() - 1) // m, -1, -1):
        acc <<= m
        c = acc >> (m * t)
        acc = (acc & full) ^ fold_lo[c & lo_mask] ^ fold_hi[c >> lo_bits]
        c = (b >> (m * i)) & mask
        acc ^= a_lo[c & lo_mask] ^ a_hi[c >> lo_bits]
    return acc


def _euclid(field: Field, a: int, b: int, stop: int) -> tuple[int, int]:
    """Euclid's remainder sequence on packed (a, b) until b >> stop is 0:
    the last two remainders.  Each step cancels a's top coefficient with
    c * x^d times b, the XOR of b's alpha multiples picked by the set
    bits of c.  Only the tops of a and b are read, so bits below both
    ride along with the quotient: euclid carries a cofactor there."""
    m = field.m
    q1 = field.order - 1
    exp = field.exp_table
    log = field.log_table
    lo_bits, lo_mask = field.lo_bits, field.lo_mask
    lo_picks, hi_picks = field.picks
    tops = ((1 << m * ((a | b).bit_length() // m + 1)) - 1) // q1 << (m - 1)
    red = field.red
    db = (b.bit_length() - 1) // m
    while b >> stop:
        # alpha_multiples inline: a call per round made Euclid 6% slower
        mults = [b]
        v = b
        for _ in range(m - 1):
            top = v & tops
            v = ((v ^ top) << 1) ^ (top >> (m - 1)) * red
            mults.append(v)
        lead_inv = q1 - log[b >> (m * db)]
        d = (a.bit_length() - 1) // m
        while d >= db:
            c = exp[log[a >> (m * d)] + lead_inv]
            term = 0
            for s in lo_picks[c & lo_mask]:
                term ^= mults[s]
            for s in hi_picks[c >> lo_bits]:
                term ^= mults[s]
            a ^= term << (m * (d - db))
            d = (a.bit_length() - 1) // m
        # a mod b is the next divisor, and its degree is d
        a, b, db = b, a, d
    return a, b


def euclid(field: Field, r0: int, r1: int, dbound: int) -> tuple[int, int]:
    """Extended Euclid on packed (r0, r1), stopped at the first remainder
    of degree <= dbound (at least -1): (r, v) with r = v*r1 mod r0.
    Each remainder sits s bits up, past every cofactor, over its cofactor
    v (0 for r0, 1 for r1), so one division also makes v0 + q*v1.  With
    dbound = deg(r1) - 1 it is one division: (r0 mod r1, r0 / r1)."""
    m = field.m
    s = m * (max(r0.bit_length(), r1.bit_length()) // m + 1)
    _, b = _euclid(field, r0 << s, r1 << s | 1, s + m * (dbound + 1))
    return b >> s, b & ((1 << s) - 1)


# bytes.translate tables, b -> the XOR of the values picked by its bits.
# Bits 0-3 of a byte to bits 0, 2, 4, 6, and bits 4-7 to the same bits
# of the next byte: bit p of an int moves to bit 2p
_SPREAD_LO = bytes(combinations([1, 4, 16, 64, 0, 0, 0, 0]))
_SPREAD_HI = bytes(combinations([0, 0, 0, 0, 1, 4, 16, 64]))
# bits 0, 2, 4, 6 or bits 1, 3, 5, 7 of a byte to bits 0-3
_EVENS = bytes(combinations([1, 0, 2, 0, 4, 0, 8, 0]))
_ODDS = bytes(combinations([0, 1, 0, 2, 0, 4, 0, 8]))


def squares(field: Field, v: int) -> int:
    """Packed v(x)^2.  In characteristic 2 each coefficient is squared
    and moves to twice its degree, and the square of c, unreduced, moves
    bit j of c to bit 2j: so bit p of v moves to bit 2p, by byte tables.
    That leaves the square of coefficient i in the 2m bits from 2m*i;
    its bits m to 2m - 2, in the odd m-bit slot above coefficient 2i,
    fold back down through the reduction polynomial's low taps until no
    odd slot holds a bit."""
    m = field.m
    taps = field.taps
    odd = _slots(m, (v.bit_length() // m).bit_length())[1]
    src = v.to_bytes((v.bit_length() + 7) // 8, "little")
    spread = bytearray(2 * len(src))
    spread[0::2] = src.translate(_SPREAD_LO)
    spread[1::2] = src.translate(_SPREAD_HI)
    out = int.from_bytes(spread, "little")
    high = out & odd
    while high:
        out ^= high
        high >>= m
        for s in taps:
            out ^= high << s
        high = out & odd
    return out


def sqrt_halves(field: Field, v: int) -> tuple[int, int]:
    """Packed (A, B) with v(x) = A(x)^2 + x*B(x)^2: A holds the square
    roots of the even-index coefficients, B those of the odd ones.

    The square root of c is E + sqrt(alpha)*O, where E and O compact the
    even and odd bits of c, and sqrt(alpha) = alpha^(2^(m-1)).  The even
    and odd bits of all of v, compacted by byte tables, hold E and O of
    each pair of coefficients in one m-bit slot: the even-index
    coefficient's in the low bits, the odd-index one's above them, where
    an odd m swaps E and O.  One scale multiplies both O halves."""
    m = field.m
    count = -(-v.bit_length() // m)
    _, _, evens, odds = _slots(m, count.bit_length())
    src = v.to_bytes((v.bit_length() + 7) // 8, "little")
    # each table leaves a nibble per byte; byte pairs join them
    ev, od = (
        int.from_bytes(nibbles[0::2], "little") | int.from_bytes(nibbles[1::2], "little") << 4
        for nibbles in (src.translate(_EVENS), src.translate(_ODDS))
    )
    hi_ev, hi_od = (od, ev) if m & 1 else (ev, od)
    low = m // 2
    s = m * ((count + 1) // 2)
    root = scale(field, od & odds | (hi_od >> (m - low) & odds) << s, field.exp_table[1 << (m - 1)])
    return ev & evens ^ root & ((1 << s) - 1), hi_ev >> low & evens ^ root >> s


# --- Patterson's steps, the names the benchmark traces ---


def poly_eea_bounded(field: Field, f: int, g: int, dbound: int) -> tuple[int, int]:
    """euclid on packed (f, g) to the first remainder of degree <= dbound:
    (r, v) with r = v*g mod f.  On (g, sqrt(T + x)) it splits Patterson's a, b."""
    return euclid(field, f, g, dbound)


def poly_inv_mod(field: Field, f: int, g: int) -> int:
    """Packed inverse of f modulo g; ZeroDivisionError if gcd(f, g) != 1
    or g is a constant, modulo which nothing is invertible.  Euclid on
    (g, f) down to a constant remainder r0 leaves f's cofactor v, of
    degree below g's, with v*f = r0 mod g: so v / r0.  When f is not
    reduced, the first round is a swap and the second reduces f mod g."""
    if not g >> field.m:
        raise ZeroDivisionError("polynomial inverse modulo a constant")
    r, v = euclid(field, g, f, 0)
    if not r:
        raise ZeroDivisionError("polynomial not invertible modulo g")
    return scale(field, v, field.inv(r))


def sqrt_x_mod(field: Field, g: int, mod: tuple[int, list[int], list[int]]) -> int:
    """The square root of x modulo packed g, whose modulus is mod.
    Splitting g = g0^2 + x*g1^2 gives x = (g0/g1)^2 mod g, so the root
    is g0 * g1^-1 mod g; for irreducible g it equals x^(2^(m*t-1)).
    When g1 has no inverse (a repeated factor, which only a hand-built g
    can have), that power of x is found by repeated squaring."""
    g0, g1 = sqrt_halves(field, g)
    try:
        g1_inv = poly_inv_mod(field, g1, g)
    except ZeroDivisionError:
        h = 1 << field.m  # x, reduced: a repeated factor makes t >= 2
        for _ in range(field.m * mod[0] - 1):
            h = mul_mod(field, mul_tables(field, h), h, mod)
        return h
    return mul_mod(field, mul_tables(field, g1_inv), g0, mod)


def poly_sqrt_mod(
    field: Field, s: int, mod: tuple[int, list[int], list[int]], sqrt_x: tuple[list[int], list[int]]
) -> int:
    """Square root of packed s, reduced modulo g, where mod is g's
    modulus and sqrt_x the mul_tables of sqrt(x) mod g.  With
    s = A^2 + x B^2, the root is A + sqrt(x) B, reduced because A has
    at most half s's degree."""
    even, odd = sqrt_halves(field, s)
    return even ^ mul_mod(field, sqrt_x, odd, mod)


# m -> [A_0, A_1, ...]: A_i packs the m bit planes of alpha^(i*e) over
# e in [0, q-1), plane b at bits [b*(q-1), (b+1)*(q-1)).  The reduction
# polynomial is fixed by m, so the list is shared by every caller and
# only grows: power_planes extends it when a larger degree asks.
_POWER_PLANES: dict[int, list[int]] = {}


def _powers_of_alpha(field: Field, t: int) -> list[int]:
    """The packed planes A_0 .. A_t (at least) of the field's m.

    A_1 is sliced out of the exp table packed in 16-bit lanes: plane b
    is every 16th binary digit.  Each further power is A_i times A_1
    lane by lane, bitsliced: the m^2 plane ANDs of the schoolbook
    product, then planes m .. 2m-2 fold back through the taps of the
    reduction polynomial.  A new list replaces the cached one, so a
    reader never sees it half extended.
    """
    m = field.m
    powers = _POWER_PLANES.get(m, [])
    if len(powers) > t:
        return powers
    q1 = field.order - 1
    lane = (1 << q1) - 1
    if not powers:
        digits = format(
            int.from_bytes(struct.pack(f"<{q1}H", *field.exp_table[:q1]), "little"), f"0{16 * q1}b"
        )
        powers = [lane, sum(int(digits[15 - b :: 16], 2) << (b * q1) for b in range(m))]
    else:
        powers = list(powers)
    taps = field.taps
    base = [powers[1] >> (b * q1) & lane for b in range(m)]
    cur = [powers[-1] >> (b * q1) & lane for b in range(m)]
    while len(powers) <= t:
        prod = [0] * (2 * m - 1)
        for j, a in enumerate(cur):
            for k, b in enumerate(base):
                prod[j + k] ^= a & b
        # x^d = x^(d-m) * (x^m mod the reduction polynomial), from the top down
        for d in range(2 * m - 2, m - 1, -1):
            for s in taps:
                prod[d - m + s] ^= prod[d]
        cur = prod[:m]
        powers.append(sum(p << (b * q1) for b, p in enumerate(cur)))
    _POWER_PLANES[m] = powers
    return powers


def power_planes(field: Field, f: int) -> list[int]:
    """The m bit planes of packed f at every nonzero element: lane e of
    plane b is bit b of f(alpha^e), for e in [0, q-1).

    f(alpha^e) is the sum of f_i * alpha^(i*e), and f_i is the sum of its
    bits j times x^j, so the planes are a Horner pass over the bit
    positions, from the top: times x (every plane moves up one and the
    top one folds back through the reduction polynomial's taps), then
    the XOR of the cached planes of alpha^(i*e) for every coefficient
    f_i with bit j set.  Those are listed per bit beforehand, from each
    coefficient's set bits in the two tables Euclid picks by.  All m
    planes travel packed in one int.
    """
    m = field.m
    q1 = field.order - 1
    count = (f.bit_length() + m - 1) // m
    lo_bits, lo_mask = field.lo_bits, field.lo_mask
    lo, hi = field.picks
    picks: list[list[int]] = [[] for _ in range(m)]
    for i, planes in zip(range(count), _powers_of_alpha(field, count - 1)):
        c = f >> (m * i) & q1
        for j in lo[c & lo_mask]:
            picks[j].append(planes)
        for j in hi[c >> lo_bits]:
            picks[j].append(planes)
    top = (m - 1) * q1
    below_top = (1 << top) - 1
    taps = [s * q1 for s in field.taps]
    acc = 0
    for j in range(m - 1, -1, -1):
        spill = acc >> top
        acc = (acc & below_top) << q1
        for shift in taps:
            acc ^= spill << shift
        acc = functools.reduce(operator.xor, picks[j], acc)
    lane = (1 << q1) - 1
    return [acc >> (b * q1) & lane for b in range(m)]


def roots(field: Field, f: int) -> int:
    """The roots of packed f as bits: bit e < q - 1 where f(alpha^e) = 0, a
    lane of power_planes zero on every plane, and bit q - 1 where f_0 = 0."""
    q1 = field.order - 1
    nonzero = functools.reduce(operator.or_, power_planes(field, f))
    return nonzero ^ ((1 << q1) - 1) | (0 if f & q1 else 1 << q1)


def is_irreducible(field: Field, f: int) -> bool:
    """Whether packed f of degree >= 1 is irreducible over GF(2^m).

    Ben-Or's test: f is irreducible exactly when gcd(x^(q^i) - x, f) = 1
    for every level i up to deg(f)/2, which rules out every factor of
    degree at most deg(f)/2 and therefore all of them.  Level 1 holds
    exactly when f has no root in GF(q), since x^q - x is the product of
    every x - a, so it is decided by roots.  Most candidates that fail,
    fail there, before any table below is built; below degree 4 a
    reducible f has a linear factor, so a rootless f is irreducible.

    Level 2 gets a gcd.  From level 3 on, the h - x of three levels are
    multiplied modulo f before one gcd, as in the interval partition of
    von zur Gathen and Shoup: an irreducible factor divides the product
    exactly when it divides a term, so every decision is the
    level-by-level one, at a third of the gcds.

    Squaring modulo f is GF(2)-linear, so h = x^(2^j) mod f stays packed:
    h_i^2 lands on coefficient 2i while 2i < deg(f), and each higher h_i
    reads c -> c^2 * x^(2i) mod f from split tables built once per call.
    Their basis, alpha^(2s) * x^(2i) mod f over the bits s of c, is the
    XOR of the m alpha multiples of x^(2i) mod f over the set bits of
    alpha^(2s).  h starts at x^(2^s) for the power of two 2^(s-1) in
    [deg(f)/2, deg(f)): the entry of lane 2^(s-1) for c = 1, no squaring.

    Products are mul_mod, except that a block's first h - x is its
    product as it is.  Each gcd runs euclid's loop on f and the product,
    untagged, until the remainder's degree falls below the block's first
    level L.  Every level before L has passed, so every irreducible
    factor of f has degree >= L: a nonzero remainder of lower degree
    proves them coprime, and 0 leaves the last divisor as the gcd.
    """
    m = field.m
    mask = field.order - 1
    t = (f.bit_length() - 1) // m
    if t < 1:
        return False
    if t == 1:
        return True
    if roots(field, f):
        return False
    if t < 4:
        return True
    lo_bits, lo_mask = field.lo_bits, field.lo_mask
    mod = modulus(field, f)
    half = (t + 1) // 2
    # lanes[i - half]: the split tables of c -> c^2 * x^(2i) mod f, whose
    # basis is alpha^(2s) * x^(2i) mod f over the bits s of c: the XOR of
    # x^(2i)'s alpha multiples over the set bits of alpha^(2s)
    lanes = []
    lo_picks, hi_picks = field.picks
    square_bits = [
        lo_picks[e & lo_mask] + hi_picks[e >> lo_bits] for e in field.exp_table[: 2 * m : 2]
    ]
    _, fold_lo, fold_hi = mod
    v = fold_lo[1]  # x^t mod f
    for j in range(t, 2 * t - 1):
        if not j & 1:
            mults = alpha_multiples(field, v, m)
            basis = []
            for bits in square_bits:
                w = 0
                for b in bits:
                    w ^= mults[b]
                basis.append(w)
            lanes.append(split(field, basis))
        # times x, as a step of mul_mod: coefficient t folds back as c * x^t
        c = v >> (m * (t - 1))
        v = ((v << m) ^ (c << (m * t))) ^ fold_lo[c & lo_mask] ^ fold_hi[c >> lo_bits]

    low_half = (1 << (m * half)) - 1

    def square(h: int) -> int:
        # h_i^2 on coefficient 2i while 2i < t, the lane tables above
        acc = squares(field, h & low_half)
        for i, (lo, hi) in enumerate(lanes, half):
            c = (h >> (m * i)) & mask
            acc ^= lo[c & lo_mask] ^ hi[c >> lo_bits]
        return acc

    x = 1 << m
    # 2^(s-1) is the largest power of two below t, so in [half, t), and
    # x^(2^s) mod f is lane 2^(s-1)'s entry for c = 1; for s > m, h
    # starts at the monomial x^q.  Then it is squared up to x^q.
    s = (t - 1).bit_length()
    if s <= m:
        h = lanes[(1 << (s - 1)) - half][0][1]
    else:
        s = m
        h = 1 << (m << m)
    for _ in range(m - s):
        h = square(h)
    product = 1
    last = t // 2
    for level in range(2, last + 1):
        for _ in range(m):
            h = square(h)
        # a block's first level is its product; h - x is reduced
        if product == 1:
            product = h ^ x
            first = level
        else:
            product = mul_mod(field, mul_tables(field, h ^ x), product, mod)
        # the gcd blocks are levels {2}, {3, 4, 5}, {6, 7, 8}, ...
        if level % 3 == 2 or level == last:
            # every factor of f has degree >= first: a nonzero remainder
            # below that is coprime to f, and 0 leaves the gcd as divisor
            if not _euclid(field, f, product, m * first)[1]:
                return False
            product = 1
    return True
