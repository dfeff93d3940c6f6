"""Arithmetic in GF(2^m) and in GF(2^m)[x].

Field elements are ints: bit i is the coefficient of x^i, reduced
modulo the one primitive polynomial of degree m in REDUCTION_POLYS.
Polynomials over the field are lists of elements with index = degree,
normalized so the last entry is nonzero; the zero polynomial is the
empty list.
"""

from __future__ import annotations

import struct

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

    Multiplication uses discrete log/antilog tables built once at
    construction: the powers of x, by shift and reduce, run through
    every nonzero element because the reduction polynomial is primitive.
    """

    def __init__(self, m: int):
        if m not in REDUCTION_POLYS:
            raise ParameterError(f"extension degree must be in [4, 16], got {m}")
        self.m = m
        self.reduction_poly = REDUCTION_POLYS[m]
        self.order = 1 << m
        q1 = self.order - 1
        # exp table doubled so mul can index log[a]+log[b] without a mod
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

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp_table[self.log_table[a] + self.log_table[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in GF(2^m)")
        return self.exp_table[self.order - 1 - self.log_table[a]]

    def sqrt(self, a: int) -> int:
        """Square root, i.e. a^(2^(m-1)); every element has one."""
        if a == 0:
            return 0
        return self.exp_table[(self.log_table[a] << (self.m - 1)) % (self.order - 1)]

    def __repr__(self) -> str:
        return f"Field(m={self.m})"


# --- polynomials over GF(2^m), lowest degree first ---


def poly_trim(f: list[int]) -> list[int]:
    i = len(f)
    while i and f[i - 1] == 0:
        i -= 1
    return f[:i]


def poly_deg(f: list[int]) -> int:
    return len(f) - 1


def poly_add(f: list[int], g: list[int]) -> list[int]:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] ^= c
    return poly_trim(out)


def poly_scale(field: Field, f: list[int], c: int) -> list[int]:
    if c == 0:
        return []
    return poly_trim([field.mul(a, c) for a in f])


def poly_mul(field: Field, f: list[int], g: list[int]) -> list[int]:
    """Schoolbook product in the log domain: g's coefficient logs are
    taken once, so each term is one exp lookup at a sum of logs."""
    if not f or not g:
        return []
    exp = field.exp_table
    log = field.log_table
    g_logs = [(j, log[b]) for j, b in enumerate(g) if b]
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            la = log[a]
            for j, lb in g_logs:
                out[i + j] ^= exp[la + lb]
    return poly_trim(out)


def poly_sqr(field: Field, f: list[int]) -> list[int]:
    # char 2: squaring just spreads the coefficients
    if not f:
        return []
    exp = field.exp_table
    log = field.log_table
    out = [0] * (2 * len(f) - 1)
    for i, a in enumerate(f):
        if a:
            out[2 * i] = exp[2 * log[a]]
    return poly_trim(out)


def poly_divmod(field: Field, f: list[int], g: list[int]) -> tuple[list[int], list[int]]:
    """Long division in the log domain: the divisor's coefficient logs
    are taken once, so each step is table lookups and XORs."""
    g = poly_trim(g)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(f)
    dg = len(g) - 1
    if len(r) - 1 < dg:
        return [], poly_trim(r)
    exp = field.exp_table
    log = field.log_table
    q1 = field.order - 1
    # the leading term is left out: it only cancels r[i], which is never read again
    g_logs = [(j, log[b]) for j, b in enumerate(g[:-1]) if b]
    lc_log = log[g[-1]]
    q = [0] * (len(r) - dg)
    for i in range(len(r) - 1, dg - 1, -1):
        c = r[i]
        if not c:
            continue
        lcoef = (log[c] - lc_log) % q1
        q[i - dg] = exp[lcoef]
        base = i - dg
        for j, lb in g_logs:
            r[base + j] ^= exp[lcoef + lb]
    return poly_trim(q), poly_trim(r[:dg])


def poly_mod(field: Field, f: list[int], g: list[int]) -> list[int]:
    return poly_divmod(field, f, g)[1]


def poly_eea_bounded(
    field: Field, f: list[int], g: list[int], dbound: int
) -> tuple[list[int], list[int]]:
    """Extended Euclid on (f, g) stopped at the first remainder of
    degree <= dbound; returns (r, v) with r = v*g mod f.

    Only g's cofactor is carried.  Each round divides the previous
    remainder r0 by the current one r1 in the log domain, as poly_divmod
    does, with the logs of r1 and of its cofactor v1 taken once.  The
    next cofactor v0 + q*v1 starts as v0, and each quotient term c*x^d
    XORs c*x^d*r1 into r0 and c*x^d*v1 into it in the same step, so
    the quotient is never built.
    """
    exp = field.exp_table
    log = field.log_table
    q1 = field.order - 1
    r0, r1 = poly_trim(f), poly_trim(g)
    v0, v1 = [], [1]
    while poly_deg(r1) > dbound:
        d1 = len(r1) - 1
        # the leading term is left out: it only cancels r0[i], which is never read again
        b_logs = [(j, log[b]) for j, b in enumerate(r1[:-1]) if b]
        v_logs = [(j, log[c]) for j, c in enumerate(v1) if c]
        lc_log = log[r1[-1]]
        # q*v1 has len(r0) - len(r1) + len(v1) coefficients
        v = v0 + [0] * (len(r0) - len(r1) + len(v1) - len(v0))
        for i in range(len(r0) - 1, d1 - 1, -1):
            c = r0[i]
            if not c:
                continue
            lcoef = (log[c] - lc_log) % q1
            base = i - d1
            for j, lb in b_logs:
                r0[base + j] ^= exp[lcoef + lb]
            for j, lv in v_logs:
                v[base + j] ^= exp[lcoef + lv]
        r0, r1 = r1, poly_trim(r0[:d1])
        v0, v1 = v1, poly_trim(v)
    return r1, v1


def poly_inv_mod(field: Field, f: list[int], g: list[int]) -> list[int]:
    """Inverse of f modulo g; raises ZeroDivisionError if gcd(f, g) != 1.

    Euclid on (g, f mod g) down to a constant remainder r0 leaves f's
    cofactor v with v*f = r0 mod g, so the inverse is v / r0.
    """
    r, v = poly_eea_bounded(field, g, poly_mod(field, f, g), 0)
    if not r:
        raise ZeroDivisionError("polynomial not invertible modulo g")
    return poly_mod(field, poly_scale(field, v, field.inv(r[0])), g)


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
    taps = [s for s in range(m) if field.reduction_poly >> s & 1]
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


def power_planes(field: Field, f: list[int]) -> list[int]:
    """The m bit planes of f at every nonzero element: lane e of plane b
    is bit b of f(alpha^e), for e in [0, q-1).

    f(alpha^e) is the sum of f_i * alpha^(i*e), and f_i is the sum of its
    bits j times x^j, so the planes are a Horner pass over the bit
    positions, from the top: times x (every plane moves up one and the
    top one folds back through the reduction polynomial's taps), then
    the XOR of the cached planes of alpha^(i*e) for every coefficient
    f_i with bit j set.  All m planes travel packed in one int.
    """
    m = field.m
    q1 = field.order - 1
    powers = _powers_of_alpha(field, len(f) - 1)
    top = (m - 1) * q1
    below_top = (1 << top) - 1
    taps = [s * q1 for s in range(m) if field.reduction_poly >> s & 1]
    acc = 0
    for j in range(m - 1, -1, -1):
        hi = acc >> top
        acc = (acc & below_top) << q1
        for shift in taps:
            acc ^= hi << shift
        for c, planes in zip(f, powers):
            if c >> j & 1:
                acc ^= planes
    lane = (1 << q1) - 1
    return [acc >> (b * q1) & lane for b in range(m)]


def is_irreducible(field: Field, f: list[int]) -> bool:
    """Whether f of degree >= 1 is irreducible over GF(2^m).

    Ben-Or's test: f is irreducible exactly when gcd(x^(q^i) - x, f) = 1
    for every level i up to deg(f)/2, which rules out every factor of
    degree at most deg(f)/2 and therefore all of them.  Level 1 holds
    exactly when f has no root in GF(q), since x^q - x is the product of
    every x - a, so it is decided by evaluation: f_0 at 0 and the
    bitsliced power_planes at every other element.  Most candidates that
    fail, fail there, before any table below is built; below degree 4 a
    reducible f has a linear factor, so a rootless f is irreducible.

    Level 2 gets a gcd.  From level 3 on, the h - x of three levels are
    multiplied modulo f and one gcd is taken per block, as in the
    interval partition of von zur Gathen and Shoup: an irreducible
    factor of f divides the product exactly when it divides one of its
    terms, so every decision is that of the level-by-level test, at a
    third of the gcds.

    Squaring modulo f is GF(2)-linear, so h = x^(2^j) mod f is held as
    one packed int, coefficient i at bits [m*i, m*i + m), and squared
    by XORs.  h_i^2 lands on coefficient 2i while 2i < deg(f); each
    higher h_i reads c -> c^2 * x^(2i) mod f from its own tables, built
    once per call.  Every table is split in two, one for each half of
    c's bits.  The products modulo f and the gcds' Euclid work on packed
    ints too, so h is never unpacked.
    """
    f = poly_trim(f)
    t = poly_deg(f)
    if t < 1:
        return False
    if f[-1] != 1:
        f = poly_scale(field, f, field.inv(f[-1]))
    if t == 1:
        return True
    if f[0] == 0:
        return False
    nonzero = 0
    for plane in power_planes(field, f):
        nonzero |= plane
    if nonzero != (1 << (field.order - 1)) - 1:
        return False
    if t < 4:
        return True
    m = field.m
    mask = field.order - 1
    exp = field.exp_table
    log = field.log_table
    full = (1 << (m * t)) - 1
    # tops is the top bit of every coefficient: times alpha shifts each
    # coefficient up one bit and folds the bit that leaves it back in
    # through the low bits of the field's reduction polynomial
    tops = full // mask << (m - 1)
    red = field.reduction_poly & mask
    lo_bits = m // 2
    lo_mask = (1 << lo_bits) - 1

    def alpha_multiples(v: int, count: int) -> list[int]:
        # v, alpha * v, alpha^2 * v, ...: count of them
        out = [v]
        for _ in range(count - 1):
            top = v & tops
            v = ((v ^ top) << 1) ^ (top >> (m - 1)) * red
            out.append(v)
        return out

    def split(basis: list[int]) -> tuple[list[int], list[int]]:
        # c -> the XOR of basis[s] over the bits s of c, as a table for
        # the low lo_bits bits of c and one for the rest, built by doubling
        lo, hi = [0], [0]
        for v in basis[:lo_bits]:
            lo += [acc ^ v for acc in lo]
        for v in basis[lo_bits:]:
            hi += [acc ^ v for acc in hi]
        return lo, hi

    packed_f = sum(c << (m * i) for i, c in enumerate(f))
    # c -> c * x^t mod f; x^t mod f is f without its leading 1 (char 2)
    fold_lo, fold_hi = split(alpha_multiples(packed_f & full, m))
    half = (t + 1) // 2
    # lanes[i - half]: the split tables of c -> c^2 * x^(2i) mod f, whose
    # basis is alpha^(2s) * x^(2i) mod f over the bits s of c
    lanes = []
    v = fold_lo[1]
    for j in range(t, 2 * t - 1):
        if not j & 1:
            lanes.append(split(alpha_multiples(v, 2 * m - 1)[::2]))
        # times x: up one coefficient, then coefficient t folds back as c * x^t
        v <<= m
        c = v >> (m * t)
        v = (v & full) ^ fold_lo[c & lo_mask] ^ fold_hi[c >> lo_bits]

    def square(h: int) -> int:
        # h_i^2 on coefficient 2i while 2i < t, the lane tables above
        acc = 0
        for i in range(half):
            c = (h >> (m * i)) & mask
            if c:
                acc |= exp[log[c] << 1] << (2 * m * i)
        for i, (lo, hi) in enumerate(lanes, half):
            c = (h >> (m * i)) & mask
            acc ^= lo[c & lo_mask] ^ hi[c >> lo_bits]
        return acc

    def mul_mod(a: int, b: int) -> int:
        # Horner over b's coefficients from the top, with a's multiples from tables
        a_lo, a_hi = split(alpha_multiples(a, m))
        acc = 0
        for i in range(t - 1, -1, -1):
            acc <<= m
            c = acc >> (m * t)
            acc = (acc & full) ^ fold_lo[c & lo_mask] ^ fold_hi[c >> lo_bits]
            c = (b >> (m * i)) & mask
            acc ^= a_lo[c & lo_mask] ^ a_hi[c >> lo_bits]
        return acc

    def coprime_to_f(a: int) -> bool:
        # Euclid on (f, a), packed: each quotient term c * x^d subtracts
        # c times the divisor, the XOR of its alpha multiples picked by
        # the bits of c, shifted up d coefficients
        r0, r1 = packed_f, a
        while r1 >> m:
            d1 = (r1.bit_length() - 1) // m
            mults = alpha_multiples(r1, m)
            lead_inv = mask - log[r1 >> (m * d1)]
            d0 = (r0.bit_length() - 1) // m
            while d0 >= d1:
                c = exp[log[r0 >> (m * d0)] + lead_inv]
                term = 0
                while c:
                    low = c & -c
                    term ^= mults[low.bit_length() - 1]
                    c ^= low
                r0 ^= term << (m * (d0 - d1))
                d0 = (r0.bit_length() - 1) // m
            r0, r1 = r1, r0
        # a constant remainder: 0 leaves the last divisor, of degree >= 1, as the gcd
        return r1 != 0

    x = 1 << m
    # h starts at x^(2^s), the last power of x that squaring reaches
    # below degree t, or at x^q itself, and is squared up to x^q
    s = min((t - 1).bit_length() - 1, m)
    h = 1 << (m << s)
    for _ in range(m - s):
        h = square(h)
    product = None
    last = t // 2
    for level in range(2, last + 1):
        for _ in range(m):
            h = square(h)
        product = h ^ x if product is None else mul_mod(product, h ^ x)
        # the gcd blocks are levels {2}, {3, 4, 5}, {6, 7, 8}, ...
        if level % 3 == 2 or level == last:
            if not coprime_to_f(product):
                return False
            product = None
    return True


def sqrt_x_mod(field: Field, g: list[int]) -> list[int]:
    """The square root of x modulo g.

    Splitting g = g0^2 + x*g1^2 gives x = (g0/g1)^2 mod g, so the root
    is g0 * g1^-1 mod g; for irreducible g it equals x^(2^(m*t-1)).
    When g1 has no inverse (g has a repeated factor, which only a
    hand-built g can have) the result is x^(2^(m*t-1)) mod g by
    repeated squaring.
    """
    g0 = poly_trim([field.sqrt(c) for c in g[0::2]])
    g1 = poly_trim([field.sqrt(c) for c in g[1::2]])
    try:
        g1_inv = poly_inv_mod(field, g1, g)
    except ZeroDivisionError:
        h = [0, 1]
        for _ in range(field.m * poly_deg(g) - 1):
            h = poly_mod(field, poly_sqr(field, h), g)
        return h
    return poly_mod(field, poly_mul(field, g0, g1_inv), g)


def poly_sqrt_mod(field: Field, s: list[int], g: list[int], sqrt_x: list[int]) -> list[int]:
    """Square root of s modulo irreducible g, via the even/odd split.

    With s(x) = a(x^2) + x b(x^2), the root is A(x) + sqrt(x) B(x)
    where A, B take coefficient-wise field square roots of a and b.
    """
    even = poly_trim([field.sqrt(c) for c in s[0::2]])
    odd = poly_trim([field.sqrt(c) for c in s[1::2]])
    return poly_mod(field, poly_add(even, poly_mul(field, odd, sqrt_x)), g)
