"""Slow reference implementations that faster library code replaced.

Each function here is the straightforward version the library used
before its kernel was rewritten, or a definition checked by brute force
(trial division, colexicographic enumeration).  This is the one home of
the references: the tests compare the library against them, so they must
stay simple and must not call the kernels they check.
"""

import functools
import itertools
from typing import NamedTuple

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from kal1 import scheme
from kal1.binmat import BinaryMatrix, matrix_times_vec, random_permutation, vec_times_matrix
from kal1.cw import CwParams, cw_encode
from kal1.errors import (
    DecodingFailure,
    DimensionMismatch,
    FormatError,
    GenerationFailure,
    RangeError,
    SingularMatrixError,
)
from kal1.gf2m import Field
from kal1.goppa import RESAMPLE_LIMIT, CodeParams, GoppaCode
from kal1.isd import NULLSPACE_CAP
from kal1.niederreiter import NiederreiterPublicKey


# --- polynomials over GF(2^m) as lists, lowest degree first, and packed ---


def poly_trim(f: list[int]) -> list[int]:
    """f without its zero top coefficients; the zero polynomial is []."""
    i = len(f)
    while i and f[i - 1] == 0:
        i -= 1
    return f[:i]


def pack(field: Field, f: list[int]) -> int:
    """The library's form: coefficient i at bits [m*i, m*i + m) of one int."""
    return sum(c << (field.m * i) for i, c in enumerate(f))


def unpack(field: Field, v: int) -> list[int]:
    """The trimmed list of a packed polynomial."""
    m = field.m
    return [v >> (m * i) & (field.order - 1) for i in range((v.bit_length() + m - 1) // m)]


def field_mul(field: Field, a: int, b: int) -> int:
    """a * b in the field: the antilog of the sum of the logs."""
    if a == 0 or b == 0:
        return 0
    return field.exp_table[field.log_table[a] + field.log_table[b]]


# --- the field bootstrap for an arbitrary irreducible reduction polynomial ---


def gf2_poly_mod(a: int, b: int) -> int:
    """Remainder of a mod b, both polynomials over GF(2) as ints."""
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def gf2_poly_is_irreducible(f: int) -> bool:
    """Trial division over GF(2); fine for the degrees used here."""
    deg = f.bit_length() - 1
    if deg < 1:
        return False
    for g in range(2, 1 << (deg // 2 + 1)):
        if gf2_poly_mod(f, g) == 0:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def gf2m_mul(a: int, b: int, m: int, poly: int) -> int:
    """Shift-and-reduce product in GF(2)[x] / poly."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if (a >> m) & 1:
            a ^= poly
    return r


def gf2m_pow(a: int, e: int, m: int, poly: int) -> int:
    r = 1
    while e:
        if e & 1:
            r = gf2m_mul(r, a, m, poly)
        a = gf2m_mul(a, a, m, poly)
        e >>= 1
    return r


def find_generator(m: int, poly: int) -> int:
    """The smallest element of multiplicative order 2^m - 1; it is 2,
    the element x, exactly when poly is primitive."""
    q1 = (1 << m) - 1
    primes = prime_factors(q1)
    gen = 2
    while not all(gf2m_pow(gen, q1 // p, m, poly) != 1 for p in primes):
        gen += 1
    return gen


def field_tables(m: int, poly: int) -> tuple[list[int], list[int]]:
    """(exp, log) tables built from a found generator, exp doubled, as
    Field built them when it accepted any irreducible polynomial."""
    q1 = (1 << m) - 1
    gen = find_generator(m, poly)
    exp = [0] * (2 * q1)
    log = [0] * (q1 + 1)
    v = 1
    for i in range(q1):
        exp[i] = v
        log[v] = i
        v = gf2m_mul(v, gen, m, poly)
    for i in range(q1, 2 * q1):
        exp[i] = exp[i - q1]
    return exp, log


def field_pow(field: Field, a: int, e: int) -> int:
    """a^e by square-and-multiply over field_mul."""
    r = 1
    while e:
        if e & 1:
            r = field_mul(field, r, a)
        a = field_mul(field, a, a)
        e >>= 1
    return r


def poly_deg(f: list[int]) -> int:
    return len(f) - 1


def field_sqrt(field: Field, a: int) -> int:
    """The square root a^(2^(m-1)), which every element has."""
    return field_pow(field, a, 1 << (field.m - 1))


def poly_eval(field: Field, f: list[int], x: int) -> int:
    """Horner evaluation; the constant polynomial [] evaluates to 0."""
    acc = 0
    for c in reversed(f):
        acc = field_mul(field, acc, x) ^ c
    return acc


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
    return poly_trim([field_mul(field, a, c) for a in f])


def poly_mul(field: Field, f: list[int], g: list[int]) -> list[int]:
    """Schoolbook product, one field_mul per pair of nonzero terms."""
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] ^= field_mul(field, a, b)
    return poly_trim(out)


def poly_sqr(field: Field, f: list[int]) -> list[int]:
    if not f:
        return []
    out = [0] * (2 * len(f) - 1)
    for i, a in enumerate(f):
        if a:
            out[2 * i] = field_mul(field, a, a)
    return poly_trim(out)


def poly_divmod(field: Field, f: list[int], g: list[int]) -> tuple[list[int], list[int]]:
    g = poly_trim(g)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(f)
    dg = len(g) - 1
    if len(r) - 1 < dg:
        return [], poly_trim(r)
    q = [0] * (len(r) - dg)
    lc_inv = field.inv(g[-1])
    for i in range(len(r) - 1, dg - 1, -1):
        c = r[i]
        if not c:
            continue
        coef = field_mul(field, c, lc_inv)
        q[i - dg] = coef
        for j, b in enumerate(g):
            if b:
                r[i - dg + j] ^= field_mul(field, coef, b)
    return poly_trim(q), poly_trim(r[:dg])


def poly_mod(field: Field, f: list[int], g: list[int]) -> list[int]:
    return poly_divmod(field, f, g)[1]


def poly_gcd(field: Field, f: list[int], g: list[int]) -> list[int]:
    a, b = poly_trim(f), poly_trim(g)
    while b:
        a, b = b, poly_mod(field, a, b)
    if a and a[-1] != 1:
        a = poly_scale(field, a, field.inv(a[-1]))
    return a


def poly_eea_bounded(
    field: Field, f: list[int], g: list[int], dbound: int
) -> tuple[list[int], list[int], list[int]]:
    """Extended Euclid on (f, g) stopped at the first remainder of
    degree <= dbound; returns (r, u, v) with u*f + v*g = r.  Each round
    builds the quotient and updates both cofactors by products."""
    r0, r1 = poly_trim(f), poly_trim(g)
    u0, u1 = [1], []
    v0, v1 = [], [1]
    while poly_deg(r1) > dbound:
        q, r = poly_divmod(field, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, poly_add(u0, poly_mul(field, q, u1))
        v0, v1 = v1, poly_add(v0, poly_mul(field, q, v1))
    return r1, u1, v1


def poly_inv_mod(field: Field, f: list[int], g: list[int]) -> list[int]:
    """Inverse of f modulo g through the two-cofactor Euclid; raises
    ZeroDivisionError if gcd(f, g) != 1."""
    r, _, v = poly_eea_bounded(field, g, poly_mod(field, f, g), 0)
    if not r:
        raise ZeroDivisionError("polynomial not invertible modulo g")
    return poly_mod(field, poly_scale(field, v, field.inv(r[0])), g)


def poly_sqrt_mod(field: Field, s: list[int], g: list[int], sqrt_x: list[int]) -> list[int]:
    """A(x) + sqrt(x) B(x) mod g for s(x) = a(x^2) + x b(x^2)."""
    even = poly_trim([field_sqrt(field, c) for c in s[0::2]])
    odd = poly_trim([field_sqrt(field, c) for c in s[1::2]])
    return poly_mod(field, poly_add(even, poly_mul(field, odd, sqrt_x)), g)


def is_irreducible(field: Field, f: list[int]) -> bool:
    """gcd(x^(q^i) - x, f) = 1 for every i up to deg(f)/2."""
    f = poly_trim(f)
    t = poly_deg(f)
    if t < 1:
        return False
    if f[-1] != 1:
        f = poly_scale(field, f, field.inv(f[-1]))
    if t == 1:
        return True
    x = [0, 1]
    h = x
    for _ in range(t // 2):
        for _ in range(field.m):
            h = poly_mod(field, poly_sqr(field, h), f)
        if poly_deg(poly_gcd(field, poly_add(h, x), f)) >= 1:
            return False
    return True


def monic_irreducible(field: Field, d: int, rnd, avoid=()) -> list[int]:
    """A random monic irreducible polynomial of degree d, found by the
    level-by-level test, other than those in avoid."""
    while True:
        g = [rnd.randrange(field.order) for _ in range(d)] + [1]
        if g not in avoid and is_irreducible(field, g):
            return g


def brute_force_irreducible(field: Field, f: list[int]) -> bool:
    """Trial division of monic f by every monic polynomial of degree
    1 to deg(f)/2."""
    for d in range(1, poly_deg(f) // 2 + 1):
        for low in range(field.order**d):
            divisor = [low // field.order**i % field.order for i in range(d)] + [1]
            if not poly_mod(field, f, divisor):
                return False
    return True


def sqrt_x_mod(field: Field, g: list[int]) -> list[int]:
    """x^(2^(m*t-1)) mod g by repeated squaring."""
    h = [0, 1]
    for _ in range(field.m * poly_deg(g) - 1):
        h = poly_mod(field, poly_sqr(field, h), g)
    return h


@functools.cache
def _sqrt_x(m: int, g: tuple[int, ...]) -> list[int]:
    return sqrt_x_mod(Field(m), list(g))


def syndrome_poly(code: GoppaCode, synd: int) -> list[int]:
    """Coefficient j is the sum over l > j of g_l * S_{l-1-j}, one
    field_mul per nonzero pair."""
    fld = code.field
    t, m = code.params.t, code.params.m
    mask = fld.order - 1
    comps = [(synd >> (j * m)) & mask for j in range(t)]
    g = unpack(fld, code.goppa_poly)
    out = []
    for j in range(t):
        c = 0
        for l in range(j + 1, t + 1):
            gl = g[l]
            s = comps[l - 1 - j]
            if gl and s:
                c ^= field_mul(fld, gl, s)
        out.append(c)
    return poly_trim(out)


def locator(code: GoppaCode, synd: int) -> list[int]:
    """Patterson's error locator through the oracles above, with sqrt(x)
    mod g by repeated squaring; raises ZeroDivisionError when S(x) has
    no inverse modulo g."""
    fld = code.field
    g = unpack(fld, code.goppa_poly)
    t_poly = poly_inv_mod(fld, syndrome_poly(code, synd), g)
    u = poly_add(t_poly, [0, 1])
    if not u:
        return [0, 1]
    r = poly_sqrt_mod(fld, u, g, _sqrt_x(fld.m, tuple(g)))
    if not r:
        return [0, 1]
    a, _, b = poly_eea_bounded(fld, g, r, code.params.t // 2)
    return poly_add(poly_sqr(fld, a), [0] + poly_sqr(fld, b))


def decode(code: GoppaCode, synd: int) -> int:
    """Patterson decoding through the oracle locator and a root scan,
    with the library's failure classes and reasons."""
    if synd == 0:
        return 0
    if synd.bit_length() > code.params.m * code.params.t:
        raise DimensionMismatch("syndrome longer than m*t bits")
    try:
        sigma = locator(code, synd)
    except ZeroDivisionError:
        raise DecodingFailure(
            "syndrome not invertible modulo g", "syndrome-not-invertible"
        ) from None
    e = scan_roots(code, sigma)
    if e.bit_count() != poly_deg(sigma) or e.bit_count() > code.params.t:
        raise DecodingFailure("error locator does not split over the support", "locator-not-split")
    if code.syndrome(e) != synd:
        raise DecodingFailure("recomputed syndrome mismatch", "syndrome-mismatch")
    return e


# --- GF(2) matrices and the keystream before their kernels were rewritten ---


def mul(a: BinaryMatrix, b: BinaryMatrix) -> BinaryMatrix:
    """Schoolbook product: the XOR of b's rows picked by each row of a."""
    if a.cols != b.rows:
        raise DimensionMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    out = []
    for row in a.row_ints:
        acc = 0
        r = row
        while r:
            low = r & -r
            acc ^= b.row_ints[low.bit_length() - 1]
            r ^= low
        out.append(acc)
    return BinaryMatrix(a.rows, b.cols, out)


def rank(m: BinaryMatrix) -> int:
    """Incremental reduction against a basis keyed by leading bit."""
    basis: dict[int, int] = {}
    for row in m.row_ints:
        cur = row
        while cur:
            top = cur.bit_length() - 1
            other = basis.get(top)
            if other is None:
                basis[top] = cur
                break
            cur ^= other
    return len(basis)


def eliminate(rows: list[int], width: int) -> tuple[list[int], list[int]]:
    """binmat.eliminate's pivots and dependencies, a row at a time: each
    row is reduced by the earlier independent rows, keyed by their lowest
    bit below width.  The keys are the pivot columns; a row reduced to
    zero below width, shifted down past it, is a dependency, unless it
    is zero."""
    low = (1 << width) - 1
    basis: dict[int, int] = {}
    deps = []
    for row in rows:
        cur = row
        while cur & low:
            key = (cur & -cur).bit_length() - 1  # below width, as cur & low is not 0
            if key not in basis:
                basis[key] = cur
                break
            cur ^= basis[key]
        else:
            if cur >> width:
                deps.append(cur >> width)
    return sorted(basis), deps


def invert(m: BinaryMatrix) -> BinaryMatrix:
    """Gauss-Jordan on (m | identity), one column and one row at a time;
    SingularMatrixError names the first column without a pivot."""
    if m.rows != m.cols:
        raise DimensionMismatch("only square matrices can be inverted")
    n = m.rows
    aug = [m.row_ints[i] | (1 << (n + i)) for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if (aug[r] >> col) & 1), None)
        if piv is None:
            raise SingularMatrixError(f"matrix is singular at column {col}")
        aug[col], aug[piv] = aug[piv], aug[col]
        prow = aug[col]
        for r in range(n):
            if r != col and (aug[r] >> col) & 1:
                aug[r] ^= prow
    return BinaryMatrix(n, n, [row >> n for row in aug])


def columns(m: BinaryMatrix, idxs: list[int]) -> BinaryMatrix:
    """New matrix keeping the given columns, in the given order."""
    out = []
    for row in m.row_ints:
        acc = 0
        for j, c in enumerate(idxs):
            if (row >> c) & 1:
                acc |= 1 << j
        out.append(acc)
    return BinaryMatrix(m.rows, len(idxs), out)


def solve_window(sub: BinaryMatrix, syndrome: int, weight: int) -> int | None:
    """Minimum-weight solution of sub * x = syndrome, if light enough:
    a basis-dict elimination, then the affine solution space enumerated
    from one nullspace vector per free column."""
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


class UnbufferedRng:
    """The pinned draws value by value: one read per randbits, one
    randbits per rejection-loop try, as the rng module's rules state
    them; SeededRng batches those reads."""

    def __init__(self, seed: bytes):
        self._stream = Cipher(algorithms.AES(seed), modes.CTR(bytes(16))).encryptor()

    def read(self, nbytes: int) -> bytes:
        return self._stream.update(bytes(nbytes))

    def randbits(self, k: int) -> int:
        if k == 0:
            return 0
        return int.from_bytes(self.read((k + 7) // 8), "big") & ((1 << k) - 1)

    def randbits_each(self, k: int, count: int) -> list[int]:
        return [self.randbits(k) for _ in range(count)]

    def randbelow(self, n: int) -> int:
        k = (n - 1).bit_length()
        while True:
            v = self.randbits(k)
            if v < n:
                return v

    def permutation(self, n: int) -> list[int]:
        arr = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.randbelow(i + 1)
            arr[i], arr[j] = arr[j], arr[i]
        return arr

    def sample(self, n: int, k: int) -> list[int]:
        arr = list(range(n))
        for i in range(k):
            j = i + self.randbelow(n - i)
            arr[i], arr[j] = arr[j], arr[i]
        return arr[:k]


def xor_selected(rows: list[int], x: int) -> int:
    """The XOR of rows[j] over the set bits j of x, one bit at a time."""
    acc = 0
    for j, row in enumerate(rows):
        if (x >> j) & 1:
            acc ^= row
    return acc


def transpose(m: BinaryMatrix) -> BinaryMatrix:
    out = [0] * m.cols
    for i, row in enumerate(m.row_ints):
        bit = 1 << i
        r = row
        while r:
            low = r & -r
            out[low.bit_length() - 1] |= bit
            r ^= low
    return BinaryMatrix(m.cols, m.rows, out)


def parity_check_rows(code: GoppaCode) -> list[list[int]]:
    """Rows alpha_i^j / g(alpha_i): a Horner evaluation of g per support
    element, then one multiplication per entry."""
    fld = code.field
    g = unpack(fld, code.goppa_poly)
    rows = [[fld.inv(poly_eval(fld, g, a)) for a in code.support]]
    for _ in range(1, code.params.t):
        rows.append([field_mul(fld, c, a) for c, a in zip(rows[-1], code.support)])
    return rows


def binary_check(code: GoppaCode) -> BinaryMatrix:
    """Bit-by-bit expansion of the field parity check, coefficient 0 topmost."""
    params = code.params
    rows = []
    for row in parity_check_rows(code):
        for b in range(params.m):
            acc = 0
            for i in range(params.n):
                if (row[i] >> b) & 1:
                    acc |= 1 << i
            rows.append(acc)
    return BinaryMatrix(params.m * params.t, params.n, rows)


class Scrambler(NamedTuple):
    """An invertible matrix and its inverse."""

    s: BinaryMatrix
    s_inv: BinaryMatrix


def systematize(binary_check: BinaryMatrix, perm, k: int):
    """Scramble the column-permuted check into [A | I] form; raises
    SingularMatrixError when the right block is not invertible."""
    permuted = binary_check.permute_columns(perm)
    nk = binary_check.rows
    right = BinaryMatrix(nk, nk, [row >> k for row in permuted.row_ints])
    s = invert(right)
    return Scrambler(s, right), mul(s, permuted)


def generate_code(params: CodeParams, rng) -> GoppaCode:
    """Uniform distinct support, then g as a list of coefficients, drawn
    low to high, until the list oracle finds it irreducible; the code
    holds it packed.  Resampled while the binary parity check is rank
    deficient."""
    field = Field(params.m)
    for _ in range(RESAMPLE_LIMIT):
        support = rng.sample(field.order, params.n)
        while True:
            g = [rng.randbits(params.m) for _ in range(params.t)] + [1]
            if is_irreducible(field, g):
                break
        code = GoppaCode(params, support, pack(field, g))
        if rank(binary_check(code)) == params.m * params.t:
            return code
    raise GenerationFailure("could not sample a full-rank code")


class NiederreiterChain(NamedTuple):
    """Key material of the oracle keygen: the code in its drawn order,
    the systematic public check, the scrambler and the permutation."""

    code: GoppaCode
    check_t: BinaryMatrix
    scrambler: Scrambler
    perm: list[int]


def niederreiter_keygen(params: CodeParams, rng) -> NiederreiterChain:
    """The code, then permutation draws until the right block is
    invertible."""
    code = generate_code(params, rng)
    binary = binary_check(code)
    for _ in range(RESAMPLE_LIMIT):
        perm = random_permutation(params.n, rng)
        try:
            scrambler, scrambled = systematize(binary, perm, params.k)
        except SingularMatrixError:
            continue
        return NiederreiterChain(code, transpose(scrambled), scrambler, perm)
    raise GenerationFailure("no permutation yielded an invertible right block")


def niederreiter_decrypt(code: GoppaCode, perm: list[int], s_inv: BinaryMatrix, c: int) -> int:
    """Decryption under the key material niederreiter_keygen returns:
    unscramble with the matrix s_inv = R by row parities, decode with
    the code in its drawn order, then scatter position i of the decoded
    error to perm[i]."""
    if c < 0 or c.bit_length() > code.params.redundancy:
        raise DimensionMismatch("ciphertext negative or longer than n-k bits")
    drawn_error = code.decode(matrix_times_vec(s_inv, c))
    e = 0
    for i, d in enumerate(perm):
        if (drawn_error >> i) & 1:
            e |= 1 << d
    return e


def matrix_encrypt(pub, msg: int) -> int:
    """The message's weight-t word behind k zeros, times the published
    matrix: check_t for a Niederreiter key, the expanded cyclic matrix
    for every Kal1 form."""
    params = pub.params
    word = cw_encode(msg, scheme.cw_params(params))
    if isinstance(pub, NiederreiterPublicKey):
        matrix = pub.check_t
    else:
        matrix = scheme.expand_cyclic(pub)
    return vec_times_matrix(word << params.k, matrix)


def colex_order(length: int, weight: int) -> list[tuple[int, ...]]:
    """Every support of the given weight, in colexicographic order."""
    return sorted(itertools.combinations(range(length), weight), key=lambda s: tuple(reversed(s)))


def table_cw_encode(msg: int, p: CwParams) -> int:
    """Colex unranking with the Pascal table: for each index j from the
    top, scan c upward from j - 1 for the largest C(c, j) <= rank."""
    if not 0 <= msg < p.capacity:
        raise RangeError(f"rank must be below C({p.length}, {p.weight}) = {p.capacity}")
    binom = p._binom
    rank = msg
    v = 0
    for j in range(p.weight, 0, -1):
        c = j - 1
        while c + 1 <= p.length - 1 and binom[c + 1][j] <= rank:
            c += 1
        v |= 1 << c
        rank -= binom[c][j]
    return v


def table_cw_decode(word: int, p: CwParams) -> int:
    """Colex rank of the word's support, summed from the Pascal table;
    RangeError at or above 2^msg_bits.  Length and weight are the
    caller's to check."""
    binom = p._binom
    rank = 0
    j = 1
    v = word
    while v:
        low = v & -v
        rank += binom[low.bit_length() - 1][j]
        j += 1
        v ^= low
    if rank >= (1 << p.msg_bits):
        raise RangeError("word lies outside the usable message space")
    return rank


def scan_roots(code: GoppaCode, sigma: list[int]) -> int:
    """The support positions where sigma vanishes, as a bit vector: a
    Horner evaluation of sigma at each support element."""
    fld = code.field
    exp = fld.exp_table
    log = fld.log_table
    coeffs = sigma[:-1]
    lead = sigma[-1]
    e = 0
    for i, alpha in enumerate(code.support):
        if alpha:
            la = log[alpha]
            acc = lead
            for c in reversed(coeffs):
                if acc:
                    acc = exp[log[acc] + la]
                acc ^= c
        else:
            acc = sigma[0]
        if acc == 0:
            e |= 1 << i
    return e


# --- the ciphertext byte form before keyio's bit writer and reader took it over ---

_REV8 = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))


def pack_bits(value: int, nbits: int) -> bytes:
    """Pack an nbits vector into MSB-first bytes (position 0 first)."""
    nbytes = (nbits + 7) // 8
    le = value.to_bytes(nbytes, "little")
    return bytes(_REV8[b] for b in le)


def unpack_bits(data: bytes, nbits: int) -> int:
    """Inverse of pack_bits; the caller checks length and padding."""
    value = int.from_bytes(bytes(_REV8[b] for b in data), "little")
    return value


# --- keyio's bit writer and reader before they moved whole bytes at a time ---


def _reverse_bits(value: int, nbits: int) -> int:
    """Reverse an nbits-wide value: bit i moves to bit nbits-1-i."""
    nbytes = (nbits + 7) // 8
    rev = int.from_bytes(value.to_bytes(nbytes, "little").translate(_REV8), "big")
    return rev >> (8 * nbytes - nbits)


class BitWriter:
    """One accumulator of the whole payload, shifted up by every field."""

    def __init__(self):
        self._acc = 0
        self._nbits = 0

    def put_uint(self, value: int, width: int):
        if value >> width:
            raise FormatError(f"value {value} does not fit in {width} bits")
        self._acc = (self._acc << width) | value
        self._nbits += width

    def put_vector(self, v: int, nbits: int):
        if v >> nbits:
            raise FormatError(f"vector does not fit in {nbits} bits")
        # vector position 0 is emitted first, hence the bit reversal
        self.put_uint(_reverse_bits(v, nbits), nbits)

    @property
    def bit_count(self) -> int:
        return self._nbits

    def to_bytes(self) -> bytes:
        pad = -self._nbits % 8
        total = (self._nbits + pad) // 8
        return (self._acc << pad).to_bytes(total, "big")


class BitReader:
    """One accumulator of the whole payload, masked down to the rest
    after every field."""

    def __init__(self, data: bytes):
        self._acc = int.from_bytes(data, "big")
        self._left = 8 * len(data)

    def take_uint(self, width: int) -> int:
        if width > self._left:
            raise FormatError("payload truncated")
        self._left -= width
        v = self._acc >> self._left
        self._acc &= (1 << self._left) - 1
        return v

    def take_vector(self, nbits: int) -> int:
        return _reverse_bits(self.take_uint(nbits), nbits)

    def expect_zero_padding(self):
        if self._left >= 8 or self._acc != 0:
            raise FormatError("nonzero or oversized payload padding")

