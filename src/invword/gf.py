"""Small finite fields with exhaustive lookup tables.

Elements of GF(p^k) are encoded as integers in range(p**k): the element
sum c_i * xi**i (0 <= c_i < p, xi a fixed root of the modulus) gets the
encoding sum c_i * p**i.  For prime fields the encoding is the residue
itself.  Polynomials over a field are tuples of encodings, constant term
first, with no trailing zeros; the zero polynomial is ().

Fields beyond GF(32) are refused: every table here is built by full
scans, and nothing downstream needs larger coefficient fields.
Irreducibility is decided by Rabin's test, which takes a polynomial
number of field operations in the degree; only ``irreducible_polys``
scans, because it lists every monic polynomial of one degree.
"""

from functools import lru_cache


MAX_ORDER = 32

# Fixed monic moduli for the non-prime orders up to MAX_ORDER, constant
# term first.  Changing any row changes every element encoding of that
# field, so rows are frozen.
MODULUS_TABLE = {
    4: (1, 1, 1),            # x^2 + x + 1
    8: (1, 1, 0, 1),         # x^3 + x + 1
    9: (1, 0, 1),            # x^2 + 1
    16: (1, 1, 0, 0, 1),     # x^4 + x + 1
    25: (2, 0, 1),           # x^2 + 2
    27: (1, 2, 0, 1),        # x^3 + 2x + 1
    32: (1, 0, 1, 0, 0, 1),  # x^5 + x^2 + 1
}


class UnsupportedField(ValueError):
    """Requested field order is out of range or not a prime power."""


class FieldCtx:
    """Arithmetic context for one finite field.

    All operations go through precomputed tables, one tuple per left
    operand: ``add_rows[a][b]`` is a + b and ``mul_rows[a][b]`` is a * b.
    The matrix kernels and the polynomial helpers update a whole row as
    ``[add_rows[x][mf[y]] ...]`` with ``mf = mul_rows[f]`` fetched once.
    ``neg_table`` and ``inv_table`` are read off the rows: the place of 0
    in ``add_rows[a]`` and of 1 in ``mul_rows[a]``.
    """

    def __init__(self, q, p, deg, key, add_rows, mul_rows, base=None):
        self.q = q
        self.p = p
        self.deg = deg        # degree over the prime field
        self.key = key
        self.base = base      # coefficient field for towers, else None
        self.add_rows = add_rows
        self.mul_rows = mul_rows
        self.neg_table = [row.index(0) for row in add_rows]
        # inv_table[0] stays 0 and is never served
        self.inv_table = [0] + [row.index(1) for row in mul_rows[1:]]
        # smallest-encoding square root, or None
        self.sqrt_table = [None] * q
        for x in range(q - 1, -1, -1):
            self.sqrt_table[mul_rows[x][x]] = x
        self._gen = None

    # -- element ops ---------------------------------------------------

    def add(self, a, b):
        return self.add_rows[a][b]

    def sub(self, a, b):
        return self.add_rows[a][self.neg_table[b]]

    def mul(self, a, b):
        return self.mul_rows[a][b]

    def neg(self, a):
        return self.neg_table[a]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(%d)" % self.q)
        return self.inv_table[a]

    def div(self, a, b):
        return self.mul_rows[a][self.inv(b)]

    def pow(self, a, k):
        if k < 0:
            a, k = self.inv(a), -k
        r, mulr = 1, self.mul_rows
        while k:
            if k & 1:
                r = mulr[r][a]
            a = mulr[a][a]
            k >>= 1
        return r

    def sqrt(self, a):
        """Square root of a, smallest encoding, or None if a is a non-square."""
        return self.sqrt_table[a]

    def scalar(self, k):
        """Image of the integer k under Z -> GF(q)."""
        return k % self.p

    def generator(self):
        """Smallest-encoding generator of the multiplicative group."""
        if self._gen is None:
            for g in range(1, self.q):
                x, order = g, 1
                while x != 1:
                    x = self.mul_rows[x][g]
                    order += 1
                if order == self.q - 1:
                    self._gen = g
                    break
        return self._gen

    def elements(self):
        return range(self.q)

    def __repr__(self):
        if self.base is not None:
            return "GF(%d) over GF(%d)" % (self.q, self.base.q)
        return "GF(%d)" % self.q


def _poly_field_tables(k, modulus):
    """(add_rows, mul_rows) of k[x]/(modulus), for a field context k and
    a monic modulus of degree d >= 2 over it; the element sum c_i x^i is
    encoded sum c_i * k.q**i."""
    d = len(modulus) - 1
    s = k.q
    q = s ** d
    addk, mulk, negk = k.add_rows, k.mul_rows, k.neg_table
    digits = []
    for e in range(q):
        t = []
        for _ in range(d):
            e, c = divmod(e, s)
            t.append(c)
        digits.append(t)

    def enc(t):
        e = 0
        for c in reversed(t):
            e = e * s + c
        return e

    def times(ta, tb):
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(ta):
            if x:
                mx = mulk[x]
                for j, y in enumerate(tb, i):
                    prod[j] = addk[prod[j]][mx[y]]
        for i in range(2 * d - 2, d - 1, -1):
            c = prod[i]
            if c:   # subtract c x^(i-d) modulus; the monic lead clears i
                mc = mulk[negk[c]]
                for j, m in enumerate(modulus, i - d):
                    prod[j] = addk[prod[j]][mc[m]]
        return enc(prod[:d])

    add_rows = tuple(tuple(enc([addk[x][y] for x, y in zip(ta, tb)])
                           for tb in digits) for ta in digits)
    mul_rows = tuple(tuple(times(ta, tb) for tb in digits) for ta in digits)
    return add_rows, mul_rows


def _smallest_prime_factor(n):
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def prime_power(q):
    """(p, k) with q = p**k for a prime p, or None when q is not a prime
    power (every q < 2 included)."""
    if q < 2:
        return None
    p, k = _smallest_prime_factor(q), 0
    while q % p == 0:
        q //= p
        k += 1
    return (p, k) if q == 1 else None


@lru_cache(maxsize=None)
def make_field(q):
    """Field context for GF(q), q a prime power up to 32.  Cached, so
    contexts compare by identity."""
    if q < 2 or q > MAX_ORDER:
        raise UnsupportedField("field order %d outside supported range 2..%d" % (q, MAX_ORDER))
    pk = prime_power(q)
    if pk is None:
        raise UnsupportedField("field order %d is not a prime power" % q)
    p, deg = pk
    if deg == 1:
        rows = (tuple(tuple((a + b) % p for b in range(p)) for a in range(p)),
                tuple(tuple((a * b) % p for b in range(p)) for a in range(p)))
    else:
        rows = _poly_field_tables(make_field(p), MODULUS_TABLE[q])
    return FieldCtx(q, p, deg, ("p", q), *rows)


_EXT_CACHE = {}


def make_extension(base, modulus):
    """GF(q^d) as a tower over base = GF(q), with xi a root of the given
    monic irreducible modulus (tuple over base, constant first, degree d >= 2).

    The encoding is sum b_i * q**i for the element sum b_i * xi**i, so base
    elements embed as themselves.
    """
    modulus = tuple(modulus)
    key = ("t", base.key, modulus)
    ctx = _EXT_CACHE.get(key)
    if ctx is not None:
        return ctx
    d = len(modulus) - 1
    if d < 2 or modulus[-1] != 1:
        raise ValueError("modulus must be monic of degree >= 2")
    if base.q ** d > MAX_ORDER:
        raise UnsupportedField(
            "extension GF(%d) exceeds supported order %d" % (base.q ** d, MAX_ORDER))
    if not poly_is_irreducible(base, modulus):
        raise ValueError("modulus is reducible over GF(%d)" % base.q)
    ctx = FieldCtx(base.q ** d, base.p, base.deg * d, key,
                   *_poly_field_tables(base, modulus), base=base)
    _EXT_CACHE[key] = ctx
    return ctx


# -- polynomial helpers (tuples over a ctx, constant term first) --------


def poly_trim(f):
    f = tuple(f)
    n = len(f)
    while n and f[n - 1] == 0:
        n -= 1
    return f[:n]


def poly_deg(f):
    return len(f) - 1  # zero polynomial gets -1


def poly_add(ctx, f, g):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] = ctx.add(out[i], c)
    return poly_trim(out)


def poly_neg(ctx, f):
    return tuple(ctx.neg(c) for c in f)


def poly_sub(ctx, f, g):
    return poly_add(ctx, f, poly_neg(ctx, g))


def poly_scale(ctx, c, f):
    if c == 0:
        return ()
    return poly_trim(ctx.mul(c, x) for x in f)


def poly_mul(ctx, f, g):
    if not f or not g:
        return ()
    addr, mulr = ctx.add_rows, ctx.mul_rows
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        ma = mulr[a]
        for j, b in enumerate(g, i):
            out[j] = addr[out[j]][ma[b]]
    return poly_trim(out)


def poly_divmod(ctx, f, g):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    addr, mulr = ctx.add_rows, ctx.mul_rows
    f = list(f)
    dg = len(g) - 1
    mlead = mulr[ctx.inv(g[-1])]
    quo = [0] * max(len(f) - dg, 0)
    for i in range(len(f) - dg - 1, -1, -1):
        c = mlead[f[i + dg]]
        if c == 0:
            continue
        quo[i] = c
        mc = mulr[ctx.neg_table[c]]
        for j, gc in enumerate(g, i):
            f[j] = addr[f[j]][mc[gc]]
    return poly_trim(quo), poly_trim(f)


def poly_mod(ctx, f, g):
    return poly_divmod(ctx, f, g)[1]


def poly_monic(ctx, f):
    if not f or f[-1] == 1:
        return poly_trim(f)
    return poly_scale(ctx, ctx.inv(f[-1]), f)


def poly_gcd(ctx, f, g):
    while g:
        f, g = g, poly_mod(ctx, f, g)
    return poly_monic(ctx, f)


def poly_pow_mod(ctx, f, k, m):
    r = poly_mod(ctx, (1,), m)
    f = poly_mod(ctx, f, m)
    while k:
        if k & 1:
            r = poly_mod(ctx, poly_mul(ctx, r, f), m)
        f = poly_mod(ctx, poly_mul(ctx, f, f), m)
        k >>= 1
    return r


def monic_polys(ctx, d):
    """All monic degree-d polynomials over ctx, in encoding order."""
    q = ctx.q
    for e in range(q ** d):
        coeffs = []
        for _ in range(d):
            coeffs.append(e % q)
            e //= q
        yield tuple(coeffs) + (1,)


def poly_is_irreducible(ctx, f):
    """Rabin's test (Rabin 1980).  f of degree d >= 2 is irreducible iff
    x^(q^d) = x mod f and gcd(f, x^(q^(d/r)) - x) = 1 for every prime r | d.

    The powers x^(q^k) mod f are built one Frobenius step at a time and the
    gcd checks run in increasing k, so a small factor ends the test early.
    """
    d = poly_deg(f)
    if d <= 0:
        return False
    if d == 1:
        return True
    x = (0, 1)
    checks = {d // r for r in range(2, d + 1)
              if d % r == 0 and _smallest_prime_factor(r) == r}
    frob = x
    for k in range(1, d + 1):
        frob = poly_pow_mod(ctx, frob, ctx.q, f)
        if k in checks and poly_gcd(ctx, f, poly_sub(ctx, frob, x)) != (1,):
            return False
    return frob == x


def irreducible_polys(ctx, d):
    """Monic irreducible degree-d polynomials over ctx, encoding order."""
    return [f for f in monic_polys(ctx, d) if poly_is_irreducible(ctx, f)]
