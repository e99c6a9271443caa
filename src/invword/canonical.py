"""Characteristic polynomials, factorization, and generalized Jordan form.

generalized_jordan finds the base change u to the canonical form J of an
invertible g in one of two ways:

* g cyclic (minimal polynomial = characteristic polynomial, so J has one
  block per irreducible factor) with a cyclic unit vector: u = K_J K_g^-1
  for the Krylov matrices K = [v, gv, ..., g^(n-1) v] of a cyclic vector
  of each side, about 2n matrix-vector products and two eliminations.
  g's vector is its first cyclic unit vector; J's is read off its block
  layout;
* any other g (derogatory, or no unit vector is cyclic): solve_similarity
  takes seeded random combinations of the solutions of an n^2-unknown
  linear system until one is invertible.

The rank filtration of f(g)^j gives the blocks either way; one rank
decides whether a factor has a single block.

Conventions (frozen; the constructor depends on them):

* companion(f) has 1s on the subdiagonal and last column (-c_0,...,-c_{d-1}).
* The generalized Jordan block for (f, m) is kron(I_m + N_m, C(f)): diagonal
  blocks C(f) with C(f) itself as the superdiagonal coupling.  For deg f = 1
  this is exactly lambda(I + N), and in general it is the image of
  xi(I_m + N_m) over GF(q^deg f) under the regular embedding.
* Blocks are ordered by factor (degree, then coefficient encoding), and by
  decreasing multiplicity within a factor.
"""

import random
from functools import lru_cache

from .gf import (
    irreducible_polys,
    poly_deg,
    poly_divmod,
    poly_gcd,
    poly_mod,
    poly_mul,
    poly_pow_mod,
    poly_scale,
    poly_sub,
    poly_trim,
)
from .matrix import Mat, direct_sum, kron, nullspace, sub_block

# factorizations held by factor_charpoly; sl-classes seed 1 meets 158
# distinct characteristic polynomials in 611 calls
_FACTORIZATIONS_HELD = 1024


def companion(ctx, f):
    """Companion matrix of a monic polynomial, subdiagonal-1 convention.
    ValueError for a constant or non-monic f."""
    d = poly_deg(f)
    if d < 1 or f[-1] != 1:
        raise ValueError("companion needs a monic polynomial of degree "
                         ">= 1, not %r" % (f,))
    rows = [[0] * d for _ in range(d)]
    for i in range(1, d):
        rows[i][i - 1] = 1
    for i in range(d):
        rows[i][d - 1] = ctx.neg(f[i])
    return Mat(ctx, rows)


def gen_jordan_block(ctx, f, m):
    c = companion(ctx, f)
    if m == 1:
        return c
    coupling = [[1 if j - i in (0, 1) else 0 for j in range(m)] for i in range(m)]
    return kron(Mat(ctx, coupling), c)


def blocks_matrix(ctx, blocks):
    """Assemble the canonical matrix from a block list [(f, m), ...]."""
    out = None
    for f, m in blocks:
        b = gen_jordan_block(ctx, f, m)
        out = b if out is None else direct_sum(out, b)
    return out


def charpoly(g):
    """det(xI - g), monic, constant term first, in O(n^3) field operations.

    g is first reduced by similarity to upper Hessenberg form (elimination
    with pivoting, valid over any field); the characteristic polynomial of
    a Hessenberg matrix then follows from the column recurrence of Cohen,
    GTM 138, Algorithm 2.2.9.  ValueError for a non-square g."""
    ctx, n = g.ctx, g.n
    if n != g.m:
        raise ValueError("charpoly needs a square matrix, not %dx%d"
                         % (n, g.m))
    h = [list(r) for r in g.rows]
    for j in range(n - 2):
        k = j + 1
        piv = next((i for i in range(k, n) if h[i][j]), None)
        if piv is None:
            continue
        if piv != k:
            h[piv], h[k] = h[k], h[piv]
            for row in h:
                row[piv], row[k] = row[k], row[piv]
        inv_p = ctx.inv(h[k][j])
        for i in range(k + 1, n):
            u = ctx.mul(h[i][j], inv_p)
            if not u:
                continue
            # row i -= u * row k, then column k += u * column i: a similarity
            h[i] = [ctx.sub(a, ctx.mul(u, b)) for a, b in zip(h[i], h[k])]
            for row in h:
                row[k] = ctx.add(row[k], ctx.mul(u, row[i]))
    # polys[m] is the characteristic polynomial of the leading m x m block
    polys = [(1,)]
    for m in range(n):
        p = poly_mul(ctx, (ctx.neg(h[m][m]), 1), polys[m])
        t = 1
        for i in range(m - 1, -1, -1):
            t = ctx.mul(t, h[i + 1][i])
            if not t:
                break
            p = poly_sub(ctx, p, poly_scale(ctx, ctx.mul(t, h[i][m]), polys[i]))
        polys.append(p)
    return polys[n]


_IRR_CACHE = {}


def _irreducibles(ctx, d):
    key = (ctx.key, d)
    if key not in _IRR_CACHE:
        _IRR_CACHE[key] = irreducible_polys(ctx, d)
    return _IRR_CACHE[key]


def _split_equal_degree(ctx, h, d):
    """Irreducible factors of h, a monic squarefree product of distinct
    irreducibles of degree d, by Berlekamp's algorithm (Berlekamp 1970).

    The polynomials v of degree < deg h with v^q = v mod h form the fixed
    space of the Frobenius matrix Q; gcd(u, v - s) over s in GF(q) splits
    every factor u of h that v does not take to a constant."""
    n = poly_deg(h)
    if n == d:
        return [h]
    q = ctx.q
    xq = poly_pow_mod(ctx, (0, 1), q, h)
    qrows, r = [], (1,)
    for _ in range(n):  # row i of Q holds x^(iq) mod h
        qrows.append(r + (0,) * (n - len(r)))
        r = poly_mod(ctx, poly_mul(ctx, r, xq), h)
    # v Q = v  <=>  (Q - I)^T v = 0
    fixed = Mat(ctx, [[ctx.sub(qrows[i][j], 1 if i == j else 0)
                       for i in range(n)] for j in range(n)])
    factors = [h]
    for v in nullspace(fixed):
        v = poly_trim(v)
        if poly_deg(v) < 1:
            continue
        split = []
        for u in factors:
            if poly_deg(u) == d:
                split.append(u)
                continue
            for s in range(q):
                c = poly_gcd(ctx, u, poly_sub(ctx, v, (s,)))
                if poly_deg(c) > 0:
                    split.append(c)
        factors = split
        if len(factors) * d == n:
            break
    return factors


def factor_charpoly(g):
    """Monic irreducible factors of charpoly(g) with multiplicities, ordered
    by degree then coefficient encoding, as a fresh list.

    Distinct-degree factorization: once every factor of degree below d has
    been divided out of rem, gcd(rem, x^(q^d) - x) is the product of the
    distinct degree-d factors, already squarefree.  Berlekamp splits it
    when it holds more than one, and repeated exact division gives each
    multiplicity.  When deg rem < 2d, rem itself is irreducible.  Each
    (field, polynomial) is factored once and held in a memo of at most
    _FACTORIZATIONS_HELD entries.  ValueError for a non-square g."""
    return list(_factorization(g.ctx, charpoly(g)))


@lru_cache(maxsize=_FACTORIZATIONS_HELD)
def _factorization(ctx, rem):
    """factor_charpoly's factors of the monic polynomial rem, as a tuple."""
    x = (0, 1)
    frob = x  # x^(q^d) mod rem
    out = []
    d = 0
    while poly_deg(rem) > 0:
        d += 1
        if poly_deg(rem) < 2 * d:
            out.append((rem, 1))
            break
        frob = poly_pow_mod(ctx, frob, ctx.q, rem)
        h = poly_gcd(ctx, rem, poly_sub(ctx, frob, x))
        if poly_deg(h) == 0:
            continue
        for f in _split_equal_degree(ctx, h, d):
            mult = 0
            while True:
                quo, r = poly_divmod(ctx, rem, f)
                if r:
                    break
                rem, mult = quo, mult + 1
            out.append((f, mult))
    out.sort(key=lambda fm: (len(fm[0]), fm[0][::-1]))
    return tuple(out)


def mat_poly_eval(g, f):
    acc = Mat.zero(g.ctx, g.n)
    for c in reversed(f):
        acc = acc * g + Mat.scalar(g.ctx, g.n, c)
    return acc


def _jordan_partition(g, f, e):
    # Multiplicities of the (f, *) blocks from the rank filtration of f(g)^j.
    if e == 1:
        return [1]
    d = poly_deg(f)
    fg = mat_poly_eval(g, f)
    ranks = [g.n, fg.rank()]
    if ranks[1] == g.n - d:  # ker f(g) has dimension d: a single block
        return [e]
    power = fg
    while ranks[-1] != ranks[-2]:
        power = power * fg
        ranks.append(power.rank())
    ge = [(ranks[j - 1] - ranks[j]) // d for j in range(1, len(ranks))]
    parts = []
    for j, cnt in enumerate(ge):
        exactly = cnt - (ge[j + 1] if j + 1 < len(ge) else 0)
        parts.extend([j + 1] * exactly)
    parts.sort(reverse=True)
    if sum(parts) != e:
        raise RuntimeError("rank filtration gives blocks %r of total size "
                           "%d, not the multiplicity %d"
                           % (parts, sum(parts), e))
    return parts


class CanonicalForm:
    """Generalized Jordan data: u g u^{-1} = blocks_matrix(blocks)."""

    def __init__(self, u, blocks, canonical):
        self.u = u
        self.blocks = blocks
        self.canonical = canonical

    def __repr__(self):
        return "CanonicalForm(blocks=%r)" % (self.blocks,)


def solve_similarity(g, j):
    """An invertible u with u g u^{-1} = j, or None if none is found.

    Solves the linear system X g = j X and tries up to 2000 seeded random
    combinations of its solution basis; a g not similar to j gives None.
    generalized_jordan calls it only for a g that is derogatory or has no
    cyclic unit vector.
    """
    ctx, n = g.ctx, g.n
    nsq = n * n
    rows = []
    for i in range(n):
        for jj in range(n):
            row = [0] * nsq
            for k in range(n):
                row[i * n + k] = ctx.add(row[i * n + k], g.rows[k][jj])
                row[k * n + jj] = ctx.sub(row[k * n + jj], j.rows[i][k])
            rows.append(row)
    mats = [Mat(ctx, [v[i * n:(i + 1) * n] for i in range(n)])
            for v in nullspace(Mat(ctx, rows))]
    if not mats:  # X = 0 is the only solution
        return None
    rng = random.Random(0x5EED ^ n ^ ctx.q)
    for _ in range(2000):
        cand = Mat.zero(ctx, n)
        for m in mats:
            c = rng.randrange(ctx.q)
            if c:
                cand = cand + m.scale(c)
        if cand.det():
            return cand
    return None


def _krylov(g, v):
    """The matrix [v, gv, ..., g^(n-1) v], column by column."""
    addr, mulr = g.ctx.add_rows, g.ctx.mul_rows
    cols = [v]
    for _ in range(g.n - 1):
        out = []
        for row in g.rows:
            s = 0
            for a, x in zip(row, v):
                if a and x:
                    s = addr[s][mulr[a][x]]
            out.append(s)
        v = tuple(out)
        cols.append(v)
    return Mat(g.ctx, list(zip(*cols)))


def _krylov_inverse(g):
    """K_g^-1 for the first unit vector whose Krylov matrix K_g is
    invertible (one elimination tests it and inverts it), or None if no
    unit vector is cyclic."""
    n = g.n
    for i in range(n):
        kinv, _ = _krylov(g, (0,) * i + (1,) + (0,) * (n - 1 - i)).inv_det()
        if kinv is not None:
            return kinv
    return None


def _layout_vector(blocks, n):
    """A cyclic vector of the canonical matrix of a block list with one
    block per factor: 1 at the first coordinate of each block's last
    C(f) copy."""
    w = [0] * n
    at = 0
    for f, m in blocks:
        d = poly_deg(f)
        w[at + d * (m - 1)] = 1
        at += d * m
    return tuple(w)


def generalized_jordan(g):
    """Canonical form of an invertible matrix, with a replayable base change.

    The rank filtration (_jordan_partition) gives the blocks; it stops
    after one rank when a factor has a single block.  A cyclic g has one
    block (f, e) per factor f^e of its characteristic polynomial.  When
    it also has a cyclic unit vector, u = K_J K_g^-1, with K_g that
    vector's Krylov matrix (_krylov_inverse) and K_J that of
    _layout_vector's cyclic vector of J: both conjugate their side to the
    companion matrix of that polynomial.  Any other g takes
    solve_similarity for u, and a g that is already its canonical form
    gets u = I.  ValueError for a singular or non-square g; RuntimeError
    if the base change found does not conjugate g to the block matrix."""
    ctx, n = g.ctx, g.n
    factors = factor_charpoly(g)
    if any(f == (0, 1) for f, _ in factors):
        raise ValueError("generalized_jordan needs an invertible matrix")
    blocks = [(f, m) for f, e in factors for m in _jordan_partition(g, f, e)]
    jmat = blocks_matrix(ctx, blocks)
    if jmat == g:
        u = Mat.identity(ctx, n)
    elif len(blocks) == len(factors) and \
            (kinv := _krylov_inverse(g)) is not None:
        kj = _krylov(jmat, _layout_vector(blocks, n))
        # u is invertible iff K_J is
        u = kj * kinv if kj.det() else None
    else:
        u = solve_similarity(g, jmat)
        if u is None:
            raise RuntimeError("block data must describe a similar matrix")
    # u is invertible, so u g = jmat u is u g u^-1 = jmat
    if u is None or u * g != jmat * u:
        raise RuntimeError("base change does not conjugate g to its "
                           "canonical form")
    return CanonicalForm(u, blocks, jmat)


def split_decomposable(cf, g):
    """Split a decomposable canonical form into two diagonal parts.

    Returns (g1, g2, (emb1, emb2)) where emb_i are index tuples into the
    Jordan coordinates; g1 (+) g2 read off those positions.  When both sides
    of the natural split are scalar (lambda I (+) mu I), the sides are
    re-split as (lambda I, mu) (+) (lambda, mu I) so each part is non-scalar.
    On an indecomposable input, returns None.
    """
    if len(cf.blocks) < 2:
        return None
    sizes = [poly_deg(f) * m for f, m in cf.blocks]
    first_f = cf.blocks[0][0]
    cut_blocks = 1
    if any(f != first_f for f, _ in cf.blocks):
        while cut_blocks < len(cf.blocks) and cf.blocks[cut_blocks][0] == first_f:
            cut_blocks += 1
    n1 = sum(sizes[:cut_blocks])
    n = cf.canonical.n
    emb1 = tuple(range(n1))
    emb2 = tuple(range(n1, n))
    g1, g2 = sub_block(cf.canonical, emb1), sub_block(cf.canonical, emb2)
    if g1.is_scalar() and g2.is_scalar():
        # both sides scalar: lambda I_{n1} (+) mu I_{n2}; trade one coordinate
        # so that at least one side becomes non-scalar (needs a side of dim 2+)
        if n1 >= 2:
            emb1 = tuple(range(n1 - 1)) + (n1,)
            emb2 = (n1 - 1,) + tuple(range(n1 + 1, n))
        elif n - n1 >= 2:
            emb1 = (0, 1)
            emb2 = tuple(range(2, n))
        g1, g2 = sub_block(cf.canonical, emb1), sub_block(cf.canonical, emb2)
    return g1, g2, (emb1, emb2)


def _partitions(e):
    def rec(rest, mx):
        if rest == 0:
            yield []
            return
        for p in range(min(rest, mx), 0, -1):
            for tail in rec(rest - p, p):
                yield [p] + tail
    return rec(e, e)


def class_transversal(ctx, n):
    """Representatives covering every non-central conjugacy class of
    SL_n(q).

    Enumerates determinant-1 canonical forms J and, for each, the twists
    D J D^{-1} with D = diag(nu^i, 1, ..., 1): these cover all SL-classes
    inside each GL-class (possibly with repeats, which are harmless for
    sweep-style consumers).  Yields (rep, blocks) pairs.
    """
    polys = []
    for d in range(1, n + 1):
        for f in _irreducibles(ctx, d):
            if f[0] != 0:  # invertible companion only
                polys.append(f)
    forms = []

    def rec(idx, remaining, acc):
        if remaining == 0:
            forms.append(list(acc))
            return
        for i in range(idx, len(polys)):
            f = polys[i]
            d = poly_deg(f)
            if d > remaining:
                continue
            for e in range(1, remaining // d + 1):
                for part in _partitions(e):
                    rec(i + 1, remaining - e * d,
                        acc + [(f, m) for m in part])

    rec(0, n, [])
    nu = ctx.generator()
    out = []
    for blocks in forms:
        det = 1
        for f, m in blocks:
            dcf = f[0] if poly_deg(f) % 2 == 0 else ctx.neg(f[0])
            det = ctx.mul(det, ctx.pow(dcf, m))
        if det != 1:
            continue
        jmat = blocks_matrix(ctx, blocks)
        if jmat.is_scalar():
            continue
        for i in range(ctx.q - 1):
            d = Mat.diag(ctx, (ctx.pow(nu, i),) + (1,) * (n - 1))
            out.append((d * jmat * d.inv(), blocks))
    return out
