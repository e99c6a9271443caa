"""Dense matrices over the lookup-table fields of :mod:`invword.gf`.

Entries are field encodings (plain ints).  Rows are stored as tuples, so
matrices hash and compare by value; all binary operations require both
operands to share the same (cached) field context.
"""

from .gf import make_field


class Mat:
    __slots__ = ("ctx", "rows", "n", "m")

    def __init__(self, ctx, rows):
        rows = tuple(tuple(r) for r in rows)
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise ValueError("ragged rows")
        self.ctx = ctx
        self.rows = rows
        self.n = len(rows)
        self.m = len(rows[0]) if rows else 0

    # -- constructors ----------------------------------------------------

    @classmethod
    def identity(cls, ctx, n):
        return cls(ctx, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zero(cls, ctx, n, m=None):
        m = n if m is None else m
        return cls(ctx, ((0,) * m,) * n)

    @classmethod
    def diag(cls, ctx, entries):
        entries = tuple(entries)
        n = len(entries)
        return cls(ctx, tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def scalar(cls, ctx, n, c):
        return cls.diag(ctx, (c,) * n)

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        assert self.ctx is other.ctx and self.n == other.n and self.m == other.m
        add = self.ctx.add_table
        q = self.ctx.q
        return Mat(self.ctx, tuple(tuple(add[a * q + b] for a, b in zip(ra, rb))
                                   for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        neg = self.ctx.neg_table
        return Mat(self.ctx, tuple(tuple(neg[a] for a in r) for r in self.rows))

    def __mul__(self, other):
        assert self.ctx is other.ctx and self.m == other.n
        q = self.ctx.q
        add = self.ctx.add_table
        mul = self.ctx.mul_table
        bt = other.transpose().rows
        out = []
        for ra in self.rows:
            row = []
            for cb in bt:
                s = 0
                for a, b in zip(ra, cb):
                    if a and b:
                        s = add[s * q + mul[a * q + b]]
                row.append(s)
            out.append(tuple(row))
        return Mat(self.ctx, tuple(out))

    def scale(self, c):
        q = self.ctx.q
        mul = self.ctx.mul_table
        return Mat(self.ctx, tuple(tuple(mul[c * q + a] for a in r) for r in self.rows))

    def __pow__(self, k):
        assert self.n == self.m
        base = self if k >= 0 else self.inv()
        k = abs(k)
        out = Mat.identity(self.ctx, self.n)
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        return isinstance(other, Mat) and self.ctx is other.ctx and self.rows == other.rows

    def __hash__(self):
        return hash((self.ctx.key, self.rows))

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    # -- structure tests ---------------------------------------------------

    def is_identity(self):
        return self == Mat.identity(self.ctx, self.n)

    def is_scalar(self):
        if self.n != self.m or self.n == 0:
            return False
        c = self.rows[0][0]
        return all(self.rows[i][j] == (c if i == j else 0)
                   for i in range(self.n) for j in range(self.n))

    def transpose(self):
        return Mat(self.ctx, tuple(zip(*self.rows))) if self.rows else self

    # -- elimination-based ops ----------------------------------------------

    def det(self):
        assert self.n == self.m
        ctx = self.ctx
        a = [list(r) for r in self.rows]
        n = self.n
        det = 1
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col]), None)
            if piv is None:
                return 0
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                det = ctx.neg(det)
            det = ctx.mul(det, a[col][col])
            inv_p = ctx.inv(a[col][col])
            for r in range(col + 1, n):
                f = ctx.mul(a[r][col], inv_p)
                if f:
                    for c in range(col, n):
                        a[r][c] = ctx.sub(a[r][c], ctx.mul(f, a[col][c]))
        return det

    def inv(self):
        assert self.n == self.m
        ctx, n = self.ctx, self.n
        a = [list(self.rows[i]) + [1 if i == j else 0 for j in range(n)] for i in range(n)]
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col]), None)
            if piv is None:
                raise ZeroDivisionError("singular matrix")
            a[col], a[piv] = a[piv], a[col]
            inv_p = ctx.inv(a[col][col])
            a[col] = [ctx.mul(inv_p, x) for x in a[col]]
            for r in range(n):
                if r != col and a[r][col]:
                    f = a[r][col]
                    a[r] = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(a[r], a[col])]
        return Mat(ctx, tuple(tuple(row[n:]) for row in a))

    def rank(self):
        return len(_row_echelon(self.ctx, [list(r) for r in self.rows])[0])

    # -- text form -------------------------------------------------------

    def to_text(self):
        return ";".join(",".join(str(x) for x in r) for r in self.rows)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return "Mat(%r, %s)" % (self.ctx, self.to_text())


def parse_mat(ctx, text):
    """Parse the compact row text form, e.g. '1,1;0,1' over GF(q)."""
    rows = []
    for chunk in text.strip().split(";"):
        row = [int(x) for x in chunk.split(",")]
        if any(not 0 <= x < ctx.q for x in row):
            raise ValueError("entry out of range for GF(%d): %s" % (ctx.q, chunk))
        rows.append(row)
    return Mat(ctx, rows)


def _row_echelon(ctx, a):
    # In-place echelon; returns (pivot column list, row list).
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv_p = ctx.inv(a[r][c])
        a[r] = [ctx.mul(inv_p, x) for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots, a


def nullspace(mat):
    """Basis of the right kernel {x : mat @ x = 0}, vectors as tuples."""
    ctx = mat.ctx
    pivots, a = _row_echelon(ctx, [list(r) for r in mat.rows])
    basis = []
    free = [c for c in range(mat.m) if c not in pivots]
    for fc in free:
        v = [0] * mat.m
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = ctx.neg(a[r][fc])
        basis.append(tuple(v))
    return basis


def solve(mat, b):
    """One solution x of mat @ x = b, or None.  b is a sequence."""
    ctx = mat.ctx
    aug = [list(r) + [bv] for r, bv in zip(mat.rows, b)]
    pivots, a = _row_echelon(ctx, aug)
    if mat.m in pivots:
        return None  # pivot in the constant column: inconsistent
    x = [0] * mat.m
    for r, pc in enumerate(pivots):
        x[pc] = a[r][mat.m]
    return tuple(x)


def direct_sum(a, b):
    assert a.ctx is b.ctx
    n = a.n + b.n
    rows = [tuple(r) + (0,) * b.m for r in a.rows]
    rows += [(0,) * a.m + tuple(r) for r in b.rows]
    return Mat(a.ctx, rows)


def pad(mat, n, offset=0):
    """Embed a square block at diagonal position offset inside I_n."""
    assert mat.n == mat.m and offset + mat.n <= n
    out = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(mat.n):
        for j in range(mat.n):
            out[offset + i][offset + j] = mat.rows[i][j]
    return Mat(mat.ctx, out)


def kron(a, b):
    assert a.ctx is b.ctx
    mul = a.ctx.mul
    rows = []
    for ra in a.rows:
        for rb in b.rows:
            rows.append(tuple(mul(x, y) for x in ra for y in rb))
    return Mat(a.ctx, rows)


def transvection(ctx, n, i, j, c=1):
    """I + c E_ij with i != j; determinant 1 for every c."""
    assert i != j
    rows = [[1 if r == s else 0 for s in range(n)] for r in range(n)]
    rows[i][j] = c
    return Mat(ctx, rows)


def commutator(g, h):
    """g^{-1}h^{-1}gh = g^{-1} * (h^{-1} g h): a product of one conjugate of
    g^{-1} and one of g."""
    return g.inv() * h.inv() * g * h


class GroupSpec:
    """Ambient group of an element: (family, degree/dimension, field order)."""

    FAMILIES = ("GL", "SL", "PGL", "PSL", "Sym", "Alt")

    def __init__(self, family, n, q=None):
        if family not in self.FAMILIES:
            raise ValueError("unknown family %r" % family)
        if family in ("Sym", "Alt"):
            assert q is None
        else:
            assert q is not None
        self.family = family
        self.n = n
        self.q = q

    def __eq__(self, other):
        return (isinstance(other, GroupSpec)
                and (self.family, self.n, self.q) == (other.family, other.n, other.q))

    def __hash__(self):
        return hash((self.family, self.n, self.q))

    def __repr__(self):
        if self.q is None:
            return "%s(%d)" % (self.family, self.n)
        return "%s(%d,%d)" % (self.family, self.n, self.q)


class Classification:
    __slots__ = ("in_group", "central", "involution", "projective_involution")

    def __init__(self, in_group, central, involution, projective_involution):
        self.in_group = in_group
        self.central = central
        self.involution = involution
        self.projective_involution = projective_involution

    def __repr__(self):
        flags = [s for s in self.__slots__ if getattr(self, s)]
        return "Classification(%s)" % ", ".join(flags)


def classify(g, spec):
    """Group-theoretic predicates for an invertible matrix.

    central tests scalarity; projective_involution means g^2 in {I, -I}
    with g itself non-scalar, i.e. an involution modulo the center.
    """
    det = g.det()
    if det == 0:
        raise ValueError("singular matrix")
    in_group = det == 1 if spec.family in ("SL", "PSL") else True
    eye = Mat.identity(g.ctx, g.n)
    sq = g * g
    central = g.is_scalar()
    involution = sq == eye and g != eye
    proj = (sq == eye or sq == eye.scale(g.ctx.neg(1))) and not central
    return Classification(in_group, central, involution, proj)


def mat_over(q, text):
    """Shorthand: parse a matrix text over GF(q)."""
    return parse_mat(make_field(q), text)


def transvection_h(ctx, x, n=2):
    """The standard upper transvection h(x) = I + x E_{1,2}, n x n."""
    return transvection(ctx, n, 0, 1, x)
