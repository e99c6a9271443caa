"""Dense matrices over the lookup-table fields of :mod:`invword.gf`.

Entries are field encodings (plain ints).  Rows are stored as tuples, so
matrices hash and compare by value; all binary operations require both
operands to share the same (cached) field context, and raise ValueError
on a field or shape mismatch.

The kernels work a row at a time through the field's row tables
(``ctx.add_rows``, ``ctx.mul_rows``): a product row is the sum of the
rows of the right factor scaled by the entries of the left one, and an
elimination step replaces a row by ``[addr[x][mf[y]] for x, y in
zip(row, pivot_row)]`` with ``mf = mul_rows[-f]``.  Results are built by
``_mat``, which takes a tuple of equal-length tuples as given; the public
``Mat(ctx, rows)`` converts its rows and checks their lengths and that
every entry is an encoding in range(q).
"""

import operator

from .gf import UnsupportedField, make_field, power, prime_power


class Mat:
    __slots__ = ("ctx", "rows", "n", "m")

    def __init__(self, ctx, rows):
        rows = tuple(map(tuple, rows))
        if rows:
            if set(map(len, rows)) != {len(rows[0])}:
                raise ValueError("ragged rows")
            entries = set().union(*rows)
            if entries and not (0 <= min(entries) and max(entries) < ctx.q):
                raise ValueError("matrix entry out of range for GF(%d)"
                                 % ctx.q)
        self.ctx = ctx
        self.rows = rows
        self.n = len(rows)
        self.m = len(rows[0]) if rows else 0

    # -- constructors ----------------------------------------------------

    @classmethod
    def identity(cls, ctx, n):
        return cls.diag(ctx, (1,) * n)

    @classmethod
    def zero(cls, ctx, n):
        return _mat(ctx, ((0,) * n,) * n)

    @classmethod
    def diag(cls, ctx, entries):
        entries = tuple(entries)
        n = len(entries)
        return _mat(ctx, tuple((0,) * i + (c,) + (0,) * (n - 1 - i)
                               for i, c in enumerate(entries)))

    @classmethod
    def scalar(cls, ctx, n, c):
        return cls.diag(ctx, (c,) * n)

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        if other.ctx is not self.ctx or (self.n, self.m) != (other.n, other.m):
            raise ValueError("cannot add %s and %s" % (_shape(self), _shape(other)))
        addr = self.ctx.add_rows
        return _mat(self.ctx, tuple(tuple([addr[x][y] for x, y in zip(ra, rb)])
                                    for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        neg = self.ctx.neg_table
        return _mat(self.ctx, tuple(tuple([neg[x] for x in r]) for r in self.rows))

    def __mul__(self, other):
        ctx = self.ctx
        if other.ctx is not ctx or self.m != other.n:
            raise ValueError("cannot multiply %s by %s" % (_shape(self), _shape(other)))
        addr, mulr = ctx.add_rows, ctx.mul_rows
        brows = other.rows
        out = []
        for ra in self.rows:
            # row i of the product: sum over k of a_ik times row k of other
            acc = None
            for a, rb in zip(ra, brows):
                if a:
                    ma = mulr[a]
                    if acc is None:
                        acc = rb if a == 1 else [ma[y] for y in rb]
                    else:
                        acc = [addr[x][ma[y]] for x, y in zip(acc, rb)]
            out.append((0,) * other.m if acc is None else tuple(acc))
        return _mat(ctx, tuple(out))

    def scale(self, c):
        mc = self.ctx.mul_rows[c]
        return _mat(self.ctx, tuple(tuple([mc[x] for x in r]) for r in self.rows))

    def __pow__(self, k):
        _require_square(self)
        return power(self if k >= 0 else self.inv(), abs(k),
                     Mat.identity(self.ctx, self.n), operator.mul)

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

    # -- elimination-based ops ----------------------------------------------

    def det(self):
        _require_square(self)
        ctx, n = self.ctx, self.n
        addr, mulr, neg, inv = ctx.add_rows, ctx.mul_rows, ctx.neg_table, ctx.inv_table
        a = list(self.rows)
        det = 1
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col]), None)
            if piv is None:
                return 0
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                det = neg[det]
            prow = a[col]
            p = prow[col]
            det = mulr[det][p]
            minv = mulr[neg[inv[p]]]
            for r in range(col + 1, n):
                f = a[r][col]
                if f:
                    mf = mulr[minv[f]]
                    a[r] = [addr[x][mf[y]] for x, y in zip(a[r], prow)]
        return det

    def inv(self):
        inverse, _ = self.inv_det()
        if inverse is None:
            raise ZeroDivisionError("singular matrix")
        return inverse

    def inv_det(self):
        """(inverse, determinant) from one Gauss-Jordan elimination; the
        inverse is None when the determinant is 0."""
        _require_square(self)
        ctx, n = self.ctx, self.n
        mulr, neg = ctx.mul_rows, ctx.neg_table
        one = (0,) * n + (1,) + (0,) * (n - 1)
        a = [row + one[n - i:2 * n - i] for i, row in enumerate(self.rows)]
        det = 1
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col]), None)
            if piv is None:
                return None, 0
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                det = neg[det]
            det = mulr[det][a[col][col]]
            _eliminate(ctx, a, col, col)
        return _mat(ctx, tuple(tuple(row[n:]) for row in a)), det

    def rank(self):
        return len(_row_echelon(self.ctx, list(self.rows))[0])

    # -- text form -------------------------------------------------------

    def to_text(self):
        return ";".join(",".join(str(x) for x in r) for r in self.rows)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return "Mat(%r, %s)" % (self.ctx, self.to_text())


def _mat(ctx, rows):
    """A Mat over ctx with rows taken as given: a tuple of equal-length
    tuples of field encodings."""
    m = object.__new__(Mat)
    m.ctx = ctx
    m.rows = rows
    m.n = len(rows)
    m.m = len(rows[0]) if rows else 0
    return m


def _shape(a):
    return "%dx%d over %r" % (a.n, a.m, a.ctx)


def _require_square(a):
    if a.n != a.m:
        raise ValueError("square matrix required, got %s" % _shape(a))


def _eliminate(ctx, a, r, c):
    """Scale row r of the row list a to a leading 1 in column c, then clear
    column c from every other row."""
    addr, mulr, neg = ctx.add_rows, ctx.mul_rows, ctx.neg_table
    prow = a[r]
    if prow[c] != 1:
        mi = mulr[ctx.inv_table[prow[c]]]
        prow = a[r] = [mi[x] for x in prow]
    for i, row in enumerate(a):
        f = row[c]
        if f and i != r:
            mf = mulr[neg[f]]
            a[i] = [addr[x][mf[y]] for x, y in zip(row, prow)]


def parse_mat(ctx, text):
    """Parse the compact row text form, e.g. '1,1;0,1' over GF(q)."""
    return Mat(ctx, [[int(x) for x in chunk.split(",")]
                     for chunk in text.strip().split(";")])


def _row_echelon(ctx, a):
    """Reduced row echelon form of the row list a, in place (rows are
    replaced, never mutated); returns (pivot column list, row list)."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        _eliminate(ctx, a, r, c)
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots, a


def nullspace(mat):
    """Basis of the right kernel {x : mat @ x = 0}, vectors as tuples."""
    neg = mat.ctx.neg_table
    pivots, a = _row_echelon(mat.ctx, list(mat.rows))
    basis = []
    free = [c for c in range(mat.m) if c not in pivots]
    for fc in free:
        v = [0] * mat.m
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = neg[a[r][fc]]
        basis.append(tuple(v))
    return basis


def pivot_columns(mat):
    """Indices of the columns of mat that are independent of the columns
    before them (the pivots of its row echelon form)."""
    return _row_echelon(mat.ctx, list(mat.rows))[0]


def direct_sum(a, b):
    if a.ctx is not b.ctx:
        raise ValueError("field mismatch: %r and %r" % (a.ctx, b.ctx))
    left, right = (0,) * a.m, (0,) * b.m
    return _mat(a.ctx, tuple(r + right for r in a.rows)
                + tuple(left + r for r in b.rows))


def pad(mat, n):
    """Embed a square block on the leading coordinates of I_n."""
    _require_square(mat)
    if mat.n > n:
        raise ValueError("a %dx%d block does not fit in %dx%d"
                         % (mat.n, mat.n, n, n))
    return direct_sum(mat, Mat.identity(mat.ctx, n - mat.n))


def sub_block(mat, emb):
    """The square block of mat on the coordinates emb (rows and columns)."""
    return Mat(mat.ctx, [[mat.rows[i][j] for j in emb] for i in emb])


def kron(a, b):
    if a.ctx is not b.ctx:
        raise ValueError("field mismatch: %r and %r" % (a.ctx, b.ctx))
    mulr = a.ctx.mul_rows
    return _mat(a.ctx, tuple(tuple([mx[y] for mx in map(mulr.__getitem__, ra) for y in rb])
                             for ra in a.rows for rb in b.rows))


def transvection(ctx, n, i, j, c=1):
    """I + c E_ij with i != j; determinant 1 for every c."""
    if i == j:
        raise ValueError("a transvection needs i != j, got %d" % i)
    rows = [[1 if r == s else 0 for s in range(n)] for r in range(n)]
    rows[i][j] = c
    return Mat(ctx, rows)


def commutator(g, h):
    """g^{-1}h^{-1}gh = g^{-1} * (h^{-1} g h): a product of one conjugate of
    g^{-1} and one of g.  Matrices and permutations alike."""
    return g.inv() * h.inv() * g * h


class GroupSpec:
    """Ambient group of an element: (family, degree/dimension, field order).

    The family answers three questions, read off FAMILIES: perm (elements
    are permutations, else matrices), special (determinant 1, or even
    parity) and projective (taken modulo scalars)."""

    FAMILIES = {"GL": (False, False, False), "SL": (False, True, False),
                "PGL": (False, False, True), "PSL": (False, True, True),
                "Sym": (True, False, False), "Alt": (True, True, False)}

    def __init__(self, family, n, q=None):
        if not isinstance(family, str) or family not in self.FAMILIES:
            raise ValueError("unknown family %r" % (family,))
        self.perm, self.special, self.projective = self.FAMILIES[family]
        if self.perm and q is not None:
            raise ValueError("%s takes no field order" % family)
        if not self.perm and q is None:
            raise ValueError("%s needs a field order q" % family)
        if type(n) is not int or not (q is None or type(q) is int):
            raise ValueError("n and q must be ints, not %r and %r" % (n, q))
        if n < 1:
            raise ValueError("n must be at least 1, not %d" % n)
        if q is not None and prime_power(q) is None:
            raise UnsupportedField("field order %d is not a prime power" % q)
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
    in_group = det == 1 or not spec.special
    eye = Mat.identity(g.ctx, g.n)
    sq = g * g
    central = g.is_scalar()
    involution = sq == eye and g != eye
    proj = _is_pm_identity(sq) and not central
    return Classification(in_group, central, involution, proj)


def is_projective_involution(g):
    """classify(g, spec).projective_involution for an invertible g, without
    the determinant: g^2 in {I, -I} and g not scalar."""
    return not g.is_scalar() and _is_pm_identity(g * g)


def _is_pm_identity(m):
    return m.is_scalar() and m.rows[0][0] in (1, m.ctx.neg(1))


def mat_over(q, text):
    """Shorthand: parse a matrix text over GF(q)."""
    return parse_mat(make_field(q), text)

