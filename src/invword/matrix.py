"""Dense matrices over the lookup-table fields of :mod:`invword.gf`.

Entries are field encodings (plain ints).  Rows are stored as tuples, so
matrices hash and compare by value; all binary operations require both
operands to share the same (cached) field context, and raise ValueError
on a field or shape mismatch.

The kernels work a row at a time through the field's row tables
(``ctx.add_rows``, ``ctx.mul_rows``): a product row is the sum of the
rows of the right factor scaled by the entries of the left one, and an
elimination step replaces a row by ``[addr[x][mf[y]] for x, y in
zip(row, pivot_row)]`` with ``mf = mul_rows[-f]``.  A right factor of one
or two columns (and more than two rows) is multiplied by dot products
instead, one per entry.  Results are built by ``_mat``, which takes a
tuple of equal-length tuples as given; the public ``Mat(ctx, rows)``
converts its rows and checks their lengths and that every entry is an
encoding in range(q).

A square matrix keeps one forward elimination (``_forward``), made by the
first ``det``, ``inv`` or solve: ``det`` reads it, ``solve_cols`` and
``solve_rows`` give a^-1 b and r a^-1 from it in O(n^2) per column or
row, and ``inv`` finishes its backward half only when a whole inverse is
asked for, so forward and backward together cost one Gauss-Jordan
elimination.
"""

import operator

from .gf import UnsupportedField, make_field, power, prime_power


class Mat:
    # _lu holds the forward elimination of the first det, inv or solve,
    # _inv the inverse from the first inv
    __slots__ = ("ctx", "rows", "n", "m", "_lu", "_inv")

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
        self._lu = self._inv = None

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
        if other.m <= 2 < other.n:
            # one or two columns: a dot product per entry
            cols = tuple(zip(*brows))
            out = []
            for ra in self.rows:
                row = []
                for col in cols:
                    acc = 0
                    for x, y in zip(ra, col):
                        acc = addr[acc][mulr[x][y]]
                    row.append(acc)
                out.append(tuple(row))
            return _mat(ctx, tuple(out))
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
        return (self._lu or self._forward())[0]

    def inv(self):
        """The inverse, kept on the matrix, whose rows never change, so
        later calls return it.  It finishes the kept forward elimination
        (_backward), so the two halves together cost about one Gauss-Jordan
        elimination.  Nothing is kept on the inverse: it holds no reference
        back to this matrix.  ZeroDivisionError for a singular matrix."""
        if self._inv is None:
            self._inv = _backward(self.ctx, *self._factors())
        return self._inv

    def solve_cols(self, b):
        """self^-1 b for an n x k matrix b, by one forward and one backward
        substitution per column through the kept forward elimination:
        O(n^2 k), and no inverse is formed."""
        if b.ctx is not self.ctx or b.n != self.n:
            raise ValueError("cannot solve %s for %s" % (_shape(self), _shape(b)))
        lu = self._factors()
        return _mat(self.ctx, tuple(zip(*[_solve_col(self.ctx, lu, c)
                                          for c in zip(*b.rows)]))
                    or ((),) * b.n)

    def solve_rows(self, r):
        """r self^-1 for a k x n matrix r, by one substitution through U and
        one through L per row of r: O(n^2 k), and no inverse is formed."""
        if r.ctx is not self.ctx or r.m != self.n:
            raise ValueError("cannot solve %s for %s" % (_shape(self), _shape(r)))
        lu = self._factors()
        return _mat(self.ctx, tuple(_solve_row(self.ctx, lu, row)
                                    for row in r.rows))

    def _factors(self):
        """(perm, rows) of the forward elimination of a matrix that is
        invertible; ZeroDivisionError for a singular one."""
        det, perm, rows = self._lu or self._forward()
        if det == 0:
            raise ZeroDivisionError("singular matrix")
        return perm, rows

    def _forward(self):
        """The forward half of a Gauss-Jordan elimination of [a | I] with row
        pivoting, kept on the matrix: (det, perm, rows) with E a = U for E =
        L^-1 P, U upper triangular, L unit lower triangular and P the row
        permutation, row i of P a being row perm[i] of a.  rows[i] holds row
        i of U from column i on (its pivot first), then the i entries of row
        i of L^-1 before the diagonal.  The identity half is kept in the
        pivots' order, where L^-1 is lower triangular, so every row keeps n
        entries: a step drops the pivot column and appends the new
        multiplier, and the whole elimination costs about n^3 / 2 row-table
        lookups against the 2 n^3 of Gauss-Jordan.  perm and rows are None
        when det is 0."""
        if self._lu is None:
            _require_square(self)
            ctx, n = self.ctx, self.n
            addr, mulr, neg, inv = (ctx.add_rows, ctx.mul_rows,
                                    ctx.neg_table, ctx.inv_table)
            a = list(self.rows)
            perm = list(range(n))
            det = 1
            for col in range(n):
                piv = col
                while not a[piv][0]:
                    piv += 1
                    if piv == n:
                        self._lu = (0, None, None)
                        return self._lu
                if piv != col:
                    a[col], a[piv] = a[piv], a[col]
                    perm[col], perm[piv] = perm[piv], perm[col]
                    det = neg[det]
                prow = a[col]
                det = mulr[det][prow[0]]
                minv = mulr[neg[inv[prow[0]]]]
                tail = prow[1:]
                for r in range(col + 1, n):
                    row = a[r]
                    f = minv[row[0]]
                    if f:
                        mf = mulr[f]
                        row = [addr[x][mf[y]] for x, y in zip(row[1:], tail)]
                    else:
                        row = list(row[1:])
                    row.append(f)
                    a[r] = row
            self._lu = (det, perm, a)
        return self._lu

    def rank(self):
        return len(_row_echelon(self.ctx, list(self.rows))[0])

    def transpose(self):
        return _mat(self.ctx, tuple(zip(*self.rows)))

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
    m._lu = m._inv = None
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


def _backward(ctx, perm, rows):
    """The inverse U^-1 L^-1 P from a kept forward elimination (perm, rows).
    From the last row up, row i of U^-1 L^-1 P is row i of L^-1 P less the
    rows below scaled by U's row, over U's pivot; row i of L^-1 P holds the
    stored entries of L^-1 and 1 on the diagonal, at the columns perm.  Its
    n (n - 1) / 2 row updates finish the n (n - 1) / 2 of the forward half:
    together as many as one Gauss-Jordan elimination makes, on rows of n
    entries in place of 2 n."""
    addr, mulr, neg, inv = ctx.add_rows, ctx.mul_rows, ctx.neg_table, ctx.inv_table
    n = len(perm)
    out = [None] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        scale = mulr[inv[row[0]]]
        acc = [0] * n
        for p, f in zip(perm, row[n - i:]):
            acc[p] = scale[f]
        acc[perm[i]] = scale[1]
        for c, y in zip(row[1:n - i], out[i + 1:]):
            if c:
                mc = mulr[neg[scale[c]]]
                acc = [addr[x][mc[z]] for x, z in zip(acc, y)]
        out[i] = acc
    return _mat(ctx, tuple(map(tuple, out)))


def _solve_col(ctx, lu, b):
    """The column x with a x = b, from the forward elimination lu = (perm,
    rows) of a: z = L^-1 P b, a dot product per row with the stored entries
    of L^-1, then U x = z from the last entry up."""
    addr, mulr, neg, inv = ctx.add_rows, ctx.mul_rows, ctx.neg_table, ctx.inv_table
    perm, rows = lu
    n = len(perm)
    y = [b[p] for p in perm]
    z = []
    for i, row in enumerate(rows):
        acc = y[i]
        for f, x in zip(row[n - i:], y):
            acc = addr[acc][mulr[f][x]]
        z.append(acc)
    xs = []
    for i in range(n - 1, -1, -1):
        row = rows[i]
        acc = 0
        for u, x in zip(row[n - 1 - i:0:-1], xs):
            acc = addr[acc][mulr[u][x]]
        xs.append(mulr[inv[row[0]]][addr[z[i]][neg[acc]]])
    return xs[::-1]


def _solve_row(ctx, lu, r):
    """The row y with y a = r, from the forward elimination lu = (perm,
    rows) of a: w U = r a pivot at a time, each step taking the pivot's row
    of U off what is left, then y = w L^-1 P, the rows of L^-1 scaled by w
    and summed, put back in the order of P."""
    addr, mulr, neg, inv = ctx.add_rows, ctx.mul_rows, ctx.neg_table, ctx.inv_table
    perm, rows = lu
    n = len(perm)
    w = []
    acc = r
    for i, row in enumerate(rows):
        c = mulr[acc[0]][inv[row[0]]]
        w.append(c)
        if c:
            mc = mulr[neg[c]]
            acc = [addr[x][mc[y]] for x, y in zip(acc[1:], row[1:n - i])]
        else:
            acc = acc[1:]
    y = list(w)
    for i, row in enumerate(rows):
        c = w[i]
        if c and i:
            mc = mulr[c]
            y[:i] = [addr[x][mc[f]] for x, f in zip(y, row[n - i:])]
    out = [0] * n
    for p, x in zip(perm, y):
        out[p] = x
    return tuple(out)


def add_product(c, l, r):
    """c + l r for an n x m matrix c, l n x k and r k x m, formed a row at
    a time: row i of c plus the rows of r scaled by row i of l, O(n m k)
    with no product matrix built.  Rows of l that are 0 keep c's row."""
    ctx = c.ctx
    if (l.ctx is not ctx or r.ctx is not ctx or l.n != c.n or l.m != r.n
            or r.m != c.m):
        raise ValueError("cannot add %s times %s to %s"
                         % (_shape(l), _shape(r), _shape(c)))
    addr, mulr = ctx.add_rows, ctx.mul_rows
    rrows = r.rows
    out = []
    for rc, rl in zip(c.rows, l.rows):
        for a, rb in zip(rl, rrows):
            if a:
                ma = mulr[a]
                rc = [addr[x][ma[y]] for x, y in zip(rc, rb)]
        out.append(tuple(rc))
    return _mat(ctx, tuple(out))


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


def low_rank_part(c, most):
    """(u, v) with c = I + u v for a square c other than I, with u n x r and
    v r x n for r = rank(c - I) <= most; None when r is above most.  v
    holds the r rows of the reduced row echelon form of d = c - I and u
    the r pivot columns of d (v is I_r on them), so d = u v, from one
    elimination of the non-zero rows of d that stops once it passes most
    pivots: O(n^2 r)."""
    ctx = c.ctx
    dec = ctx.add_rows[ctx.neg_table[1]]
    d = [row[:i] + (dec[row[i]],) + row[i + 1:]
         for i, row in enumerate(c.rows)]
    a = [row for row in d if any(row)]
    if not a:
        raise ValueError("the identity has no low-rank part")
    piv = []
    while len(piv) < len(a):
        if len(piv) == most:
            return None
        r = len(piv)
        piv.append(next(j for j, x in enumerate(a[r]) if x))
        _eliminate(ctx, a, r, piv[-1])
        a[r + 1:] = [row for row in a[r + 1:] if any(row)]
    return (_mat(ctx, tuple(tuple([row[p] for p in piv]) for row in d)),
            _mat(ctx, tuple(map(tuple, a))))


def nullspace(mat):
    """Basis of the right kernel {x : mat @ x = 0}, vectors as tuples: one
    per non-pivot column c, 1 at c and 0 at every other non-pivot column."""
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


def basic_solution(mat, rhs):
    """(pivots, x): the pivot columns of mat and the solution of mat x =
    rhs that is 0 off them, x a tuple, or None when there is none; from one
    elimination of [mat | rhs].  The pivots are those of mat's row echelon
    form: rhs comes last, so it is a pivot of its own only when mat x = rhs
    has no solution."""
    pivots, a = _row_echelon(mat.ctx, [row + (b,) for row, b in zip(mat.rows, rhs)])
    if pivots and pivots[-1] == mat.m:
        return pivots[:-1], None
    x = [0] * mat.m
    for row, p in zip(a, pivots):
        x[p] = row[-1]
    return pivots, tuple(x)


def direct_sum(a, b):
    if a.ctx is not b.ctx:
        raise ValueError("field mismatch: %r and %r" % (a.ctx, b.ctx))
    left, right = (0,) * a.m, (0,) * b.m
    return _mat(a.ctx, tuple(r + right for r in a.rows)
                + tuple(left + r for r in b.rows))


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
    # g's forward elimination, kept on g: the restart's solves and replay
    # read it back
    det = g.det()
    if det == 0:
        raise ValueError("singular matrix")
    in_group = det == 1 or not spec.special
    sign = _square_sign(g)
    central = g.is_scalar()
    involution = sign == 1 and not g.is_identity()
    proj = sign is not None and not central
    return Classification(in_group, central, involution, proj)


def is_projective_involution(g, square=None):
    """classify(g, spec).projective_involution for an invertible g, without
    the determinant: g^2 in {I, -I} and g not scalar.  square, for a caller
    that holds g^2 in another form, iterates over the rows of g^2."""
    return not g.is_scalar() and _square_sign(g, square) is not None


def _square_sign(g, square=None):
    """c in {1, -1} with g^2 = c I, else None.  g^2 is built a row at a
    time, unless square iterates over its rows, and the build stops at the
    first row that is not c e_i, c read off the first row, so a g whose
    square is not +-I pays about one row of the product."""
    ctx, n = g.ctx, g.n
    c = None
    for i, row in enumerate(g.rows if square is None else square):
        sq = (_mat(ctx, (row,)) * g).rows[0] if square is None else row
        c = sq[i] if c is None else c
        if (c not in (1, ctx.neg(1))
                or sq != (0,) * i + (c,) + (0,) * (n - 1 - i)):
            return None
    return c


def mat_over(q, text):
    """Shorthand: parse a matrix text over GF(q)."""
    return parse_mat(make_field(q), text)

