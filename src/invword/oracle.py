"""Exact computations in small groups, used as ground truth.

Groups are enumerated element by element (never above a hard order cap),
conjugacy classes come with transporters, and distances are measured on
the conjugacy-class graph: for a normal generating set, the classes
reachable by k-fold products are exactly the level-k classes, so a
class-level search is exact while touching |classes| nodes instead of
|G|.  Per-element data that a query may never read is computed only when
asked for: an inverse the first time tbl.inv asks for it, and a
transporter per element, read by ct.transporter(i) off the records of the
walk that grew the classes.

Elements are stored as codes.  A permutation is its tuple of images; a
product or conjugate is one list comprehension over the images, and
Alt(n) is listed by filtering itertools.permutations with a parity mask
read off the Lehmer code of each position, so no Perm is built per
element.  An n x n matrix over GF(q) is one int, the row code: a row is
the int sum r_k * q**(n-1-k) in range(q**n), first entry most
significant, and the matrix is sum row_i * (q**n)**(n-1-i), row 0 most
significant.  Both codes order elements lexicographically by their
entries, so a table's element list (sorted codes), and with it every
index, class representative and transporter, does not depend on the
code chosen.  Matrix arithmetic runs on row tables built with each group
table (none at import): a row sum and a scaled row are one lookup each,
the closure's right multiplication by a generator's inverse is one lookup
per block of rows, and left multiplication by a generator rewrites one
row or shifts the rows by one.

A matrix group has one generator list (_row_ops), of deg(q) + 1
elements for n >= 2: the transvections x_12(lam) = I + lam E_12 with lam
in an additive basis of GF(q), and the signed cyclic row shift w of
determinant 1, whose conjugation carries x_12 around to x_23, ..., x_n1
(3 generators for SL(3,4)); GL and PGL add a dilation.  Alt(n) has two
generators, (1,2,3) and the even long cycle ((1..n) for odd n, (2..n) for
even n), and Sym(n) has (1,2) and (1..n).  Each element is conjugated by
each generator once: the matrix closure multiplies x by s^-1 on the right
and keeps s x s^-1, one row operation or row shift further, and a
permutation table composes the conjugates in one comprehension per
generator.  They become one index list per generator, i -> index of
s x_i s^-1, and conjugacy_classes grows each class along these lists and
then drops them.  The list fixes every transporter; elements, inverses
and the class partition do not depend on it.

What is the same on a whole class is computed once per class: the
involution and projective-involution sets test each class
representative and take the union of the classes that pass, a target
set is recognized as a union of classes from the sizes of the classes it
meets, the inverse class C^-1 is the class of rep^-1, and
class_product_count keeps one transition per factor class on the class
table.
"""

import itertools
from collections import Counter
from math import factorial, gcd, prod

from .gf import make_field
from .matrix import GroupSpec, Mat
from .perm import Perm

ORDER_CAP = 10 ** 6
# orbdiam <= ORBITAL_BOUND_FACTOR * d_t is the upper half of the sandwich
ORBITAL_BOUND_FACTOR = 72


class GroupTooLarge(Exception):
    """The requested group is above the enumeration cap."""


def group_order(spec):
    n, q = spec.n, spec.q
    if spec.perm:
        return factorial(n) // 2 if spec.special and n >= 2 else factorial(n)
    order = q ** (n * (n - 1) // 2) * prod(q ** k - 1 for k in range(1, n + 1))
    if spec.special or spec.projective:
        order //= q - 1
    if spec.special and spec.projective:
        order //= gcd(n, q - 1)
    return order


def is_simple(spec):
    """Whether spec describes a non-abelian simple group.  A matrix group
    is one exactly when it equals a simple PSL(n, q), n >= 2 and (n, q) not
    (2, 2) or (2, 3); PSL(n, q) is a quotient of SL(n, q) and a normal
    subgroup of PGL(n, q), a quotient of GL(n, q), so a matrix group equals
    it exactly when their orders agree.  So GL(3,2) is PSL(2,7) and
    PGL(2,4) is Alt(5), while SL(1, q) and PSL(1, q) are trivial."""
    n, q = spec.n, spec.q
    if spec.perm:
        return spec.special and n >= 5
    return (group_order(spec) == group_order(GroupSpec("PSL", n, q))
            and n >= 2 and (n, q) not in ((2, 2), (2, 3)))


# -- element codes ----------------------------------------------------------


class _PermCode:
    """Permutations of range(n) as image tuples; gens is a list of them.

    A product or a conjugate is one list comprehension over the images,
    turned into a tuple; no Perm is built for a table element."""

    def __init__(self, n, gens):
        self.identity = tuple(range(n))
        self.gens = gens
        self._gens_inv = [self.inverse(s) for s in gens]

    @staticmethod
    def mul(a, b):
        return tuple([b[x] for x in a])

    @staticmethod
    def inverse(a):
        out = [0] * len(a)
        for i, x in enumerate(a):
            out[x] = i
        return tuple(out)

    def encode(self, el):
        return el.images if isinstance(el, Perm) else None

    def decode(self, e):
        return Perm(e)

    def conjugate_lists(self, index):
        """For each generator s, the list i -> index of s x_i s^-1, x_i the
        element of index i: one comprehension per generator over the
        elements in index order, each conjugate composed in one pass."""
        return [[index[tuple([si[x[j]] for j in s])] for x in index]
                for s, si in zip(self.gens, self._gens_inv)]

    def left(self, k, t):
        """gens[k] * t."""
        return self.mul(self.gens[k], t)

    def right_mul(self, bs):
        """The function x -> (x b for b in bs)."""
        return lambda x: (tuple([b[i] for i in x]) for b in bs)


def _even_mask(n):
    """1 at each even permutation of range(n) and 0 at each odd one, in the
    order itertools.permutations lists them.

    The k-th permutation's Lehmer code is k written in the factorial
    base, and its inversion count is the sum of those digits.  So the
    block of (m-1)! permutations with leading digit d has the parities
    of the degree m-1 list, flipped when d is odd."""
    even, odd = [1], [0]
    for m in range(2, n + 1):
        size = len(even) * m
        even, odd = (even + odd) * m, (odd + even) * m
        even, odd = even[:size], odd[:size]
    return even


# the signed cyclic row shift w among a _RowCode's ops
SHIFT = "w"


class _RowCode:
    """n x n matrices over GF(q) as row codes (see the module docstring).

    Generators come in two kinds.  A row operation (i, j, c) is the
    elementary matrix I + c E_ij; i == j is allowed (a dilation by 1 + c),
    and left multiplication by one adds c times row j to row i.  SHIFT is
    the signed cyclic row shift w: left multiplication by it moves row k-1
    to row k and row n-1, times sign = (-1)**(n-1), to row 0, so that
    det w = 1.  ops are the generators, which the closure, its kept
    conjugates and left multiplication all run over.  scalars lists the
    scalars other than 1 of a projective quotient; every code is
    normalized to the least code among its multiples by them.  The tables
    live as long as the group table: add[a * Q + b] is the code of row
    a + row b and scale[c * Q + a] that of c * row a, for Q = q**n, and
    lead[a] is the scalar among 1 and scalars whose multiple of row a is
    the least."""

    def __init__(self, ctx, n, ops, scalars):
        q = ctx.q
        self.ctx, self.n, self.q, self.Q = ctx, n, q, q ** n
        self.top = self.Q ** (n - 1)
        self.sign = ctx.neg(1) if n % 2 == 0 else 1
        fa, fm = ctx.add_rows, ctx.mul_rows
        # build the tables for rows of length 1, 2, ..., n, each row
        # x * span + u getting a leading entry x in front of the shorter
        # u; entries are taken from one list of ints, so that a table of
        # q**(2n) entries holds no more than q**n int objects
        ints = list(range(self.Q))
        add, scale, entries, span = [0], [0] * q, [()], 1
        for _ in range(n):
            add = [ints[fa[x][y] * span + add[u * span + v]]
                   for x in range(q) for u in range(span)
                   for y in range(q) for v in range(span)]
            scale = [ints[fm[c][x] * span + scale[c * span + u]]
                     for c in range(q) for x in range(q) for u in range(span)]
            entries = [(x,) + e for x in range(q) for e in entries]
            span *= q
        self.add, self.scale, self.entries = add, scale, entries
        self.scalars = scalars
        # codes compare row 0 first and the multiples of a nonzero row
        # differ, so the least multiple of a matrix has the least row 0
        self.lead = [min([1] + scalars, key=lambda c: scale[c * self.Q + r])
                     for r in range(self.Q)] if scalars else None
        self.identity = self._code([q ** (n - 1 - k) for k in range(n)])
        self.ops = ops
        self.gens = [self._row_op(op, self.identity) for op in ops]

    def _row_op(self, op, t):
        """Code of s t for the generator s given by op: (I + c E_ij) t is t
        with c times its row j added to row i, and w t is t with its rows
        moved down by one, the last one times the sign on top."""
        rows = self.split(t)
        if op == SHIFT:
            rows.insert(0, self.scale[self.sign * self.Q + rows.pop()])
        else:
            i, j, c = op
            rows[i] = self.add[rows[i] * self.Q
                               + self.scale[c * self.Q + rows[j]]]
        return self._code(rows)

    def split(self, x):
        """The row codes of x, row 0 first."""
        rows = [0] * self.n
        for k in range(self.n - 1, -1, -1):
            x, rows[k] = divmod(x, self.Q)
        return rows

    def _code(self, rows):
        """The normalized code of the matrix with these rows."""
        x = 0
        for r in rows:
            x = x * self.Q + r
        return self._least(x) if self.scalars else x

    def _least(self, x):
        """The least code among the multiples of x by the scalars: the
        multiple by the scalar that lead reads off row 0."""
        c = self.lead[x // self.top]
        if c == 1:
            return x
        Q, scale = self.Q, self.scale
        y = 0
        for r in self.split(x):
            y = y * Q + scale[c * Q + r]
        return y

    def encode(self, el):
        """Code of a Mat, or None if el is not an n x n matrix over this
        table's field context.  Mat(ctx, rows) keeps the entries in
        range; a context of another field encodes them otherwise."""
        if not (isinstance(el, Mat) and el.ctx is self.ctx
                and el.n == el.m == self.n):
            return None
        q, rows = self.q, []
        for r in el.rows:
            v = 0
            for x in r:
                v = v * q + x
            rows.append(v)
        return self._code(rows)

    def decode(self, x):
        return Mat(self.ctx, [self.entries[r] for r in self.split(x)])

    def inverse(self, x):
        """The normalized code of x^-1."""
        return self.encode(self.decode(x).inv())

    def right_map(self, b):
        """The row map r -> r b, as a list over range(Q)."""
        add, scale, Q, q = self.add, self.scale, self.Q, self.q
        m = [0]
        for v in reversed(self.split(b)):
            m = [add[scale[c * Q + v] * Q + w] for c in range(q) for w in m]
        return m

    def _product(self, ents, brows):
        """Code of the matrix with row entries ents times the matrix with
        rows brows."""
        add, scale, Q = self.add, self.scale, self.Q
        x = 0
        for e in ents:
            acc = 0
            for c, v in zip(e, brows):
                if c:
                    acc = add[acc * Q + scale[c * Q + v]]
            x = x * Q + acc
        return self._least(x) if self.scalars else x

    def mul(self, a, b):
        return self._product([self.entries[r] for r in self.split(a)],
                             self.split(b))

    def right_mul(self, bs):
        """The function x -> (x b for b in bs)."""
        entries, split, product = self.entries, self.split, self._product

        def times(x):
            ents = [entries[r] for r in split(x)]
            return (product(ents, split(b)) for b in bs)

        return times

    def left(self, k, t):
        """gens[k] * t."""
        return self._row_op(self.ops[k], t)

    def closure(self, cap):
        """The set of every element generated by ops.

        Breadth-first from the identity by right multiplication with each
        generator's inverse, which generates the same set; only the time
        taken depends on the list.  A product x s^-1 is two lookups, one
        per block of rows (the last n // 2 rows and the others), and one
        row operation, or for w one signed shift of the code, turns it
        into s x s^-1: the conjugate is kept, in walk order, for
        conjugate_lists."""
        n, Q, add, scale = self.n, self.Q, self.add, self.scale
        least, scalars = self._least, self.scalars
        low = Q ** (n // 2)
        steps = []
        for s, op in zip(self.gens, self.ops):
            m = self.right_map(self.inverse(s))
            blocks = []
            for rows, span in ((n - n // 2, low), (n // 2, 1)):
                t = [0]
                for _ in range(rows):
                    t = [a * span + b for a in m for b in t]
                    span *= Q
                blocks.append(t)
            if op == SHIFT:
                # pi = 0 marks the shift, whose pj is the weight of row 0
                steps.append((*blocks, 0, self.top, self.sign * Q))
            else:
                i, j, c = op
                steps.append((*blocks, Q ** (n - 1 - i), Q ** (n - 1 - j),
                              c * Q))
        seen = {self.identity}
        todo = [self.identity]
        kept = [[] for _ in steps]
        for x in todo:
            h, l = divmod(x, low)
            for (hi, lo, pi, pj, cQ), out in zip(steps, kept):
                y = hi[h] + lo[l]
                if pi:
                    # s y: row i of y plus c times its row j
                    r = y // pi % Q
                    z = y + (add[r * Q + scale[cQ + y // pj % Q]] - r) * pi
                else:
                    # w y: the last row of y, times the sign, on top
                    z = scale[cQ + y % Q] * pj + y // Q
                if scalars:
                    y, z = least(y), least(z)
                out.append(z)
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
            if len(seen) > cap:
                raise GroupTooLarge("closure passed the order cap")
        self._kept = todo, kept
        return seen

    def conjugate_lists(self, index):
        """For each generator s, the list i -> index of s x_i s^-1, x_i the
        element of index i: the conjugates the closure kept, put in index
        order.  The code holds them no longer."""
        (walk, kept), self._kept = self._kept, None
        at = sorted(range(len(walk)), key=walk.__getitem__)
        get = index.__getitem__
        # looked up in the order they were made, which keeps the reads
        # close in memory, and then reordered; looking them up in index
        # order took twice as long on SL(3,4)
        return [list(map(list(map(get, conj)).__getitem__, at))
                for conj in kept]


class GroupTable:
    """A fully enumerated group: the element codes in increasing order, an
    index, and index-level ops; code.gens are the generators.  An inverse
    is computed by code.inverse the first time inv asks for it, and held
    for the element and its inverse alike."""

    def __init__(self, spec, ctx, code, elements):
        self.spec = spec
        self.ctx = ctx
        self.code = code
        self.elements = sorted(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.order = len(self.elements)
        self.identity_index = self.index[code.identity]
        self.gens = [self.index[e] for e in code.gens]
        self._inverse = [-1] * self.order
        self._classes = None

    def mul(self, i, j):
        return self.index[self.code.mul(self.elements[i], self.elements[j])]

    def inv(self, i):
        j = self._inverse[i]
        if j < 0:
            j = self.index[self.code.inverse(self.elements[i])]
            self._inverse[i], self._inverse[j] = j, i
        return j

    def decode(self, i):
        return self.code.decode(self.elements[i])

    def index_of(self, el):
        """Index of a Perm or Mat, None when it is not in the group."""
        return self.index.get(self.code.encode(el))


_TABLE_CACHE = {}


def _row_ops(spec, ctx):
    """The generators of a matrix group table, as _RowCode ops: for n >= 2
    the transvections x_12(lam), the row operations (0, 1, lam) with lam
    in the additive basis 1, xi, ..., xi^(deg-1) (encoded p**k), and the
    signed row shift w (SHIFT); for GL and PGL also the dilation
    diag(nu, 1, ..., 1), nu the field's generator.  Conjugation by w
    carries x_12(lam) to x_23(lam), ..., x_n1(+-lam), and the commutators
    [x_ij(a), x_jk(b)] = x_ik(ab) of these root groups give every other
    transvection.  The closure, conjugation, and so every transporter, run
    over them."""
    dilation = ([(0, 0, ctx.sub(ctx.generator(), 1))]
                if not spec.special else [])
    if spec.n == 1:
        return dilation
    return [(0, 1, ctx.p ** k) for k in range(ctx.deg)] + [SHIFT] + dilation


def build_group(spec):
    """Enumerate the group described by spec.

    Raises GroupTooLarge when the order formula exceeds ORDER_CAP, and
    RuntimeError if the enumerated order differs from the formula.  Tables
    are cached per spec; repeat callers share one enumeration."""
    expected = group_order(spec)
    if expected > ORDER_CAP:
        raise GroupTooLarge("|%r| = %d exceeds the cap %d"
                            % (spec, expected, ORDER_CAP))
    if spec in _TABLE_CACHE:
        return _TABLE_CACHE[spec]
    n = spec.n
    if spec.perm:
        elems = itertools.permutations(range(n))
        if spec.special:
            elems = itertools.compress(elems, _even_mask(n))
            # (1,2,3) and the even long cycle, (1..n) for odd n and (2..n)
            # for even n; the two coincide at n = 3
            long_cycle = "(%s)" % ",".join(map(str, range(2 - n % 2, n + 1)))
            gens = list(dict.fromkeys(
                Perm.from_cycles(c, n).images
                for c in ("(1,2,3)", long_cycle))) if n >= 3 else []
        else:
            gens = [Perm.from_cycles("(1,2)", n).images,
                    Perm.from_cycles("(%s)" % ",".join(
                        str(i) for i in range(1, n + 1)), n).images] \
                if n >= 2 else []
        code = _PermCode(n, gens or [tuple(range(n))])
        tbl = GroupTable(spec, None, code, elems)
    else:
        ctx = make_field(spec.q)
        q = ctx.q
        # projective families: quotient by scalars with lambda^n = 1 (PSL)
        # or all scalars (PGL)
        scalars = [c for c in range(2, q) if spec.projective
                   and (not spec.special or ctx.pow(c, n) == 1)]
        code = _RowCode(ctx, n, _row_ops(spec, ctx), scalars)
        tbl = GroupTable(spec, ctx, code, code.closure(ORDER_CAP))
    if tbl.order != expected:
        raise RuntimeError("%r: enumerated %d elements, the order formula "
                           "gives %d" % (spec, tbl.order, expected))
    _TABLE_CACHE[spec] = tbl
    return tbl


# -- conjugacy classes ----------------------------------------------------


class ClassTable:
    """class_of[i] is the class index of element i; reps[k] an element
    index; transporter(i) is t with x_i = t x_rep t^-1 at the index level.

    The walk that found the classes is kept as records: element y (no
    rep) was met as gens[via[y]] src[y] gens[via[y]]^-1, so t_y =
    gens[via[y]] t_src[y], and transporter(i) reads its own chain of
    records back to the class rep."""

    def __init__(self, tbl, class_of, reps, sizes, src, via):
        self.tbl = tbl
        self.class_of = class_of
        self.reps = reps
        self.sizes = sizes
        self._src, self._via = src, via
        self._members = None
        self._transitions = {}

    @property
    def n_classes(self):
        return len(self.reps)

    def transporter(self, i):
        """The transporter of element i: one left multiplication per record
        on the chain from its class rep."""
        path = []
        while self._src[i] >= 0:
            path.append(self._via[i])
            i = self._src[i]
        code = self.tbl.code
        t = code.identity
        for s in reversed(path):
            t = code.left(s, t)
        return self.tbl.index[t]

    def members(self, k):
        if self._members is None:
            self._members = [[] for _ in self.reps]
            for i, c in enumerate(self.class_of):
                self._members[c].append(i)
        return self._members[k]

    def inverse_class(self, k):
        """The class C^-1 of the inverses of class k: the class of rep_k^-1,
        as inversion maps conjugates to conjugates."""
        return self.class_of[self.tbl.inv(self.reps[k])]

    def with_inverses(self, k):
        """C u C^-1 for class k, in index order."""
        return sorted(set(self.members(k)).union(
            self.members(self.inverse_class(k))))

    def transition(self, c):
        """Row k counts the classes of rep_k x^-1 for x in class c (the
        x^-1 are the members of C^-1); built once per class and held with
        the table."""
        rows = self._transitions.get(c)
        if rows is None:
            class_of = self.class_of
            times_inv = _right_mul(self.tbl,
                                   self.members(self.inverse_class(c)))
            rows = self._transitions[c] = [
                Counter(class_of[y] for y in times_inv(rep))
                for rep in self.reps]
        return rows


def conjugacy_classes(tbl):
    """Classes in index order of their least element, each grown along
    the code's conjugate lists, one per generator s (i -> index of
    s x_i s^-1); the transporter of y = s x s^-1 is s times that of x,
    and only the walk's records are kept for it (see ClassTable).  The
    lists are dropped after the walk.  Raises RuntimeError if the classes
    do not partition the group or a sampled transporter is wrong."""
    if tbl._classes is not None:
        return tbl._classes
    order = tbl.order
    steps = list(enumerate(tbl.code.conjugate_lists(tbl.index)))
    class_of, src, via = [-1] * order, [-1] * order, [0] * order
    reps, sizes = [], []
    for i in range(order):
        if class_of[i] != -1:
            continue
        k = len(reps)
        reps.append(i)
        class_of[i] = k
        members = [i]
        for x in members:
            for s, conj in steps:
                y = conj[x]
                if class_of[y] == -1:
                    class_of[y] = k
                    src[y] = x
                    via[y] = s
                    members.append(y)
        sizes.append(len(members))
    del steps
    if sum(sizes) != order:
        raise RuntimeError("%r: class sizes sum to %d, not %d"
                           % (tbl.spec, sum(sizes), order))
    ct = ClassTable(tbl, class_of, reps, sizes, src, via)
    # transporter invariant: x = t * rep * t^-1
    for i in (0, order // 2, order - 1):
        t = ct.transporter(i)
        r = reps[class_of[i]]
        if tbl.mul(tbl.mul(t, r), tbl.inv(t)) != i:
            raise RuntimeError("%r: transporter of element %d is wrong"
                               % (tbl.spec, i))
    tbl._classes = ct
    return ct


# -- distances ------------------------------------------------------------


def _class_union(tbl, test):
    """The indices of every class whose representative passes test, for a
    test that holds on a whole class or on none of it."""
    ct = conjugacy_classes(tbl)
    return frozenset(itertools.chain.from_iterable(
        ct.members(k) for k, r in enumerate(ct.reps) if test(r)))


def involution_indices(tbl):
    e = tbl.identity_index
    return _class_union(tbl, lambda i: i != e and tbl.mul(i, i) == e)


def projective_involution_indices(tbl):
    """Indices of the non-scalar elements whose square is I or -I (matrix
    families GL and SL only; ValueError otherwise)."""
    _require_linear(tbl.spec)
    return _class_union(tbl, projective_involution_test(tbl))


def projective_involution_test(tbl):
    """The predicate on indices of a matrix group table: the element is not
    scalar and its square is the element I or -I of the table, if -I is
    in the group at all.  One table product per call; nothing is decoded."""
    ctx, n = tbl.ctx, tbl.spec.n
    scalars = {tbl.index_of(Mat.scalar(ctx, n, c)) for c in range(1, ctx.q)}
    squares = {tbl.index_of(Mat.scalar(ctx, n, c)) for c in (1, ctx.neg(1))}
    scalars.discard(None)
    squares.discard(None)
    mul = tbl.mul
    return lambda i: i not in scalars and mul(i, i) in squares


def _require_linear(spec):
    if spec.perm or spec.projective:
        raise ValueError("%r: projective involutions are defined here for "
                         "GL and SL only" % spec)


def _bfs_layers(starts, neighbors, key=None, parents=None):
    """Breadth-first search from starts, yielding (layer, node) for each
    node as it is met, the starts (deduplicated) forming layer 1.

    Nodes are expanded in frontier order, then in the order neighbors(x)
    lists them, and a node is met only when the search gets to it, so a
    caller that stops at the first node it wants pays for no more of the
    layer (neighbors may be a generator for the same reason).  Nodes are
    told apart by key[node] (such as a class index from ct.class_of), or
    by themselves when key is None; the first node met for each key
    stands for it and later ones are dropped.  When a dict is passed as
    parents it receives, per key, the node it was reached from (None for
    the starts), so a path can be read back."""
    seen = {} if parents is None else parents
    frontier = []
    for x in starts:
        k = x if key is None else key[x]
        if k not in seen:
            seen[k] = None
            frontier.append(x)
            yield 1, x
    level = 1
    while frontier:
        level += 1
        nxt = []
        for x in frontier:
            for y in neighbors(x):
                k = y if key is None else key[y]
                if k not in seen:
                    seen[k] = x
                    nxt.append(y)
                    yield level, y
        frontier = nxt


def _right_mul(tbl, gens):
    """Neighbors in the right Cayley graph: x -> (x a for a in gens),
    computed one at a time as the search asks for them.

    The per-generator work is done once here, out of the per-edge loop,
    which is the hot spot of every search."""
    index, elements = tbl.index, tbl.elements
    times = tbl.code.right_mul([elements[a] for a in gens])

    def neighbors(x):
        return (index[y] for y in times(elements[x]))

    return neighbors


def _index(tbl, x):
    """The index of x: an int in range(tbl.order) as it is, a Perm or Mat
    looked up in the table.  ValueError for anything else."""
    i = x if isinstance(x, int) else tbl.index_of(x)
    if i is None or not 0 <= i < tbl.order:
        raise ValueError("element outside the group")
    return i


def class_search(tbl, ci, key=None, parents=None):
    """The breadth-first search over products of the class C of the index
    ci and its inverses: _bfs_layers from the members of C u C^-1 (in
    index order), each node's neighbors its right multiples by them.  Layer
    k holds the elements of (C u C^-1)^k first met there; key and parents
    are passed on (key=ct.class_of searches the class graph)."""
    ct = conjugacy_classes(tbl)
    gens = ct.with_inverses(ct.class_of[ci])
    return _bfs_layers(gens, _right_mul(tbl, gens), key, parents)


def dist_to_set(tbl, c, targets):
    """Least k with (C u C^-1)^k meeting the target set, where C is the
    conjugacy class of c; None if the closure never meets it.

    Searches the class graph when the target set is a union of classes
    (it always is for involution sets), otherwise the elements.  c and
    the targets are indices (c may also be a Perm or Mat); ValueError for
    one outside the group, checked before the classes are built."""
    ci = _index(tbl, c)
    if ci == tbl.identity_index:
        raise ValueError("distance from the identity class is undefined")
    targets = frozenset(targets)
    if targets and not (min(targets) >= 0 and max(targets) < tbl.order):
        raise ValueError("target index outside the group")
    ct = conjugacy_classes(tbl)
    return _dist(tbl, ci, targets, _class_key(ct, targets))


def _class_key(ct, targets):
    """ct.class_of when the target set is a union of classes, else None:
    the key that dist_to_set's search tells nodes apart by."""
    # the targets lie in the classes they hit, so they are those classes'
    # union exactly when the sizes add up to the number of targets
    hit = {ct.class_of[i] for i in targets}
    normal = sum(ct.sizes[k] for k in hit) == len(targets)
    return ct.class_of if normal else None


def _dist(tbl, ci, targets, key):
    """dist_to_set for a checked index ci and frozenset targets, searching
    the class graph when key is ct.class_of and the elements when None."""
    for level, y in class_search(tbl, ci, key):
        if y in targets:
            return level
    return None


class DistanceReport:
    """Per-class distances to a target set and their maximum."""

    def __init__(self, spec, rows, value, argmax):
        self.spec = spec
        self.rows = rows          # (class index, rep text, size, distance)
        self.value = value
        self.argmax = argmax

    def __repr__(self):
        return "DistanceReport(%r, value=%r)" % (self.spec, self.value)


def _distance_report(tbl, targets, skip):
    """The distances to targets of the classes whose rep is not skipped:
    value is the largest and argmax its classes, or, when some closure
    misses the set, None and the classes at None."""
    ct = conjugacy_classes(tbl)
    key = _class_key(ct, targets)  # once for every class, not per class
    rows = [(k, str(tbl.decode(r)), ct.sizes[k], _dist(tbl, r, targets, key))
            for k, r in enumerate(ct.reps) if not skip(r)]
    dists = [r[3] for r in rows]
    value = None if None in dists else max(dists)
    argmax = [r[0] for r in rows if r[3] == value]
    return DistanceReport(tbl.spec, rows, value, argmax)


def d_inv(tbl):
    """max over nontrivial classes of the distance to the involution set.

    Defined for simple groups (the notion this measures assumes every
    class generates); raises ValueError for a group that is not simple."""
    if not is_simple(tbl.spec):
        raise ValueError("%r is not simple" % tbl.spec)
    targets = involution_indices(tbl)
    if not targets:
        raise RuntimeError("%r: a nonabelian finite simple group has even "
                           "order, yet no involution was found" % tbl.spec)
    return _distance_report(tbl, targets, lambda r: r == tbl.identity_index)


def d_proj_inv(tbl):
    """Per-class distance to the projective-involution set for a matrix
    group, skipping central classes (their closures never leave the
    center).  A None distance marks a class whose closure misses the
    set; value is then None as well.  Raises ValueError outside GL and
    SL."""
    _require_linear(tbl.spec)
    return _distance_report(tbl, projective_involution_indices(tbl),
                            lambda r: tbl.decode(r).is_scalar())


# -- class product counts -------------------------------------------------


def class_product_count(tbl, class_reps, target, cross_check=False):
    """Exact number of tuples (x_1, ..., x_m), x_i in the class of
    class_reps[i], whose product equals the fixed element target.

    Counted by iterated class convolution: the count of products equal
    to a fixed element depends only on that element's class, and a
    product equal to rep_k whose last factor is x in class c extends one
    equal to rep_k x^-1.  So each distinct factor class c gets one
    transition, the classes of rep_k x^-1 for x in c with their
    multiplicities (ClassTable.transition), built once per class table
    however often c recurs, in this call or a later one.  cross_check
    also counts the products directly; it raises ValueError above 5000
    elements and RuntimeError when the two counts differ.  ValueError too
    for an empty class_reps and for an element or index outside the
    group."""
    if cross_check and tbl.order > 5000:
        raise ValueError("%r: the direct cross-check is for groups of at "
                         "most 5000 elements" % tbl.spec)
    if not class_reps:
        raise ValueError("class_product_count needs at least one factor")
    ct = conjugacy_classes(tbl)
    reps = [_index(tbl, r) for r in class_reps]
    ti = _index(tbl, target)
    class_of = ct.class_of
    counts = [0] * ct.n_classes
    counts[class_of[reps[0]]] = 1
    for r in reps[1:]:
        counts = [sum(counts[j] * m for j, m in row.items())
                  for row in ct.transition(class_of[r])]
    result = counts[class_of[ti]]
    if cross_check:
        acc = {x: 1 for x in ct.members(ct.class_of[reps[0]])}
        for r in reps[1:]:
            nxt = {}
            for x, cx in acc.items():
                for y in ct.members(ct.class_of[r]):
                    z = tbl.mul(x, y)
                    nxt[z] = nxt.get(z, 0) + cx
            acc = nxt
        if acc.get(ti, 0) != result:
            raise RuntimeError("%r: class convolution counts %d, direct "
                               "products %d" % (tbl.spec, result, acc.get(ti, 0)))
    return result


# -- orbital diameters ----------------------------------------------------


class OrbitalReport:
    def __init__(self, spec, orbital_diameters, class_diameters, matching,
                 orbdiam, d_t, lower_ok, upper_ok):
        self.spec = spec
        self.orbital_diameters = orbital_diameters
        self.class_diameters = class_diameters
        self.matching = matching
        self.orbdiam = orbdiam
        self.d_t = d_t
        self.lower_ok = lower_ok
        self.upper_ok = upper_ok
        self.ok = lower_ok and upper_ok

    def __repr__(self):
        return ("OrbitalReport(orbdiam=%d, d_t=%d, ok=%s)"
                % (self.orbdiam, self.d_t, self.ok))


def _require(ok, spec, what):
    if not ok:
        raise RuntimeError("%r: %s" % (spec, what))


def orbital_diameter_report(spec=None):
    """Orbital graphs of the square-with-swap action on T = Alt(5).

    The domain is identified with T: (u, v) acts by w -> u^-1 w v and the
    swap by w -> w^-1.  Point pairs split into orbitals; each nondiagonal
    orbital graph is checked to be the Cayley graph of a class closed
    under inversion, so the maximum orbital diameter sandwiches between
    half the class-graph diameter and ORBITAL_BOUND_FACTOR times it.  Raises
    RuntimeError when one of these structure checks fails."""
    if spec is None:
        spec = GroupSpec("Alt", 5)
    tbl = build_group(spec)
    n = tbl.order
    e = tbl.identity_index
    inv_map = [tbl.inv(i) for i in range(n)]
    maps = [inv_map]
    for s in tbl.gens:
        si = tbl.inv(s)
        maps.append([tbl.mul(si, w) for w in range(n)])   # left by s^-1
        maps.append([tbl.mul(w, s) for w in range(n)])    # right by s
    # orbit partition of the n x n pairs
    orbital_of = [[-1] * n for _ in range(n)]
    orbitals = []
    for a in range(n):
        for b in range(n):
            if orbital_of[a][b] != -1:
                continue
            k = len(orbitals)
            pairs = [(a, b)]
            orbital_of[a][b] = k
            for x, y in pairs:
                for mp in maps:
                    p = (mp[x], mp[y])
                    if orbital_of[p[0]][p[1]] == -1:
                        orbital_of[p[0]][p[1]] = k
                        pairs.append(p)
            orbitals.append(pairs)
    ct = conjugacy_classes(tbl)
    # nondiagonal orbital edge sets, as undirected graphs
    orbital_diameters = {}
    orbital_edges = {}
    for k, pairs in enumerate(orbitals):
        if pairs[0][0] == pairs[0][1]:
            _require(all(x == y for x, y in pairs), spec,
                     "orbital %d mixes diagonal and off-diagonal pairs" % k)
            continue
        edges = {frozenset(p) for p in pairs}
        _require(all(len(fs) == 2 for fs in edges), spec,
                 "orbital %d holds a loop" % k)
        adj = [[] for _ in range(n)]
        for fs in edges:
            x, y = tuple(fs)
            adj[x].append(y)
            adj[y].append(x)
        reached = list(_bfs_layers([e], adj.__getitem__))
        _require(len(reached) == n, spec,
                 "orbital graph %d is not connected" % k)
        orbital_diameters[k] = reached[-1][0] - 1
        orbital_edges[k] = edges
    # Cayley graphs of the nontrivial classes
    class_diameters = {}
    class_edges = {}
    for k in range(ct.n_classes):
        if ct.reps[k] == e:
            continue
        gens = ct.with_inverses(k)
        reached = list(_bfs_layers([e], _right_mul(tbl, gens)))
        _require(len(reached) == n, spec,
                 "class %d does not generate the group" % k)
        class_diameters[k] = reached[-1][0] - 1
        class_edges[k] = {frozenset((x, tbl.mul(x, a)))
                          for x in range(n) for a in gens}
    # each nondiagonal orbital graph must be one of the class graphs
    matching = {}
    for k, edges in orbital_edges.items():
        matches = [c for c, ce in class_edges.items() if ce == edges]
        _require(len(matches) == 1, spec,
                 "orbital %d matched classes %r" % (k, matches))
        matching[k] = matches[0]
    _require(set(matching.values()) == set(class_edges), spec,
             "a nontrivial class graph is no orbital graph")
    orbdiam = max(orbital_diameters.values())
    d_t = max(class_diameters.values())
    lower_ok = 2 * orbdiam >= d_t
    upper_ok = orbdiam <= ORBITAL_BOUND_FACTOR * d_t
    return OrbitalReport(spec, orbital_diameters, class_diameters, matching,
                         orbdiam, d_t, lower_ok, upper_ok)
