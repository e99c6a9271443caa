"""Witnesses: short products of conjugates reaching an involution.

construct_involution(g, spec) returns a Witness holding steps (c_i, e_i)
with every c_i of determinant 1 (even parity in the alternating case) such
that prod_i c_i g^{e_i} c_i^{-1} equals a recorded target t with t^2 scalar
(in {I, -I}) and t non-central.  An input that would be traded below and
that passes replay's target check is its own 1-step witness.  Otherwise
there are three outcomes.  Every 2x2 determinant-1 element takes one trace
rule (_sl2_core): the shortest word g (k g^e k^-1)^m, k a transvection,
whose product has trace 0, of at most 4 steps; the order-3 class of
SL(2,2), which no word reaches, raises Unreachable with brute_force_witness's
certificate, and no group is enumerated.  A 3x3 determinant-1 g over even q
with g e_1 cyclic takes the unipotent word (_unipotent_word): [(I, +1), (k,
+1)] for a transvection k = I + e_1 phi placed so that g k is regular
unipotent, whose square g (k g k^-1) is an involution.  Every other
element, of dimension 3 and up or of determinant other than 1, takes the
commutator restart: the trade word g^-1 (h^-1 g h) with a partner
h = I + v phi, phi(v) = 0, whose commutator
x = [g, h] is I + a b with a n x 2 and b 2 x n.  The partner is one of two
kinds (find_partner).  The involution partner, for even q, has b a = 0, so
x is an involution and the witness takes 2 steps.  The plane partner has
b a invertible: x moves only the plane im a, where the field's plane
table (_plane_table) holds the 2x2 word of x, lifted to the whole space
and pulled back; for odd q and g not quadratic it takes 4 steps, and no
input takes more than MAX_WITNESS_LEN = 8.  No pair is searched.  The
restart reads g through its one forward elimination (classify's det, kept
on g): g^-1 v is a solve, no inverse of g is formed, the window and its
lifts, each a rank-2 update of the rows of I, are read off a, b and the
partner's phi(g v) and phi(g^-1 v), and no two n x n matrices are
multiplied.  Everything is replayed before being returned.  replay reads
the low rank of each conjugator off the record: from n = 6 up a restart
witness replays with no n x n product, g^-1 read only through solves and
no elimination but g's forward one, each conjugate being g^e plus a term
of rank at most 2 rank(c - I) and the running product g^m (|m| <= 1) plus
one of rank growing with the word; every other witness replays densely.
"""

import json
from functools import lru_cache
from itertools import accumulate
from math import factorial

from .gf import make_field
from .matrix import (GroupSpec, Mat, add_product, basic_solution, classify,
                     is_projective_involution, low_rank_part, nullspace,
                     parse_mat)
from .oracle import (build_group, class_search, conjugacy_classes,
                     involution_indices, projective_involution_indices)
from .perm import Perm, _alt_partner, a5_witness

# Pairs (n, q) where the 2x2 rule and the restart once degenerated.  Only
# the benchmark's sl-classes grid reads this list
EXCLUDED_PAIRS = {(2, 2), (2, 3), (3, 2), (3, 4), (4, 2), (4, 3)}

# brute_force_witness's certificate for the order-3 class of SL(2,2), where
# alone _sl2_core returns None: its closure holds no involution
_SL22_CERTIFICATE = {"group_order": 6, "classes_in_closure": 2,
                     "closure_size": 3, "levels_explored": 2,
                     "involution_classes_in_group": 1}

# the plane table's longest witness over every supported q: a 2-step plane
# word, doubled for odd q and pulled back along the 2-step trade word
MAX_WITNESS_LEN = 8


class ConstructError(Exception):
    """A reduction identity or a search failed to produce a witness."""


class Unreachable(ConstructError):
    """No product of conjugates reaches an involution; the certificate
    describes the exhausted search."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class WitnessStep:
    __slots__ = ("c", "e", "case")

    def __init__(self, c, e, case):
        if e not in (1, -1):
            raise ValueError("step exponent must be 1 or -1, not %r" % (e,))
        self.c = c
        self.e = e
        self.case = case

    def __repr__(self):
        return "WitnessStep(e=%+d, case=%s)" % (self.e, self.case)


class Witness:
    """g, the steps, and the recorded target of the replayable product;
    certificate is what a search proved about shorter words (the A5
    5-cycle's), else None."""

    def __init__(self, spec, g, steps, target, certificate=None):
        self.spec = spec
        self.g = g
        self.steps = [s if isinstance(s, WitnessStep) else WitnessStep(*s)
                      for s in steps]
        self.target = target
        self.certificate = certificate
        self.net_exponent = sum(s.e for s in self.steps)

    @property
    def length(self):
        return len(self.steps)

    def __repr__(self):
        return "Witness(%r, length=%d, net=%d)" % (
            self.spec, self.length, self.net_exponent)


# -- word algebra --------------------------------------------------------


def _product(g, steps):
    """prod c g^e c^-1 over the steps, matrices or permutations, built from
    the first conjugate.  Each distinct (c, e) is conjugated once (a doubled
    window repeats its steps), and an identity conjugator gives g^e
    itself."""
    conjugates, acc = {}, None
    for c, e, _ in steps:
        y = conjugates.get((c, e))
        if y is None:
            y = g if e == 1 else g.inv()
            if not c.is_identity():
                y = c * y * c.inv()
            conjugates[c, e] = y
        acc = y if acc is None else acc * y
    return acc


def _expand(outer, conjugated):
    """Rewrite steps over y in terms of steps over g, where conjugated(d)
    is a g-word with product y conjugated by d: an occurrence d y d^-1
    becomes conjugated(d), and d y^-1 d^-1 its reversal with flipped
    exponents.  conjugated(d) is computed once per distinct d: a doubled
    window repeats its steps."""
    out, words = [], {}
    for d, eps, _lab in outer:
        word = words.get(d)
        if word is None:
            word = words[d] = conjugated(d)
        out.extend(word if eps == 1
                   else [(c, -e, lab) for c, e, lab in reversed(word)])
    return out


def _orbits(g):
    """[v, g v, g^-1 v] as tuples for v = e_1, ..., e_n and then (1, ..., 1),
    each computed when it is read: g v is a column of g (for the all-ones
    vector, a product with one column) and g^-1 v one solve through g's
    kept forward elimination, so no inverse of g is formed.  Since g is not
    scalar, one of these v is no eigenvector of g."""
    ctx, n = g.ctx, g.n
    for k in range(n + 1):
        v = tuple(int(i == k) for i in range(n)) if k < n else (1,) * n
        col = Mat(ctx, [[x] for x in v])
        gv = (tuple(r[k] for r in g.rows) if k < n
              else tuple(r[0] for r in (g * col).rows))
        yield [v, gv, tuple(r[0] for r in g.solve_cols(col).rows)]


def _involution_partner(g):
    """([v, g v, g^-1 v], phi, 0, 0), the vectors as tuples, with phi(v) =
    phi(g v) = phi(g^-1 v) = 0 and a b != 0, or None.  Then b a = 0
    (_commutator_factors), so x = [g, h] = I + a b has (x - I)^2 = 0 and
    x != I: in characteristic 2, x is an involution.  For n >= 4, v is the
    first of _orbits' vectors that is no eigenvector and phi the first
    vector of the nullspace of the rows (v, g v, g^-1 v), so the partner
    always exists: a b = v phi - g^-1 v (phi g) is not 0 for v and g^-1 v
    independent.  At n = 3 such a phi vanishes on the g-invariant plane
    that v, g v and g^-1 v span: phi is a left eigenvector, phi g = lam phi
    for an eigenvalue lam in GF(q), read off the nullspace of (g - lam I)^T
    (empty for any other lam), and v the first basis vector of ker phi with
    g v != lam v; x is then a transvection.  At n = 3 this serves g of
    determinant other than 1 and g with g e_1 not cyclic (_unipotent_word)."""
    ctx, n = g.ctx, g.n
    if n >= 4:
        rows = next(r for r in _orbits(g) if Mat(ctx, r[:2]).rank() == 2)
        return rows, nullspace(Mat(ctx, rows))[0], 0, 0
    for lam in range(1, ctx.q):
        m = g - Mat.scalar(ctx, n, lam)
        for phi in nullspace(m.transpose()):
            for v in nullspace(Mat(ctx, [phi])):
                col = Mat(ctx, [[x] for x in v])
                if any(map(any, (m * col).rows)):
                    orbit = [v] + [tuple(r[0] for r in x.rows)
                                   for x in (g * col, g.solve_cols(col))]
                    return orbit, phi, 0, 0
    return None


def _plane_partner(g):
    """([v, g v, g^-1 v], phi, s, u), the vectors as tuples, with phi(v) =
    0, s = phi(g v) != 0 and u = phi(g^-1 v) != 0, so b a = [[0, u], [-s,
    -s u]] is invertible (_commutator_factors).  The window is the plane
    im a, on which x = [g, h] acts as y = I + b a, conjugate to y_p of the
    field's plane table (_plane_table) for p = s u.  v is the first of
    _orbits' vectors with v, g v and g^-1 v independent, and then (s, u) =
    (1, p) for the table's best p: phi lives on the three pivot coordinates
    of the rows (v, g v, g^-1 v) and is read off one elimination of the
    rows and the values (basic_solution).  For odd q that p is 2, where y
    has trace 0 (the trace-0 partner).  A quadratic g, g^2 = alpha g +
    beta, has no such v, as g^-1 v = (g v - alpha v) / beta: it takes the
    first v that is no eigenvector, phi with phi(v) = 0 and phi(g v) = 1
    on two pivot coordinates, c = phi(g^-1 v) (1 / beta for a quadratic
    g), and then phi scaled by the table's s for c, so (s, u) = (s, s c)
    and p = s^2 c."""
    ctx = g.ctx
    _, best, scale = _plane_table(ctx.q)
    pair = None
    for rows in _orbits(g):
        piv, phi = basic_solution(Mat(ctx, rows), (0, 1, best))
        if len(piv) == 3:
            return rows, phi, 1, best
        if len(piv) == 2 and pair is None:
            pair = rows
    rows = pair
    _, phi = basic_solution(Mat(ctx, rows[:2]), (0, 1))
    c = (Mat(ctx, [phi]) * Mat(ctx, [[x] for x in rows[2]]))[0, 0]
    by = ctx.mul_rows[scale[c]]
    return rows, tuple(by[x] for x in phi), scale[c], by[c]


def _partner(g):
    """([v, g v, g^-1 v], phi, s, u) of find_partner(g) = I + v phi, with
    phi(v) = 0, s = phi(g v) and u = phi(g^-1 v) as the partner solved for
    them; the vectors and phi are tuples."""
    if g.is_scalar():
        raise ValueError("central element has no partner")
    found = _involution_partner(g) if g.ctx.p == 2 and g.n >= 3 else None
    return found or _plane_partner(g)


def find_partner(g):
    """The partner h whose commutator [g, h] the restart solves, a
    transvection I + v phi (phi(v) = 0), of one of two kinds.  For even q
    and n >= 3 it is the involution partner of _involution_partner when g
    has one (always for n >= 4): [g, h] is itself an involution.  Otherwise
    it is the plane partner of _plane_partner: [g, h] moves only a plane,
    where the field's plane table solves it."""
    (v, _, _), phi, _, _ = _partner(g)
    ctx = g.ctx
    return add_product(Mat.identity(ctx, g.n), Mat(ctx, [[x] for x in v]),
                       Mat(ctx, [phi]))


def _commutator_factors(g, orbit, phi, s):
    """(a, b) with [g, h] = g^-1 h^-1 g h = I + a b for h = I + v phi,
    phi(v) = 0, orbit = [v, g v, g^-1 v] and s = phi(g v): a = [v | g^-1 v]
    is n x 2 and b = [phi ; -(phi g + s phi)] is 2 x n.  As h^-1 = I -
    v phi, g^-1 h^-1 g = I - g^-1 v (phi g), and its product with h is
    I + v phi - g^-1 v (phi g) - s g^-1 v phi.  So b a = [[phi(v), u],
    [-s, -s u]] for u = phi(g^-1 v), which the partner holds, and phi g,
    one row times g, is the one product with g."""
    ctx = g.ctx
    v, _, giv = orbit
    row = Mat(ctx, [phi])
    return Mat(ctx, list(zip(v, giv))), _stack(row, -(row * g + row.scale(s)))


def _reseed(g):
    """Trade g for its commutator x = I + a b with the partner h = I + v
    phi, solve x (_window) and pull the witness back along the trade word
    g^-1 (h^-1 g h): a step d x^e d^-1 becomes (d, -1), (d h^-1, +1),
    reversed with flipped exponents for e = -1, and d h^-1 = d - (d v) phi,
    with d v a product with one column.  g is read through its kept forward
    elimination: g^-1 v is a solve and no inverse of g is formed.  It
    serves every traded matrix input that the unipotent word does not."""
    orbit, phi, s, u = _partner(g)
    a, b = _commutator_factors(g, orbit, phi, s)
    inner, t = _window(a, b, s, u)
    ctx = g.ctx
    v, minus_phi = Mat(ctx, [[x] for x in orbit[0]]), -Mat(ctx, [phi])
    return _expand(inner, lambda d: [
        (d, -1, "reseed"), (add_product(d, d * v, minus_phi), 1, "reseed")]), t


# -- 2x2 core ------------------------------------------------------------


def _sl2_core(g, longest=4):
    """(steps, t) for the shortest word over non-central 2x2 determinant-1
    g, of at most `longest` steps, whose product t has trace 0 and is not
    scalar, or None.  Such a t is a witness's target: t^2 = -I (I when q is
    even).

    The word is g (k g^e k^-1)^m, with k = I + lam v (-v2, v1) the
    transvection fixing v and w = det(v, g v).  Its trace follows from
    tr(g k g k^-1) = tr(g)^2 - 2 - lam^2 w^2, tr(g k g^-1 k^-1) =
    2 + lam^2 w^2 and, by Cayley-Hamilton, tr(g y^2) = tr(g) (tr(g y) - 1)
    for y = k g^e k^-1, so lam^2 w^2 is fixed and lam read off a square
    root.  In turn: g itself when tr g = 0; in characteristic 2, for an
    eigenvector v (w = 0), the commutator with lam = 1, of trace 2 = 0 and
    not I as k does not commute with g; for the first v of (1,0), (0,1),
    (1,1) with w != 0, (m, e) = (1, 1), (1, -1), (2, 1), (2, -1), the
    first two skipped in characteristic 2; last, a 2-step word for a
    commutator x = g k g^-1 k^-1, pulled back to 4."""
    ctx = g.ctx
    eye = Mat.identity(ctx, 2)
    (a, b), (c, d) = g.rows
    tr = ctx.add(a, d)
    if tr == 0:
        return [(eye, 1, "sl2-antidiagonal")], g

    def det_v_gv(v):
        x = ctx.add(ctx.mul(a, v[0]), ctx.mul(b, v[1]))
        y = ctx.add(ctx.mul(c, v[0]), ctx.mul(d, v[1]))
        return ctx.sub(ctx.mul(v[0], y), ctx.mul(v[1], x))

    def fixing(v, lam):
        return eye + (Mat(ctx, [[v[0]], [v[1]]])
                      * Mat(ctx, [[ctx.neg(v[1]), v[0]]])).scale(lam)

    if ctx.p == 2:
        lines = [(0, 1)] + [(1, x) for x in ctx.elements()]
        v = next((v for v in lines if det_v_gv(v) == 0), None)
        if v is not None:
            steps = [(eye, 1, "sl2-commutator"),
                     (fixing(v, 1), -1, "sl2-commutator")]
            return steps, _product(g, steps)
    v = next(v for v in ((1, 0), (0, 1), (1, 1)) if det_v_gv(v) != 0)
    w, sq = det_v_gv(v), ctx.mul(tr, tr)
    words = ((1, 1, ctx.sub(sq, ctx.scalar(2))),
             (1, -1, ctx.neg(ctx.scalar(2))),
             (2, 1, ctx.sub(sq, ctx.scalar(3))),
             (2, -1, ctx.neg(1)))
    # in characteristic 2 both m = 1 products are I: e = -1 has lam = 0,
    # so k = I, and e = 1 has lam w = tr, which makes k g k^-1 = g^-1
    for m, e, rhs in words[2 if ctx.p == 2 else 0:]:
        root = ctx.sqrt(rhs)
        if m >= longest or root is None:
            continue
        label = "sl2-square" if e == 1 else "sl2-commutator"
        k = fixing(v, ctx.div(root, w))
        steps = [(eye, 1, label)] + [(k, e, label)] * m
        t = _product(g, steps)
        if not t.is_scalar():
            return steps, t
    if longest < 4:
        return None
    for lam in range(1, ctx.q):
        word = [(eye, 1, "sl2-commutator"),
                (fixing(v, lam), -1, "sl2-commutator")]
        # x is not scalar: g k g^-1 is a transvection other than k; the
        # pulled-back word keeps the product of the word over x
        found = _sl2_core(_product(g, word), 2)
        if found is not None:
            steps, t = found
            return _expand(steps, lambda d: [(d * c, e, lab)
                                             for c, e, lab in word]), t
    return None


# -- the plane window ----------------------------------------------------


@lru_cache(maxsize=None)
def _plane_table(q):
    """(words, best, scale) over GF(q), built once per field with q - 1
    calls of _sl2_core.  words[p], for p != 0, is _sl2_core's word over
    y_p = [[1, 1], [-p, 1 - p]] (trace 2 - p, determinant 1), or None:
    the window of a plane partner with phi(g v) phi(g^-1 v) = p, in the
    basis (u v, g^-1 v) of im a.  best is the first p whose word is
    shortest, for a partner whose (s, u) is free, and scale[c] the first s
    whose p = s^2 c has the shortest word, for a partner with phi(g^-1 v) =
    c phi(g v) (c = 1 / beta for a quadratic g).  MAX_WITNESS_LEN is the
    longest witness the table gives, as test_window_shapes_stay_under_the_cap
    checks."""
    ctx = make_field(q)
    words = {p: _sl2_core(Mat(ctx, [[1, 1], [ctx.neg(p), ctx.sub(1, p)]]))
             for p in range(1, q)}

    def cost(p):
        return len(words[p][0]) if words[p] else 5
    units = range(1, q)
    return words, min(units, key=cost), {
        c: min(units, key=lambda s: cost(ctx.mul(ctx.mul(s, s), c)))
        for c in units}


@lru_cache(maxsize=None)
def _plane_cores(q, s, u):
    """The plane table's word for p = s u with each 2 x 2 conjugator c
    replaced by its core k = d (c - I) d^-1 (b a)^-1, None for c = I, for
    b a = [[0, u], [-s, -s u]] and d = diag(u, 1): (steps, target core,
    core of the target's square or None when that square is I), or None
    when the table has no word.  At most q^2 entries per field, each
    computed once."""
    ctx = make_field(q)
    found = _plane_table(q)[0][ctx.mul(s, u)]
    if found is None:
        return None
    inner, t = found
    eye2 = Mat.identity(ctx, 2)
    # m = d^-1 (b a)^-1, so the core is d (c - I) m
    m = Mat(ctx, [[ctx.neg(ctx.inv(u)), ctx.neg(ctx.div(1, ctx.mul(s, u)))],
                  [ctx.inv(u), 0]])
    d = Mat.diag(ctx, (u, 1))

    def core(c):
        return None if c == eye2 else d * (c - eye2) * m
    square = t * t
    return ([(core(c), e, lab) for c, e, lab in inner], core(t),
            None if square == eye2 else core(square))


def _window(a, b, s, u):
    """Witness steps and target for the restart's commutator x = I + a b,
    with b a = [[0, u], [-s, -s u]] read off the partner (s = phi(g v),
    u = phi(g^-1 v)).  When s = u = 0, b a = 0 (the involution partner)
    and x is its own target, the 1-step word [(I, +1)].  Otherwise (the
    plane partner) b a is invertible, so im a and ker b split the space and
    x is I on ker b.  In the basis a' = a d, d = diag(u, 1), of im a, that
    is (u v, g^-1 v), x acts as y_p = I + m with m = d^-1 (b a) d = [[0, 1],
    [-p, -p]], p = s u, whose word the plane table holds.  A 2 x 2
    conjugator or target c lifts to I + a k b for its core k = d (c - I)
    d^-1 (b a)^-1 (_plane_cores), c on im a and I on ker b, of the same
    determinant: one rank-2 update of the rows of I, O(n^2).  The
    steps are doubled and the target squared when the target squares to -I
    on the plane only, n > 2 and q odd."""
    ctx, n = a.ctx, a.n
    eye = Mat.identity(ctx, n)
    if not (s or u):
        return [(eye, 1, "involution")], add_product(eye, a, b)
    found = _plane_cores(ctx.q, s, u)
    if found is None:
        raise ConstructError("no 2x2 word of at most 4 steps on the plane")
    cores, t, square = found

    def lift(k):
        return eye if k is None else add_product(eye, a, k * b)
    steps = [(lift(k), e, lab) for k, e, lab in cores]
    if n > 2 and square is not None:
        return steps + steps, lift(square)
    return steps, lift(t)


# -- the unipotent word --------------------------------------------------


def _unipotent_word(g):
    """(steps, t) for a 3x3 g of determinant 1 over even q, or None when
    w = g e_1 is not cyclic: the 2-step word [(I, +1), (k, +1)] with k =
    I + e_1 phi and t = (g k)^2.  phi places the poles of g k = g + w phi
    at 1 (Ackermann): for K = [w | g w | g^2 w], invertible exactly when w
    is cyclic, phi = e_3^T K^-1 (g + I)^3, one solve and three rows times
    g, so g k has characteristic polynomial (x + 1)^3.  Then det k = 1 +
    phi(e_1) = det(g k) = 1, so phi(e_1) = 0 and k = k^-1 is a
    transvection, and w stays cyclic for g k, which is the regular
    unipotent J_3(1): of order 4, so t = g (k g k^-1) is an involution."""
    ctx, eye = g.ctx, Mat.identity(g.ctx, 3)
    w = Mat(ctx, [[r[0]] for r in g.rows])
    gw = g * w
    krylov = _beside(_beside(w, gw), g * gw)
    if krylov.det() == 0:
        return None
    phi = krylov.solve_rows(Mat(ctx, [[0, 0, 1]]))
    for _ in range(3):
        phi = phi * g + phi
    k = add_product(eye, Mat(ctx, [[1], [0], [0]]), phi)
    gk = add_product(g, w, phi)
    return [(eye, 1, "unipotent"), (k, 1, "unipotent")], gk * gk


# -- the class-graph search ----------------------------------------------


def brute_force_witness(g, spec):
    """Exhaustive witness via the conjugacy-class graph of the ambient
    group.  Levels of the graph are exactly the classes meeting the k-fold
    products of the class of g and its inverse, so the first hit gives a
    minimum-length witness; the search reaches each class at most once,
    so it ends.  Raises Unreachable (with a closure certificate) when no
    involution is reachable, GroupTooLarge when the group cannot be
    enumerated.  Only SL and Alt: elsewhere the table's words do not
    replay (parity in Sym, determinant in GL, products up to scalars in
    PSL and PGL), so other families raise ValueError, as does a g of the
    wrong shape or field, before any group is built.  No witness of
    construct_involution comes from here; the certificate it raises for
    the order-3 class of SL(2,2) is _SL22_CERTIFICATE."""
    if not spec.special or spec.projective:
        raise ValueError("class-graph search not supported for family %r"
                         % spec.family)
    if not _fits(g, spec):
        raise ValueError("element outside the group")
    tbl = build_group(spec)
    ct = conjugacy_classes(tbl)
    gi = tbl.index_of(g)
    if gi is None:
        raise ValueError("element outside the group")
    if gi == tbl.identity_index:
        raise ValueError("identity has no witness")
    cls_g = ct.class_of[gi]
    tg_inv = tbl.inv(ct.transporter(gi))

    def step(a):
        # a is x^e for a member x of the class: e = +1 when a is a member
        # and a^-1 is no earlier member, else x = a^-1 and e = -1.  As
        # x = t_x r t_x^-1 and g = t_g r t_g^-1, t_x t_g^-1 conjugates g to x
        ai = tbl.inv(a)
        if ct.class_of[a] == cls_g and not (ct.class_of[ai] == cls_g
                                            and ai < a):
            e, x = 1, a
        else:
            e, x = -1, ai
        return tbl.decode(tbl.mul(ct.transporter(x), tg_inv)), e, "bfs"

    targets = (involution_indices if spec.perm
               else projective_involution_indices)(tbl)

    parents = {}  # class index -> node it was first reached from
    level = 0
    for level, y in class_search(tbl, gi, ct.class_of, parents):
        if y in targets:
            # generator a_k = x_(k-1)^-1 y_k along the path back
            word, x = [], y
            while x is not None:
                prev = parents[ct.class_of[x]]
                word.append(x if prev is None
                            else tbl.mul(tbl.inv(prev), x))
                x = prev
            steps = [step(a) for a in reversed(word)]
            return Witness(spec, g, steps, tbl.decode(y))
    certificate = {
        "group_order": tbl.order,
        "classes_in_closure": len(parents),
        "closure_size": sum(ct.sizes[k] for k in parents),
        "levels_explored": level,
        "involution_classes_in_group": sum(
            1 for r in ct.reps if r in targets),
    }
    raise Unreachable("closure of the class contains no involution",
                      certificate)


# -- main pipeline -------------------------------------------------------


def construct_involution(g, spec):
    """Witness for a non-central g in the group described by spec.

    Matrix families GL and SL take Mat inputs; Sym and Alt take Perm
    inputs.  An input of the wrong kind, size or field raises ValueError.
    One that no product of conjugates takes to an involution, in the
    order-3 class of SL(2,2) or a permutation of degree at most 3, raises
    Unreachable.  The returned witness is replayed before being handed
    back; one that fails the replay raises ConstructError."""
    if spec.projective:
        raise ValueError("construction not supported for family %r"
                         % spec.family)
    if not _fits(g, spec):
        raise ValueError("input is not an element of the shape of %r"
                         % (spec,))
    found = None
    if spec.perm:
        if g.is_identity():
            raise ValueError("identity has no witness")
        if spec.special and g.parity() != 0:
            raise ValueError("odd permutation is outside the group")
        traded = g.n != 5 or g.cycle_type() != (5,)
        own_target = traded and _target_violation(g, spec) is None
    else:
        cls = classify(g, spec)
        if not cls.in_group:
            raise ValueError("determinant is not 1: outside the group")
        if cls.central:
            raise ValueError("central element has no witness")
        traded = g.det() != 1 or g.n > 2
        # replay's target check on a matrix is classify's predicate
        own_target = traded and cls.projective_involution
        if not traded:
            found = _sl2_core(g)
            if found is None and spec.q == 2:
                raise Unreachable("closure of the class contains no "
                                  "involution", dict(_SL22_CERTIFICATE))
            if found is None:
                raise ConstructError(
                    "no 2x2 word of at most 4 steps has trace 0")
        elif not own_target and g.n == 3 and g.ctx.p == 2 and g.det() == 1:
            found = _unipotent_word(g)
    certificate = None
    if found is not None:
        steps, target = found
    elif own_target:
        # an input that the trade word would take and that passes replay's
        # target check is its own target, the 1-step word [(I, +1)]
        steps, target = [(g ** 0, 1, "involution")], g
    elif spec.perm and not traded:
        raw, target, certificate = a5_witness(g)
        steps = [(c, e, "a5-search") for c, e in raw]
    elif spec.perm and g.n <= 3:
        # Alt(n) has odd order for n <= 3: no even involution to reach
        raise Unreachable("the group holds no even involution", {
            "group_order": factorial(g.n) // (2 if spec.special else 1),
            "even_involution_classes_in_group": 0})
    elif spec.perm:
        # the trade word g^-1 (h^-1 g h), whose product is the even
        # involution x = [g, h] that alt_partner's own check formed; the
        # restart spells the same word over its matrix partner (_reseed)
        h, x = _alt_partner(g)
        steps, target = [(h ** 0, -1, "alt-partner"),
                         (h.inv(), 1, "alt-partner")], x
    else:
        steps, target = _reseed(g)
    w = Witness(spec, g, steps, target, certificate)
    rep = replay(w)
    if not rep.ok:
        raise ConstructError("construction produced an invalid witness: %s"
                             % rep.violation)
    return w


# -- replay and serialization ---------------------------------------------


class ReplayReport:
    __slots__ = ("ok", "violation", "length", "net_exponent")

    def __init__(self, ok, violation, length, net_exponent):
        self.ok = ok
        self.violation = violation
        self.length = length
        self.net_exponent = net_exponent

    def __repr__(self):
        state = "ok" if self.ok else "violation=%s" % self.violation
        return "ReplayReport(%s, length=%d, net=%d)" % (
            state, self.length, self.net_exponent)


def _fits(x, spec):
    """Whether x has the shape of an element of spec: a permutation of
    degree spec.n, or a spec.n x spec.n matrix over GF(spec.q)."""
    if spec.perm:
        return isinstance(x, Perm) and x.n == spec.n
    return (isinstance(x, Mat) and x.n == x.m == spec.n
            and x.ctx.q == spec.q)


def _target_violation(t, spec, square=None):
    """The violation of a target that is no (projective) involution of the
    family, or None.  square, for a matrix t whose square replay holds in
    factored form, iterates over the rows of t^2."""
    if spec.perm:
        if t.is_identity() or not (t * t).is_identity():
            return "target-not-involution"
        return "target-parity" if t.parity() != 0 else None
    if not is_projective_involution(t, square):
        return "target-not-projective-involution"
    return None


# A matrix witness replays in factored form when every conjugator c has
# _RANK_STEP (rank(c - I) + 1) <= n and every partial exponent sum is in
# {-1, 0, 1}.  Restart witnesses, whose conjugators had rank(c - I) <= 1
# in every one measured, do so from n = 6 up.  Below that line the dense
# path is as fast or faster (measured per n, rank and q in CHANGES.md)
_RANK_STEP = 3

# what _replay_low_rank returns for a conjugator of too high a rank
_DENSE = object()


def _stack(a, b):
    return Mat(a.ctx, a.rows + b.rows)


def _beside(a, b):
    return Mat(a.ctx, [x + y for x, y in zip(a.rows, b.rows)])


def _low_rank_conjugate(e, times_g, g_times, factors):
    """(e, l, r, u) with c g^e c^-1 = G + l r for G = g^e and the factors
    (u, v, m) of c: c = I + u v and m = -(I_r + v u)^-1, so c^-1 = I + u m v
    and c G c^-1 = G + [u | G u] [v G + (v G u) m v ; m v].  times_g(x, e)
    is x g^e for x of r rows, g_times(e, x) g^e x for x of r columns, and
    every other product is r x r or with r rows or columns."""
    u, v, m = factors
    vg, mv = times_g(v, e), m * v
    return e, _beside(u, g_times(e, u)), _stack(vg + (vg * u) * mv, mv), u


def _times(acc, y, times_g, g_times):
    """The factored product (g^m + l r)(g^e + l' r') = g^(m+e) + [g^m l' |
    l] [r' ; r g^e + (r l') r'] of acc = (m, l, r) and a conjugate y = (e,
    l', r', u'), l' = [u' | g^e u']; l and r are None for an empty l.  For
    m != 0 the partial sums in {-1, 0, 1} make m = -e, so g^m l' = [g^m u' |
    u']: one product or solve of the r columns of u'."""
    m, l, r = acc
    e, l2, r2, u2 = y
    if l2 is None:
        return m + e, l, None if r is None else times_g(r, e)
    moved = _beside(g_times(m, u2), u2) if m else l2
    if l is None:
        return m + e, moved, r2
    return m + e, _beside(moved, l), _stack(
        r2, times_g(r, e) + (r * l2) * r2)


def _fold(ys, times_g, g_times):
    """The factored product (m, l, r) of the factored conjugates ys.  A
    word that is one block twice squares the block's product, (I + l r)^2 =
    I + l (r l + 2 I) r: the block's net exponent is 0, as the partial
    exponent sums of the word stay in {-1, 0, 1}."""
    half = len(ys) // 2
    if len(ys) % 2 == 0 and all(a is b for a, b in zip(ys[:half], ys[half:])):
        m, l, r = _fold(ys[:half], times_g, g_times)
        if l is None:
            return m, l, r
        two = Mat.scalar(r.ctx, r.n, r.ctx.scalar(2))
        return m, l, (r * l + two) * r
    acc = ys[0][:3]
    for y in ys[1:]:
        acc = _times(acc, y, times_g, g_times)
    return acc


def _replay_low_rank(w, most):
    """The first violation of a matrix witness, or None, checked in
    O(n^2 r) per distinct step besides g's forward elimination; _DENSE when
    a conjugator has rank(c - I) above most.  g^-1 is read only through
    solves of rows and columns (Mat.solve_rows, Mat.solve_cols), so no
    inverse of g is formed for a word of net exponent 0.  Each distinct
    conjugator is factored once (low_rank_part), det c = det(I_r + v u),
    and each distinct step's conjugate is g^e plus a term of rank 2 r; the
    product g^m + l r is formed once, for the product check, and a target
    I + l r is squared in factored form."""
    g, ctx, n = w.g, w.g.ctx, w.g.n
    eye = Mat.identity(ctx, n)

    def times_g(x, e):
        return x if e == 0 else x * g if e == 1 else g.solve_rows(x)

    def g_times(e, x):
        return x if e == 0 else g * x if e == 1 else g.solve_cols(x)
    factored, conjugates, ys = {}, {}, []
    for s in w.steps:
        key = (s.c, s.e)
        y = conjugates.get(key)
        if y is None:
            if s.c == eye:
                y = (s.e, None, None, None)
            else:
                factors = factored.get(s.c)
                if factors is None:
                    found = low_rank_part(s.c, most)
                    if found is None:
                        return _DENSE
                    u, v = found
                    core = v * u + Mat.identity(ctx, v.n)
                    if core.det() != 1:
                        return "conjugator-determinant"
                    factors = factored[s.c] = (u, v, -core.inv())
                y = _low_rank_conjugate(s.e, times_g, g_times, factors)
            conjugates[key] = y
        ys.append(y)
    m, l, r = _fold(ys, times_g, g_times)
    t = w.target
    g_m = eye if m == 0 else g if m == 1 else g.inv()
    if l is None:
        return ("product-mismatch" if g_m != t
                else _target_violation(t, w.spec))
    if add_product(g_m, l, r) != t:
        return "product-mismatch"
    # t = I + l r, so t^2 = t + l (r t)
    return _target_violation(t, w.spec,
                             add_product(t, l, r * t).rows if m == 0 else None)


def replay(w):
    """Recompute the product and recheck every invariant; reports the
    first violation instead of raising, in the same order on either path.
    g's determinant comes from its forward elimination (det, kept on the
    matrix: a g that classify has met is not eliminated again; a
    permutation's det is its sign).  A matrix witness of dimension n whose
    partial exponent sums stay in {-1, 0, 1}, as every restart word's do,
    and whose conjugators have _RANK_STEP (rank(c - I) + 1) <= n replays in
    factored form (_replay_low_rank): no n x n product, g^-1 read only
    through solves, and no elimination but g's forward one and one of
    r x r per distinct conjugator.  Every other witness, a permutation's
    too, takes the dense path: the determinant (a permutation's sign) of
    each distinct conjugator other than the identity, then _product, which
    forms each distinct step's conjugate once, reading g^-1 (for a matrix,
    the backward half of g's kept elimination) only if a step does.  On
    either path a step whose conjugator is the identity reads g^e
    itself."""
    spec = w.spec
    length = len(w.steps)
    net = sum(s.e for s in w.steps)

    def report(violation=None):
        return ReplayReport(violation is None, violation, length, net)

    if length == 0:
        return report("empty-witness")
    if length > MAX_WITNESS_LEN:
        return report("length-exceeds-%d" % MAX_WITNESS_LEN)
    if net != w.net_exponent:
        return report("net-exponent-mismatch")
    if not all(_fits(x, spec) for x in [w.g, w.target] + [s.c for s in w.steps]):
        return report("spec-mismatch")
    g = w.g
    det = g.det()
    if det == 0 or (det != 1 and spec.special):
        return report("element-outside-group")
    most = g.n // _RANK_STEP - 1
    if (not spec.perm and most > 0
            and max(map(abs, accumulate(s.e for s in w.steps))) <= 1):
        violation = _replay_low_rank(w, most)
        if violation is not _DENSE:
            return report(violation)
    # the identity conjugator, of determinant 1, gives g^e itself; each
    # other distinct conjugator keeps the elimination its det made, which
    # its inverse in _product finishes
    if any(c.det() != 1 for c in {s.c for s in w.steps}
           if not c.is_identity()):
        return report("conjugator-parity" if spec.perm
                      else "conjugator-determinant")
    if _product(g, [(s.c, s.e, s.case) for s in w.steps]) != w.target:
        return report("product-mismatch")
    return report(_target_violation(w.target, spec))


def witness_to_json(w):
    spec = w.spec
    group = {"family": spec.family, "n": spec.n}
    if spec.q is not None:
        group["q"] = spec.q
    obj = {
        "group": group,
        "g": str(w.g),
        "steps": [{"c": str(s.c), "e": s.e, "case": s.case}
                  for s in w.steps],
        "target": str(w.target),
        "net_exponent": w.net_exponent,
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _record_field(obj, key, kind):
    """obj[key] when obj is a dict holding a kind there (a bool is no int);
    ValueError for any other structure."""
    x = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(x, kind) or (kind is int and isinstance(x, bool)):
        raise ValueError("malformed witness record: %r is not of type %s"
                         % (key, kind.__name__))
    return x


def witness_from_json(text):
    """The witness a witness_to_json record describes.  ValueError for a
    record of the wrong structure or types, or whose net exponent differs
    from the sum of its steps'."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("malformed witness record: not a JSON object")
    group = _record_field(obj, "group", dict)
    spec = GroupSpec(group.get("family"), group.get("n"), group.get("q"))
    if spec.perm:
        dec = lambda s: Perm.from_cycles(s, spec.n)
    else:
        ctx = make_field(spec.q)
        dec = lambda s: parse_mat(ctx, s)
    steps = [(dec(_record_field(d, "c", str)), _record_field(d, "e", int),
              _record_field(d, "case", str))
             for d in _record_field(obj, "steps", list)]
    w = Witness(spec, dec(_record_field(obj, "g", str)), steps,
                dec(_record_field(obj, "target", str)))
    if w.net_exponent != _record_field(obj, "net_exponent", int):
        raise ValueError("net exponent mismatch in witness record")
    return w
