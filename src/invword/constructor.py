"""Witnesses: short products of conjugates reaching an involution.

construct_involution(g, spec) returns a Witness holding steps (c_i, e_i)
with every c_i of determinant 1 (even parity in the alternating case) such
that prod_i c_i g^{e_i} c_i^{-1} equals a recorded target t with t^2 scalar
(in {I, -I}) and t non-central.  A projective involution is its own
1-step witness.  Otherwise there are three outcomes.  A 2x2
determinant-1 element takes one trace rule (_sl2_core): the shortest word
g (k g^e k^-1)^m, k a transvection, whose product has trace 0, of at most
4 steps.  A fixed list of small groups, where the 2x2 rule and the
restart degenerate, reads a stored minimal word for the class of g
(class_words, regenerated by class_word_table with the oracle's
class-graph search) and conjugates it back to g, so no group is
enumerated.  Every other element takes the commutator restart: up to
dimension 4 on its canonical form, the commutator with a partner h
(find_partner) moves a window of dimension at most 4, solved there and
lifted.  For odd q, n >= 3 and g not quadratic, h is a rank-one trace-0
partner: the window is a plane on which the commutator has trace 0, so
the witness takes 4 steps.  Otherwise h is a transvection.  No pair
is searched.  The word over a canonical form (stored or restarted) depends
on the form and the restart depth alone, so it is computed once per pair
and held in a memo of at most _CANONICAL_WORDS_HELD words; each input then
pays for its canonical form and the conjugation back.  Everything is
replayed before being returned.
"""

import json
from functools import lru_cache

from .gf import make_field
from .matrix import (GroupSpec, Mat, classify, is_projective_involution,
                     nullspace, pad, parse_mat, pivot_columns, sub_block,
                     transvection)
from .canonical import class_transversal, generalized_jordan
from .class_words import CLASS_WORDS
from .oracle import (ORDER_CAP, build_group, class_search, conjugacy_classes,
                     group_order, involution_indices,
                     projective_involution_indices)
from .perm import Perm, a5_witness, alt_partner

# Pairs (n, q) where the 2x2 rule and the restart are not available end to
# end.  Only class_word_table (and the benchmark's sl-classes grid) reads
# this list: SL(4,3) is too large for the class-graph search that fills
# the table, so it takes the restart like any other pair.
EXCLUDED_PAIRS = {(2, 2), (2, 3), (3, 2), (3, 4), (4, 2), (4, 3)}

# the pairs whose class words are stored (CLASS_WORDS): the one list the
# construction reads; these read the stored word for the canonical form of
# g, and a projective involution there reads a 1-step word
_STORED_PAIRS = frozenset(key[:2] for key in CLASS_WORDS)

# the window table's maximum over every supported q; a 3- or 4-dimensional
# window restarts once, onto a 2x2 window or a stored word, so depth 2 ends
MAX_WITNESS_LEN = 24
_MAX_DEPTH = 2

# words over canonical forms held by _canonical_word; over the classes of
# SL(4,7) one takes about 4 KiB, so the memo holds about 4 MiB when full
_CANONICAL_WORDS_HELD = 1024


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
    gi = g.inv()
    acc = Mat.identity(g.ctx, g.n)
    for c, e, _ in steps:
        acc = acc * (c * (g if e == 1 else gi) * c.inv())
    return acc


def _expand(outer, word):
    """Rewrite steps over y in terms of steps over g, where word is a
    g-word with product y: an occurrence d y d^-1 becomes the word
    conjugated by d, and d y^-1 d^-1 its reversal with flipped exponents."""
    out = []
    for d, eps, _lab in outer:
        if eps == 1:
            out.extend((d * c, e, lab) for c, e, lab in word)
        else:
            out.extend((d * c, -e, lab) for c, e, lab in reversed(word))
    return out


def _trace0_partner(g):
    """h = I + v phi with phi(v) = 0, phi(g v) = 1 and phi(g^-1 v) = 2, for
    the first v of e_1, ..., e_n, (1, ..., 1) with v, g v and g^-1 v
    independent, or None when there is none.  As h^-1 = I - v phi, the
    commutator is x = I + v phi - g^-1 v (phi g) - phi(g v) g^-1 v phi: it
    moves only S = span(v, g^-1 v), where it sends v to v - g^-1 v and g^-1 v
    to 2 v - g^-1 v.  So tr [g, h] = n - phi(g v) phi(g^-1 v) = n - 2, x has
    trace 0 and determinant 1 on S, and x - I is invertible there (its
    determinant is 2): the window is S itself.  phi lives on the first three
    pivot coordinates of the rows (v, g v, g^-1 v), one 3x3 system."""
    ctx, n = g.ctx, g.n
    ones = Mat(ctx, [[1]] * n)

    def columns(m):
        # m e_1, ..., m e_n, then m (1, ..., 1)
        return list(zip(*m.rows)) + [tuple(r[0] for r in (m * ones).rows)]

    # a non-scalar g has a candidate off its eigenvectors, so g^-1 is needed
    for rows in zip(*map(columns, (Mat.identity(ctx, n), g, g.inv()))):
        piv = pivot_columns(Mat(ctx, rows))
        if len(piv) < 3:
            continue
        a = Mat(ctx, [[r[p] for p in piv] for r in rows])
        sol = a.inv() * Mat(ctx, [[0], [1], [ctx.scalar(2)]])
        phi = [0] * n
        for p, (c,) in zip(piv, sol.rows):
            phi[p] = c
        return (Mat.identity(ctx, n)
                + Mat(ctx, [[x] for x in rows[0]]) * Mat(ctx, [phi]))
    return None


def find_partner(g):
    """The partner h whose commutator [g, h] the restart solves.  For odd q
    and n >= 3 it is the trace-0 partner I + v phi of _trace0_partner when
    one exists: its commutator is trace-0 on a 2-dimensional window, so the
    witness takes 4 steps.  A quadratic g (g^2 = a g + b) has none, as
    g^-1 v always lies in span(v, g v).

    Otherwise it is the first transvection h = I + E_ij (by position) whose
    commutator with g is non-central.  A scalar commutator with a unipotent
    h is I, since g^-1 h^-1 g = s h^-1 forces s = 1, so h is the first that
    g does not commute with: g E_ij = E_ij g exactly when column i and row j
    of g are zero off the diagonal and g_ii = g_jj.  No other coefficient
    than 1 is needed, as g commutes with I + c E_ij for all c or for none."""
    ctx, n, rows = g.ctx, g.n, g.rows
    if g.is_scalar():
        raise ValueError("central element has no partner")
    if ctx.p != 2 and n >= 3:
        h = _trace0_partner(g)
        if h is not None:
            return h
    col_diag = [all(rows[k][i] == 0 for k in range(n) if k != i)
                for i in range(n)]
    row_diag = [all(rows[j][k] == 0 for k in range(n) if k != j)
                for j in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and not (col_diag[i] and row_diag[j]
                               and rows[i][i] == rows[j][j]):
                return transvection(ctx, n, i, j)
    raise ConstructError("non-central element must fail to commute with "
                         "some transvection")


def _reseed_word(g, h, label):
    """The word g^-1 (h^-1 g h) over a partner h of g, each step labelled
    `label`, and its product, the commutator x = g^-1 h^-1 g h.  The one
    trade word for both kinds of element: the restart's, with h =
    find_partner(g) (x has determinant 1 and is non-central), and the
    alternating group's, with h = alt_partner(g) (x is an even
    involution).  The word has net exponent 0, so a witness for x pulled
    back along it is balanced regardless of the inner word."""
    hi = h.inv()
    return [(g ** 0, -1, label), (hi, 1, label)], g.inv() * hi * g * h


def _reseed(g, depth):
    """Trade g for its commutator with a partner, solve the commutator on
    its window and pull the witness back to g."""
    word_x, x = _reseed_word(g, find_partner(g), "reseed")
    inner, t = _window(x, depth)
    return _expand(inner, word_x), t


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
            return _expand(found[0], word), found[1]
    return None


# -- window --------------------------------------------------------------


def _extend(ctx, basis, vectors):
    """basis followed by those of vectors that are independent of it and
    of the ones taken before them."""
    cols = list(basis) + list(vectors)
    return [cols[c] for c in pivot_columns(Mat(ctx, list(zip(*cols))))]


def _window(x, depth):
    """Witness for a commutator x with a transvection.  x - I has
    rank r <= 2, so x fixes K = ker(x - I) and moves only the window
    U = im(x - I) + W, W a complement of K taken from im(x - I) first:
    dim U = r + dim(im & K) <= 4.  In the basis P of U followed by a
    complement of U & K in K, x is y (+) I.  A witness for y on U lifts
    with no balance, as the complement is exactly I; conjugating by P keeps
    each conjugator's determinant.  y is never scalar: that would make U =
    im(x - I), which both transvections of x preserve, and on U their
    product, two unipotents, would be -I.  Over GF(2) a 2-dimensional
    window is widened by one kernel vector, since the order-3 class of the
    2x2 group reaches no involution while every class of the 3x3 group has
    a stored word.  The target is squared once when it squares to -I on U
    only."""
    ctx, n = x.ctx, x.n
    m = x - Mat.identity(ctx, n)
    kernel = nullspace(m)
    image = _extend(ctx, [], zip(*m.rows))
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    spanned = _extend(ctx, kernel, image)
    window = image + _extend(ctx, spanned, units)[len(spanned):]
    rest = _extend(ctx, window, kernel)[len(window):]
    if ctx.q == 2 and len(window) == 2:
        window, rest = window + rest[:1], rest[1:]
    d = len(window)
    p = Mat(ctx, list(zip(*(window + rest))))
    pi = p.inv()
    xw = pi * x * p
    y = sub_block(xw, range(d))
    if xw != pad(y, n):
        raise ConstructError("window identity failed")
    inner, t_sub = _construct_internal(y, depth + 1)
    steps = [(p * pad(c, n) * pi, e, lab) for c, e, lab in inner]
    t = pad(t_sub, n)
    if not is_projective_involution(t):
        # t may square to -I on the window only
        steps, t = steps + steps, t * t
    return steps, p * t * pi


# -- class words for the excluded pairs ------------------------------------


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
    wrong shape or field, before any group is built."""
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


def class_word_table():
    """CLASS_WORDS recomputed with the oracle: for each excluded pair small
    enough to enumerate and each determinant-1, non-central canonical form
    J there (from class_transversal), the key (n, q, J text) and either
    (the step texts (c, e) of brute_force_witness(J, SL(n, q)), the target
    text) or, for a class that reaches no involution, (the Unreachable
    message, its certificate)."""
    table = {}
    for n, q in sorted(EXCLUDED_PAIRS):
        spec = GroupSpec("SL", n, q)
        if group_order(spec) > ORDER_CAP:
            continue
        for g, _ in class_transversal(make_field(q), n):
            j = generalized_jordan(g).canonical
            key = (n, q, j.to_text())
            if key in table:
                continue
            try:
                w = brute_force_witness(j, spec)
            except Unreachable as u:
                table[key] = (str(u), u.certificate)
            else:
                table[key] = (tuple((s.c.to_text(), s.e) for s in w.steps),
                              w.target.to_text())
    return table


def _class_word(gJ):
    """The stored word over the canonical form gJ of a stored pair, as
    (steps, target), or None when CLASS_WORDS holds no entry for it.
    Raises Unreachable, with a copy of the stored certificate, for the
    class that reaches no involution."""
    entry = CLASS_WORDS.get((gJ.n, gJ.ctx.q, gJ.to_text()))
    if entry is None:
        return None
    word, target = entry
    if isinstance(word, str):
        raise Unreachable(word, dict(target))
    ctx = gJ.ctx
    return ([(parse_mat(ctx, c), e, "bfs") for c, e in word],
            parse_mat(ctx, target))


# -- main pipeline -------------------------------------------------------


@lru_cache(maxsize=_CANONICAL_WORDS_HELD)
def _canonical_word(gJ, depth):
    """(steps, target) over the canonical form gJ met at restart depth
    `depth`, the steps a tuple: the stored class word of a stored pair,
    else the commutator restart.  Both depend on (gJ, depth) alone, as
    every search is seeded, so each pair is solved once.  An exception is
    not held: each call raises afresh, with its own copy of a
    certificate."""
    stored = _class_word(gJ) if (gJ.n, gJ.ctx.q) in _STORED_PAIRS else None
    steps, t = _reseed(gJ, depth) if stored is None else stored
    return tuple(steps), t


def _construct_internal(g, depth=0):
    if depth > _MAX_DEPTH:
        raise ConstructError("recursion limit hit")
    ctx, n = g.ctx, g.n
    if g.is_scalar():
        raise ValueError("central element has no witness")
    if g.det() != 1 or n > 4:
        return _reseed(g, depth)
    if n == 2 and (n, ctx.q) not in _STORED_PAIRS:
        found = _sl2_core(g)
        if found is None:
            raise ConstructError("no 2x2 word of at most 4 steps has trace 0")
        return found
    cf = generalized_jordan(g)
    # g = u^-1 gJ u, and conjugation by u maps the word over gJ to one over
    # g with the same length and determinant-1 conjugators (below)
    steps, t = _canonical_word(cf.canonical, depth)
    if cf.u.is_identity():
        return steps, t
    u, ui = cf.u, cf.u.inv()
    return [(ui * c * u, e, lab) for c, e, lab in steps], ui * t * u


def construct_involution(g, spec):
    """Witness for a non-central g in the group described by spec.

    Matrix families GL and SL take Mat inputs; Sym and Alt take Perm
    inputs.  An input of the wrong kind, size or field raises ValueError.
    The returned witness is replayed before being handed back; one that
    fails the replay raises ConstructError."""
    if spec.projective:
        raise ValueError("construction not supported for family %r"
                         % spec.family)
    if not _fits(g, spec):
        raise ValueError("input is not an element of the shape of %r"
                         % (spec,))
    if spec.perm:
        if g.is_identity():
            raise ValueError("identity has no witness")
        if spec.special and g.parity() != 0:
            raise ValueError("odd permutation is outside the group")
        certificate = None
        if g.n == 5 and g.cycle_type() == (5,):
            raw, target, certificate = a5_witness(g)
            steps = [(c, e, "a5-search") for c, e in raw]
        else:
            steps, target = _reseed_word(g, alt_partner(g), "alt-partner")
        w = Witness(spec, g, steps, target, certificate)
    else:
        cls = classify(g, spec)
        if not cls.in_group:
            raise ValueError("determinant is not 1: outside the group")
        if cls.central:
            raise ValueError("central element has no witness")
        # a projective involution is its own target, the 1-step word
        # [(I, +1)]; the 2x2 rule and the stored class words return a 1-step
        # word themselves, and every other input would take the restart
        if cls.projective_involution and (g.det() != 1 or (
                g.n > 2 and (g.n, spec.q) not in _STORED_PAIRS)):
            steps, target = [(g ** 0, 1, "involution")], g
        else:
            steps, target = _construct_internal(g)
        w = Witness(spec, g, steps, target)
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


def _target_violation(t, spec):
    """The violation of a target that is no (projective) involution of the
    family, or None."""
    if spec.perm:
        if t.is_identity() or not (t * t).is_identity():
            return "target-not-involution"
        return "target-parity" if t.parity() != 0 else None
    if not is_projective_involution(t):
        return "target-not-projective-involution"
    return None


def replay(w):
    """Recompute the product and recheck every invariant; reports the
    first violation instead of raising."""
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
    # a permutation's inv_det gives its sign, the determinant of its matrix
    g = w.g
    gi, det = g.inv_det()
    if gi is None or (det != 1 and spec.special):
        return report("element-outside-group")
    violation = "conjugator-parity" if spec.perm else "conjugator-determinant"
    # c g^e c^-1 once per distinct step: a doubled window repeats its steps
    conjugates = {}
    acc = g ** 0
    for s in w.steps:
        key = (s.c, s.e)
        y = conjugates.get(key)
        if y is None:
            ci, det = s.c.inv_det()
            if det != 1:
                return report(violation)
            y = conjugates[key] = s.c * (g if s.e == 1 else gi) * ci
        acc = acc * y
    if acc != w.target:
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
