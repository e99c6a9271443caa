"""Witnesses: short products of conjugates reaching an involution.

construct_involution(g, spec) returns a Witness holding steps (c_i, e_i)
with every c_i of determinant 1 (even parity in the alternating case) such
that prod_i c_i g^{e_i} c_i^{-1} equals a recorded target t with t^2 scalar
(in {I, -I}) and t non-central.  Closed-form reduction words cover each
canonical shape, tried in the order of the route table; a commutator
restart answers when every route fails; a conjugacy-class graph search
covers a fixed list of small groups where the reductions degenerate.
Everything is replayed before being returned.
"""

import itertools
import json
import math
import random

from .gf import UnsupportedField, make_extension, make_field, pick_alpha, poly_deg
from .matrix import (GroupSpec, Mat, classify, commutator, pad, parse_mat,
                     sub_block, transvection, transvection_h)
from .canonical import (charpoly, companion, factor_charpoly,
                        generalized_jordan, mat_poly_eval, solve_similarity,
                        split_decomposable)
from .oracle import (GroupTooLarge, build_group, class_search,
                     conjugacy_classes, involution_indices,
                     projective_involution_test)
from .perm import Perm, a5_witness, alt_partner, commutator_perm

# Pairs (n, q) where the closed-form reductions are not available end to
# end; these go through the class-graph search first, and through the
# reductions only when the group is too large to enumerate.
EXCLUDED_PAIRS = {(2, 2), (2, 3), (3, 2), (3, 4), (4, 2), (4, 3)}

MAX_WITNESS_LEN = 96
_MAX_DEPTH = 10
_PAIR_DRAWS = 600


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
    """g, the steps, and the recorded target of the replayable product."""

    def __init__(self, spec, g, steps, target):
        self.spec = spec
        self.g = g
        self.steps = [s if isinstance(s, WitnessStep) else WitnessStep(*s)
                      for s in steps]
        self.target = target
        self.net_exponent = sum(s.e for s in self.steps)

    @property
    def length(self):
        return len(self.steps)

    def reseeded(self):
        return any("reseed" in s.case for s in self.steps)

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


def find_partner(g):
    """First transvection h (by coefficient, then position) whose
    commutator with g is non-central."""
    ctx, n = g.ctx, g.n
    if g.is_scalar():
        raise ValueError("central element has no partner")
    for lam in range(1, ctx.q):
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                h = transvection(ctx, n, i, j, lam)
                if not commutator(g, h).is_scalar():
                    return h
    raise ConstructError("non-central element must fail to commute with "
                         "some transvection")


def _reseed_word(g):
    """The word g^-1 (h^-1 g h) with h = find_partner(g), and its product,
    the commutator x = g^-1 h^-1 g h (always determinant 1 and
    non-central).  The word has net exponent 0, so a witness for x pulled
    back along it is balanced regardless of the inner word."""
    h = find_partner(g)
    word = [(Mat.identity(g.ctx, g.n), -1, "reseed"),
            (h.inv(), 1, "reseed")]
    return word, _product(g, word)


def _reseed(g, depth):
    """Trade g for its commutator with a partner and pull a witness for
    the commutator back to g."""
    word_x, x = _reseed_word(g)
    inner, t = _construct_internal(x, depth + 1)
    return _expand(inner, word_x), t


# -- 2x2 core ------------------------------------------------------------


def _sl2_unipotent(w, label):
    """Word for upper unitriangular w = I + x E_12, x != 0.  For odd q the
    product is [[1, x], [-2/x, -1]], which squares to -I; for even q the
    element is already an involution."""
    ctx = w.ctx
    x = w.rows[0][1]
    eye = Mat.identity(ctx, 2)
    if w.rows != ((1, x), (0, 1)) or x == 0:
        raise ConstructError("2x2 seed is not a nontrivial transvection")
    if ctx.p == 2:
        return [(eye, 1, label)], w
    # alpha is a square in {-1, 2, -2} and k = 2/alpha in the prime field
    alpha, _ = pick_alpha(ctx)
    k = -2 if alpha == ctx.neg(1) else 1 if alpha == ctx.scalar(2) else -1
    gamma = ctx.sqrt(ctx.div(alpha, ctx.mul(x, x)))
    if gamma is None:
        raise ConstructError("alpha / x^2 is not a square")
    s = Mat(ctx, [[ctx.neg(ctx.mul(gamma, x)), ctx.sub(x, ctx.inv(gamma))],
                  [gamma, ctx.neg(1)]])
    steps = [(eye, 1, label)] + [(s, 1 if k > 0 else -1, label)] * abs(k)
    t = _product(w, steps)
    expect = Mat(ctx, [[1, x],
                       [ctx.neg(ctx.div(ctx.scalar(2), x)), ctx.neg(1)]])
    if t != expect:
        raise ConstructError("unipotent 2x2 identity failed")
    return steps, t


def _sl2_core(g):
    """Witness steps for non-central 2x2 determinant-1 g over GF(q), q >= 2.

    Normalizes so the lower-left entry vanishes or the matrix takes the
    antidiagonal-plus form, then branches on the shape.  A branch either
    returns w itself, which the caller's replay checks, or picks a word
    whose product over w is a transvection; _sl2_unipotent checks that
    seed and its identity, and the word pulls its witness back to w.
    Over GF(2) the order-3 elements admit no witness of this kind; that
    raises."""
    ctx = g.ctx
    eye = Mat.identity(ctx, 2)
    u = None
    w = g
    word = None
    if w.rows[1][0] != 0:
        # row reduce to the form with a zero in position (1,1)
        u = transvection_h(ctx, ctx.neg(ctx.div(w.rows[0][0], w.rows[1][0])))
        w = u * w * u.inv()
    if w.rows[1][0] == 0:
        # [[a, b], [0, 1/a]]
        a, b = w.rows[0][0], w.rows[0][1]
        if a == 1:
            steps, t = _sl2_unipotent(w, "sl2-unipotent")
        elif a == ctx.neg(1):
            # q odd, b != 0: w^2 = I + (-2b) E_12
            word = [(eye, 1, "sl2-square"), (eye, 1, "sl2-square")]
        else:
            # a not 0, 1, -1: commutator with h(1) is I + (1 - a^2) E_12
            h1 = transvection_h(ctx, 1)
            word = [(h1, 1, "sl2-commutator"), (eye, -1, "sl2-commutator")]
    else:
        # [[0, -1/a], [a, b]]
        a, b = w.rows[1][0], w.rows[1][1]
        if b == 0:
            # already squares to -I (to I when q is even)
            steps, t = [(eye, 1, "sl2-antidiagonal")], w
        elif ctx.p != 2:
            # (h2 w h2^-1 w)^2 = I + (4b/a) E_12 with h2 = I + (b/a) E_12
            h2 = transvection_h(ctx, ctx.div(b, a))
            word = [(h2, 1, "sl2-twist"), (eye, 1, "sl2-twist")] * 2
        else:
            if ctx.q == 2:
                raise ConstructError(
                    "order-3 element of the 2x2 group over GF(2): no "
                    "product of conjugates is an involution")
            # even q >= 4: commutator with a diagonal-plus matrix lands in
            # the triangular branch, and one more commutator is unipotent
            c = 2  # any element outside {0, 1}
            off = ctx.mul(ctx.sub(ctx.mul(c, c), 1),
                          ctx.div(b, ctx.mul(a, c)))
            h3 = Mat(ctx, [[c, off], [0, ctx.inv(c)]])
            h1 = transvection_h(ctx, 1)
            word = _expand([(h1, 1, "sl2-char2"), (eye, -1, "sl2-char2")],
                           [(h3, 1, "sl2-char2"), (eye, -1, "sl2-char2")])
    if word is not None:
        # the word's steps carry the branch's label
        inner, t = _sl2_unipotent(_product(w, word), word[0][2])
        steps = _expand(inner, word)
    if u is not None:
        # the word was built over w = u g u^-1 and u has determinant 1
        steps = [(c * u, e, lab) for c, e, lab in steps]
    return steps, t


def sl2_witness(g):
    """Witness for a non-central 2x2 determinant-1 matrix, q > 3: the
    same witness construct_involution builds in SL(2, q).

    For q in {2, 3} use construct_involution, which routes these through
    the class-graph search."""
    if g.ctx.q <= 3:
        raise ValueError("q <= 3 needs the search fallback; "
                         "call construct_involution")
    return construct_involution(g, GroupSpec("SL", 2, g.ctx.q))


# -- reduction words for the canonical shapes ----------------------------


def _s3(ctx, n, y):
    """The 3x3 gadget [[0, -1, y], [1, 0, 0], [0, 0, 1]] (determinant 1)
    acting on the last three coordinates."""
    r = Mat(ctx, [[0, ctx.neg(1), y], [1, 0, 0], [0, 0, 1]])
    return pad(r, n, n - 3)


def _unit_residue(ctx, n):
    """I + E_{n-1,n}: the product the closed-form block words reach."""
    return pad(transvection_h(ctx, 1), n, n - 2)


def _det_one(v):
    """v scaled by a nu with nu^n = 1/det v; the scalar cancels in the
    conjugation, so this repairs a conjugator's determinant invisibly.
    Raises ConstructError when det v is 0 or not an n-th power."""
    ctx, d = v.ctx, v.det()
    if d == 1:
        return v
    if d == 0:
        raise ConstructError("conjugator singular")
    target = ctx.inv(d)
    for nu in range(1, ctx.q):
        if ctx.pow(nu, v.n) == target:
            return v.scale(nu)
    raise ConstructError("conjugator determinant outside the n-th powers")


def _m1_word(gJ):
    """Companion matrix of an irreducible polynomial, n >= 3: a 4-step word
    whose product is I + E_{n-1,n}."""
    ctx, n = gJ.ctx, gJ.n
    lab = "m1-reduction"
    return [(_s3(ctx, n, ctx.neg(1)), -1, lab), (_s3(ctx, n, 0), 1, lab),
            (_s3(ctx, n, 1), -1, lab), (_s3(ctx, n, 0), 1, lab)]


def _mn_word(gJ):
    """lambda (I + N), n >= 3: a 2-step word with product I + E_{n-1,n}.
    The scalar lambda cancels between the two exponents."""
    ctx, n = gJ.ctx, gJ.n
    lab = "mn-reduction"

    def v_of(y):
        rows = [[0] * n for _ in range(n)]
        rows[n - 2][0] = 1
        rows[n - 3][1] = ctx.add(rows[n - 3][1], 1)
        for i in range(3, n + 1):
            rows[n - i][i - 1] = ctx.add(rows[n - i][i - 1], 1)
            sgn = 1 if i % 2 == 1 else ctx.neg(1)
            rows[n - 1][i - 1] = ctx.add(rows[n - 1][i - 1], sgn)
        rows[n - 2][1] = ctx.add(rows[n - 2][1], y)
        return Mat(ctx, rows)

    return [(_det_one(v_of(1)), 1, lab), (_det_one(v_of(0)), -1, lab)]


def _pair_word(gJ):
    """lambda (I + N) when _mn_word fails: a searched 2-step word with
    product I + E_{n-1,n}."""
    a, b = _pair_search(gJ, _unit_residue(gJ.ctx, gJ.n))
    return [(a, 1, "mn-reduction"), (b, -1, "mn-reduction")]


def _m2_t2(ctx, n, f):
    """The auxiliary conjugator for the two-block shape, n = 2d >= 6."""
    half = n // 2
    rows = [[0] * n for _ in range(n)]

    def put(i, j, val):
        # i, j are 1-indexed
        rows[i - 1][j - 1] = ctx.add(rows[i - 1][j - 1], val)

    if n == 6:
        put(1, 4, 1)
        put(2, 3, 1)
        put(2, 6, 1)
        put(3, 1, 1)
        put(4, 2, 1)
        put(6, 6, 1)
        put(4, 4, ctx.neg(1))
        put(5, 5, ctx.neg(1))
        put(5, 6, ctx.add(1, f[2]))
    else:
        put(1, n, 1)
        put(1, half + 1, 1 if (half + 1) % 2 == 1 else ctx.neg(1))
        for i in range(2, half - 1):
            put(i, half + i, 1)
        for i in range(1, half + 1):
            put(half - 2 + i, i, 1)
        put(n - 2, n - 2, ctx.neg(1))
        put(n - 1, n - 1, ctx.neg(1))
        put(n - 1, n, ctx.add(1, f[half - 1]))
        put(n, n, 1)
    return Mat(ctx, rows)


def _m2_word(gJ, f):
    """Two Jordan blocks for the same irreducible f of degree d = n/2 >= 2:
    (word, product).  A 4-step word with product I + E_{n-1,n} when
    n >= 6; a searched pair reaching I (+) [[1, 1], [1/c0, 1 + 1/c0]]
    (determinant 1, not scalar) when n = 4."""
    ctx, n = gJ.ctx, gJ.n
    lab = "m2-reduction"
    if n == 4:
        c0 = f[0]
        wres = Mat(ctx, [[1, 1], [ctx.inv(c0), ctx.add(1, ctx.inv(c0))]])
        target = pad(wres, 4, 2)
        A, B = _pair_search(gJ, target)
        return [(A, 1, lab), (B, -1, lab)], target
    t1 = _unit_residue(ctx, n)
    A = _det_one(_m2_t2(ctx, n, f)).inv()
    B = A * t1
    s0, sm1 = _s3(ctx, n, 0), _s3(ctx, n, ctx.neg(1))
    return [(s0 * A, -1, lab), (s0 * B, 1, lab),
            (sm1 * B, -1, lab), (sm1 * A, 1, lab)], t1


# -- searched pairs ------------------------------------------------------


def _pair_candidates(ctx, n):
    """The identity, the unit transvections, then _PAIR_DRAWS seeded
    random products of 2n transvections."""
    yield Mat.identity(ctx, n)
    for i in range(n):
        for j in range(n):
            if i != j:
                yield transvection(ctx, n, i, j, 1)
    rng = random.Random(0xA11CE ^ (ctx.q * 1009 + n))
    for _ in range(_PAIR_DRAWS):
        m = Mat.identity(ctx, n)
        for _ in range(2 * n):
            i = rng.randrange(n)
            j = rng.randrange(n)
            if i == j:
                continue
            m = m * transvection(ctx, n, i, j, rng.randrange(1, ctx.q))
        yield m


def _similarity_in_sl(g, m):
    """u with u g u^-1 = m and det u = 1, or None.  A base solution is
    corrected inside the centralizer F[g] (g is regular in every use).

    With charpoly(g) = prod f_i^e_i, det p(g) = prod N(p mod f_i)^e_i,
    norms taken down to GF(q); norms are onto GF(q)*, so the determinants
    reached in F[g] are exactly the e-th powers, e = gcd(e_i).  A target
    outside them returns None without enumerating F[g]."""
    u0 = solve_similarity(g, m)
    if u0 is None:
        return None
    d = u0.det()
    if d == 1:
        return u0
    ctx, n = g.ctx, g.n
    want = ctx.inv(d)
    e = ctx.q - 1
    for _, mult in factor_charpoly(g):
        e = math.gcd(e, mult)
    if ctx.pow(want, (ctx.q - 1) // e) != 1:
        return None  # want is not an e-th power
    for coeffs in itertools.islice(
            itertools.product(range(ctx.q), repeat=n), 300000):
        z = mat_poly_eval(g, coeffs)
        if z.det() == want:
            return u0 * z
    return None


def _pair_search(g, target):
    """Determinant-1 pair (A, B) with (A g A^-1)(B g^-1 B^-1) = target."""
    cp_g = charpoly(g)
    for b in _pair_candidates(g.ctx, g.n):
        m = target * (b * g * b.inv())
        if charpoly(m) != cp_g:
            continue
        a = _similarity_in_sl(g, m)
        if a is not None:
            return a, b
    raise ConstructError("pair search exhausted")


# -- residue finish, descent, decomposition ------------------------------


def _lift_sub(c, n, emb):
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for a, i in enumerate(emb):
        for b, j in enumerate(emb):
            rows[i][j] = c.rows[a][b]
    return Mat(c.ctx, rows)


def _lift_square(gJ, inner, t_sub, emb, word=None):
    """Embed a witness (inner, t_sub) for the block on the coordinates emb
    into the size of gJ, pull it back along word when it was built over
    word's product rather than over gJ, and square once if the embedded
    target is not yet a projective involution (it may square to -I on
    the block only)."""
    n = gJ.n
    steps = [(_lift_sub(c, n, emb), e, lab) for c, e, lab in inner]
    if word is not None:
        steps = _expand(steps, word)
    t = _lift_sub(t_sub, n, emb)
    if not classify(t, GroupSpec("SL", n, gJ.ctx.q)).projective_involution:
        steps = steps + steps
        t = t * t
    return steps, t


def _finish_block(gJ, word, expect=None):
    """Check that word's product over gJ is expect = I (+) r, a 2x2 residue
    r on the last two coordinates (I + E_{n-1,n} by default), then finish
    with a 2x2 word on r and lift it."""
    n = gJ.n
    if expect is None:
        expect = _unit_residue(gJ.ctx, n)
    if _product(gJ, word) != expect:
        raise ConstructError("%s identity failed" % word[0][2])
    emb = (n - 2, n - 1)
    inner, t_sub = _sl2_core(sub_block(expect, emb))
    return _lift_square(gJ, inner, t_sub, emb, word)


def _phi(mat_ext, base, f):
    """Entrywise blow-up along the extension defined by f: each entry
    sum b_k xi^k becomes sum b_k C(f)^k.  A ring homomorphism, so words
    and their products descend entry by entry."""
    ext = mat_ext.ctx
    d = poly_deg(f)
    comp = companion(base, f)
    m = mat_ext.n
    out = [[0] * (m * d) for _ in range(m * d)]
    for i in range(m):
        for j in range(m):
            a = mat_ext.rows[i][j]
            if a == 0:
                continue
            blk = mat_poly_eval(comp, ext.coords_base(a))
            for bi in range(d):
                for bj in range(d):
                    out[i * d + bi][j * d + bj] = blk.rows[bi][bj]
    return Mat(base, out)


def _ext_descent(gJ, f, mult):
    """Jordan block for irreducible f of degree d >= 2 with multiplicity
    mult: view it as xi (I + N) over GF(q^d), solve there, map the word
    down entrywise.  Determinants of the mapped conjugators are norms of
    the upstairs determinants, so determinant-1 is preserved."""
    base = gJ.ctx
    ext = make_extension(base, f)  # UnsupportedField above 32 elements
    xi = base.q  # encoding of the adjoined root
    rows = [[0] * mult for _ in range(mult)]
    for i in range(mult):
        rows[i][i] = xi
        if i + 1 < mult:
            rows[i][i + 1] = xi
    m_up = Mat(ext, rows)
    if _phi(m_up, base, f) != gJ:
        raise ConstructError("block is not the blow-up of xi (I + N)")
    if mult >= 3:
        steps_up, t_up = _finish_block(m_up, _mn_word(m_up))
    else:
        # mult == 2 with even q: the upstairs matrix has determinant
        # xi^2 != 1, so reseed there and solve the 2x2 case
        word_x, x = _reseed_word(m_up)
        inner, t_up = _sl2_core(x)
        steps_up = _expand(inner, word_x)
    return ([(_phi(c, base, f), e, "descent/" + lab) for c, e, lab in steps_up],
            _phi(t_up, base, f))


def _decomposable(gJ, cf, depth):
    """Split into diagonal parts, solve on one non-scalar part with a
    balanced word (so the complement cancels) and lift it.  An unbalanced
    word for the part is traded for a commutator restart, whose words
    always balance."""
    ctx = gJ.ctx
    g1, g2, (emb1, emb2) = split_decomposable(cf, gJ)
    sides = [(g1, emb1), (g2, emb2)]
    viable = [(s, e) for s, e in sides
              if not s.is_scalar() and not (s.n == 2 and ctx.q == 2)]
    if viable:
        sub, emb = viable[0]
    else:
        # only a 2x2 part over GF(2) is non-scalar; balanced words do not
        # exist there (they land in the index-2 subgroup), so widen the
        # part by one coordinate of the scalar complement
        traps = [e for s, e in sides if not s.is_scalar()]
        if not traps:
            raise ConstructError("split left no non-scalar part")
        emb_t = traps[0]
        emb_o = emb2 if emb_t == emb1 else emb1
        emb = tuple(emb_t) + (emb_o[0],)
        sub = sub_block(gJ, emb)
    inner, t_sub = _construct_internal(sub, depth + 1)
    if sum(e for _, e, _ in inner) != 0:
        inner, t_sub = _reseed(sub, depth + 1)
    return _lift_square(gJ, inner, t_sub, emb)


# -- class-graph search for the excluded pairs ----------------------------


def brute_force_witness(g, spec, cap=48):
    """Exhaustive witness via the conjugacy-class graph of the ambient
    group.  Levels of the graph are exactly the classes meeting the k-fold
    products of the class of g and its inverse, so the first hit gives a
    minimum-length witness.  Raises Unreachable (with a closure
    certificate) when no involution is reachable, GroupTooLarge when the
    group cannot be enumerated, ConstructError past the cap.  Only SL and
    Alt: elsewhere the table's words do not replay (parity in Sym,
    determinant in GL, products up to scalars in PSL and PGL), so other
    families raise ValueError."""
    if spec.family not in ("SL", "Alt"):
        raise ValueError("class-graph search not supported for family %r"
                         % spec.family)
    tbl = build_group(spec)
    ct = conjugacy_classes(tbl)
    gi = tbl.index_of(g) if _fits(g, spec) else None
    if gi is None:
        raise ValueError("element outside the group")
    if gi == tbl.identity_index:
        raise ValueError("identity has no witness")
    cls_g = ct.class_of[gi]
    tg_inv = tbl.inv(ct.transporter[gi])

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
        return tbl.decode(tbl.mul(ct.transporter[x], tg_inv)), e, "bfs"

    if spec.family == "Alt":
        is_target = involution_indices(tbl).__contains__
    else:
        is_target = projective_involution_test(tbl)

    parents = {}  # class index -> node it was first reached from
    level = 0
    for level, y in class_search(tbl, gi, ct.class_of, parents):
        if level > cap:
            break
        if is_target(y):
            # generator a_k = x_(k-1)^-1 y_k along the path back
            word, x = [], y
            while x is not None:
                prev = parents[ct.class_of[x]]
                word.append(x if prev is None
                            else tbl.mul(tbl.inv(prev), x))
                x = prev
            steps = [step(a) for a in reversed(word)]
            return Witness(spec, g, steps, tbl.decode(y))
    if level >= cap:
        raise ConstructError("class search passed the cap (%d)" % cap)
    certificate = {
        "group_order": tbl.order,
        "classes_in_closure": len(parents),
        "closure_size": sum(ct.sizes[k] for k in parents),
        "levels_explored": level,
        "involution_classes_in_group": sum(
            1 for k in range(len(ct.reps)) if is_target(ct.reps[k])),
    }
    raise Unreachable("closure of the class contains no involution",
                      certificate)


# -- main pipeline -------------------------------------------------------


def _m2_descent(gJ, cf):
    if gJ.ctx.p != 2:
        raise ConstructError("double-block descent needs characteristic 2")
    return _ext_descent(gJ, cf.blocks[0][0], 2)


# Indecomposable canonical case -> its closed-form routes in the order they
# are tried.  A route takes (gJ, cf) and returns (steps, t); it may raise
# ConstructError or UnsupportedField, and then the next route runs.  When
# every route fails, the commutator restart (_reseed) answers.
_ROUTES = {
    "m1": [lambda gJ, cf: _finish_block(gJ, _m1_word(gJ))],
    "mn": [lambda gJ, cf: _finish_block(gJ, _mn_word(gJ)),
           lambda gJ, cf: _finish_block(gJ, _pair_word(gJ))],
    "m2": [lambda gJ, cf: _finish_block(gJ, *_m2_word(gJ, cf.blocks[0][0])),
           _m2_descent],
    "ext": [lambda gJ, cf: _ext_descent(gJ, *cf.blocks[0])],
}


def _construct_internal(g, depth=0):
    if depth > _MAX_DEPTH:
        raise ConstructError("recursion limit hit")
    ctx, n = g.ctx, g.n
    if g.is_scalar():
        raise ValueError("central element has no witness")
    if g.det() != 1:
        return _reseed(g, depth)
    if (n, ctx.q) in EXCLUDED_PAIRS:
        try:
            w = brute_force_witness(g, GroupSpec("SL", n, ctx.q))
        except GroupTooLarge:
            pass  # the generic routes below
        else:
            return [(s.c, s.e, s.case) for s in w.steps], w.target
    if n == 2:
        return _sl2_core(g)
    cf = generalized_jordan(g)
    gJ = cf.canonical
    if cf.case == "decomposable":
        steps, t = _decomposable(gJ, cf, depth)
    else:
        for route in _ROUTES[cf.case]:
            try:
                steps, t = route(gJ, cf)
                break
            except (ConstructError, UnsupportedField):
                pass
        else:
            steps, t = _reseed(gJ, depth)
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
    if spec.family not in ("Sym", "Alt", "GL", "SL"):
        raise ValueError("construction not supported for family %r"
                         % spec.family)
    if not _fits(g, spec):
        raise ValueError("input is not an element of the shape of %r"
                         % (spec,))
    if spec.family in ("Sym", "Alt"):
        if g.is_identity():
            raise ValueError("identity has no witness")
        if spec.family == "Alt" and g.parity() != 0:
            raise ValueError("odd permutation is outside the group")
        certificate = None
        if g.n == 5 and g.cycle_type() == (5,):
            raw, target, certificate = a5_witness(g)
            steps = [(c, e, "a5-search") for c, e in raw]
        else:
            h = alt_partner(g)
            steps = [(Perm.identity(g.n), -1, "alt-partner"),
                     (h.inv(), 1, "alt-partner")]
            target = commutator_perm(g, h)
        w = Witness(spec, g, steps, target)
        w.certificate = certificate
    else:
        if any(not 0 <= x < spec.q for row in g.rows for x in row):
            raise ValueError("matrix entry out of range for GF(%d)" % spec.q)
        cls = classify(g, spec)
        if not cls.in_group:
            raise ValueError("determinant is not 1: outside the group")
        if cls.central:
            raise ValueError("central element has no witness")
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
    if spec.family in ("Sym", "Alt"):
        return isinstance(x, Perm) and x.n == spec.n
    return (isinstance(x, Mat) and x.n == x.m == spec.n
            and x.ctx.q == spec.q)


def _target_violation(t, spec):
    """The violation of a target that is no (projective) involution of the
    family, or None."""
    if spec.family in ("Sym", "Alt"):
        if t.is_identity() or not (t * t).is_identity():
            return "target-not-involution"
        return "target-parity" if t.parity() != 0 else None
    if not classify(t, spec).projective_involution:
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
    g = w.g
    if spec.family in ("Sym", "Alt"):
        acc = Perm.identity(g.n)
        bad, violation = (lambda c: c.parity() != 0), "conjugator-parity"
    else:
        acc = Mat.identity(g.ctx, g.n)
        bad, violation = (lambda c: c.det() != 1), "conjugator-determinant"
    gi = g.inv()
    for s in w.steps:
        if bad(s.c):
            return report(violation)
        acc = acc * (s.c * (g if s.e == 1 else gi) * s.c.inv())
    if acc != w.target:
        return report("product-mismatch")
    return report(_target_violation(w.target, spec))


def witness_to_json(w):
    spec = w.spec
    group = {"family": spec.family, "n": spec.n}
    if spec.q is not None:
        group["q"] = spec.q
    if spec.family in ("Sym", "Alt"):
        enc = str
    else:
        enc = lambda m: m.to_text()
    obj = {
        "group": group,
        "g": enc(w.g),
        "steps": [{"c": enc(s.c), "e": s.e, "case": s.case}
                  for s in w.steps],
        "target": enc(w.target),
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
    fam, n = group.get("family"), group.get("n")
    if fam in ("Sym", "Alt"):
        spec = GroupSpec(fam, n)
        dec = lambda s: Perm.from_cycles(s, n)
    else:
        spec = GroupSpec(fam, n, group.get("q"))
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
