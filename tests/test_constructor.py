import hashlib
import json
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import invword.constructor as constructor
import invword.matrix as matrix
from invword.gf import MAX_ORDER, make_field, irreducible_polys
from invword.matrix import (GroupSpec, Mat, basic_solution, commutator,
                            direct_sum, is_projective_involution, nullspace,
                            parse_mat, sub_block, transvection)
from invword.canonical import companion, gen_jordan_block, class_transversal
from invword.oracle import (build_group, conjugacy_classes, dist_to_set,
                            involution_indices, projective_involution_indices)
from invword.perm import Perm
from invword.constructor import (ConstructError, Unreachable, Witness,
                                 WitnessStep, brute_force_witness,
                                 construct_involution, find_partner, replay,
                                 witness_from_json, witness_to_json)

ctx2 = make_field(2)
ctx3 = make_field(3)
ctx4 = make_field(4)
ctx5 = make_field(5)
ctx7 = make_field(7)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def ok(w):
    rep = replay(w)
    assert rep.ok, rep.violation
    return w


def labels(w):
    return sorted({s.case for s in w.steps})


def rand_gl(ctx, n, rng):
    while True:
        c = Mat(ctx, [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(n)])
        if c.det():
            return c


# -- 2x2 core -------------------------------------------------------------


# (q, g, length, labels): the word g (k g^e k^-1)^m of the trace rule, one
# row per case and branch, grouped by the kind of input
SL2_ROUTES = {
    "semisimple": [
        (5, "2,0;0,3", 1, ["sl2-antidiagonal"]),  # trace 0 already
        (8, "2,0;0,5", 2, ["sl2-commutator"]),    # eigenvector in char 2
        (11, "0,10;1,1", 2, ["sl2-commutator"]),  # (m, e) = (1, -1)
        (13, "0,12;1,3", 3, ["sl2-commutator"]),  # (2, -1)
        (7, "2,1;0,4", 4, ["sl2-commutator"]),    # pulled back from a commutator
        (8, "0,1;1,1", 4, ["sl2-commutator"]),    # elliptic of order 3
    ],
    "unipotent": [
        (4, "1,1;0,1", 1, ["sl2-antidiagonal"]),  # an involution over GF(4)
        (7, "1,1;0,1", 2, ["sl2-square"]),        # (1, 1)
        (5, "1,1;0,1", 3, ["sl2-square"]),        # (2, 1)
        (5, "4,1;0,4", 3, ["sl2-square"]),
    ],
    "lower": [
        (5, "0,2;2,0", 1, ["sl2-antidiagonal"]),
        (5, "4,0;3,4", 3, ["sl2-square"]),
    ],
}


def _check_sl2_routes(kind):
    for q, text, length, route in SL2_ROUTES[kind]:
        g = parse_mat(make_field(q), text)
        w = ok(construct_involution(g, GroupSpec("SL", 2, q)))
        assert (w.length, labels(w)) == (length, route), (q, text)


def test_sl2_semisimple_commutator_route():
    _check_sl2_routes("semisimple")


def test_sl2_unipotent_routes():
    _check_sl2_routes("unipotent")


def test_sl2_lower_routes():
    _check_sl2_routes("lower")


def test_sl2_classes_take_at_most_4_steps():
    # every non-central class of SL(2, q), q from 4 to 32, has a word of
    # the trace rule of at most 4 steps
    worst = {}
    for q in _field_orders():
        if q < 4:
            continue
        for g, _ in class_transversal(make_field(q), 2):
            if not g.is_scalar():
                w = ok(construct_involution(g, GroupSpec("SL", 2, q)))
                worst[q] = max(worst.get(q, 0), w.length)
    assert len(worst) == 16 and max(worst.values()) == 4


def test_sl2_trace_table_bounds_every_element():
    # the 2x2 rule's word depends only on (q, tr g).  A non-central g has a
    # vector v that is no eigenvector, and in the basis [v, g v] g is the
    # companion C(t) = [[0, -1], [1, t]], t = tr g.  The transvection
    # k = I + lam v (-v2, v1) fixing v sends g v to g v + lam w v, where
    # w = det(v, g v), so in that basis k = I + lam w E_12: every candidate
    # word g (k g^e k^-1)^m is conjugate to one over C(t), and its trace,
    # which picks the word, depends on (t, lam w) only.  So one row per
    # (q, t) bounds every element, as the conjugates below check per cell
    rng = random.Random(18)
    table = {}
    for q in _field_orders():
        if q < 4:
            continue
        ctx = make_field(q)
        for t in ctx.elements():
            c = Mat(ctx, [[0, ctx.neg(1)], [1, t]])
            conjugates = [c]
            for _ in range(3):
                p = rand_gl(ctx, 2, rng)
                conjugates.append(p * c * p.inv())
            shapes = set()
            for g in conjugates:
                steps, y = constructor._sl2_core(g)
                assert y == constructor._product(g, steps)
                assert ctx.add(y[0, 0], y[1, 1]) == 0 and not y.is_scalar()
                shapes.add((len(steps), sum(e for _, e, _ in steps)))
            assert len(shapes) == 1, (q, t, shapes)
            table[q, t] = shapes.pop()[0]
    assert len(table) == 276 and max(table.values()) == 4
    assert {q for (q, _), n in table.items() if n == 4} == {7, 8, 23, 31, 32}


def _sl2_elliptic(ctx):
    """Every elliptic element of SL(2, q): x^2 - t x + 1 has no root, so
    b != 0 and c = (ad - 1)/b."""
    traces = [t for t in ctx.elements()
              if all(ctx.mul(x, ctx.sub(t, x)) != 1 for x in ctx.elements())]
    for a in ctx.elements():
        for t in traces:
            d = ctx.sub(t, a)
            for b in range(1, ctx.q):
                c = ctx.div(ctx.sub(ctx.mul(a, d), 1), b)
                yield Mat(ctx, [[a, b], [c, d]])


def test_sl2_char2_skips_the_void_m1_words(monkeypatch):
    # in characteristic 2 the (m, e) = (1, -1) word has lam = 0, so k = I,
    # and the (1, 1) word has lam w = tr, which makes k g k^-1 = g^-1: both
    # products are I, so every elliptic element, having no eigenvector,
    # takes the 3-step (2, 1) word or the 4-step pull-back, and _sl2_core
    # evaluates no m = 1 word
    real = constructor._product
    m1_words = []

    def product(g, steps):
        if len(steps) == 2 and (steps[1][2] == "sl2-square"
                                or steps[1][0].is_identity()):
            m1_words.append(steps)
        return real(g, steps)
    monkeypatch.setattr(constructor, "_product", product)
    count = 0
    for q in (4, 8, 16, 32):
        ctx = make_field(q)
        for g in _sl2_elliptic(ctx):
            (a, b), (c, d) = g.rows
            # v = (1, 0) has w = det(v, g v) = c, never 0 here
            k = Mat(ctx, [[1, ctx.div(ctx.add(a, d), c)], [0, 1]])
            assert (g * k * g * k.inv()).is_identity()
            steps, t = constructor._sl2_core(g)
            assert t == real(g, steps)
            assert len(steps) in (3, 4) and not t.is_scalar()
            assert ctx.add(t[0, 0], t[1, 1]) == 0
            count += 1
    assert count == sum(q * q * (q - 1) // 2 for q in (4, 8, 16, 32))
    assert m1_words == []


def test_sl2_target_is_projective_involution():
    w = construct_involution(Mat(ctx5, [[2, 0], [0, 3]]),
                             GroupSpec("SL", 2, 5))
    t = w.target
    assert not t.is_scalar()
    sq = t * t
    assert sq.is_scalar() and sq[0, 0] in (1, ctx5.neg(1))


def test_sl2_witness_rejections():
    with pytest.raises(ValueError):
        construct_involution(Mat(ctx5, [[2, 0], [0, 1]]),
                             GroupSpec("SL", 2, 5))  # det 2
    with pytest.raises(ValueError):
        construct_involution(Mat(ctx5, [[4, 0], [0, 4]]),
                             GroupSpec("SL", 2, 5))  # central


# -- the commutator restart up to dimension 4 ------------------------------


def test_m2_classes_n4_take_the_restart():
    # J_2(C(f)) for an irreducible quadratic f has no closed-form word: the
    # commutator restart solves its window, for every determinant-1 class,
    # SL(4,2)'s one class too
    count = 0
    for q in _field_orders():
        ctx = make_field(q)
        for f in irreducible_polys(ctx, 2):
            g = gen_jordan_block(ctx, f, 2)
            if g.det() != 1:
                continue
            w = ok(construct_involution(g, GroupSpec("SL", 4, q)))
            assert labels(w) == ["reseed"], (q, f)
            assert w.length <= constructor.MAX_WITNESS_LEN, (q, f)
            count += 1
    assert count == 244


def test_m1_route():
    # a companion block has no closed-form word: the restart solves its
    # commutator on the window, here with the trace-0 partner
    f = next(f for f in irreducible_polys(ctx5, 3) if f[0] == ctx5.neg(1))
    w = ok(construct_involution(companion(ctx5, f), GroupSpec("SL", 3, 5)))
    assert w.length == 4 and labels(w) == ["reseed"]


def test_m1_route_q3():
    f = next(f for f in irreducible_polys(ctx3, 3) if f[0] == ctx3.neg(1))
    w = ok(construct_involution(companion(ctx3, f), GroupSpec("SL", 3, 3)))
    assert w.length == 4 and labels(w) == ["reseed"]


def test_mn_route_unipotent():
    # a single Jordan block, unipotent or scaled, takes the restart too
    g = Mat(ctx5, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    w = ok(construct_involution(g, GroupSpec("SL", 3, 5)))
    assert w.length == 4 and labels(w) == ["reseed"]


def test_mn_route_scaled():
    g = Mat(ctx5, [[2, 2, 0, 0], [0, 2, 2, 0], [0, 0, 2, 2], [0, 0, 0, 2]])
    assert g.det() == 1
    w = ok(construct_involution(g, GroupSpec("SL", 4, 5)))
    assert w.length == 4 and labels(w) == ["reseed"]


def test_m2_route_n8_det_repair_blocked_reseeds():
    # two quartic blocks at n = 8 have no route of their own: above
    # dimension 4 the commutator restart answers, on its window
    f = next(f for f in irreducible_polys(ctx3, 4)
             if gen_jordan_block(ctx3, f, 2).det() == 1)
    w = ok(construct_involution(gen_jordan_block(ctx3, f, 2),
                                GroupSpec("SL", 8, 3)))
    assert labels(w) == ["reseed"] and w.length == 4
    f = next(f for f in irreducible_polys(ctx5, 4)
             if gen_jordan_block(ctx5, f, 2).det() == 1)
    w = ok(construct_involution(gen_jordan_block(ctx5, f, 2),
                                GroupSpec("SL", 8, 5)))
    assert labels(w) == ["reseed"] and w.length == 4


def test_decomposable_route():
    # a decomposable element is not split into parts: the restart solves
    # its commutator on the window, as for every other element.  The
    # first two have a trace-0 partner; the quadratic J_2(1) (+) J_2(1)
    # has none, and as 2 beta = -2 is no square mod 5, its scaled plane
    # partner takes a 2-step plane word, doubled
    for g, length in ((Mat(ctx5, [[1, 0, 0], [0, 2, 0], [0, 0, 3]]), 4),
                      (Mat(ctx5, [[3, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0],
                                  [0, 0, 0, 1]]), 4),
                      (parse_mat(ctx5, "1,1,0,0;0,1,0,0;0,0,1,1;0,0,0,1"), 8)):
        w = ok(construct_involution(g, GroupSpec("SL", g.n, 5)))
        assert w.length == length and labels(w) == ["reseed"]


def test_gl_reseed_route():
    # at n = 2 the plane is the whole space: here beta = -det g = 4 and
    # 2 beta = 1 is a square mod 7, so the plane has trace 0 and its
    # commutator is a projective involution, the target of the trade word
    g = Mat(ctx7, [[3, 0], [0, 1]])
    w = ok(construct_involution(g, GroupSpec("GL", 2, 7)))
    assert labels(w) == ["reseed"] and w.length == 2
    assert w.net_exponent == 0    # commutator restarts always balance


def test_find_partner_frozen():
    assert find_partner(Mat(ctx5, [[1, 1], [0, 1]])).to_text() == "1,0;2,1"
    assert find_partner(Mat(ctx7, [[2, 0], [0, 3]])).to_text() == "5,3;4,4"
    with pytest.raises(ValueError):
        find_partner(Mat(ctx5, [[2, 0], [0, 2]]))


def _values(g, v, phi):
    """(phi(v), phi(g v), phi(g^-1 v)) on dense products."""
    return tuple((phi * m * v)[0, 0]
                 for m in (Mat.identity(g.ctx, g.n), g, g.inv()))


def _partner_of(g, found=None):
    """The partner (v, phi) of g, a column and a row, from the orbit
    [v, g v, g^-1 v] and phi that _partner (or found) gives, after
    checking g v and g^-1 v against dense products."""
    orbit, phi, _, _ = constructor._partner(g) if found is None else found
    v, gv, giv = (Mat(g.ctx, [[x] for x in col]) for col in orbit)
    assert gv == g * v and giv == g.inv() * v
    return v, Mat(g.ctx, [phi])


def _orbit_rank(g, v):
    """The rank of the columns v, g v and g^-1 v."""
    cols = [(m * v).rows for m in (Mat.identity(g.ctx, g.n), g, g.inv())]
    return Mat(g.ctx, [sum(c, ()) for c in cols]).rank()


def _candidates(ctx, n):
    """e_1, ..., e_n and (1, ..., 1) as columns, in the partners' order."""
    return [Mat(ctx, [[int(i == k)] for i in range(n)]) for k in range(n)] + [
        Mat(ctx, [[1]] * n)]


def _trace0(g):
    """The trace-0 partner I + v phi of g: the plane partner when some
    candidate v has v, g v and g^-1 v independent, whose phi takes the
    values (0, 1, 2) there; None when no candidate does."""
    if all(_orbit_rank(g, v) < 3 for v in _candidates(g.ctx, g.n)):
        return None
    v, phi = _partner_of(g, constructor._plane_partner(g))
    assert _values(g, v, phi) == (0, 1, g.ctx.scalar(2))
    return Mat.identity(g.ctx, g.n) + v * phi


def test_find_partner_is_one_of_two_kinds():
    # every partner is h = I + v phi with phi(v) = 0.  The involution
    # partner (even q, n >= 3) has phi(g v) = phi(g^-1 v) = 0, and [g, h] - I
    # squares to 0 and is not 0; at n >= 4 every non-scalar g has it.  The
    # plane partner has s = phi(g v) and u = phi(g^-1 v) nonzero, with
    # (s, u) = (1, best) when v, g v and g^-1 v are independent, and else
    # s = scale[c] for c = u / s
    inputs = [g for q in (2, 3, 4, 5, 7, 8, 9) for n in (2, 3, 4)
              if n < 4 or q <= 5
              for g, _ in class_transversal(make_field(q), n)]
    rng = random.Random(16)
    for n in range(5, 10):
        for q in (2, 3, 4, 5, 7, 9):
            ctx = make_field(q)
            # dense, then a scalar block followed by a dense one
            inputs.append(rand_gl(ctx, n, rng))
            k = rng.randrange(2, n - 1)
            inputs.append(direct_sum(Mat.scalar(ctx, k, rng.randrange(1, q)),
                                     rand_gl(ctx, n - k, rng)))
    kinds = Counter()
    for g in inputs:
        ctx, n = g.ctx, g.n
        if g.is_scalar():
            continue
        h = find_partner(g)
        v, phi = _partner_of(g)
        assert h == Mat.identity(ctx, n) + v * phi
        zero, s, u = _values(g, v, phi)
        assert zero == 0
        x = commutator(g, h)
        m = x - Mat.identity(ctx, n)
        if ctx.p == 2 and n >= 3 and (s, u) == (0, 0):
            assert not (m * m).rank()
            assert (x * x).is_identity() and not x.is_identity()
            kinds["involution", n >= 4] += 1
            continue
        assert n <= 3 or ctx.p != 2, g.to_text()
        _, best, scale = constructor._plane_table(ctx.q)
        if _orbit_rank(g, v) == 3:
            assert (s, u) == (1, best)
            kinds["plane", "free"] += 1
        else:
            c = ctx.div(u, s)
            assert s == scale[c] and _orbit_rank(g, v) == 2
            kinds["plane", "scaled"] += 1
        assert m.rank() == 2 and (m * m).rank() == 2
    assert kinds == {("plane", "free"): 1932, ("plane", "scaled"): 404,
                     ("involution", False): 371, ("involution", True): 282}


# -- the trace-0 partner ----------------------------------------------------


def _is_quadratic(g):
    """Whether g^2 lies in span(g, I): a minimal polynomial of degree <= 2."""
    flat = [sum(m.rows, ()) for m in (Mat.identity(g.ctx, g.n), g, g * g)]
    return Mat(g.ctx, flat).rank() < 3


def _blocks(b, k):
    """The direct sum of k copies of b."""
    out = b
    for _ in range(k - 1):
        out = direct_sum(out, b)
    return out


def _trace(m):
    tr = 0
    for i in range(m.n):
        tr = m.ctx.add(tr, m[i, i])
    return tr


def test_rank_one_partner_trace_identity():
    # h = I + v phi with phi(v) = 0 has h^-1 = I - v phi, and
    # tr [g, h] = n - phi(g v) phi(g^-1 v) for every invertible g
    rng = random.Random(26)
    other_det = 0
    for q in (2, 3, 4, 5, 7, 8, 9, 13):
        ctx = make_field(q)
        for n in range(3, 10):
            for _ in range(2):
                g = rand_gl(ctx, n, rng)
                other_det += g.det() != 1
                v = [rng.randrange(q) for _ in range(n)]
                k = rng.randrange(n)
                v[k] = rng.randrange(1, q)
                phi = [rng.randrange(q) for _ in range(n)]
                phi[k] = 0
                rest = Mat(ctx, [phi]) * Mat(ctx, [[x] for x in v])
                phi[k] = ctx.neg(ctx.div(rest[0, 0], v[k]))
                col, row = Mat(ctx, [[x] for x in v]), Mat(ctx, [phi])
                assert (row * col)[0, 0] == 0
                h = Mat.identity(ctx, n) + col * row
                at_gv = (row * g * col)[0, 0]
                at_giv = (row * g.inv() * col)[0, 0]
                assert _trace(commutator(g, h)) == ctx.sub(
                    ctx.scalar(n), ctx.mul(at_gv, at_giv)), (q, n)
    assert other_det > 50


def test_trace0_partner_solves_on_a_plane():
    # for odd q the partner is I + v phi with (phi(v), phi(g v),
    # phi(g^-1 v)) = (0, 1, 2): [g, h] has trace n - 2, moves only a plane
    # and squares to an involution, and the witness takes 4 steps, whatever
    # the determinant of g
    rng = random.Random(27)
    other_det = 0
    for q in (3, 5, 7, 9, 13):
        ctx = make_field(q)
        for n in range(3, 10):
            g = rand_gl(ctx, n, rng)
            h = find_partner(g)
            assert h == _trace0(g)
            assert (h - Mat.identity(ctx, n)).rank() == 1 and h.det() == 1
            x = commutator(g, h)
            assert _trace(x) == ctx.scalar(n - 2)
            assert (x - Mat.identity(ctx, n)).rank() == 2
            y = x * x
            assert (y * y).is_identity() and not y.is_scalar()
            family = "SL" if g.det() == 1 else "GL"
            other_det += family == "GL"
            w = ok(construct_involution(g, GroupSpec(family, n, q)))
            assert (w.length, w.net_exponent, labels(w)) == (4, 0, ["reseed"])
    assert other_det > 25


def _beta(g):
    """beta with g^2 = alpha g + beta I, for a quadratic, non-scalar g."""
    ctx, sq = g.ctx, g * g
    i, j = next((i, j) for i in range(g.n) for j in range(g.n)
                if i != j and g[i, j])
    alpha = ctx.div(sq[i, j], g[i, j])
    return ctx.sub(sq[0, 0], ctx.mul(alpha, g[0, 0]))


def test_quadratic_elements_have_no_trace0_partner():
    # g^2 = a g + b puts g^-1 v = (g v - a v) / b in span(v, g v) for every
    # v, so a quadratic g has no trace-0 partner: its plane partner has
    # phi(g^-1 v) = phi(g v) / b, and s = phi(g v) is the plane table's for
    # c = 1 / b.  The witness takes 4 steps when 2 b is a square (then
    # s^2 = 2 b gives the trace-0 plane), else 8
    rng = random.Random(28)
    lengths = Counter()
    for q in (3, 5, 7, 9, 11, 13, 25, 27, 29):
        ctx = make_field(q)
        _, _, scale = constructor._plane_table(q)
        j2 = Mat(ctx, [[1, 1], [0, 1]])
        c2 = companion(ctx, next(iter(irreducible_polys(ctx, 2))))
        for n in (3, 4, 5, 6, 8):
            a, b, k = rng.randrange(1, q), rng.randrange(1, q), rng.randrange(1, n)
            ys = [direct_sum(Mat.scalar(ctx, k, a), Mat.scalar(ctx, n - k, b)),
                  direct_sum(j2, Mat.identity(ctx, n - 2)).scale(a),
                  direct_sum(_blocks(j2, n // 2), Mat.identity(ctx, 1))
                  if n % 2 else _blocks(j2, n // 2)]
            if n % 2 == 0:
                ys.append(_blocks(c2, n // 2))
            for y in ys:
                if (y * y).is_scalar():
                    continue
                p = rand_gl(ctx, n, rng)
                g = p * y * p.inv()
                assert _is_quadratic(g) and _trace0(g) is None
                beta = _beta(g)
                v, phi = _partner_of(g)
                s = scale[ctx.inv(beta)]
                assert _values(g, v, phi) == (0, s, ctx.div(s, beta))
                family = "SL" if g.det() == 1 else "GL"
                w = ok(construct_involution(g, GroupSpec(family, n, q)))
                square = ctx.sqrt(ctx.mul(ctx.scalar(2), beta)) is not None
                assert w.length == (4 if square else 8), (q, g.to_text())
                lengths[square, w.length] += 1
    assert lengths == {(True, 4): 65, (False, 8): 55}, lengths


@pytest.mark.parametrize("n, q, counts", [(3, 5, (100, 16)), (3, 7, (294, 36)),
                                          (4, 5, (580, 56))])
def test_non_quadratic_classes_take_4_steps(n, q, counts):
    # every non-quadratic class representative has a trace-0 partner; the
    # quadratic ones have none
    spec = GroupSpec("SL", n, q)
    four = quadratic = 0
    for g, _ in class_transversal(make_field(q), n):
        if g.is_scalar():
            continue
        if _is_quadratic(g):
            assert _trace0(g) is None
            quadratic += 1
            continue
        w = ok(construct_involution(g, spec))
        assert (w.length, labels(w)) == (4, ["reseed"]), g.to_text()
        four += 1
    assert (four, quadratic) == counts


def test_random_sl_takes_4_steps():
    rng = random.Random(29)
    for n in range(5, 13):
        for q in (3, 5, 7, 13, 29):
            for _ in range(2):
                g = _random_sl(make_field(q), n, rng)
                w = ok(construct_involution(g, GroupSpec("SL", n, q)))
                assert (w.length, w.net_exponent) == (4, 0), (n, q)


def test_projective_involutions_are_their_own_witness():
    # a projective involution is its own 1-step witness at every n: the 2x2
    # rule gives [(I, +1)] as "sl2-antidiagonal", and every other input
    # [(I, +1)] as "involution"; no stored class word is for an involution
    g = Mat.diag(ctx5, (4, 4, 1))
    w = ok(construct_involution(g, GroupSpec("SL", 3, 5)))
    assert [(s.c, s.e, s.case) for s in w.steps] == [
        (Mat.identity(ctx5, 3), 1, "involution")] and w.target == g
    rng = random.Random(30)
    cases = Counter()
    for q in (2, 3, 4, 5, 7, 9):
        ctx = make_field(q)
        minus = ctx.neg(1)
        for n in range(2, 10):
            ys = [Mat.diag(ctx, (minus,) * k + (1,) * (n - k)) for k in (1, 2)]
            ys.append(transvection(ctx, n, 0, 1))
            if n % 2 == 0:
                ys.append(_blocks(Mat(ctx, [[0, minus], [1, 0]]), n // 2))
            for y in ys:
                if y.is_scalar() or not (y * y).is_scalar():
                    continue
                p = rand_gl(ctx, n, rng)
                g = p * y * p.inv()
                family = "SL" if g.det() == 1 else "GL"
                w = ok(construct_involution(g, GroupSpec(family, n, q)))
                (step,) = w.steps
                assert step.e == 1
                assert step.c.is_identity() and w.target == g
                cases[n == 2, family, step.case] += 1
    assert set(cases) == {
        (True, "SL", "sl2-antidiagonal"), (True, "GL", "involution"),
        (False, "SL", "involution"), (False, "GL", "involution")}, cases


# -- the window above dimension 4 -------------------------------------------


def _field_orders():
    return [q for q in range(2, MAX_ORDER + 1)
            if len({p for p in range(2, q + 1)
                    if q % p == 0 and all(p % r for r in range(2, p))}) == 1]


def test_window_shapes_stay_under_the_cap():
    # the restart's window has one of two shapes.  The involution partner's
    # commutator is its own 1-step target.  On the plane partner's plane
    # the commutator acts as y_p = [[1, 1], [-p, 1 - p]], whose word the
    # field's plane table holds: a partner with (s, u) free takes the best
    # p, one with phi(g^-1 v) = c phi(g v) (a quadratic g) p = s^2 c for
    # s = scale[c].  The witness is the plane word, doubled for odd q above
    # dimension 2, then pulled back along the 2-step trade word.  Over
    # GF(2), y_1 has order 3 and no word: every input there has the
    # involution partner or a stored class word
    table = {}
    for q in _field_orders():
        ctx = make_field(q)
        words, best, scale = constructor._plane_table(q)
        for p, found in words.items():
            y = Mat(ctx, [[1, 1], [ctx.neg(p), ctx.sub(1, p)]])
            assert y.det() == 1 and _trace(y) == ctx.sub(ctx.scalar(2), p)
            if found is not None:
                steps, t = found
                assert t == constructor._product(y, steps)
                assert _trace(t) == 0 and not t.is_scalar()

        def witness(p):
            found = words[p]
            return None if found is None else (
                2 * len(found[0]) * (2 if q % 2 else 1))
        table[q] = (witness(best), max(
            witness(ctx.mul(ctx.mul(s, s), c)) or 0 for c, s in scale.items()))
    assert table.pop(2) == (None, 0)
    assert table == {q: (4, 8 if q % 2 else 4) for q in table}
    # the replay cap is this table's maximum, and no stored word passes it
    assert max(max(row) for row in table.values()) == \
        constructor.MAX_WITNESS_LEN
    assert max(len(word) for word, _ in constructor.CLASS_WORDS.values()
               if not isinstance(word, str)) <= constructor.MAX_WITNESS_LEN


def _conjugate_of_j2_j2_1(g):
    """Whether g is conjugate to J_2(1) (+) J_2(1) (+) I_(n-4): quadratic,
    so it has no trace-0 partner."""
    m = g - Mat.identity(g.ctx, g.n)
    return m.rank() == 2 and (m * m).rank() == 0


def test_window_holding_j2_j2_reaches_the_cap():
    # this SL(5,5) element is a conjugate of J_2(1) (+) J_2(1) (+) 1, so it
    # is quadratic with beta = -1 and has no trace-0 partner.  2 beta = 3 is
    # no square mod 5, so no scaled partner gives a plane of trace 0: the
    # 2-step plane word, doubled and pulled back, takes the cap
    g = parse_mat(ctx5, "3,3,3,2,4;0,4,2,1,4;3,2,3,3,1;3,2,2,4,1;4,0,2,2,1")
    assert _conjugate_of_j2_j2_1(g) and _trace0(g) is None
    w = ok(construct_involution(g, GroupSpec("SL", 5, 5)))
    assert w.length == constructor.MAX_WITNESS_LEN
    assert labels(w) == ["reseed"]


def _random_sl(ctx, n, rng):
    g = rand_gl(ctx, n, rng)
    d = g.det()
    return Mat(ctx, [[ctx.div(x, d) for x in g.rows[0]]] + list(g.rows[1:]))


def test_window_seeded_sample():
    rng = random.Random(12)
    for n in range(5, 11):
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
            ctx = make_field(q)
            for _ in range(2):
                g = _random_sl(ctx, n, rng)
                w = ok(construct_involution(g, GroupSpec("SL", n, q)))
                assert labels(w) == ["reseed"] and w.net_exponent == 0
                assert w.length <= constructor.MAX_WITNESS_LEN


def test_window_gl_inputs():
    rng = random.Random(13)
    inputs = [parse_mat(make_field(13), "11,8,0,7;1,12,6,7;12,11,8,5;11,12,4,8")]
    for n, q in ((3, 4), (3, 7), (4, 5), (4, 9), (5, 3), (6, 4), (7, 5),
                 (8, 7), (9, 13), (10, 32)):
        ctx = make_field(q)
        for _ in range(2):
            g = rand_gl(ctx, n, rng)
            while g.det() == 1:
                g = rand_gl(ctx, n, rng)
            inputs.append(g)
    for g in inputs:
        w = ok(construct_involution(g, GroupSpec("GL", g.n, g.ctx.q)))
        assert w.net_exponent == 0
        assert w.length <= constructor.MAX_WITNESS_LEN
        assert labels(w) == ["reseed"]


def _even_q_target(g):
    """Whether g's witness is the 2-step trade word over the involution
    partner, whose commutator is the target."""
    w = ok(construct_involution(g, GroupSpec("SL" if g.det() == 1 else "GL",
                                             g.n, g.ctx.q)))
    return (w.length == 2
            and w.target == commutator(g, find_partner(g)))


def test_even_q_inputs_take_the_involution_partner():
    # seeded SL and GL inputs for even q and n >= 4 (SL(4,2) reads its
    # stored words), and conjugates of quadratic classes: each has the
    # involution partner, so its witness is the 2-step trade word, the
    # exact distance for a non-involution
    rng = random.Random(40)
    count = 0
    for q in (2, 4, 8, 16, 32):
        ctx = make_field(q)
        for n in (4, 5, 6, 8, 12)[q == 2:]:
            p = rand_gl(ctx, n, rng)
            j2 = direct_sum(_blocks(Mat(ctx, [[1, 1], [0, 1]]), 2),
                            Mat.identity(ctx, n - 4))
            for g in (_random_sl(ctx, n, rng), rand_gl(ctx, n, rng),
                      p * j2.scale(rng.randrange(1, q)) * p.inv()):
                if not (g * g).is_identity():
                    assert _even_q_target(g), (n, q, g.to_text())
                    count += 1
    assert count == 66


@pytest.mark.parametrize("n, q, counts", [(4, 4, (243, 6)), (5, 2, (24, 2)),
                                          (6, 2, (56, 3)), (7, 2, (113, 3)),
                                          (3, 8, (322, 7))])
def test_even_q_classes_take_the_involution_partner(n, q, counts):
    # every non-central class that is no involution: for n >= 4 each takes
    # the 2-step word; at n = 3 those with a left eigenvector phi and a v in
    # ker phi moved by g off lam v do
    two = involutions = 0
    for g, _ in class_transversal(make_field(q), n):
        if g.is_scalar():
            continue
        if (g * g).is_identity():
            involutions += 1
        elif _even_q_target(g):
            two += 1
        else:
            assert n == 3, g.to_text()
    assert (two, involutions) == counts


# -- the factored restart ----------------------------------------------------


def _restart_inputs(rng, qs, ns):
    """Seeded inputs of both partner kinds: a random SL and a random GL
    element, and a conjugate of J_2(1) (+) I, which is quadratic and so
    takes the scaled plane partner for odd q."""
    out = []
    for q in qs:
        ctx = make_field(q)
        for n in ns:
            p = rand_gl(ctx, n, rng)
            j2 = direct_sum(Mat(ctx, [[1, 1], [0, 1]]),
                            Mat.identity(ctx, n - 2))
            out += [_random_sl(ctx, n, rng), rand_gl(ctx, n, rng),
                    p * j2 * p.inv()]
    return out


def test_commutator_factors_match_the_definition():
    # [g, h] = I + a b with a = [v | g^-1 v] and b = [phi ; -(phi g +
    # phi(g v) phi)] for the partner h = I + v phi of either kind, and
    # b a = [[0, u], [-s, -s u]] for s = phi(g v) and u = phi(g^-1 v)
    kinds = Counter()
    for g in _restart_inputs(random.Random(31), (2, 3, 4, 5, 7, 8, 9),
                             range(3, 13)):
        ctx, n = g.ctx, g.n
        found = orbit, phi, s, u = constructor._partner(g)
        v, phi_row = _partner_of(g, found)
        a, b = constructor._commutator_factors(g, orbit, phi, s)
        assert (a.n, a.m, b.n, b.m) == (n, 2, 2, n)
        assert _values(g, v, phi_row) == (0, s, u)
        assert b * a == Mat(ctx, [[0, u], [ctx.neg(s), ctx.neg(ctx.mul(s, u))]])
        h = find_partner(g)
        assert h == Mat.identity(ctx, n) + v * phi_row
        assert Mat.identity(ctx, n) + a * b == commutator(g, h)
        trace0 = ctx.p != 2 and _trace0(g) is not None
        kinds[trace0, g.det() == 1] += 1
    assert set(kinds) == {(t, s) for t in (True, False)
                          for s in (True, False)}, kinds


def _extend(ctx, basis, vectors):
    """basis followed by those of vectors that are independent of it and
    of the ones taken before them."""
    cols = list(basis) + list(vectors)
    pivots, _ = basic_solution(Mat(ctx, list(zip(*cols))),
                               (0,) * len(cols[0]))
    return [cols[c] for c in pivots]


def _dense_window(x):
    """The window by its definition, on dense n x n matrices: (the basis
    P of the window U followed by the kept kernel vectors, d = dim U)."""
    ctx, n = x.ctx, x.n
    m = x - Mat.identity(ctx, n)
    kernel = nullspace(m)
    image = _extend(ctx, [], zip(*m.rows))
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    spanned = _extend(ctx, kernel, image)
    window = image + _extend(ctx, spanned, units)[len(spanned):]
    rest = _extend(ctx, window, kernel)[len(window):]
    return Mat(ctx, list(zip(*(window + rest)))), len(window)


def test_window_basis_matches_the_dense_window():
    # the plane window's basis a' = (u v, g^-1 v) spans the dense window
    # U = im(x - I), which ker(x - I) complements, and x acts on it as y_p;
    # each lifted conjugator and the target equal the table's c acting on U
    # in that basis and I on the kernel.  The involution partner's x is its
    # own target, an involution.  SL(3,2) reads its stored words, as its
    # planes have no word
    rng = random.Random(32)
    inputs = [g for g in _restart_inputs(rng, (2, 3, 4, 5, 7, 9),
                                         range(3, 10))
              if (g.n, g.ctx.q) != (3, 2)]
    inputs += [g for q, n in ((3, 3), (3, 4), (4, 3), (5, 3), (5, 4), (8, 3))
               for g, _ in class_transversal(make_field(q), n)
               if not (g * g).is_scalar()]
    seen = Counter()
    for g in inputs:
        ctx, n = g.ctx, g.n
        eye = Mat.identity(ctx, n)
        orbit, phi, s, u = constructor._partner(g)
        a, b = constructor._commutator_factors(g, orbit, phi, s)
        x = eye + a * b
        steps, t = constructor._window(a, b, s, u)
        ba = b * a
        if not any(map(any, ba.rows)):
            assert ctx.p == 2 and (x * x).is_identity() and x != eye
            assert (steps, t) == ([(eye, 1, "involution")], x)
            seen["involution"] += 1
            continue
        full, d = _dense_window(x)
        full_inv = full.inv()
        u, p = ba[0, 1], ctx.neg(ba[1, 1])
        basis = full_inv * a * Mat.diag(ctx, (u, 1))
        coords = Mat(ctx, basis.rows[:2])
        assert d == 2 and not any(map(any, basis.rows[2:]))
        y = Mat(ctx, [[1, 1], [ctx.neg(p), ctx.sub(1, p)]])
        assert sub_block(full_inv * x * full, range(2)) == \
            coords * y * coords.inv()
        inner, target = constructor._plane_table(ctx.q)[0][p]
        if not (target * target).is_identity():
            inner, target = inner + inner, target * target

        def dense_lift(c):
            return full * direct_sum(coords * c * coords.inv(),
                                     Mat.identity(ctx, n - 2)) * full_inv
        assert [(c, e) for c, e, _ in steps] == [(dense_lift(c), e)
                                                 for c, e, _ in inner]
        assert t == dense_lift(target)
        seen["plane", ctx.p == 2] += 1
    assert set(seen) == {"involution", ("plane", True), ("plane", False)}


def test_restart_inverts_only_g(monkeypatch):
    # inside the restart (partner, commutator, window, lift and pull-back)
    # no two n x n matrices are multiplied and g is read through its one
    # forward elimination: no n x n matrix is eliminated but g, and no
    # backward half runs, so no inverse of g is formed
    products, forward, backward = Counter(), Counter(), Counter()
    mul = Mat.__mul__

    def spy_mul(a, b):
        products[a.n, a.m, b.m] += 1
        return mul(a, b)
    for g in _restart_inputs(random.Random(33), (2, 3, 4, 5, 7, 9),
                             range(9, 13)):
        g = Mat(g.ctx, g.rows)
        products.clear()
        forward.clear()
        backward.clear()
        with monkeypatch.context() as patch:
            patch.setattr(Mat, "__mul__", spy_mul)
            _spy_eliminations(patch, forward, backward)
            steps, t = constructor._reseed(g)
        n = g.n
        assert products[n, n, n] == 0, (n, g.ctx.q)
        assert {rows: k for rows, k in forward.items() if len(rows) == n} \
            == {g.rows: 1}, (n, g.ctx.q)
        assert not any(len(rows) == n for rows in backward), (n, g.ctx.q)
        assert len(steps) <= constructor.MAX_WITNESS_LEN


def test_trace0_window_in_closed_form():
    # for odd q and n >= 3, the trace-0 partner's plane holds y_2, of
    # trace 0, whose word is [(I, +1)]: y_2^2 = -I, so _window returns
    # [(I, +1)] twice and the target x^2, -I on the plane and I on ker b.
    # Exactly the planes with p = s u = 2 (b a of trace -2 and determinant
    # 2) take it: every trace-0 partner, and the quadratic inputs whose
    # scaled partner reaches p = 2
    kinds = Counter()
    for g in _restart_inputs(random.Random(35), (3, 5, 7, 9, 13, 25, 27),
                             range(3, 13)):
        ctx, n = g.ctx, g.n
        orbit, phi, s, u = constructor._partner(g)
        a, b = constructor._commutator_factors(g, orbit, phi, s)
        ba = b * a
        plane = (_trace(ba) == ctx.neg(ctx.scalar(2))
                 and ba.det() == ctx.scalar(2))
        steps, t = constructor._window(a, b, s, u)
        trace0 = _trace0(g) is not None
        assert plane or not trace0
        kinds[trace0, g.det() == 1, plane] += 1
        assert (steps == [(Mat.identity(ctx, n), 1, "sl2-antidiagonal")]
                * 2) == plane
        if plane:
            x = commutator(g, find_partner(g))
            assert t == x * x
    assert set(kinds) == {(True, True, True), (True, False, True),
                          (False, True, True), (False, True, False)}, kinds


@pytest.mark.parametrize("n", [16, 24, 32])
def test_large_n_witnesses_replay(n):
    # the restart at dimensions far past the sampled grid: for odd q a
    # non-quadratic g takes 4 steps, and every witness replays
    rng = random.Random(34 + n)
    for q in (3, 5, 4):
        ctx = make_field(q)
        g = _random_sl(ctx, n, rng)
        w = ok(construct_involution(g, GroupSpec("SL", n, q)))
        assert labels(w) == ["reseed"] and w.net_exponent == 0
        if q % 2:
            assert not _is_quadratic(g) and w.length == 4
        assert w.length <= constructor.MAX_WITNESS_LEN


# -- one restart for every case ---------------------------------------------


def _cubed(ctx, d):
    f = next(f for f in irreducible_polys(ctx, d)
             if gen_jordan_block(ctx, f, 3).det() == 1)
    return gen_jordan_block(ctx, f, 3)


@pytest.mark.parametrize("q, d, length", [(7, 2, 4), (4, 3, 2)])
def test_ext_descent_past_field_cap_reseeds(monkeypatch, q, d, length):
    # a cubed block whose GF(q^d) is past the 32-element cap: no field
    # descent is needed, as the commutator restart solves the window (the
    # trace-0 plane for q = 7, the involution for q = 4), and its 2-step
    # word doubles the window's length
    windows = []
    real = constructor._window
    monkeypatch.setattr(constructor, "_window", lambda *args:
                        windows.append(real(*args)) or windows[-1])
    ctx = make_field(q)
    w = ok(construct_involution(_cubed(ctx, d), GroupSpec("SL", 3 * d, q)))
    assert w.length == length and labels(w) == ["reseed"]
    assert len(windows) == 1 and w.length == 2 * len(windows[0][0])


def _doubled(ctx, d):
    f = next(f for f in irreducible_polys(ctx, d)
             if gen_jordan_block(ctx, f, 2).det() == 1)
    return gen_jordan_block(ctx, f, 2)


ROUTE_INPUTS = {
    "m1": lambda: (companion(ctx5, next(f for f in irreducible_polys(ctx5, 3)
                                        if f[0] == ctx5.neg(1))),
                   GroupSpec("SL", 3, 5)),
    "mn": lambda: (Mat(ctx5, [[1, 1, 0], [0, 1, 1], [0, 0, 1]]),
                   GroupSpec("SL", 3, 5)),
    "m2 char 2": lambda: (_doubled(ctx4, 2), GroupSpec("SL", 4, 4)),
    "m2 odd": lambda: (_doubled(ctx5, 2), GroupSpec("SL", 4, 5)),
    "decomposable": lambda: (parse_mat(ctx5, "1,1,0,0;0,1,0,0;0,0,1,1;0,0,0,1"),
                             GroupSpec("SL", 4, 5)),
    "ext": lambda: (_cubed(ctx3, 2), GroupSpec("SL", 6, 3)),
}


@pytest.mark.parametrize("case", list(ROUTE_INPUTS))
def test_every_case_takes_one_restart(monkeypatch, case):
    # no canonical case has a word of its own: an element with no stored
    # class word takes the commutator restart, once, on g itself
    restarted = []
    real = constructor._reseed
    monkeypatch.setattr(constructor, "_reseed", lambda g:
                        restarted.append(g) or real(g))
    g, spec = ROUTE_INPUTS[case]()
    w = ok(construct_involution(g, spec))
    assert restarted == [g] and labels(w) == ["reseed"]


# -- excluded pairs and the search ladder ----------------------------------

# the pairs of constructor.EXCLUDED_PAIRS small enough to enumerate, where
# the 2x2 rule and the restart once degenerated
EXCLUDED_SMALL_PAIRS = [(2, 2), (2, 3), (3, 2), (3, 4), (4, 2)]


def test_excluded_sl22():
    # the transvection of SL(2,2) has trace 0: the 2x2 rule's 1-step word
    w = ok(construct_involution(Mat(ctx2, [[1, 1], [0, 1]]),
                                GroupSpec("SL", 2, 2)))
    assert w.length == 1 and labels(w) == ["sl2-antidiagonal"]


def test_excluded_sl22_order3_unreachable():
    g = Mat(ctx2, [[0, 1], [1, 1]])
    for _ in range(2):
        with pytest.raises(Unreachable) as ei:
            construct_involution(g, GroupSpec("SL", 2, 2))
        cert = ei.value.certificate
        assert cert == {"group_order": 6, "classes_in_closure": 2,
                        "closure_size": 3, "levels_explored": 2,
                        "involution_classes_in_group": 1}
        # each call raises with its own copy of the stored certificate
        cert.clear()


def test_excluded_sl23_transversal():
    # SL(2,3) stores no word: the 2x2 rule gives each class its exact
    # distance
    lens, cases = [], []
    for g, _ in class_transversal(ctx3, 2):
        w = ok(construct_involution(g, GroupSpec("SL", 2, 3)))
        cases.append(labels(w))
        lens.append(w.length)
    assert lens == [2, 2, 2, 2, 1, 1]
    assert cases == [["sl2-commutator"]] * 4 + [["sl2-antidiagonal"]] * 2


def test_excluded_sl32_transversal():
    lens = []
    for g, _ in class_transversal(ctx2, 3):
        w = ok(construct_involution(g, GroupSpec("SL", 3, 2)))
        lens.append(w.length)
    assert lens == [2, 2, 1, 2, 2]


def test_restart_takes_no_canonical_form(monkeypatch):
    # no input takes a canonical form: the stored pairs key their words by
    # companion(charpoly(g)) and conjugate back by g's Krylov matrix, every
    # other input takes the 2x2 rule or restarts on g itself, and replay
    # reads the record alone
    import invword.canonical as canonical
    calls = []
    for name in ("generalized_jordan", "factor_charpoly", "solve_similarity"):
        assert not hasattr(constructor, name)
        real = getattr(canonical, name)
        monkeypatch.setattr(canonical, name, lambda *a, _n=name, _r=real:
                            calls.append(_n) or _r(*a))
    rng = random.Random(41)
    inputs = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        ctx = make_field(q)
        for n in (2, 3, 4, 5, 6):
            inputs += [_random_sl(ctx, n, rng), rand_gl(ctx, n, rng)]
    for n, q in EXCLUDED_SMALL_PAIRS:
        ctx = make_field(q)
        inputs += [c * g * c.inv() for g, _ in class_transversal(ctx, n)
                   for c in [rand_gl(ctx, n, rng)]]
    stored = 0
    for g in inputs:
        if g.is_scalar():
            continue
        family = "SL" if g.det() == 1 else "GL"
        try:
            w = ok(construct_involution(g, GroupSpec(family, g.n, g.ctx.q)))
        except Unreachable:
            continue
        stored += labels(w) == ["bfs"]
    assert calls == [] and stored > 5


def test_stored_pair_without_its_word_raises(monkeypatch):
    # with the table emptied, the irreducible classes of SL(3,4) take the
    # 4-step plane partner and those of SL(3,2), where no plane has a word,
    # raise ConstructError; every reducible class keeps its witness
    def witnesses(n, q):
        out = []
        for g, ((f, m), *rest) in class_transversal(make_field(q), n):
            try:
                w = construct_involution(g, GroupSpec("SL", n, q))
            except ConstructError as e:
                w = e
            out.append((not rest and m == 1, g, w))
        return out
    stored = {(n, q): witnesses(n, q) for n, q in ((3, 2), (3, 4))}
    monkeypatch.setattr(constructor, "CLASS_WORDS", {})
    for (n, q), rows in stored.items():
        for (irreducible, g, w), (_, _, bare) in zip(rows, witnesses(n, q)):
            if not irreducible:
                assert witness_to_json(bare) == witness_to_json(w)
            elif q == 2:
                assert isinstance(bare, ConstructError) and not isinstance(
                    bare, Unreachable), g.to_text()
            else:
                assert (bare.length, labels(bare)) == (4, ["reseed"])
                assert w.length == 2


def test_excluded_sl43_too_large_falls_through():
    # |SL(4,3)| is past the enumeration cap and the pair stores no word:
    # its elements take the restart like those of any other pair
    g = Mat(ctx3, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    w = ok(construct_involution(g, GroupSpec("SL", 4, 3)))
    assert w.length <= constructor.MAX_WITNESS_LEN


@pytest.mark.parametrize("spec", [
    GroupSpec("Sym", 4), GroupSpec("GL", 2, 3), GroupSpec("PSL", 2, 7),
    GroupSpec("PGL", 2, 5)], ids=repr)
def test_brute_force_refuses_families_whose_words_do_not_replay(spec):
    # the class table's words fail replay there: parity in Sym,
    # determinant in GL, products up to scalars in PSL and PGL
    if spec.family == "Sym":
        g = Perm.from_cycles("(1,2)", 4)
    else:
        g = Mat(make_field(spec.q), [[1, 1], [0, 1]])
    with pytest.raises(ValueError, match="not supported"):
        brute_force_witness(g, spec)


def test_brute_force_refuses_elements_outside_the_spec():
    # the class table looks elements up by their entries alone
    gf9 = make_field(9)
    for g in (Mat(gf9, [[1, 1], [0, 1]]),
              Mat(ctx3, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])):
        with pytest.raises(ValueError, match="outside the group"):
            brute_force_witness(g, GroupSpec("SL", 2, 3))
    with pytest.raises(ValueError, match="outside the group"):
        brute_force_witness(Perm.from_cycles("(1,2,3)", 6), GroupSpec("Alt", 5))


def test_brute_force_lengths_are_minimal():
    # BFS levels are exact distances, so a projective involution itself
    # comes back at length 1
    g = Mat(ctx3, [[0, 1], [2, 0]])
    assert (g * g).is_scalar() and not g.is_scalar()
    w = brute_force_witness(g, GroupSpec("SL", 2, 3))
    assert w.length == 1


# -- permutation routes ----------------------------------------------------


def test_alt_partner_witness():
    g = Perm.from_cycles("(1,2,3,4,5)", 6)
    w = ok(construct_involution(g, GroupSpec("Alt", 6)))
    assert w.length == 2 and labels(w) == ["alt-partner"]
    assert w.certificate is None


def test_alt_trade_word_forms_the_commutator_once(monkeypatch):
    # alt_partner's self-check forms [g, h] = g^-1 h^-1 g h (three
    # products) and its square, and the trade word's target is that
    # commutator: outside replay, construct makes only one more product of
    # permutations, g^2 for the check whether g is its own target
    import invword.perm as perm
    products, outside = [], [True]
    real_mul, real_replay = Perm.__mul__, constructor.replay

    def spy_replay(w):
        outside[0] = False
        try:
            return real_replay(w)
        finally:
            outside[0] = True
    monkeypatch.setattr(Perm, "__mul__", lambda a, b: products.append(
        outside[0]) or real_mul(a, b))
    monkeypatch.setattr(constructor, "replay", spy_replay)
    for family, text, n in (("Alt", "(1,2,3,4,5)", 6),
                            ("Alt", "(1,2,3)(4,5,6,7,8)", 9),
                            ("Sym", "(1,2,3,4)", 6)):
        g = Perm.from_cycles(text, n)
        products.clear()
        w = construct_involution(g, GroupSpec(family, n))
        assert products.count(True) == 5, (text, products)
        ok(w)
        h = perm.alt_partner(g)
        assert w.target == perm.commutator(g, h) and w.steps[1].c == h.inv()


def test_a5_search_witness():
    g = Perm.from_cycles("(1,2,3,4,5)", 5)
    w = ok(construct_involution(g, GroupSpec("Alt", 5)))
    assert w.length == 3 and labels(w) == ["a5-search"]
    assert w.certificate == {"products_checked": 156,
                             "no_witness_of_length": 2,
                             "class_inverse_closed": True}


def test_every_witness_has_a_certificate_field():
    # only the A5 search proves anything about shorter words; every other
    # route, the class-graph search and a parsed record carry None
    sl = ok(construct_involution(Mat(ctx5, [[1, 1], [0, 1]]),
                                 GroupSpec("SL", 2, 5)))
    bfs = brute_force_witness(Mat(ctx3, [[1, 1], [0, 1]]),
                              GroupSpec("SL", 2, 3))
    a5 = construct_involution(Perm.from_cycles("(1,2,3,4,5)", 5),
                              GroupSpec("Alt", 5))
    for w in (sl, bfs, witness_from_json(witness_to_json(a5))):
        assert w.certificate is None
    assert a5.certificate["no_witness_of_length"] == 2


def test_perm_involutions_are_their_own_witness():
    # an even involution of Alt(n) or Sym(n) passes replay's target check,
    # so it is its own 1-step witness [(I, +1)], as a projective
    # involution is for matrices; an odd one (in Sym) is no target and
    # takes the trade word to an even involution
    seen = Counter()
    for family in ("Alt", "Sym"):
        for n in range(4, 11):
            for k in range(1, n // 2 + 1):
                g = Perm.from_cycles("".join(
                    "(%d,%d)" % (2 * i + 1, 2 * i + 2) for i in range(k)), n)
                if family == "Alt" and k % 2:
                    continue
                w = ok(construct_involution(g, GroupSpec(family, n)))
                if k % 2 == 0:
                    assert [(s.c, s.e, s.case) for s in w.steps] == [
                        (Perm.identity(n), 1, "involution")]
                    assert w.target == g
                else:
                    assert w.length == 2 and w.target.parity() == 0
                seen[family, k % 2] += 1
    assert set(seen) == {("Alt", 0), ("Sym", 0), ("Sym", 1)}


def test_sym_route_accepts_odd_input():
    g = Perm.from_cycles("(1,2)", 4)
    w = ok(construct_involution(g, GroupSpec("Sym", 4)))
    assert w.target.parity() == 0


def test_perm_rejections():
    with pytest.raises(ValueError):
        construct_involution(Perm.identity(6), GroupSpec("Alt", 6))
    with pytest.raises(ValueError):
        construct_involution(Perm.from_cycles("(1,2)", 6), GroupSpec("Alt", 6))


INPUT_GUARDS = """
from invword import GroupSpec, Mat, Perm, make_field, construct_involution
from invword.constructor import replay, witness_from_json, witness_to_json
import json
f5, f7 = make_field(5), make_field(7)
sl25 = GroupSpec("SL", 2, 5)
w = construct_involution(Mat(f5, [[1, 1, 0], [0, 1, 1], [0, 0, 1]]),
                         GroupSpec("SL", 3, 5))
def edited(n):
    obj = json.loads(witness_to_json(w))
    obj["group"]["n"] = n
    return witness_from_json(json.dumps(obj))
cases = [
    ("3x3 for SL(2,5)", lambda: construct_involution(
        Mat(f5, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]), sl25)),
    ("2x3 for SL(2,5)", lambda: construct_involution(
        Mat(f5, [[1, 1, 0], [0, 1, 0]]), sl25)),
    ("GF(7) for SL(2,5)", lambda: construct_involution(
        Mat(f7, [[1, 1], [0, 1]]), sl25)),
    ("entry 7 over GF(5)", lambda: construct_involution(
        Mat(f5, [[7, 0], [0, 3]]), sl25)),
    ("perm for SL(2,5)", lambda: construct_involution(
        Perm.from_cycles("(1,2)", 2), sl25)),
    ("matrix for Alt(5)", lambda: construct_involution(
        Mat(f5, [[1, 1], [0, 1]]), GroupSpec("Alt", 5))),
    ("degree 6 for Alt(5)", lambda: construct_involution(
        Perm.from_cycles("(1,2,3)", 6), GroupSpec("Alt", 5))),
    ("SL without q", lambda: GroupSpec("SL", 2)),
    ("Alt with q", lambda: GroupSpec("Alt", 5, 3)),
    ("group.n edited to 2", lambda: replay(edited(2)).violation or "ok"),
    ("group.n edited to 7", lambda: replay(edited(7)).violation or "ok"),
]
for name, f in cases:
    try:
        out = f()
        print(name, "|", out if isinstance(out, str) else "returned")
    except Exception as e:
        print(name, "|", type(e).__name__)
"""


def test_input_guards_hold_under_optimize():
    # the guards are raises, not asserts: python -O keeps them
    out = subprocess.run([sys.executable, "-O", "-c", INPUT_GUARDS],
                         env={"PYTHONPATH": SRC}, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    got = dict(line.split(" | ") for line in out.stdout.strip().splitlines())
    expect = {name: "ValueError" for name in got}
    expect["group.n edited to 2"] = expect["group.n edited to 7"] = \
        "spec-mismatch"
    assert len(got) == 11 and got == expect


def test_replay_flags_elements_outside_the_spec():
    w = _sample_witness()
    for spec in (GroupSpec("SL", 3, 5), GroupSpec("SL", 2, 7)):
        assert replay(Witness(spec, w.g, w.steps, w.target)).violation == \
            "spec-mismatch"
    w.steps[0] = WitnessStep(Mat.identity(ctx5, 3), w.steps[0].e, "x")
    assert replay(w).violation == "spec-mismatch"
    w = _sample_witness()
    w.target = Mat.identity(ctx7, 2)
    assert replay(w).violation == "spec-mismatch"
    g = Perm.from_cycles("(1,2,3)", 5)
    w = Witness(GroupSpec("Alt", 6), g, [(Perm.identity(5), 1, "x")], g)
    assert replay(w).violation == "spec-mismatch"


def test_matrix_rejections():
    with pytest.raises(ValueError):
        construct_involution(Mat(ctx5, [[2, 0], [0, 2]]),
                             GroupSpec("SL", 2, 5))   # central, det 4=1? no
    with pytest.raises(ValueError):
        construct_involution(Mat(ctx5, [[2, 0], [0, 1]]),
                             GroupSpec("SL", 2, 5))   # det 2
    with pytest.raises(ValueError):
        construct_involution(Mat(ctx5, [[1, 1], [0, 1]]),
                             GroupSpec("PSL", 2, 5))  # family unsupported


# -- transversal sweeps ----------------------------------------------------


@pytest.mark.parametrize("n,q", [(2, 5), (2, 7), (3, 3)])
def test_every_class_gets_a_witness(n, q):
    ctx = make_field(q)
    count = 0
    for g, _ in class_transversal(ctx, n):
        w = ok(construct_involution(g, GroupSpec("SL", n, q)))
        assert w.length <= constructor.MAX_WITNESS_LEN
        count += 1
    assert count > 0


# -- replay and serialization ----------------------------------------------


def _sample_witness():
    return construct_involution(Mat(ctx5, [[2, 0], [0, 3]]),
                                GroupSpec("SL", 2, 5))


def test_replay_flags_empty_and_oversize():
    w = _sample_witness()
    assert replay(Witness(w.spec, w.g, [], w.target)).violation == \
        "empty-witness"
    eye = Mat.identity(ctx5, 2)
    long = [(eye, 1, "x")] * (constructor.MAX_WITNESS_LEN + 1)
    assert replay(Witness(w.spec, w.g, long, w.target)).violation == \
        "length-exceeds-8"


# records whose g lies outside the group: each product is a projective
# involution, so only the membership check can refuse the first two, and
# the third has no g^-1
OUTSIDE_RECORDS = {
    "det -1 in SL(2,5)": {"group": {"family": "SL", "n": 2, "q": 5},
                          "g": "0,1;1,0", "target": "0,1;1,0",
                          "steps": [{"c": "1,0;0,1", "e": 1, "case": "x"}]},
    "odd in Alt(4)": {"group": {"family": "Alt", "n": 4}, "g": "(1,2)",
                      "target": "(1,2)(3,4)",
                      "steps": [{"c": "", "e": 1, "case": "x"},
                                {"c": "(1,3)(2,4)", "e": 1, "case": "x"}]},
    "singular in GL(2,5)": {"group": {"family": "GL", "n": 2, "q": 5},
                            "g": "0,0;0,0", "target": "0,1;1,0",
                            "steps": [{"c": "1,0;0,1", "e": 1, "case": "x"}]},
}


@pytest.mark.parametrize("name", list(OUTSIDE_RECORDS))
def test_replay_flags_elements_outside_the_group(name):
    obj = dict(OUTSIDE_RECORDS[name])
    obj["net_exponent"] = sum(s["e"] for s in obj["steps"])
    w = witness_from_json(json.dumps(obj))
    assert replay(w).violation == "element-outside-group"


def test_replay_flags_tampering():
    w = _sample_witness()
    w.steps[0] = WitnessStep(w.steps[0].c, -w.steps[0].e, "x")
    assert replay(w).violation == "net-exponent-mismatch"
    w = _sample_witness()
    w.steps[0] = WitnessStep(Mat(ctx5, [[1, 2], [0, 1]]), w.steps[0].e, "x")
    assert replay(w).violation == "product-mismatch"
    w = _sample_witness()
    w.steps[0] = WitnessStep(Mat(ctx5, [[2, 0], [0, 1]]), w.steps[0].e, "x")
    assert replay(w).violation == "conjugator-determinant"


def _doubled_window_witness():
    """An SL(5,7) witness whose window's target squares to -I on the window
    only, so the window's word is taken twice: 8 steps, 2 distinct.  g is
    a conjugate of J_2(1) (+) J_2(1) (+) 1, so it has no trace-0 partner,
    and 2 beta = -2 is no square mod 7: its plane word is y^2 (here
    tr(y)^2 = 2, so y^2 has trace 0), and the witness is the trade word
    four times."""
    g = parse_mat(ctx7, "3,0,2,2,3;0,5,0,5,1;6,2,0,5,6;5,2,5,5,1;3,2,3,2,6")
    assert _conjugate_of_j2_j2_1(g)
    w = ok(construct_involution(g, GroupSpec("SL", 5, 7)))
    word = [(s.c, s.e) for s in w.steps]
    assert w.length == 8 and len(set(word)) == 2 and word == word[:2] * 4
    return w


def test_replay_flags_repeated_bad_conjugator():
    w = _doubled_window_witness()
    c = w.steps[0].c
    bad = c * Mat.diag(ctx7, (3, 1, 1, 1, 1))
    repeats = [i for i, s in enumerate(w.steps) if s.c == c]
    assert len(repeats) == 4
    for i in repeats:
        w.steps[i] = WitnessStep(bad, w.steps[i].e, "x")
    assert replay(w).violation == "conjugator-determinant"


def test_replay_flags_tampered_target_of_doubled_witness():
    w = _doubled_window_witness()
    h = transvection(ctx7, 5, 0, 1)
    # another projective involution, so only the product check can fail
    w.target = h * w.target * h.inv()
    assert replay(w).violation == "product-mismatch"


def _quadratic_witness(ctx, n, seed):
    """The witness of a conjugate of J_2(1)^(n/2), even n: quadratic, so it
    has no trace-0 partner, and its word repeats one block."""
    x = _random_sl(ctx, n, random.Random(seed))
    j = Mat(ctx, [[int(i == k or (k == i + 1 and i % 2 == 0))
                   for k in range(n)] for i in range(n)])
    return ok(construct_involution(x * j * x.inv(), GroupSpec("SL", n, ctx.q)))


def test_replay_eliminates_once_per_distinct_conjugator(monkeypatch):
    # dense path (n < 6): g's forward elimination and its backward half
    # (one Gauss-Jordan elimination for g^-1), and both halves for each
    # distinct step (c, e) other than the identity, which checks det c and
    # gives c^-1 together.  Factored path (n >= 6): g's forward elimination
    # alone, and both halves of the r x r matrix I_r + v u per distinct
    # conjugator, r = rank(c - I), whose determinant is det c.  Counted on
    # the records, whose matrices have kept nothing
    doubled = _quadratic_witness(ctx7, 8, 40)
    word = [(s.c, s.e) for s in doubled.steps]
    assert doubled.length == 8 and word == word[:2] * 4
    for w, forward_sizes, backward_sizes in (
            (_doubled_window_witness(), {5: 2}, {5: 2}),
            (doubled, {8: 1, 1: 1}, {1: 1})):
        w = witness_from_json(witness_to_json(w))
        forward, backward = Counter(), Counter()
        with monkeypatch.context() as patch:
            _spy_eliminations(patch, forward, backward)
            assert replay(w).ok
        assert _by_size(forward) == forward_sizes
        assert _by_size(backward) == backward_sizes
        assert len({s.c for s in w.steps}) == 2
        assert len({s.c for s in w.steps if s.c.is_identity()}) == 1


def _by_size(counts):
    """{n: number of n x n matrices counted} for counts keyed by rows."""
    return dict(Counter(len(rows) for rows, k in counts.items()
                        for _ in range(k)))


def _spy_eliminations(monkeypatch, forward, backward):
    """Count, by the rows of the matrix, the forward eliminations (the
    first det, inv or solve of a matrix) and the backward halves (its first
    inv or inv_det, when it is invertible): a call that reads what the
    matrix kept makes none."""
    real_forward, real_inv_det = Mat._forward, Mat.inv_det

    def spy_forward(a):
        forward[a.rows] += a._lu is None
        return real_forward(a)

    def spy_inv_det(a):
        backward[a.rows] += a._inv_det is None and a.det() != 0
        return real_inv_det(a)
    monkeypatch.setattr(Mat, "_forward", spy_forward)
    monkeypatch.setattr(Mat, "inv_det", spy_inv_det)


def test_construct_eliminates_g_once(monkeypatch):
    # classify's det keeps g's forward elimination on g; the restart's
    # solves and replay read it.  Replay of the record of the 4-step
    # witness [(I, -1), (h^-1, +1)] twice (odd q), or of the 2-step one
    # (even q), below n = 6 takes the dense path: it eliminates g forward
    # and finishes g's backward half for g^-1, eliminates h^-1 both ways,
    # forms the conjugate of h^-1 (two n x n products) and the product from
    # the first conjugate (three, or one for 2 steps).  From n = 6 up it
    # makes no n x n product, g's forward elimination is the one n x n
    # elimination, and construct followed by replay never runs g's
    # backward half
    rng = random.Random(38)
    for q in (3, 5, 7, 9, 4, 8):
        ctx = make_field(q)
        for n in list(range(5, 10)) + [16, 24]:
            dense = n < 2 * constructor._RANK_STEP
            g = _random_sl(ctx, n, rng)
            g = Mat(ctx, g.rows)
            forward, backward = Counter(), Counter()
            with monkeypatch.context() as patch:
                _spy_eliminations(patch, forward, backward)
                w = construct_involution(g, GroupSpec("SL", n, q))
            assert (forward[g.rows], backward[g.rows]) == (1, dense), (n, q)
            assert w.length == (4 if q % 2 else 2)
            w = witness_from_json(witness_to_json(w))
            assert ([s.c.is_identity() for s in w.steps]
                    == [True, False] * (w.length // 2))
            forward.clear()
            backward.clear()
            products = Counter()
            mul = Mat.__mul__
            with monkeypatch.context() as patch:
                _spy_eliminations(patch, forward, backward)
                patch.setattr(Mat, "__mul__", lambda a, b: products.update(
                    [(a.n, a.m, b.m)]) or mul(a, b))
                assert replay(w).ok
            square_forward = {rows: k for rows, k in forward.items()
                              if len(rows) == n}
            square_backward = {rows: k for rows, k in backward.items()
                               if len(rows) == n}
            if dense:
                assert sorted(square_forward.values()) == [1, 1]
                assert square_backward == square_forward
                assert square_forward[w.g.rows] == 1
                assert products[n, n, n] == w.length + 1, products
            else:
                assert square_forward == {w.g.rows: 1}
                assert square_backward == {}
                assert products[n, n, n] == 0, products


def test_construct_squares_g_once(monkeypatch):
    # classify's square of g decides whether g is its own target; replay
    # squares the target again only when it is g itself (the 1-step word)
    squared = Counter()
    real = matrix._square_sign

    def spy(g, square=None):
        squared[g.rows] += square is None
        return real(g, square)
    monkeypatch.setattr(matrix, "_square_sign", spy)
    g = _random_sl(ctx5, 6, random.Random(44))
    involution = Mat.diag(ctx5, (1, 1, 4, 4, 1, 1))
    for x, length, times in ((g, 4, 1), (g * involution * g.inv(), 1, 2)):
        assert construct_involution(x, GroupSpec("SL", 6, 5)).length == length
        assert squared[x.rows] == times


def _restart_witness():
    """A 4-step SL(6,5) restart witness: [(I, -1), (h^-1, +1)] twice."""
    g = _random_sl(ctx5, 6, random.Random(39))
    w = ok(construct_involution(g, GroupSpec("SL", 6, 5)))
    assert [s.c.is_identity() for s in w.steps] == [True, False] * 2
    return w


def _alt_witness():
    """An Alt(7) trade word g^-1 (h^-1 g h): its first step is (I, -1)."""
    w = ok(construct_involution(Perm.from_cycles("(1,2,3)(4,5,6)", 7),
                                GroupSpec("Alt", 7)))
    assert w.steps[0].c.is_identity() and not w.steps[1].c.is_identity()
    return w


def test_replay_with_identity_steps_flags_a_tampered_target():
    # the identity step reads g^e directly; the product check still holds
    w = _restart_witness()
    h = transvection(ctx5, 6, 0, 1)
    w.target = h * w.target * h.inv()
    assert is_projective_involution(w.target)
    assert replay(w).violation == "product-mismatch"
    w = _alt_witness()
    c = Perm.from_cycles("(1,2,7)", 7)
    w.target = c * w.target * c.inv()
    assert w.target * w.target == Perm.identity(7)
    assert replay(w).violation == "product-mismatch"


def test_replay_with_identity_steps_flags_a_bad_conjugator():
    # a conjugator of determinant 2 (an odd one) after an identity step
    w = _restart_witness()
    s = w.steps[1]
    w.steps[1] = WitnessStep(s.c * Mat.diag(ctx5, (2, 1, 1, 1, 1, 1)), s.e,
                             s.case)
    assert replay(w).violation == "conjugator-determinant"
    w = _alt_witness()
    s = w.steps[1]
    w.steps[1] = WitnessStep(s.c * Perm.from_cycles("(1,2)", 7), s.e, s.case)
    assert replay(w).violation == "conjugator-parity"


def _dense_product(g, steps):
    acc = Mat.identity(g.ctx, g.n)
    for c, e, _ in steps:
        acc = acc * c * g ** e * c.inv()
    return acc


def _dense_reference(w):
    """(ok, violation) of an SL witness, read off the dense product of the
    conjugates c g^e c^-1, in replay's order of checks."""
    if w.g.det() != 1:
        return False, "element-outside-group"
    if any(s.c.det() != 1 for s in w.steps):
        return False, "conjugator-determinant"
    if _dense_product(w.g, [(s.c, s.e, s.case) for s in w.steps]) != w.target:
        return False, "product-mismatch"
    if not is_projective_involution(w.target):
        return False, "target-not-projective-involution"
    return True, None


def _tampered(w, rng):
    """Records made from w, one of each kind: an entry of a conjugator, an
    entry of the target, a conjugator times diag(lam, 1, ...) (lam != 1,
    of rank(c - I) one more than c's), the word conjugated by a random x
    (a valid record whose conjugators have full rank, so replay takes the
    dense path), the first half of a word of even length with its product
    as the target (a restart word's commutator, or g^-1: no involution)
    and, for words of at most 6 steps, the word between (I, e) and (I, -e),
    e the first exponent, whose partial exponent sum reaches 2 e (valid
    with the target conjugated to match)."""
    ctx, n = w.g.ctx, w.g.n

    def record(steps, target):
        return Witness(w.spec, w.g, steps, target)

    def bump(m):
        i, j = rng.randrange(n), rng.randrange(n)
        rows = [list(r) for r in m.rows]
        rows[i][j] = ctx.add(rows[i][j], 1)
        return Mat(ctx, rows)
    steps = [(s.c, s.e, s.case) for s in w.steps]
    k = rng.randrange(len(steps))
    c, e, case = steps[k]
    out = [record(steps[:k] + [(bump(c), e, case)] + steps[k + 1:],
                  w.target),
           record(steps, bump(w.target))]
    lam = Mat.diag(ctx, (2 % ctx.q,) + (1,) * (n - 1))
    out.append(record([(d * lam if d == c else d, f, lab)
                       for d, f, lab in steps], w.target))
    x = _random_sl(ctx, n, rng)
    xi = x.inv()
    out.append(record([(x * d, f, lab) for d, f, lab in steps],
                      x * w.target * xi))
    if len(steps) % 2 == 0:
        half = steps[:len(steps) // 2]
        out.append(record(half, _dense_product(w.g, half)))
    if len(steps) <= constructor.MAX_WITNESS_LEN - 2:
        eye, f = Mat.identity(ctx, n), steps[0][1]
        g_f = w.g ** f
        out.append(record([(eye, f, "x")] + steps + [(eye, -f, "x")],
                          g_f * w.target * g_f.inv()))
    return out


def test_replay_agrees_with_the_dense_product(monkeypatch):
    # the factored replay (n >= 6 for a restart word) and the dense one
    # (below, or for a conjugator of too high a rank or a partial exponent
    # sum of 2) read every record as the dense product does; the factored
    # path meets every outcome, and hands some records to the dense one
    rng = random.Random(41)
    witnesses = [_doubled_window_witness(), _quadratic_witness(ctx5, 8, 42),
                 _quadratic_witness(ctx7, 16, 43)]
    for q in _field_orders():
        ctx = make_field(q)
        for n in list(range(3, 10)) + [16, 24]:
            g = _random_sl(ctx, n, rng)
            while g.is_scalar():
                g = _random_sl(ctx, n, rng)
            witnesses.append(construct_involution(g, GroupSpec("SL", n, q)))
    factored = Counter()
    low_rank = constructor._replay_low_rank

    def spy(*args):
        found = low_rank(*args)
        factored[found] += 1
        return found
    monkeypatch.setattr(constructor, "_replay_low_rank", spy)
    for w in witnesses:
        for record in [w] + _tampered(w, rng):
            got = replay(record)
            assert (got.ok, got.violation) == _dense_reference(record), (
                record, got)
    assert min(factored[v] for v in (
        None, "conjugator-determinant", "product-mismatch",
        "target-not-projective-involution", constructor._DENSE)) > 0


def test_replay_flags_bad_target():
    g = Mat(ctx5, [[1, 1], [0, 1]])
    eye = Mat.identity(ctx5, 2)
    w = Witness(GroupSpec("SL", 2, 5), g, [(eye, 1, "x"), (eye, 1, "x")],
                g * g)
    assert replay(w).violation == "target-not-projective-involution"
    # one conjugator with both exponents: the product g g^-1 is I
    w = Witness(GroupSpec("SL", 2, 5), g, [(eye, 1, "x"), (eye, -1, "x")],
                eye)
    assert replay(w).violation == "target-not-projective-involution"


def test_replay_flags_perm_violations():
    g = Perm.from_cycles("(1,2,3)", 5)
    spec = GroupSpec("Alt", 5)
    odd = Perm.from_cycles("(1,2)", 5)
    w = Witness(spec, g, [(odd, 1, "x")], g)
    assert replay(w).violation == "conjugator-parity"
    t = Perm.from_cycles("(1,2)", 5)
    w = Witness(GroupSpec("Sym", 5), t, [(Perm.identity(5), 1, "x")], t)
    assert replay(w).violation == "target-parity"


def test_replay_flags_perm_target_not_involution():
    g = Perm.from_cycles("(1,2,3)", 5)
    eye = Perm.identity(5)
    spec = GroupSpec("Alt", 5)
    w = Witness(spec, g, [(eye, 1, "x")], g)
    assert replay(w).violation == "target-not-involution"
    w = Witness(spec, g, [(eye, 1, "x"), (eye, -1, "x")], eye)
    assert replay(w).violation == "target-not-involution"


def test_witness_json_roundtrip_matrix():
    w = _sample_witness()
    js = witness_to_json(w)
    w2 = witness_from_json(js)
    assert replay(w2).ok and witness_to_json(w2) == js


def test_witness_json_roundtrip_perm():
    w = construct_involution(Perm.from_cycles("(1,2,3,4,5)", 6),
                             GroupSpec("Alt", 6))
    js = witness_to_json(w)
    w2 = witness_from_json(js)
    assert replay(w2).ok and witness_to_json(w2) == js


@pytest.mark.parametrize("perm, group, match", [
    (True, {"family": "Alt", "n": 6, "q": 5}, "takes no field order"),
    (False, {"family": "SL", "n": 2}, "needs a field order"),
    (False, {"family": ["SL"], "n": 2, "q": 5}, "unknown family"),
    (False, {"family": "SL", "n": 2, "q": 6}, "not a prime power"),
], ids=["perm-with-q", "matrix-without-q", "family-is-list", "q-6"])
def test_witness_record_with_a_malformed_group_is_refused(perm, group, match):
    w = (construct_involution(Perm.from_cycles("(1,2,3,4,5)", 6),
                              GroupSpec("Alt", 6)) if perm
         else _sample_witness())
    obj = json.loads(witness_to_json(w))
    obj["group"] = group
    with pytest.raises(ValueError, match=match):
        witness_from_json(json.dumps(obj))


def test_witness_step_rejects_bad_exponent():
    c = Mat.identity(ctx5, 2)
    for e in (0, 2, -2):
        with pytest.raises(ValueError):
            WitnessStep(c, e, "bfs")
    g = Mat(ctx5, [[1, 1], [0, 1]])
    with pytest.raises(ValueError):
        Witness(GroupSpec("SL", 2, 5), g, [(c, 2, "bfs")], g)


def test_witness_json_tamper_detection():
    w = _sample_witness()
    obj = json.loads(witness_to_json(w))
    obj["net_exponent"] += 1
    with pytest.raises(ValueError):
        witness_from_json(json.dumps(obj))
    obj = json.loads(witness_to_json(w))
    swapped = "1,0;2,1" if obj["steps"][0]["c"] != "1,0;2,1" else "1,0;3,1"
    obj["steps"][0]["c"] = swapped
    w2 = witness_from_json(json.dumps(obj))
    assert not replay(w2).ok


def test_invalid_witness_raises_construct_error(monkeypatch):
    # the final check must hold under python -O too, so it is no assert
    import invword.constructor as constructor
    monkeypatch.setattr(constructor, "replay", lambda w: constructor.ReplayReport(
        False, "forced-violation", w.length, 0))
    g = companion(ctx5, next(f for f in irreducible_polys(ctx5, 3)
                             if f[0] == ctx5.neg(1)))
    with pytest.raises(ConstructError, match="forced-violation"):
        construct_involution(g, GroupSpec("SL", 3, 5))
    with pytest.raises(ConstructError, match="forced-violation"):
        construct_involution(Perm.from_cycles("(1,2,3)", 5), GroupSpec("Alt", 5))
    with pytest.raises(ConstructError, match="forced-violation"):
        construct_involution(Mat(ctx5, [[2, 0], [0, 3]]),
                             GroupSpec("SL", 2, 5))


def test_class_search_cap():
    # the search reaches each class at most once, so it ends with no cap:
    # a 5-cycle of Alt(5) is 3 steps from an involution
    g = Perm.from_cycles("(1,2,3,4,5)", 5)
    assert brute_force_witness(g, GroupSpec("Alt", 5)).length == 3
    # the order-3 class of SL(2,2) runs out of classes at layer 2
    g = Mat(ctx2, [[1, 1], [1, 0]])
    with pytest.raises(Unreachable) as ei:
        brute_force_witness(g, GroupSpec("SL", 2, 2))
    assert ei.value.certificate["levels_explored"] == 2


# -- stored class words -------------------------------------------------------


def test_class_words_equal_the_class_search():
    table = constructor.class_word_table()
    assert list(table.items()) == list(constructor.CLASS_WORDS.items())


def test_class_words_cover_every_class():
    # one word for each class of a stored pair whose characteristic
    # polynomial is irreducible, keyed by its companion matrix
    keys = set()
    for n, q in constructor._STORED_PAIRS:
        ctx = make_field(q)
        for g, blocks in class_transversal(ctx, n):
            if len(blocks) == 1 and blocks[0][1] == 1:
                keys.add((n, q, companion(ctx, blocks[0][0]).to_text()))
    assert keys == set(constructor.CLASS_WORDS)
    assert len(keys) == 9
    assert {k[:2] for k in constructor.CLASS_WORDS} == \
        constructor._STORED_PAIRS
    assert Counter(k[:2] for k in keys) == {(2, 2): 1, (3, 2): 2, (3, 4): 6}


def test_class_words_replay_under_non_sl_conjugation():
    # v has determinant != 1 wherever GF(q) allows it; g = v J v^-1 still
    # gets the stored word's length, carried over by g's Krylov matrix
    rng = random.Random(11)
    for (n, q, text), (word, target) in constructor.CLASS_WORDS.items():
        ctx = make_field(q)
        v = rand_gl(ctx, n, rng)
        while q > 2 and v.det() == 1:
            v = rand_gl(ctx, n, rng)
        g = v * parse_mat(ctx, text) * v.inv()
        if isinstance(word, str):
            with pytest.raises(Unreachable) as ei:
                construct_involution(g, GroupSpec("SL", n, q))
            assert ei.value.certificate == target
            continue
        w = ok(construct_involution(g, GroupSpec("SL", n, q)))
        assert (w.length, w.net_exponent) == (len(word),
                                              sum(e for _, e in word))
        assert labels(w) == ["bfs"]


def test_excluded_pairs_enumerate_no_group(monkeypatch):
    import invword.oracle as oracle
    calls = []
    for mod in (oracle, constructor):
        for name in ("build_group", "conjugacy_classes"):
            real = getattr(oracle, name)
            monkeypatch.setattr(mod, name, lambda *a, _n=name, _r=real:
                                calls.append(_n) or _r(*a))
    rng = random.Random(5)
    for n, q in EXCLUDED_SMALL_PAIRS:
        ctx = make_field(q)
        for g, _ in class_transversal(ctx, n):
            c = rand_gl(ctx, n, rng)
            try:
                ok(construct_involution(c * g * c.inv(),
                                        GroupSpec("SL", n, q)))
            except Unreachable:
                assert (n, q) == (2, 2)
    assert calls == []


# -- witness length against the exact distance --------------------------------


# (n, q) -> histogram of the gaps L - d over one input per class_transversal
# element, L the witness length and d the exact distance to a projective
# involution in the class graph; the 2x2 rule and the stored words are
# minimal on most groups, the restart is not: on SL(3,3) and SL(3,5) the
# 4-step word of a trace-0 partner is 2 above d, and the quadratic classes
# of SL(3,5) where 2 beta is no square take 8 steps
GAP_HISTOGRAMS = {
    (2, 2): {0: 1}, (2, 3): {0: 6}, (2, 4): {0: 12}, (2, 5): {0: 20},
    (2, 7): {0: 30, 2: 12}, (2, 8): {0: 49, 1: 7}, (2, 9): {0: 72},
    (2, 11): {0: 110}, (2, 13): {0: 108, 1: 48},
    (2, 16): {0: 240}, (2, 17): {0: 272}, (2, 19): {0: 342},
    (2, 23): {0: 286, 1: 132, 2: 88}, (2, 25): {0: 600}, (2, 27): {0: 702},
    (2, 29): {0: 476, 1: 336}, (2, 31): {0: 510, 1: 240, 2: 180},
    (2, 32): {0: 961, 1: 31},
    (3, 2): {0: 5}, (3, 3): {0: 2, 1: 2, 2: 18},
    (3, 5): {0: 4, 2: 108, 5: 4},
    (4, 2): {0: 13}, (3, 4): {0: 57},
}


@pytest.mark.parametrize("n, q", list(GAP_HISTOGRAMS))
def test_witness_length_against_exact_distance(n, q):
    # a witness is a path in the Cayley graph on C u C^-1, so L >= d; the
    # witness and the class-graph search are independent, so this checks both
    spec = GroupSpec("SL", n, q)
    tbl = build_group(spec)
    targets = projective_involution_indices(tbl)
    gaps, unreachable = Counter(), 0
    for g, _ in class_transversal(make_field(q), n):
        if g.is_scalar():
            continue
        d = dist_to_set(tbl, g, targets)
        try:
            w = construct_involution(g, spec)
        except Unreachable:
            # the order-3 class of SL(2,2): its closure holds no involution
            assert d is None
            unreachable += 1
            continue
        assert w.length >= d, (g.to_text(), w.length, d)
        gaps[w.length - d] += 1
    assert unreachable == int((n, q) == (2, 2))
    assert dict(gaps) == GAP_HISTOGRAMS[n, q]


# (n, q) -> (witnesses, Unreachable raised) over every non-central element
# of the three smallest groups and two seeded conjugates of each class of
# the two larger ones: the pairs whose classes all read stored words before
# the table kept only the irreducible classes
WHOLE_GROUP_COUNTS = {(2, 2): (3, 2), (2, 3): (22, 0), (3, 2): (167, 0),
                      (3, 4): (None, 0), (4, 2): (None, 0)}


@pytest.mark.parametrize("n, q", list(WHOLE_GROUP_COUNTS))
def test_every_element_reaches_its_class_distance(n, q):
    # the 2x2 rule, the own-target word and the restart serve every class of
    # these groups but the 9 irreducible ones, which read stored words: each
    # element gets a witness of exactly its class's distance, or, in the
    # order-3 class of SL(2,2), Unreachable
    spec = GroupSpec("SL", n, q)
    tbl = build_group(spec)
    ct = conjugacy_classes(tbl)
    targets = projective_involution_indices(tbl)
    ctx, rng = make_field(q), random.Random(n * 100 + q)
    witnesses, raised = WHOLE_GROUP_COUNTS[n, q]
    if witnesses is None:
        inputs = [c * tbl.decode(r) * c.inv() for r in ct.reps
                  for c in (rand_gl(ctx, n, rng), rand_gl(ctx, n, rng))]
    else:
        inputs = [tbl.decode(i) for i in range(tbl.order)]
    dist, got = {}, Counter()
    for g in inputs:
        if g.is_scalar():
            continue
        k = ct.class_of[tbl.index_of(g)]
        if k not in dist:
            dist[k] = dist_to_set(tbl, ct.reps[k], targets)
        try:
            w = ok(construct_involution(g, spec))
        except Unreachable:
            assert dist[k] is None
            got["raised"] += 1
            continue
        assert w.length == dist[k], (g.to_text(), w.length, dist[k])
        got["witnesses"] += 1
    assert got["raised"] == raised
    if witnesses is not None:
        assert got["witnesses"] == witnesses
    assert len(dist) == len(ct.reps) - sum(
        tbl.decode(r).is_scalar() for r in ct.reps)


# n -> histogram of the gaps L - d over the non-identity class
# representatives of Alt(n), d the exact distance to an involution: the
# trade word with alt_partner, the A5 5-cycle's searched word and the
# involutions' 1-step word are minimal on every class
ALT_GAP_HISTOGRAMS = {5: {0: 4}, 6: {0: 6}, 7: {0: 8}, 8: {0: 13}}


@pytest.mark.parametrize("n", list(ALT_GAP_HISTOGRAMS))
def test_alt_witness_length_against_exact_distance(n):
    spec = GroupSpec("Alt", n)
    tbl = build_group(spec)
    targets = involution_indices(tbl)
    gaps = Counter()
    for r in conjugacy_classes(tbl).reps:
        if r == tbl.identity_index:
            continue
        d = dist_to_set(tbl, r, targets)
        w = construct_involution(tbl.decode(r), spec)
        assert w.length >= d, (str(tbl.decode(r)), w.length, d)
        gaps[w.length - d] += 1
        assert (w.length == 1) == (r in targets), str(tbl.decode(r))
    assert dict(gaps) == ALT_GAP_HISTOGRAMS[n]


# -- pinned witness bytes ----------------------------------------------------


def pinned_inputs():
    """The class transversals of SL(2,2), SL(2,3), SL(2,5) and SL(3,3), the
    doubled blocks at n = 4, 6, 8 and the cubed quadratics at n = 6, the
    SL(4,3) too-large path, the GL reseed and one SL(6,3) element; every
    element outside the stored pairs and the 2x2 rule takes the commutator
    restart on g itself."""
    items = []
    for n, q in ((2, 2), (2, 3), (2, 5), (3, 3)):
        items += [(g, GroupSpec("SL", n, q))
                  for g, _ in class_transversal(make_field(q), n)]
    for q, d in ((5, 2), (2, 3), (3, 3), (3, 4), (5, 4)):
        items.append((_doubled(make_field(q), d), GroupSpec("SL", 2 * d, q)))
    for ctx in (ctx2, ctx3):
        items.append((_cubed(ctx, 2), GroupSpec("SL", 6, ctx.q)))
    items.append((Mat(ctx3, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                             [0, 0, 0, 1]]), GroupSpec("SL", 4, 3)))
    items.append((Mat(ctx7, [[3, 0], [0, 1]]), GroupSpec("GL", 2, 7)))
    items.append((parse_mat(ctx3, "2,2,2,0,1,2;2,0,0,0,0,2;1,2,0,2,2,0;"
                            "1,2,1,1,0,0;0,0,2,0,1,0;1,1,2,0,2,2"),
                  GroupSpec("SL", 6, 3)))
    return items


# sha256 over each input's witness_to_json (or exception and certificate),
# one per line, and over each input's "length net_exponent" (or the same
# exception line), the shape of every witness; one pair of digests for the
# inputs of dimension at most 4 and one for the inputs above it
PINNED_SHA256 = {
    "n <= 4": ("7d52bdff2cd73da603c0644073142fb2f1375f7ac5915bbcf8804ab1c742333e",
               "f40b0661d6af062afc739cb12f4f6571381b70aa4de8051884f4d5512e0de6ff"),
    "n > 4": ("7cfb1a478148642de751abdc34beb7cbe00330e82dec31872350b975bd30d93a",
              "caa2312823dd062561438ae8ebcd50918f6f492dfa00c4bfcbbfb6e98d2e484a"),
}


def test_pinned_witness_bytes():
    digests = {k: (hashlib.sha256(), hashlib.sha256()) for k in PINNED_SHA256}
    for g, spec in pinned_inputs():
        try:
            w = construct_involution(g, spec)
            rec, dims = witness_to_json(w), "%d %d" % (w.length,
                                                       w.net_exponent)
        except ConstructError as e:
            rec = dims = "%s: %s | %r" % (type(e).__name__, e,
                                          getattr(e, "certificate", None))
        h, shape = digests["n <= 4" if spec.n <= 4 else "n > 4"]
        h.update(rec.encode() + b"\n")
        shape.update(dims.encode() + b"\n")
    got = {k: (h.hexdigest(), shape.hexdigest())
           for k, (h, shape) in digests.items()}
    assert got == PINNED_SHA256


# sha256 over the witnesses for the class transversals of SL(2,4) and
# SL(2,8), one witness_to_json per line: the characteristic-2 words of the
# 2x2 trace rule (the eigenvector commutator and the elliptic classes),
# which none of the inputs above reaches
PINNED_SL2_EVEN_SHA256 = \
    "6e9927453e60436cc6801889b530e6b7b076640c6b86778d6cfa8d509c08b625"


def test_pinned_sl2_even_witness_bytes():
    h = hashlib.sha256()
    count = 0
    for q in (4, 8):
        for g, _ in class_transversal(make_field(q), 2):
            w = construct_involution(g, GroupSpec("SL", 2, q))
            h.update(witness_to_json(w).encode() + b"\n")
            count += 1
    assert count == 68
    assert h.hexdigest() == PINNED_SL2_EVEN_SHA256
