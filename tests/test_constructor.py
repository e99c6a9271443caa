import hashlib
import json
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import invword.constructor as constructor
from invword.gf import MAX_ORDER, make_field, irreducible_polys
from invword.matrix import (GroupSpec, Mat, commutator, direct_sum, parse_mat,
                            sub_block, transvection)
from invword.canonical import (companion, gen_jordan_block, class_transversal,
                               generalized_jordan)
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
    # commutator restart solves its window, for every determinant-1 class
    # (SL(4,2)'s one class reads its stored word)
    count = 0
    for q in _field_orders():
        ctx = make_field(q)
        for f in irreducible_polys(ctx, 2):
            g = gen_jordan_block(ctx, f, 2)
            if g.det() != 1:
                continue
            w = ok(construct_involution(g, GroupSpec("SL", 4, q)))
            assert labels(w) == (["bfs"] if q == 2 else ["reseed"]), (q, f)
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
    # has none and takes the first non-commuting transvection
    for g, length in ((Mat(ctx5, [[1, 0, 0], [0, 2, 0], [0, 0, 3]]), 4),
                      (Mat(ctx5, [[3, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0],
                                  [0, 0, 0, 1]]), 4),
                      (parse_mat(ctx5, "1,1,0,0;0,1,0,0;0,0,1,1;0,0,0,1"), 12)):
        w = ok(construct_involution(g, GroupSpec("SL", g.n, 5)))
        assert w.length == length and labels(w) == ["reseed"]


def test_gl_reseed_route():
    g = Mat(ctx7, [[3, 0], [0, 1]])
    w = ok(construct_involution(g, GroupSpec("GL", 2, 7)))
    assert labels(w) == ["reseed"] and w.length == 4
    assert w.net_exponent == 0    # commutator restarts always balance


def test_find_partner_frozen():
    assert find_partner(Mat(ctx5, [[1, 1], [0, 1]])).to_text() == "1,0;1,1"
    assert find_partner(Mat(ctx7, [[2, 0], [0, 3]])).to_text() == "1,1;0,1"
    with pytest.raises(ValueError):
        find_partner(Mat(ctx5, [[2, 0], [0, 2]]))


def _partner_by_commutator(g):
    """find_partner's definition by commutators: the first transvection
    I + lam E_ij, by coefficient and then position, whose commutator with
    g is non-central."""
    ctx, n = g.ctx, g.n
    for lam in range(1, ctx.q):
        for i in range(n):
            for j in range(n):
                if i != j:
                    h = transvection(ctx, n, i, j, lam)
                    if not commutator(g, h).is_scalar():
                        return h


def test_find_partner_matches_the_commutator_definition():
    # over the inputs that fall back to it: even q, n = 2, and those with
    # no trace-0 partner
    inputs = [g for q in (2, 3, 4, 5, 7, 8, 9) for n in (2, 3, 4)
              for g, _ in class_transversal(make_field(q), n)]
    rng = random.Random(16)
    for n in range(5, 10):
        for q in (2, 3, 4, 5, 7, 9):
            ctx = make_field(q)
            # dense, then a scalar block followed by a dense one, whose
            # partner sits past the first position
            inputs.append(rand_gl(ctx, n, rng))
            k = rng.randrange(2, n - 1)
            inputs.append(direct_sum(Mat.scalar(ctx, k, rng.randrange(1, q)),
                                     rand_gl(ctx, n - k, rng)))
    assert len(inputs) == 16116
    fallback = [g for g in inputs if g.ctx.p == 2 or g.n == 2
                or constructor._trace0_partner(g) is None]
    assert len(fallback) == 5654
    assert sum(g.ctx.p != 2 and g.n > 2 for g in fallback) == 522
    assert sum(g.det() != 1 for g in fallback) > 5
    late = 0
    for g in fallback:
        h = find_partner(g)
        assert h == _partner_by_commutator(g), g.to_text()
        late += h.rows[0][1] != 1
    assert late > 1000


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
            assert h == constructor._trace0_partner(g)
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


def test_quadratic_elements_have_no_trace0_partner():
    # g^2 = a g + b puts g^-1 v = (g v - a v) / b in span(v, g v) for every
    # v, so a quadratic g falls back to the first non-commuting transvection
    rng = random.Random(28)
    count = 0
    for q in (3, 5, 7, 9, 13):
        ctx = make_field(q)
        j2 = Mat(ctx, [[1, 1], [0, 1]])
        c2 = companion(ctx, next(iter(irreducible_polys(ctx, 2))))
        for n in range(3, 9):
            a, b, k = rng.randrange(1, q), rng.randrange(1, q), rng.randrange(1, n)
            ys = [direct_sum(Mat.scalar(ctx, k, a), Mat.scalar(ctx, n - k, b)),
                  direct_sum(j2, Mat.identity(ctx, n - 2)).scale(a)]
            if n % 2 == 0:
                ys.append(_blocks(c2, n // 2))
            for y in ys:
                if y.is_scalar():
                    continue
                p = rand_gl(ctx, n, rng)
                g = p * y * p.inv()
                assert _is_quadratic(g)
                assert constructor._trace0_partner(g) is None
                assert find_partner(g) == _partner_by_commutator(g)
                count += 1
    assert count == 66


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
            assert constructor._trace0_partner(g) is None
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
    # rule gives [(I, +1)] as "sl2-antidiagonal", a stored class word one
    # step (c, +1) as "bfs", and every other input [(I, +1)] as "involution"
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
                if step.case != "bfs":
                    assert step.c.is_identity() and w.target == g
                cases[n == 2, family, step.case] += 1
    assert set(cases) == {
        (True, "SL", "sl2-antidiagonal"), (True, "SL", "bfs"),
        (True, "GL", "involution"), (False, "SL", "involution"),
        (False, "SL", "bfs"), (False, "GL", "involution")}, cases


# -- the window above dimension 4 -------------------------------------------


def _field_orders():
    return [q for q in range(2, MAX_ORDER + 1)
            if len({p for p in range(2, q + 1)
                    if q % p == 0 and all(p % r for r in range(2, p))}) == 1]


def test_window_shapes_stay_under_the_cap():
    # above dimension 4 the restart's commutator x is y (+) I on a window
    # of dimension <= 4, y one of: a non-central 2x2 class (im(x - I) and
    # ker(x - I) apart, or J_2(1)), J_3(1), J_2(1) (+) J_2(1); over GF(2)
    # the 2x2 classes are widened to y (+) 1.  The witness for x is the
    # one for y, squared once (s = 2) when its target squares to -I only on
    # the window, then pulled back along the 2-step restart word.  Only an
    # input with no trace-0 partner meets these windows, as that partner's
    # window is 2-dimensional; J_3(1) itself has one for odd q, and takes
    # 4 steps on a 2-dimensional window of its own
    worst = {}
    for q in _field_orders():
        ctx = make_field(q)
        j2 = Mat(ctx, [[1, 1], [0, 1]])
        shapes = {"J3": parse_mat(ctx, "1,1,0;0,1,1;0,0,1"),
                  "J2+J2": direct_sum(j2, j2)}
        if q == 2:
            one = Mat.identity(ctx, 1)
            shapes["J2+1"] = direct_sum(j2, one)
            shapes["C3+1"] = direct_sum(Mat(ctx, [[0, 1], [1, 1]]), one)
        else:
            shapes.update(("2x2 %s" % g, g) for g, _ in class_transversal(ctx, 2)
                          if not g.is_scalar())
        for name, y in shapes.items():
            w = ok(construct_involution(y, GroupSpec("SL", y.n, q)))
            s = 1 if (w.target * w.target).is_identity() else 2
            assert 2 * s * w.length <= constructor.MAX_WITNESS_LEN, (q, name)
            kind = name.split()[0]
            worst[kind] = max(worst.get(kind, 0), 2 * s * w.length)
    assert worst == {"J3": 8, "J2+J2": 24, "J2+1": 2, "C3+1": 4, "2x2": 16}
    # the replay cap is this table's maximum, not a bound above it
    assert max(worst.values()) == constructor.MAX_WITNESS_LEN


def _conjugate_of_j2_j2_1(g):
    """Whether g is conjugate to J_2(1) (+) J_2(1) (+) I_(n-4): quadratic,
    so it has no trace-0 partner."""
    m = g - Mat.identity(g.ctx, g.n)
    return m.rank() == 2 and (m * m).rank() == 0


def test_window_holding_j2_j2_reaches_the_cap():
    # the window of this SL(5,5) element holds J_2(1) (+) J_2(1), the
    # window shape whose lift is the window table's maximum; the element is
    # a conjugate of J_2(1) (+) J_2(1) (+) 1, which has no trace-0 partner
    g = parse_mat(ctx5, "3,3,3,2,4;0,4,2,1,4;3,2,3,3,1;3,2,2,4,1;4,0,2,2,1")
    assert _conjugate_of_j2_j2_1(g) and constructor._trace0_partner(g) is None
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


def test_window_widens_the_gf2_order3_class(monkeypatch):
    # x - I has rank 2 and x has order 3, so the 2-dimensional window holds
    # the order-3 class of the 2x2 group, which reaches no involution; the
    # window takes one kernel vector more and reads the stored 3x3 word
    g = parse_mat(ctx2, "0,1,0,0,1;1,0,1,0,0;1,1,0,1,0;0,1,0,1,1;0,1,1,1,1")
    _, x = constructor._reseed_word(g, find_partner(g), "reseed")
    m = x - Mat.identity(ctx2, 5)
    assert m.rank() == (m * m).rank() == 2 and (x * x * x).is_identity()
    solved = []
    real = constructor._construct_internal
    monkeypatch.setattr(constructor, "_construct_internal", lambda y, depth=0:
                        solved.append(y) or real(y, depth))
    w = ok(construct_involution(g, GroupSpec("SL", 5, 2)))
    y = solved[-1]
    assert y.n == 3 and y.rows[2] == (0, 0, 1) and (y * y * y).is_identity()
    assert w.length == 4 and labels(w) == ["reseed"]


def _window_shape(y):
    """The shape of a restart's window y, or None for a shape outside the
    list of _window's docstring."""
    ctx, d = y.ctx, y.n
    m = y - Mat.identity(ctx, d)
    if d == 2 and ctx.q > 2 and not y.is_scalar():
        return "2x2"
    if d == 3 and m.rank() == 2 and (m * m * m).rank() == 0:
        return "J3"
    if d == 4 and m.rank() == 2 and (m * m).rank() == 0:
        return "J2+J2"
    corner = sub_block(y, range(2))
    if (ctx.q == 2 and d == 3 and not corner.is_scalar()
            and y == direct_sum(corner, Mat.identity(ctx, 1))):
        return "widened"
    return None


def test_window_shapes_and_depth(monkeypatch):
    # every window met is one of the shapes the window table covers, and a
    # 3- or 4-dimensional window restarts once: depth 2 is the deepest
    windows, depths = {}, []
    real = constructor._construct_internal

    def spy(y, depth=0):
        depths.append(depth)
        if depth:
            shape = _window_shape(y)
            assert shape is not None, y.to_text()
            windows[shape] = windows.get(shape, 0) + 1
        return real(y, depth)
    monkeypatch.setattr(constructor, "_construct_internal", spy)
    rng = random.Random(19)
    for n in range(3, 11):
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
            ctx = make_field(q)
            for g in (_random_sl(ctx, n, rng), _random_sl(ctx, n, rng),
                      rand_gl(ctx, n, rng)):
                family = "SL" if g.det() == 1 else "GL"
                ok(construct_involution(g, GroupSpec(family, n, q)))
    assert max(depths) == 2 == constructor._MAX_DEPTH
    assert set(windows) == {"2x2", "J3", "J2+J2", "widened"}, windows


# -- one restart for every case ---------------------------------------------


def _cubed(ctx, d):
    f = next(f for f in irreducible_polys(ctx, d)
             if gen_jordan_block(ctx, f, 3).det() == 1)
    return gen_jordan_block(ctx, f, 3)


@pytest.mark.parametrize("q, d, length", [(7, 2, 4), (4, 3, 4)])
def test_ext_descent_past_field_cap_reseeds(monkeypatch, q, d, length):
    # a cubed block whose GF(q^d) is past the 32-element cap: no field
    # descent is needed, as above dimension 4 the commutator restart solves
    # the window, and its 2-step word doubles the window's length
    windows = []
    real = constructor._window
    monkeypatch.setattr(constructor, "_window", lambda x, depth: windows.append(
        real(x, depth)) or windows[-1])
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
    # class word takes the commutator restart, once at the top
    depths = []
    real = constructor._reseed
    monkeypatch.setattr(constructor, "_reseed", lambda g, depth:
                        depths.append(depth) or real(g, depth))
    g, spec = ROUTE_INPUTS[case]()
    w = ok(construct_involution(g, spec))
    assert depths.count(0) == 1 and labels(w) == ["reseed"]


def test_excluded_pair_too_large_runs_the_routes(monkeypatch):
    # an excluded pair with no stored class word (as SL(4,3), too large to
    # enumerate) takes the commutator restart in the same call, at the same
    # depth
    monkeypatch.setattr(constructor, "CLASS_WORDS", {})
    depths = []
    real = constructor._construct_internal
    monkeypatch.setattr(constructor, "_construct_internal",
                        lambda g, depth=0: depths.append(depth) or real(g, depth))
    for g, _ in class_transversal(ctx4, 3):
        if g.is_scalar():
            continue
        depths.clear()
        w = ok(construct_involution(g, GroupSpec("SL", 3, 4)))
        assert "bfs" not in labels(w) and depths.count(0) == 1


# -- excluded pairs and the search ladder ----------------------------------


def test_excluded_sl22():
    w = ok(construct_involution(Mat(ctx2, [[1, 1], [0, 1]]),
                                GroupSpec("SL", 2, 2)))
    assert w.length == 1 and labels(w) == ["bfs"]


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
    lens = []
    for g, _ in class_transversal(ctx3, 2):
        w = ok(construct_involution(g, GroupSpec("SL", 2, 3)))
        assert labels(w) == ["bfs"]
        lens.append(w.length)
    assert lens == [2, 2, 2, 2, 1, 1]


def test_excluded_sl32_transversal():
    lens = []
    for g, _ in class_transversal(ctx2, 3):
        w = ok(construct_involution(g, GroupSpec("SL", 3, 2)))
        lens.append(w.length)
    assert lens == [2, 2, 1, 2, 2]


def test_excluded_sl43_too_large_falls_through():
    # |SL(4,3)| is past the enumeration cap; the pair is excluded from
    # the reduction routes but the guard steps aside rather than fail
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
        "length-exceeds-24"


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
    only, so the window's word is taken twice: 16 steps, 8 distinct.  g is
    a conjugate of J_2(1) (+) J_2(1) (+) 1, so it has no trace-0 partner,
    whose witness is the 1-step window word taken twice."""
    g = parse_mat(ctx7, "3,0,2,2,3;0,5,0,5,1;6,2,0,5,6;5,2,5,5,1;3,2,3,2,6")
    assert _conjugate_of_j2_j2_1(g)
    w = ok(construct_involution(g, GroupSpec("SL", 5, 7)))
    word = [(s.c, s.e) for s in w.steps]
    assert w.length == 16 and len(set(word)) == 8 and word[:8] == word[8:]
    return w


def test_replay_flags_repeated_bad_conjugator():
    w = _doubled_window_witness()
    c = w.steps[0].c
    bad = c * Mat.diag(ctx7, (3, 1, 1, 1, 1))
    repeats = [i for i, s in enumerate(w.steps) if s.c == c]
    assert len(repeats) == 2
    for i in repeats:
        w.steps[i] = WitnessStep(bad, w.steps[i].e, "x")
    assert replay(w).violation == "conjugator-determinant"


def test_replay_flags_tampered_target_of_doubled_witness():
    w = _doubled_window_witness()
    h = transvection(ctx7, 5, 0, 1)
    # another projective involution, so only the product check can fail
    w.target = h * w.target * h.inv()
    assert replay(w).violation == "product-mismatch"


def test_replay_eliminates_once_per_distinct_conjugator(monkeypatch):
    # one Gauss-Jordan elimination for g^-1 and one per distinct step (c, e),
    # which checks det c and gives c^-1 together; no determinant besides
    w = _doubled_window_witness()
    calls = {"inv_det": 0, "det": 0}
    for name in calls:
        real = getattr(Mat, name)

        def counted(self, name=name, real=real):
            calls[name] += 1
            return real(self)
        monkeypatch.setattr(Mat, name, counted)
    assert replay(w).ok
    assert calls == {"inv_det": 8 + 1, "det": 0}
    assert len({s.c for s in w.steps}) == 8


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

STORED_PAIRS = [(2, 2), (2, 3), (3, 2), (3, 4), (4, 2)]


def test_class_words_equal_the_class_search():
    table = constructor.class_word_table()
    assert list(table.items()) == list(constructor.CLASS_WORDS.items())


def test_class_words_cover_every_class():
    keys = set()
    for n, q in STORED_PAIRS:
        for g, _ in class_transversal(make_field(q), n):
            keys.add((n, q, generalized_jordan(g).canonical.to_text()))
    assert keys == set(constructor.CLASS_WORDS)
    assert len(keys) == 42


def test_class_words_replay_under_non_sl_conjugation():
    # v has determinant != 1 wherever GF(q) allows it; g = v J v^-1 still
    # gets the stored word's length, carried over by generalized_jordan's u
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
    for n, q in STORED_PAIRS:
        ctx = make_field(q)
        for g, _ in class_transversal(ctx, n):
            c = rand_gl(ctx, n, rng)
            try:
                ok(construct_involution(c * g * c.inv(),
                                        GroupSpec("SL", n, q)))
            except Unreachable:
                assert (n, q) == (2, 2)
    # a class of SL(4,4) whose restart window holds a class of SL(3,4),
    # solved through the stored words
    hits = []
    real = constructor._class_word
    monkeypatch.setattr(constructor, "_class_word",
                        lambda gJ: hits.append(gJ.n) or real(gJ))
    g = parse_mat(ctx4, "0,0,0,1;1,0,0,2;0,1,0,0;0,0,1,1")
    w = ok(construct_involution(g, GroupSpec("SL", 4, 4)))
    assert w.length == 4 and hits and set(hits) == {3}
    assert calls == []


# -- the memo of words over canonical forms ----------------------------------


@pytest.mark.parametrize("n, q", [(3, 5), (4, 3), (4, 4)])
def test_canonical_word_memo_is_transparent(n, q):
    # every class representative and a conjugate of it, each solved with
    # the memo cleared and then with it warm: a held word gives the same
    # bytes as a word solved afresh
    ctx, spec = make_field(q), GroupSpec("SL", n, q)
    rng = random.Random(n * 32 + q)
    inputs = []
    for g, _ in class_transversal(ctx, n):
        if not g.is_scalar():
            c = rand_gl(ctx, n, rng)
            inputs += [g, c * g * c.inv()]
    memo = constructor._canonical_word
    cold = []
    for g in inputs:
        memo.cache_clear()
        cold.append(witness_to_json(construct_involution(g, spec)))
    memo.cache_clear()
    warm = [witness_to_json(construct_involution(g, spec)) for g in inputs]
    assert warm == cold
    # each conjugate at least reads the word its representative left
    assert memo.cache_info().hits >= len(inputs) // 2


# -- witness length against the exact distance --------------------------------


# (n, q) -> histogram of the gaps L - d over one input per class_transversal
# element, L the witness length and d the exact distance to a projective
# involution in the class graph; the 2x2 rule and the stored words are
# minimal on most groups, the restart is not: on SL(3,3) and SL(3,5) the
# 4-step word of a trace-0 partner is 2 above d, and the quadratic classes
# of SL(3,5) take 10 to 12 steps
GAP_HISTOGRAMS = {
    (2, 2): {0: 1}, (2, 3): {0: 6}, (2, 4): {0: 12}, (2, 5): {0: 20},
    (2, 7): {0: 30, 2: 12}, (2, 8): {0: 49, 1: 7}, (2, 9): {0: 72},
    (2, 11): {0: 110}, (2, 13): {0: 108, 1: 48},
    (2, 16): {0: 240}, (2, 17): {0: 272}, (2, 19): {0: 342},
    (2, 23): {0: 286, 1: 132, 2: 88}, (2, 25): {0: 600}, (2, 27): {0: 702},
    (2, 29): {0: 476, 1: 336}, (2, 31): {0: 510, 1: 240, 2: 180},
    (3, 2): {0: 5}, (3, 3): {0: 2, 1: 2, 2: 18},
    (3, 5): {0: 4, 2: 100, 9: 4, 10: 8},
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


# n -> histogram of the gaps L - d over the non-identity class
# representatives of Alt(n), d the exact distance to an involution: the
# trade word with alt_partner and the A5 5-cycle's searched word are
# minimal on every class but the involutions, whose 2-step word is 1 above
# d = 1
ALT_GAP_HISTOGRAMS = {5: {0: 3, 1: 1}, 6: {0: 5, 1: 1}, 7: {0: 7, 1: 1},
                      8: {0: 11, 1: 2}}


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
        assert (w.length - d == 1) == (r in targets), str(tbl.decode(r))
    assert dict(gaps) == ALT_GAP_HISTOGRAMS[n]


# -- pinned witness bytes ----------------------------------------------------


def pinned_inputs():
    """The class transversals of SL(2,2), SL(2,3), SL(2,5) and SL(3,3), the
    doubled blocks at n = 4, 6, 8 and the cubed quadratics at n = 6, the
    SL(4,3) too-large path, the GL reseed and one SL(6,3) element; every
    element above dimension 4 takes the commutator restart's window."""
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
    "n <= 4": ("714c576f99b7bd2d07a75c75a830d6155d63b8127d1b9a35960e5bceb2a22acc",
               "fbecf2d6e9ea02e584a42604bb80ff91ba5c550b5d3ca84969df611c6ca7a62a"),
    "n > 4": ("5b83b32e84e9e28722f7cd44962a2c0f393306d6b1b015e3176d066ffb4f76e3",
              "4fc604ed1b5b0a0e00fbe54eb04b0c489cc18e79aebd2d10e20a2d75868e6418"),
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
