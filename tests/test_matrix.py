import random

import pytest

from invword.canonical import charpoly
from invword.gf import make_field
from invword.matrix import (
    GroupSpec,
    Mat,
    classify,
    commutator,
    direct_sum,
    kron,
    mat_over,
    nullspace,
    pad,
    parse_mat,
    solve,
    transvection,
    transvection_h,
)


def rand_mat(ctx, n, rng):
    return Mat(ctx, [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(n)])


def rand_invertible(ctx, n, rng):
    while True:
        m = rand_mat(ctx, n, rng)
        if m.det():
            return m


def test_text_roundtrip():
    m = mat_over(5, "1,1;0,1")
    assert m.to_text() == "1,1;0,1"
    assert m == transvection_h(make_field(5), 1)
    with pytest.raises(ValueError):
        mat_over(5, "1,7;0,1")


def test_det_frozen():
    assert mat_over(5, "0,4;1,0").det() == 1  # [[0,-1],[1,0]]
    assert mat_over(3, "1,0;0,1").det() == 1
    assert mat_over(5, "2,0;0,3").det() == 1


def test_transvection_inverse():
    F = make_field(7)
    for x in range(7):
        hx = transvection_h(F, x)
        assert hx.inv() == transvection_h(F, F.neg(x))


def test_square_of_sl2_target_is_minus_identity():
    t = mat_over(5, "1,1;3,4")
    assert t * t == Mat.scalar(make_field(5), 2, 4)  # -I over GF(5)


def test_conjugation_normalizes_corner():
    # c = h(-1) sends [[1,0],[1,1]] to a matrix with zero top-left entry
    F = make_field(5)
    g = mat_over(5, "1,0;1,1")
    c = transvection_h(F, F.neg(1))
    assert c * g * c.inv() == mat_over(5, "0,4;1,2")


def test_conjugation_preserves_det_trace():
    rng = random.Random(7)
    F = make_field(9)
    for _ in range(100):
        g = rand_mat(F, 3, rng)
        c = rand_invertible(F, 3, rng)
        cg = c * g * c.inv()
        assert cg.det() == g.det()
        assert charpoly(cg) == charpoly(g)


def test_commutator_orders():
    F = make_field(5)
    g = Mat.diag(F, (2, 3))  # diag(a, a^-1), a = 2
    h1 = transvection_h(F, 1)
    # h1 g h1^-1 g^-1 = h(1 - a^2) = h(2) over GF(5)
    assert commutator(h1.inv(), g.inv()) == transvection_h(F, 2)
    assert commutator(g, h1) == g.inv() * h1.inv() * g * h1
    assert commutator(g, g) == Mat.identity(F, 2)


def test_commutator_is_two_conjugates():
    rng = random.Random(3)
    F = make_field(7)
    for _ in range(20):
        g = rand_invertible(F, 2, rng)
        h = rand_invertible(F, 2, rng)
        lhs = commutator(g, h)
        assert lhs == g.inv() * (h.inv() * g * h)


def test_classify():
    s5 = GroupSpec("SL", 2, 5)
    minus_i = Mat.scalar(make_field(5), 2, 4)
    c = classify(minus_i, s5)
    assert c.central and c.in_group and not c.projective_involution
    t = mat_over(5, "1,1;3,4")
    c = classify(t, s5)
    assert not c.central and c.projective_involution and not c.involution
    h1 = transvection_h(make_field(4), 1)
    c = classify(h1, GroupSpec("SL", 2, 4))
    assert c.involution and c.projective_involution
    bad = mat_over(5, "2,0;0,1")
    assert not classify(bad, s5).in_group
    assert classify(bad, GroupSpec("GL", 2, 5)).in_group


def test_classify_conjugation_invariant():
    rng = random.Random(11)
    F = make_field(5)
    spec = GroupSpec("SL", 2, 5)
    t = mat_over(5, "1,1;3,4")
    for _ in range(50):
        c = rand_invertible(F, 2, rng)
        assert classify(c * t * c.inv(), spec).projective_involution


def test_det_multiplicative_exhaustive_gf3():
    F = make_field(3)
    mats = [Mat(F, ((a, b), (c, d)))
            for a in range(3) for b in range(3) for c in range(3) for d in range(3)]
    for x in mats:
        dx = x.det()
        for y in mats:
            assert (x * y).det() == F.mul(dx, y.det())


def test_inv_and_pow():
    rng = random.Random(5)
    F = make_field(8)
    for _ in range(25):
        m = rand_invertible(F, 3, rng)
        assert m * m.inv() == Mat.identity(F, 3)
        assert m ** -2 == (m * m).inv()
        assert m ** 0 == Mat.identity(F, 3)


def test_rank_nullspace_solve():
    F = make_field(5)
    a = Mat(F, ((1, 2, 3), (2, 4, 2), (0, 0, 0)))
    assert a.rank() == 2
    ns = nullspace(a)
    assert len(ns) == 1
    v = ns[0]
    for row in a.rows:
        s = 0
        for x, y in zip(row, v):
            s = F.add(s, F.mul(x, y))
        assert s == 0
    b = (1, 2, 0)
    x = solve(a, b)
    assert x is not None
    got = []
    for row in a.rows:
        s = 0
        for xx, yy in zip(row, x):
            s = F.add(s, F.mul(xx, yy))
        got.append(s)
    assert tuple(got) == b
    assert solve(Mat(F, ((1, 0), (1, 0))), (1, 2)) is None


def test_block_helpers():
    F = make_field(5)
    a = mat_over(5, "1,1;0,1")
    b = Mat.diag(F, (2,))
    s = direct_sum(a, b)
    assert s.to_text() == "1,1,0;0,1,0;0,0,2"
    p = pad(a, 4, offset=1)
    assert p.to_text() == "1,0,0,0;0,1,1,0;0,0,1,0;0,0,0,1"
    k = kron(Mat.identity(F, 2), a)
    assert k == direct_sum(a, a)
    t = transvection(F, 3, 2, 0, 4)
    assert t.det() == 1 and t[2, 0] == 4


def test_parse_rejects_ragged():
    with pytest.raises(ValueError):
        parse_mat(make_field(5), "1,2;3")
