import gc
import random
import subprocess
import sys
from pathlib import Path

import pytest

from invword.canonical import charpoly
from invword.gf import make_extension, make_field
from invword.matrix import (
    GroupSpec,
    Mat,
    classify,
    commutator,
    direct_sum,
    is_projective_involution,
    kron,
    mat_over,
    nullspace,
    parse_mat,
    transvection,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


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
    assert m == transvection(make_field(5), 2, 0, 1, 1)
    with pytest.raises(ValueError):
        mat_over(5, "1,7;0,1")


def test_entries_out_of_range_raise():
    # an entry outside range(q) encodes no field element; the constructor
    # refuses it before any kernel looks it up in a field table
    f5 = make_field(5)
    for rows in ([[7, 0], [0, 3]], [[1, 0], [0, 5]], [[-1, 0], [0, 1]]):
        with pytest.raises(ValueError, match="out of range for GF\\(5\\)"):
            Mat(f5, rows)
    with pytest.raises(ValueError, match="out of range"):
        transvection(f5, 3, 0, 1, 5)
    assert Mat(f5, [[4, 0], [0, 4]]).det() == 1
    assert Mat(f5, []).n == 0


def test_det_frozen():
    assert mat_over(5, "0,4;1,0").det() == 1  # [[0,-1],[1,0]]
    assert mat_over(3, "1,0;0,1").det() == 1
    assert mat_over(5, "2,0;0,3").det() == 1


def test_transvection_inverse():
    F = make_field(7)
    for x in range(7):
        hx = transvection(F, 2, 0, 1, x)
        assert hx.inv() == transvection(F, 2, 0, 1, F.neg(x))


def test_square_of_sl2_target_is_minus_identity():
    t = mat_over(5, "1,1;3,4")
    assert t * t == Mat.scalar(make_field(5), 2, 4)  # -I over GF(5)


def test_conjugation_normalizes_corner():
    # c = h(-1) sends [[1,0],[1,1]] to a matrix with zero top-left entry
    F = make_field(5)
    g = mat_over(5, "1,0;1,1")
    c = transvection(F, 2, 0, 1, F.neg(1))
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
    h1 = transvection(F, 2, 0, 1, 1)
    # h1 g h1^-1 g^-1 = h(1 - a^2) = h(2) over GF(5)
    assert commutator(h1.inv(), g.inv()) == transvection(F, 2, 0, 1, 2)
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
    h1 = transvection(make_field(4), 2, 0, 1, 1)
    c = classify(h1, GroupSpec("SL", 2, 4))
    assert c.involution and c.projective_involution
    bad = mat_over(5, "2,0;0,1")
    assert not classify(bad, s5).in_group
    assert classify(bad, GroupSpec("GL", 2, 5)).in_group


def test_projective_involution_without_determinant():
    rng = random.Random(17)
    for q in (4, 5):
        ctx = make_field(q)
        spec = GroupSpec("SL", 2, q)
        hits = 0
        for _ in range(200):
            g = rand_invertible(ctx, 2, rng)
            hits += is_projective_involution(g)
            assert is_projective_involution(g) == \
                classify(g, spec).projective_involution
        assert 0 < hits < 200


def _classify_by_the_square(g, spec):
    """classify's fields from the whole product g * g."""
    sq, eye = g * g, Mat.identity(g.ctx, g.n)
    pm = sq.is_scalar() and sq[0, 0] in (1, g.ctx.neg(1))
    return (g.det() == 1 or not spec.special, g.is_scalar(),
            sq == eye and g != eye, pm and not g.is_scalar())


def test_classify_builds_the_square_row_by_row():
    # classify stops building g^2 at its first row that is not +-e_i with
    # the sign of the rows before it; every field agrees with the whole
    # product, on random elements, scalars, and elements whose square is
    # I, -I, another scalar, or +-I on some rows only
    rng = random.Random(35)
    seen = set()
    for q in (2, 3, 4, 5, 9):
        ctx = make_field(q)
        minus = ctx.neg(1)
        for n in range(2, 10):
            c = rng.randrange(1, q)
            ys = [rand_invertible(ctx, n, rng), Mat.scalar(ctx, n, c),
                  Mat.scalar(ctx, n, minus), Mat.identity(ctx, n),
                  Mat.diag(ctx, (minus,) * (n // 2) + (1,) * (n - n // 2)),
                  Mat.diag(ctx, (1,) * (n - 1) + (c,)),
                  direct_sum(Mat(ctx, [[0, c], [1, 0]]),
                             Mat.scalar(ctx, n - 2, c)),
                  direct_sum(Mat(ctx, [[0, minus], [1, 0]]),
                             Mat.identity(ctx, n - 2)),
                  transvection(ctx, n, 0, n - 1)]
            for y in ys:
                p = rand_invertible(ctx, n, rng)
                for g in (y, p * y * p.inv()):
                    for family in ("SL", "GL"):
                        spec = GroupSpec(family, n, q)
                        cls = classify(g, spec)
                        got = (cls.in_group, cls.central, cls.involution,
                               cls.projective_involution)
                        assert got == _classify_by_the_square(g, spec)
                        assert is_projective_involution(g) == got[3]
                        seen.add(got[1:])
    # (central, involution, projective involution); -I is a central
    # involution
    assert seen == {(False, False, False), (True, False, False),
                    (True, True, False), (False, True, True),
                    (False, False, True)}


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


def test_rank_nullspace():
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


def test_block_helpers():
    F = make_field(5)
    a = mat_over(5, "1,1;0,1")
    b = Mat.diag(F, (2,))
    s = direct_sum(a, b)
    assert s.to_text() == "1,1,0;0,1,0;0,0,2"
    k = kron(Mat.identity(F, 2), a)
    assert k == direct_sum(a, a)
    t = transvection(F, 3, 2, 0, 4)
    assert t.det() == 1 and t[2, 0] == 4


@pytest.mark.parametrize("family, n, q", [
    ("SL", "3", 5), ("SL", 3, "5"), ("SL", True, 5), ("GL", 2, 5.0),
    ("Alt", 5.0, None), ("Sym", None, None)])
def test_group_spec_refuses_non_int_sizes(family, n, q):
    with pytest.raises(ValueError, match="must be ints"):
        GroupSpec(family, n, q)


@pytest.mark.parametrize("family, n, q", [
    ("SL", 0, 5), ("GL", -2, 3), ("Alt", -1, None), ("Sym", 0, None)])
def test_group_spec_refuses_sizes_below_one(family, n, q):
    with pytest.raises(ValueError, match="at least 1"):
        GroupSpec(family, n, q)
    assert GroupSpec(family, 1, q).n == 1


@pytest.mark.parametrize("family, q", [
    ("SL", 1), ("GL", -4), ("PSL", 6), ("PGL", 0), ("SL", 12)])
def test_group_spec_refuses_q_that_is_no_prime_power(family, q):
    with pytest.raises(ValueError, match="is not a prime power"):
        GroupSpec(family, 2, q)


def test_parse_rejects_ragged():
    with pytest.raises(ValueError):
        parse_mat(make_field(5), "1,2;3")


# -- per-entry reference kernels ---------------------------------------------
# The matrix kernels before the row tables: one field operation per entry,
# through the FieldCtx methods.  The row-table kernels must agree with them
# entry for entry.

def ref_mul(a, b):
    ctx = a.ctx
    bt = list(zip(*b.rows))
    out = []
    for ra in a.rows:
        row = []
        for cb in bt:
            s = 0
            for x, y in zip(ra, cb):
                if x and y:
                    s = ctx.add(s, ctx.mul(x, y))
            row.append(s)
        out.append(tuple(row))
    return tuple(out)


def ref_det(mat):
    ctx, n = mat.ctx, mat.n
    a = [list(r) for r in mat.rows]
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


def ref_inv(mat):
    ctx, n = mat.ctx, mat.n
    a = [list(mat.rows[i]) + [1 if i == j else 0 for j in range(n)] for i in range(n)]
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
    return tuple(tuple(row[n:]) for row in a)


def ref_row_echelon(ctx, a):
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


def ref_nullspace(mat):
    ctx = mat.ctx
    pivots, a = ref_row_echelon(ctx, [list(r) for r in mat.rows])
    basis = []
    for fc in (c for c in range(mat.m) if c not in pivots):
        v = [0] * mat.m
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = ctx.neg(a[r][fc])
        basis.append(tuple(v))
    return basis


KERNEL_FIELDS = [make_field(q) for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32)]
KERNEL_FIELDS.append(make_extension(make_field(3), (1, 0, 1)))  # GF(9) as GF(3)[i]


def kernel_inputs(ctx, rng, n, m):
    """Seeded n x m matrices: dense, sparse, and singular (one row a
    combination of two others, or a zero column)."""
    def entry(density):
        return rng.randrange(1, ctx.q) if rng.random() < density else 0

    out = []
    for density in (1.0, 0.6, 0.25):
        out.append(Mat(ctx, [[entry(density) for _ in range(m)] for _ in range(n)]))
    if n >= 3:
        rows = [list(r) for r in out[0].rows]
        c, d = rng.randrange(ctx.q), rng.randrange(ctx.q)
        rows[rng.randrange(n)] = [ctx.add(ctx.mul(c, x), ctx.mul(d, y))
                                  for x, y in zip(rows[0], rows[1])]
        out.append(Mat(ctx, rows))
    if m >= 2:
        col = rng.randrange(m)
        out.append(Mat(ctx, [[0 if j == col else x for j, x in enumerate(r)]
                             for r in out[1].rows]))
    return out


@pytest.mark.parametrize("ctx", KERNEL_FIELDS, ids=repr)
def test_row_table_kernels_match_reference(ctx):
    rng = random.Random(ctx.q * 101 + ctx.deg + (ctx.base is not None))
    singular = 0
    for n in range(1, 9):
        for a in kernel_inputs(ctx, rng, n, n):
            for b in kernel_inputs(ctx, rng, n, n)[:2]:
                assert (a * b).rows == ref_mul(a, b)
                assert (a + b).rows == tuple(
                    tuple(ctx.add(x, y) for x, y in zip(ra, rb))
                    for ra, rb in zip(a.rows, b.rows))
            c = rng.randrange(ctx.q)
            assert a.scale(c).rows == tuple(tuple(ctx.mul(c, x) for x in r) for r in a.rows)
            assert (-a).rows == tuple(tuple(ctx.neg(x) for x in r) for r in a.rows)
            d = ref_det(a)
            assert a.det() == d
            if d:
                assert a.inv().rows == ref_inv(a)
            else:
                singular += 1
                with pytest.raises(ZeroDivisionError):
                    ref_inv(a)
                with pytest.raises(ZeroDivisionError):
                    a.inv()
    assert singular > 0


@pytest.mark.parametrize("q", (2, 4, 7, 9))
def test_inv_det_is_det_and_inv_in_one(q):
    ctx = make_field(q)
    rng = random.Random(q * 107)
    singular = 0
    for n in range(1, 9):
        for a in kernel_inputs(ctx, rng, n, n):
            inverse, det = a.inv_det()
            assert det == a.det() == ref_det(a)
            if det:
                assert inverse.rows == ref_inv(a) and inverse == a.inv()
            else:
                singular += 1
                assert inverse is None
                with pytest.raises(ZeroDivisionError):
                    a.inv()
    assert singular > 0


@pytest.mark.parametrize("q", (2, 3, 5, 9))
def test_inv_det_is_kept_on_the_matrix(q):
    # the first inv_det keeps (inverse, determinant) on the matrix: a later
    # call returns it, equal to a fresh matrix's elimination; det() then
    # reads it and agrees with det()'s own elimination on a fresh matrix;
    # == and hash ignore it; the inverse keeps nothing, so it holds no
    # reference back to the matrix
    ctx = make_field(q)
    rng = random.Random(q * 109)
    singular = 0
    for n in range(1, 9):
        for a in kernel_inputs(ctx, rng, n, n):
            fresh = Mat(ctx, a.rows)
            pair = a.inv_det()
            assert a.inv_det() is pair and pair == Mat(ctx, a.rows).inv_det()
            assert a.det() == pair[1] == fresh.det() == ref_det(a)
            assert a == fresh and hash(a) == hash(fresh) and {fresh: 1}[a]
            inverse, det = pair
            if not det:
                singular += 1
                assert inverse is None
                with pytest.raises(ZeroDivisionError):
                    a.inv()
                continue
            assert a.inv() is inverse and inverse.rows == ref_inv(a)
            assert not any(r is a or r is pair
                           for r in gc.get_referents(inverse))
            back, _ = inverse.inv_det()
            assert back == a and back is not a
    assert singular > 0


@pytest.mark.parametrize("ctx", KERNEL_FIELDS, ids=repr)
def test_row_table_elimination_matches_reference(ctx):
    rng = random.Random(ctx.q * 103 + ctx.deg + (ctx.base is not None))
    for n in range(1, 9):
        m = rng.randrange(1, 9)
        k = rng.randrange(1, 9)
        for a in kernel_inputs(ctx, rng, n, m):
            # rectangular products n x m times m x k
            for b in kernel_inputs(ctx, rng, m, k)[:2]:
                assert (a * b).rows == ref_mul(a, b)
            pivots, _ = ref_row_echelon(ctx, [list(r) for r in a.rows])
            assert a.rank() == len(pivots)
            assert nullspace(a) == ref_nullspace(a)


def test_kernel_guards_raise_under_optimize():
    # shape and field mismatches must raise ValueError also under python -O
    code = (
        "from invword.gf import make_field\n"
        "from invword.matrix import Mat, direct_sum, kron, mat_over, transvection\n"
        "a, b = mat_over(5, '1,2,3;4,0,1'), mat_over(5, '1,2;3,4')\n"
        "f7 = mat_over(7, '2,0;0,2')\n"
        "cases = [\n"
        "    ('mul shape', lambda: a * b),\n"
        "    ('mul field', lambda: b * f7),\n"
        "    ('det', lambda: a.det()),\n"
        "    ('inv', lambda: a.inv()),\n"
        "    ('pow', lambda: a ** 2),\n"
        "    ('add', lambda: a + b),\n"
        "    ('add field', lambda: b + f7),\n"
        "    ('direct_sum', lambda: direct_sum(b, f7)),\n"
        "    ('kron', lambda: kron(b, f7)),\n"
        "    ('transvection', lambda: transvection(make_field(5), 3, 1, 1)),\n"
        "]\n"
        "for name, f in cases:\n"
        "    try:\n"
        "        print(name, 'returned', f())\n"
        "    except ValueError:\n"
        "        print(name, 'ValueError')\n")
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         env={"PYTHONPATH": SRC}, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    assert len(lines) == 10
    assert all(line.endswith(" ValueError") for line in lines), lines
