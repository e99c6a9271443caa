import subprocess
import sys
from pathlib import Path

import pytest

from invword import oracle
from invword.constructor import brute_force_witness
from invword.matrix import GroupSpec, Mat, classify
from invword.gf import make_field
from invword.perm import Perm
from invword.oracle import (GroupTooLarge, build_group, class_product_count,
                            conjugacy_classes, d_inv, d_proj_inv, dist_to_set,
                            group_order, involution_indices, is_simple,
                            orbital_diameter_report,
                            projective_involution_indices,
                            projective_involution_test)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_order_formulas():
    assert group_order(GroupSpec("Sym", 5)) == 120
    assert group_order(GroupSpec("Alt", 5)) == 60
    assert group_order(GroupSpec("GL", 2, 3)) == 48
    assert group_order(GroupSpec("SL", 2, 3)) == 24
    assert group_order(GroupSpec("PSL", 2, 3)) == 12
    assert group_order(GroupSpec("PSL", 2, 7)) == 168
    assert group_order(GroupSpec("SL", 3, 2)) == 168
    assert group_order(GroupSpec("SL", 3, 4)) == 60480
    assert group_order(GroupSpec("PSL", 3, 4)) == 20160


def test_build_group_alt5():
    tbl = build_group(GroupSpec("Alt", 5))
    assert tbl.order == 60
    e = tbl.identity_index
    assert tbl.mul(e, e) == e
    # index_of and decode are mutually inverse
    for i in (0, 17, 59):
        assert tbl.index_of(tbl.decode(i)) == i
    # every generator really lands in the group
    for s in tbl.gens:
        assert tbl.mul(s, tbl.inv(s)) == e


def test_build_group_rejects_large():
    with pytest.raises(GroupTooLarge):
        build_group(GroupSpec("SL", 4, 3))   # order 12130560


def test_enumeration_self_checks_raise(monkeypatch):
    # these checks must survive python -O, so they are no asserts
    monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
    monkeypatch.setattr(oracle, "group_order", lambda spec: 25)
    for spec in (GroupSpec("SL", 2, 3), GroupSpec("Sym", 4)):
        with pytest.raises(RuntimeError, match="order formula gives 25"):
            build_group(spec)
    monkeypatch.undo()
    monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
    tbl = build_group(GroupSpec("SL", 2, 3))
    # every transporter the identity: only class representatives pass
    monkeypatch.setattr(tbl.code, "left", lambda k, t: tbl.code.identity)
    with pytest.raises(RuntimeError, match="transporter"):
        conjugacy_classes(tbl)


def test_conjugacy_classes_alt5():
    tbl = build_group(GroupSpec("Alt", 5))
    ct = conjugacy_classes(tbl)
    assert sorted(ct.sizes) == [1, 12, 12, 15, 20]
    assert sum(ct.sizes) == 60
    # transporter invariant on every element
    for i in range(tbl.order):
        t = ct.transporter[i]
        r = ct.reps[ct.class_of[i]]
        assert tbl.mul(tbl.mul(t, r), tbl.inv(t)) == i


def test_conjugacy_classes_counts():
    assert conjugacy_classes(build_group(GroupSpec("SL", 2, 3))).n_classes == 7
    assert conjugacy_classes(build_group(GroupSpec("PSL", 2, 7))).n_classes == 6
    assert conjugacy_classes(build_group(GroupSpec("SL", 3, 2))).n_classes == 6


def test_psl_identifies_scalar_multiples():
    tbl = build_group(GroupSpec("PSL", 2, 5))
    assert tbl.order == 60
    ctx = make_field(5)
    m = Mat(ctx, [[1, 2], [0, 1]])
    assert tbl.index_of(m) == tbl.index_of(m.scale(4))   # -m is the same point


def test_involution_sets():
    a5 = build_group(GroupSpec("Alt", 5))
    assert len(involution_indices(a5)) == 15
    sl25 = build_group(GroupSpec("SL", 2, 5))
    # -I is the lone involution, and it is scalar: nothing squares to I
    # off-center, so the projective notion is the right target set
    assert len(involution_indices(sl25)) == 1
    proj = projective_involution_indices(sl25)
    assert len(proj) == 30
    minus = sl25.index_of(Mat(make_field(5), [[4, 0], [0, 4]]))
    for i in proj:
        assert sl25.mul(i, i) == minus


def test_dist_to_set_basics():
    tbl = build_group(GroupSpec("Alt", 5))
    inv = involution_indices(tbl)
    i22 = tbl.index_of(Perm.from_cycles("(1,2)(3,4)", 5))
    i3 = tbl.index_of(Perm.from_cycles("(1,2,3)", 5))
    i5 = tbl.index_of(Perm.from_cycles("(1,2,3,4,5)", 5))
    assert dist_to_set(tbl, i22, inv) == 1
    assert dist_to_set(tbl, i3, inv) == 2
    assert dist_to_set(tbl, i5, inv) == 3
    with pytest.raises(ValueError):
        dist_to_set(tbl, tbl.identity_index, inv)


def test_dist_to_set_nonnormal_target_falls_back():
    tbl = build_group(GroupSpec("Alt", 5))
    i3 = tbl.index_of(Perm.from_cycles("(1,2,3)", 5))
    one = tbl.index_of(Perm.from_cycles("(1,2)(3,4)", 5))
    # a single involution is not a union of classes; element search
    # still finds a product of two 3-cycles hitting it exactly
    assert dist_to_set(tbl, i3, {one}) == 2


@pytest.mark.parametrize("spec", [GroupSpec("Alt", 5), GroupSpec("PSL", 2, 7)])
def test_dist_to_set_class_and_element_search_agree(spec, monkeypatch):
    tbl = build_group(spec)
    ct = conjugacy_classes(tbl)
    inv = involution_indices(tbl)
    # one involution short of the set is not a union of classes, so the
    # element search runs; distance layers of a conjugation-closed
    # generating set are unions of classes, so the answer cannot change
    partial = inv - {min(inv)}
    modes = []
    search = oracle._bfs_layers

    def spy(starts, neighbors, key=None, parents=None):
        modes.append("element" if key is None else "class")
        return search(starts, neighbors, key, parents)

    monkeypatch.setattr(oracle, "_bfs_layers", spy)
    for k in range(ct.n_classes):
        if ct.reps[k] == tbl.identity_index:
            continue
        d = dist_to_set(tbl, ct.reps[k], inv)
        assert d is not None
        assert dist_to_set(tbl, ct.reps[k], partial) == d
    assert modes == ["class", "element"] * (ct.n_classes - 1)


def test_d_inv_alt5():
    rep = d_inv(build_group(GroupSpec("Alt", 5)))
    assert rep.value == 3
    by_size = {r[2]: r[3] for r in rep.rows}
    assert by_size[15] == 1 and by_size[20] == 2 and by_size[12] == 3


def test_d_inv_requires_simplicity():
    assert is_simple(GroupSpec("Alt", 5))
    assert is_simple(GroupSpec("PSL", 2, 7))
    assert not is_simple(GroupSpec("PSL", 2, 3))
    assert not is_simple(GroupSpec("SL", 2, 5))
    with pytest.raises(ValueError):
        d_inv(build_group(GroupSpec("SL", 2, 5)))


def test_d_inv_refuses_non_simple_under_optimize():
    # the check must survive python -O, so it is no assert
    code = ("from invword.matrix import GroupSpec\n"
            "from invword.oracle import build_group, d_inv\n"
            "try:\n"
            "    d_inv(build_group(GroupSpec('Alt', 4)))\n"
            "except ValueError as e:\n"
            "    print('refused:', e)\n")
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         env={"PYTHONPATH": SRC}, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "refused: Alt(4) is not simple"


def test_projective_involutions_need_a_linear_group():
    tbl = build_group(GroupSpec("PSL", 2, 5))
    with pytest.raises(ValueError):
        projective_involution_indices(tbl)
    with pytest.raises(ValueError):
        d_proj_inv(tbl)


def test_d_inv_sl32():
    # SL(3,2) is simple of order 168; every class is within 2 of an involution
    rep = d_inv(build_group(GroupSpec("SL", 3, 2)))
    assert rep.value == 2


def test_class_product_count_small():
    a4 = build_group(GroupSpec("Alt", 4))
    dt = a4.index_of(Perm.from_cycles("(1,2)(3,4)", 4))
    e = a4.identity_index
    # x * y = e with both in the size-3 class forces y = x^-1 = x
    assert class_product_count(a4, [dt, dt], e, cross_check=True) == 3
    assert class_product_count(a4, [dt, dt, dt], dt, cross_check=True) == 7
    # total over all targets must be |C|^m; per-class counts are constant
    ct = conjugacy_classes(a4)
    total = sum(
        class_product_count(a4, [dt, dt], ct.reps[k]) * ct.sizes[k]
        for k in range(ct.n_classes))
    assert total == 9


def test_class_product_count_indices_and_elements_agree():
    a5 = build_group(GroupSpec("Alt", 5))
    g = Perm.from_cycles("(1,2,3)", 5)
    t = Perm.from_cycles("(1,2)(3,4)", 5)
    gi, ti = a5.index_of(g), a5.index_of(t)
    assert class_product_count(a5, [g, g], t) == \
        class_product_count(a5, [gi, gi], ti)


def test_orbital_diameter_report():
    rep = orbital_diameter_report()
    assert rep.ok
    # the nondiagonal orbital graphs are exactly the class Cayley graphs,
    # so the two diameter families coincide here
    assert sorted(rep.orbital_diameters.values()) == [2, 2, 3, 3]
    assert sorted(rep.class_diameters.values()) == [2, 2, 3, 3]
    assert rep.orbdiam == 3 and rep.d_t == 3
    assert len(rep.matching) == 4
    assert 2 * rep.orbdiam >= rep.d_t
    assert rep.orbdiam <= 72 * rep.d_t


def test_class_product_cross_check_raises_under_optimize():
    # the cross-check must check something under python -O: too large a
    # group is refused, and a count that disagrees with the direct
    # products (forced here by dropping one class member from the
    # convolution) raises
    code = (
        "from invword import oracle\n"
        "from invword.matrix import GroupSpec\n"
        "from invword.perm import Perm\n"
        "sl33 = oracle.build_group(GroupSpec('SL', 3, 3))\n"
        "try:\n"
        "    print(oracle.class_product_count(sl33, [1, 1], 0, cross_check=True))\n"
        "except ValueError as e:\n"
        "    print('ValueError:', e)\n"
        "a4 = oracle.build_group(GroupSpec('Alt', 4))\n"
        "dt = a4.index_of(Perm.from_cycles('(1,2)(3,4)', 4))\n"
        "right_mul = oracle._right_mul\n"
        "oracle._right_mul = lambda tbl, gens: right_mul(tbl, gens[1:])\n"
        "try:\n"
        "    print(oracle.class_product_count(a4, [dt, dt], a4.identity_index,\n"
        "                                     cross_check=True))\n"
        "except RuntimeError as e:\n"
        "    print('RuntimeError:', e)\n")
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         env={"PYTHONPATH": SRC}, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "ValueError: SL(3,3): the direct cross-check is for groups of at "
        "most 5000 elements",
        "RuntimeError: Alt(4): class convolution counts 2, direct products 3",
    ]


def test_orbital_report_checks_raise_under_optimize():
    # in Alt(4) the double transpositions generate only V4, so their
    # orbital graph is not connected
    code = ("from invword.matrix import GroupSpec\n"
            "from invword.oracle import orbital_diameter_report\n"
            "try:\n"
            "    print(orbital_diameter_report(GroupSpec('Alt', 4)))\n"
            "except RuntimeError as e:\n"
            "    print('RuntimeError:', e)\n")
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         env={"PYTHONPATH": SRC}, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == \
        "RuntimeError: Alt(4): orbital graph 2 is not connected"


@pytest.mark.parametrize("spec", [
    *(GroupSpec("SL", 2, q) for q in (2, 3, 4, 5, 7, 8, 9)),
    GroupSpec("SL", 3, 2), GroupSpec("SL", 3, 3), GroupSpec("SL", 4, 2),
    GroupSpec("GL", 2, 3), GroupSpec("GL", 3, 2),
], ids=repr)
def test_projective_involution_test_matches_classify(spec):
    tbl = build_group(spec)
    want = frozenset(i for i in range(tbl.order)
                     if classify(tbl.decode(i), spec).projective_involution)
    assert want
    assert projective_involution_indices(tbl) == want
    is_target = projective_involution_test(tbl)
    assert frozenset(filter(is_target, range(tbl.order))) == want


# -- reference: the tuple-of-tuples tables the oracle kept before the row
# code.  Matrices are tuples of row tuples, products are generic field
# sums, inverses go through Mat.inv, and projective classes are the least
# tuple among the scalar multiples.


def _ref_right(ctx, b):
    """The map x -> x b on row-tuple matrices, each row product memoized."""
    q, mt, at = ctx.q, ctx.mul_table, ctx.add_table
    cols = tuple(zip(*b))
    memo = {}

    def row(r):
        if r not in memo:
            out = []
            for cb in cols:
                acc = 0
                for x, y in zip(r, cb):
                    if x and y:
                        acc = at[acc * q + mt[x * q + y]]
                out.append(acc)
            memo[r] = tuple(out)
        return memo[r]

    return lambda x: tuple(map(row, x))


def _ref_left(ctx, s):
    """The map x -> s x, as (x^T s^T)^T."""
    right = _ref_right(ctx, tuple(zip(*s)))
    return lambda x: tuple(zip(*right(tuple(zip(*x)))))


def _ref_tables(spec):
    """(elements, inverse, gens, class_of, reps, transporter) as the
    tuple code computed them: closure by breadth-first right
    multiplication with the transvections (and diag(nu, 1, ...) for GL,
    PGL), sorted; classes by conjugating with the generators in order."""
    ctx, n, q = make_field(spec.q), spec.n, spec.q
    if spec.family == "PSL":
        lams = [c for c in range(2, q) if ctx.pow(c, n) == 1]
    else:
        lams = list(range(2, q)) if spec.family == "PGL" else []

    def code(rows):
        e = tuple(tuple(r) for r in rows)
        return min([e] + [tuple(tuple(ctx.mul(c, x) for x in r) for r in e)
                          for c in lams])

    def unit():
        return [[int(a == b) for b in range(n)] for a in range(n)]

    gens = []
    for i in range(n):
        for j in range(n):
            for lam in range(1, q) if i != j else ():
                rows = unit()
                rows[i][j] = lam
                gens.append(code(rows))
    if spec.family in ("GL", "PGL"):
        rows = unit()
        rows[0][0] = ctx.generator()
        gens.append(code(rows))
    identity = code(unit())
    times = [_ref_right(ctx, s) for s in gens]
    seen, frontier = {identity}, [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for f in times:
                y = code(f(x))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    elements = sorted(seen)
    index = {e: i for i, e in enumerate(elements)}
    inverse = [index[code(Mat(ctx, e).inv().rows)] for e in elements]
    gens = [index[s] for s in gens]
    steps = [(s, _ref_left(ctx, elements[s]),
              _ref_right(ctx, elements[inverse[s]])) for s in gens]
    e = index[identity]
    class_of, reps = [-1] * len(elements), []
    transporter = [e] * len(elements)
    for i in range(len(elements)):
        if class_of[i] != -1:
            continue
        class_of[i] = len(reps)
        reps.append(i)
        frontier = [i]
        while frontier:
            nxt = []
            for x in frontier:
                for s, left, right_inv in steps:
                    y = index[code(left(right_inv(elements[x])))]
                    if class_of[y] == -1:
                        class_of[y] = class_of[i]
                        transporter[y] = index[code(
                            left(elements[transporter[x]]))]
                        nxt.append(y)
            frontier = nxt
    return elements, inverse, gens, class_of, reps, transporter


@pytest.mark.parametrize("spec", [
    *(GroupSpec("SL", 2, q) for q in (2, 3, 4, 5, 7, 8, 9)),
    GroupSpec("SL", 3, 2), GroupSpec("SL", 3, 3), GroupSpec("SL", 4, 2),
    GroupSpec("GL", 2, 3),
    *(GroupSpec("PSL", 2, q) for q in (5, 7, 8, 9)),
    GroupSpec("PGL", 2, 5),
], ids=repr)
def test_row_code_matches_tuple_reference(spec):
    elements, inverse, gens, class_of, reps, transporter = _ref_tables(spec)
    tbl = build_group(spec)
    ct = conjugacy_classes(tbl)
    assert [tbl.decode(i).rows for i in range(tbl.order)] == elements
    assert [tbl.inv(i) for i in range(tbl.order)] == inverse
    assert tbl.gens == gens
    assert ct.class_of == class_of
    assert ct.reps == reps
    assert ct.transporter == transporter
    assert all(tbl.index_of(tbl.decode(i)) == i for i in range(tbl.order))


def test_sl42_class_search_lengths_are_distances():
    spec = GroupSpec("SL", 4, 2)
    tbl = build_group(spec)
    ct = conjugacy_classes(tbl)
    targets = projective_involution_indices(tbl)
    checked = 0
    for k in range(ct.n_classes):
        g = tbl.decode(ct.reps[k])
        if g.is_scalar():
            continue
        w = brute_force_witness(g, spec)
        assert w.length == dist_to_set(tbl, ct.reps[k], targets), k
        checked += 1
    assert checked == ct.n_classes - 1
