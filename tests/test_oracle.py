import hashlib
import itertools
import math
import subprocess
import sys
from pathlib import Path

import pytest

from invword import oracle
from invword.constructor import brute_force_witness, find_partner
from invword.matrix import GroupSpec, Mat, classify, commutator
from invword.gf import make_extension, make_field, prime_power
from invword.perm import Perm
from invword.oracle import (GroupTooLarge, build_group, class_product_count,
                            class_search, conjugacy_classes, d_inv,
                            d_proj_inv, dist_to_set, group_order,
                            involution_indices, is_simple,
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
    assert group_order(GroupSpec("PGL", 2, 5)) == 120


def _reference_order(family, n, q):
    """|G| counted another way: n! for Sym, and for GL the ordered bases
    of GF(q)^n; SL and PGL divide by q - 1, PSL by gcd(n, q - 1) more."""
    if family in ("Sym", "Alt"):
        return math.factorial(n) // (2 if family == "Alt" and n > 1 else 1)
    order = math.prod(q ** n - q ** k for k in range(n))
    if family != "GL":
        order //= q - 1
    if family == "PSL":
        order //= math.gcd(n, q - 1)
    return order


def _reference_simple(family, n, q):
    """The gcd rule: a matrix group is simple exactly when it equals a
    simple PSL(n, q), GL when q = 2 and SL and PGL when gcd(n, q - 1) = 1."""
    if family in ("Sym", "Alt"):
        return family == "Alt" and n >= 5
    is_psl = {"GL": q == 2, "SL": math.gcd(n, q - 1) == 1,
              "PGL": math.gcd(n, q - 1) == 1, "PSL": True}[family]
    return is_psl and n >= 2 and (n, q) not in ((2, 2), (2, 3))


def test_order_and_simplicity_grid():
    specs = [(f, n, None) for f in ("Sym", "Alt") for n in range(1, 9)]
    specs += [(f, n, q) for f in ("GL", "SL", "PGL", "PSL")
              for n in range(1, 6) for q in (2, 3, 4, 5, 7, 8, 9, 16, 27, 32)]
    assert len(specs) == 216
    for s in specs:
        spec = GroupSpec(*s)
        assert group_order(spec) == _reference_order(*s), s
        assert is_simple(spec) == _reference_simple(*s), s


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
        t = ct.transporter(i)
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


@pytest.mark.parametrize("spec", [GroupSpec("Alt", 5), GroupSpec("SL", 2, 3)])
def test_class_search_layers_are_the_new_products(spec):
    # layer k of the element search holds the elements of S^k met in no
    # earlier power, S the class of the start with its inverses; the class
    # search meets the classes of the same layers
    tbl = build_group(spec)
    ct = conjugacy_classes(tbl)
    for k, r in enumerate(ct.reps):
        gens = set(ct.members(k)) | {tbl.inv(x) for x in ct.members(k)}
        layers = {}
        for level, y in class_search(tbl, r):
            layers.setdefault(level, set()).add(y)
        assert sorted(layers) == list(range(1, len(layers) + 1))
        seen, power = set(), {tbl.identity_index}
        for level in sorted(layers):
            power = {tbl.mul(a, b) for a in power for b in gens}
            assert layers[level] == power - seen
            seen |= power
        assert {tbl.mul(a, b) for a in seen for b in gens} <= seen
        by_class = {}
        for level, y in class_search(tbl, r, ct.class_of):
            by_class[ct.class_of[y]] = level
        assert by_class == {ct.class_of[y]: level
                            for level in sorted(layers, reverse=True)
                            for y in layers[level]}


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


def _class_distances(spec):
    return sorted((size, d) for _, _, size, d in
                  d_inv(build_group(spec)).rows)


def test_simple_exactly_when_psl_and_isomorphic_pairs_agree():
    # a matrix group is simple exactly when it equals a simple PSL(n, q):
    # GL when q = 2, SL and PGL when gcd(n, q - 1) = 1
    simple = [("GL", 3, 2), ("GL", 4, 2), ("PGL", 2, 4), ("PGL", 3, 5),
              ("SL", 3, 5), ("PSL", 3, 4), ("PSL", 2, 4)]
    not_simple = [("GL", 2, 2), ("GL", 3, 3), ("PGL", 2, 5), ("PGL", 3, 4),
                  ("SL", 3, 4), ("SL", 1, 5), ("PSL", 1, 5), ("GL", 1, 2),
                  ("PGL", 1, 4), ("PSL", 2, 2), ("PSL", 2, 3), ("SL", 2, 3)]
    assert [s for s in simple if not is_simple(GroupSpec(*s))] == []
    assert [s for s in not_simple if is_simple(GroupSpec(*s))] == []
    # the trivial SL(1, q) is refused as not simple, not searched for an
    # involution that cannot exist
    with pytest.raises(ValueError, match="not simple"):
        d_inv(build_group(GroupSpec("SL", 1, 5)))
    # isomorphic simple groups, GL(3,2) = PSL(3,2) = PSL(2,7),
    # PGL(2,4) = PSL(2,4) = PSL(2,5) = Alt(5), PSL(2,9) = Alt(6) and
    # GL(4,2) = SL(4,2) = Alt(8), have the same multiset of (class size,
    # distance to the involutions)
    for a, b in ((GroupSpec("GL", 3, 2), GroupSpec("PSL", 2, 7)),
                 (GroupSpec("PGL", 2, 4), GroupSpec("Alt", 5)),
                 (GroupSpec("GL", 4, 2), GroupSpec("Alt", 8)),
                 (GroupSpec("PSL", 2, 4), GroupSpec("Alt", 5)),
                 (GroupSpec("PSL", 2, 5), GroupSpec("Alt", 5)),
                 (GroupSpec("PSL", 2, 9), GroupSpec("Alt", 6)),
                 (GroupSpec("PSL", 3, 2), GroupSpec("PSL", 2, 7)),
                 (GroupSpec("SL", 4, 2), GroupSpec("Alt", 8))):
        assert _class_distances(a) == _class_distances(b), (a, b)


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
    cols = tuple(zip(*b))
    memo = {}

    def row(r):
        if r not in memo:
            out = []
            for cb in cols:
                acc = 0
                for x, y in zip(r, cb):
                    if x and y:
                        acc = ctx.add(acc, ctx.mul(x, y))
                out.append(acc)
            memo[r] = tuple(out)
        return memo[r]

    return lambda x: tuple(map(row, x))


def _ref_left(ctx, s):
    """The map x -> s x, as (x^T s^T)^T."""
    right = _ref_right(ctx, tuple(zip(*s)))
    return lambda x: tuple(zip(*right(tuple(zip(*x)))))


def _ref_code(spec, ctx):
    """The reference code of a matrix given by its rows: the tuple of row
    tuples, for PSL and PGL the least among its scalar multiples."""
    n, q = spec.n, spec.q
    if spec.family == "PSL":
        lams = [c for c in range(2, q) if ctx.pow(c, n) == 1]
    else:
        lams = list(range(2, q)) if spec.family == "PGL" else []

    def code(rows):
        e = tuple(tuple(r) for r in rows)
        return min([e] + [tuple(tuple(ctx.mul(c, x) for x in r) for r in e)
                          for c in lams])

    return code


def _ref_gens(spec, ctx, code, every):
    """Codes of either every transvection I + lam E_ij or (as the oracle's
    generator list, for n >= 2) I + p**k E_01 and the signed cyclic shift
    w, the permutation matrix of e_k -> e_k+1 with its corner entry
    (-1)**(n-1); followed for GL and PGL by diag(nu, 1, ..., 1)."""
    n, q = spec.n, spec.q

    def unit():
        return [[int(a == b) for b in range(n)] for a in range(n)]

    if every:
        ijs = [(i, j, lam) for i in range(n) for j in range(n) if i != j
               for lam in range(1, q)]
    else:
        ijs = [(0, 1, ctx.p ** k) for k in range(ctx.deg) if n > 1]
    gens = []
    for i, j, lam in ijs:
        rows = unit()
        rows[i][j] = lam
        gens.append(code(rows))
    if not every and n > 1:
        rows = [[int(a == b + 1) for b in range(n)] for a in range(n)]
        rows[0][n - 1] = ctx.pow(ctx.neg(1), n - 1)
        gens.append(code(rows))
    if spec.family in ("GL", "PGL"):
        rows = unit()
        rows[0][0] = ctx.generator()
        gens.append(code(rows))
    return gens


def _ref_classes(ctx, elements, code, gens):
    """(class_of, reps, transporter) over the sorted element list,
    classes in the order of their least element, each grown by
    conjugating with the generator indices gens in order."""
    index = {e: i for i, e in enumerate(elements)}
    steps = [(_ref_left(ctx, elements[s]),
              _ref_right(ctx, code(Mat(ctx, elements[s]).inv().rows)))
             for s in gens]
    e = index[code(Mat.identity(ctx, len(elements[0])).rows)]
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
                for left, right_inv in steps:
                    y = index[code(left(right_inv(elements[x])))]
                    if class_of[y] == -1:
                        class_of[y] = class_of[i]
                        transporter[y] = index[code(
                            left(elements[transporter[x]]))]
                        nxt.append(y)
            frontier = nxt
    return class_of, reps, transporter


def _ref_tables(spec):
    """(elements, inverse, gens, class_of, reps, transporter) as the
    tuple code computes them: closure by breadth-first right
    multiplication with every transvection (and diag(nu, 1, ...) for GL,
    PGL), sorted; classes by conjugating with the oracle's generator
    list in order."""
    ctx = make_field(spec.q)
    code = _ref_code(spec, ctx)
    identity = code(Mat.identity(ctx, spec.n).rows)
    times = [_ref_right(ctx, s) for s in _ref_gens(spec, ctx, code, True)]
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
    gens = [index[s] for s in _ref_gens(spec, ctx, code, False)]
    return (elements, inverse, gens,
            *_ref_classes(ctx, elements, code, gens))


TUPLE_REFERENCE_SPECS = [
    *(GroupSpec("SL", 2, q) for q in (2, 3, 4, 5, 7, 8, 9)),
    GroupSpec("SL", 3, 2), GroupSpec("SL", 3, 3), GroupSpec("SL", 4, 2),
    GroupSpec("GL", 2, 3),
    *(GroupSpec("PSL", 2, q) for q in (5, 7, 8, 9)),
    GroupSpec("PGL", 2, 5),
]


@pytest.mark.parametrize("spec", TUPLE_REFERENCE_SPECS, ids=repr)
def test_row_code_matches_tuple_reference(spec):
    elements, inverse, gens, class_of, reps, transporter = _ref_tables(spec)
    tbl = build_group(spec)
    ct = conjugacy_classes(tbl)
    assert [tbl.decode(i).rows for i in range(tbl.order)] == elements
    assert [tbl.inv(i) for i in range(tbl.order)] == inverse
    assert tbl.gens == gens
    assert ct.class_of == class_of
    assert ct.reps == reps
    assert [ct.transporter(i) for i in range(tbl.order)] == transporter
    assert all(tbl.index_of(tbl.decode(i)) == i for i in range(tbl.order))


@pytest.mark.parametrize("spec", TUPLE_REFERENCE_SPECS, ids=repr)
def test_classes_do_not_depend_on_the_generators(spec):
    # conjugating with every transvection instead of the oracle's short
    # list gives the same partition: only the transporters differ
    tbl = build_group(spec)
    ct = conjugacy_classes(tbl)
    ctx = tbl.ctx
    code = _ref_code(spec, ctx)
    elements = [tbl.decode(i).rows for i in range(tbl.order)]
    index = {e: i for i, e in enumerate(elements)}
    every = [index[s] for s in _ref_gens(spec, ctx, code, True)]
    class_of, reps, _ = _ref_classes(ctx, elements, code, every)
    assert class_of == ct.class_of
    assert reps == ct.reps
    assert [class_of.count(k) for k in range(len(reps))] == ct.sizes


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


# -- pinned outputs: two digests.  The first covers what does not depend on
# the generators: element order, inverses, class tables (class_of, reps,
# sizes), distance rows, six-fold class product counts and the orbital
# report.  The second covers what follows the generator list: each
# table's gens and transporters.  Faster element codes, class products or
# closures must leave both as they are; a new generator list may move the
# second only, and a new find_partner, whose commutators the six-fold
# counts read, the first only.

PINNED_SIMPLE_SPECS = ([GroupSpec("Alt", n) for n in (5, 6, 7, 8)]
                       + [GroupSpec("PSL", 2, q) for q in (5, 7, 8, 9, 11)])
PINNED_TABLE_SPECS = (
    PINNED_SIMPLE_SPECS[:4] + [GroupSpec("Sym", 5)] + PINNED_SIMPLE_SPECS[4:]
    + [GroupSpec("SL", 3, 3), GroupSpec("SL", 4, 2), GroupSpec("SL", 3, 4),
       GroupSpec("GL", 2, 3), GroupSpec("GL", 3, 2), GroupSpec("PGL", 2, 5)])
PINNED_ORACLE_SHA256 = {
    "outputs": "2f092e7f343e22665fc1ac645a72b97b682d457f986eafcf18a102d9842fa168",
    "generators": "05a447ea22181b5a8cfebba1e4de23fb01c2391ef33d7289baae1b5eeb6acad1",
}


def oracle_digest():
    h, gens = hashlib.sha256(), hashlib.sha256()

    def put(*parts, into=h):
        into.update(repr(parts).encode() + b"\n")

    for spec in PINNED_TABLE_SPECS:
        tbl = build_group(spec)
        ct = conjugacy_classes(tbl)
        put(spec, tbl.elements, [tbl.inv(i) for i in range(tbl.order)],
            ct.class_of, ct.reps, ct.sizes)
        put(spec, tbl.gens, [ct.transporter(i) for i in range(tbl.order)],
            into=gens)
    for spec in PINNED_SIMPLE_SPECS:
        rep = d_inv(build_group(spec))
        put(spec, rep.rows, rep.value, rep.argmax)
    for n, q in ((2, 5), (2, 7), (3, 2), (3, 3)):
        rep = d_proj_inv(build_group(GroupSpec("SL", n, q)))
        put(rep.spec, rep.rows, rep.value, rep.argmax)
    for q in (5, 7, 9, 11):
        tbl = build_group(GroupSpec("SL", 2, q))
        ct = conjugacy_classes(tbl)
        minus = tbl.index_of(Mat.scalar(tbl.ctx, 2, tbl.ctx.neg(1)))
        for r in ct.reps:
            g = tbl.decode(r)
            if not g.is_scalar():
                x = commutator(g, find_partner(g))
                put(q, r, class_product_count(tbl, [tbl.index_of(x)] * 6,
                                              minus))
    rep = orbital_diameter_report()
    put(rep.orbital_diameters, rep.class_diameters, rep.matching,
        rep.orbdiam, rep.d_t, rep.lower_ok, rep.upper_ok)
    return {"outputs": h.hexdigest(), "generators": gens.hexdigest()}


def test_pinned_oracle_outputs():
    assert oracle_digest() == PINNED_ORACLE_SHA256


def test_index_guards():
    tbl = build_group(GroupSpec("Alt", 5))
    inv = involution_indices(tbl)
    i3 = tbl.index_of(Perm.from_cycles("(1,2,3)", 5))
    for bad in (-1, tbl.order, 10 ** 6):
        with pytest.raises(ValueError, match="outside the group"):
            dist_to_set(tbl, bad, inv)
        with pytest.raises(ValueError, match="outside the group"):
            dist_to_set(tbl, i3, inv | {bad})
        with pytest.raises(ValueError, match="outside the group"):
            class_product_count(tbl, [bad, i3], i3)
        with pytest.raises(ValueError, match="outside the group"):
            class_product_count(tbl, [i3, bad], i3)
        with pytest.raises(ValueError, match="outside the group"):
            class_product_count(tbl, [i3, i3], bad)
    with pytest.raises(ValueError, match="at least one factor"):
        class_product_count(tbl, [], tbl.identity_index)
    # the last index is an element like any other
    last = tbl.order - 1
    assert dist_to_set(tbl, last, inv) is not None
    assert class_product_count(tbl, [last], last) == 1
    # a matrix over another field, or over another context of GF(q), is
    # no element, even where its entries would fit
    gf9 = make_extension(make_field(3), (1, 0, 1))
    for n, q, bad in ((2, 2, Mat(make_field(3), [[1, 1], [0, 1]])),
                      (2, 5, Mat(make_field(7), [[1, 1], [0, 1]])),
                      (2, 9, Mat(gf9, [[1, 1], [0, 1]]))):
        mt = build_group(GroupSpec("SL", n, q))
        good = mt.index_of(Mat(mt.ctx, bad.rows))
        assert good is not None and mt.index_of(bad) is None
        targets = involution_indices(mt)
        with pytest.raises(ValueError, match="outside the group"):
            dist_to_set(mt, bad, targets)
        with pytest.raises(ValueError, match="outside the group"):
            class_product_count(mt, [bad, good], good)
        with pytest.raises(ValueError, match="outside the group"):
            class_product_count(mt, [good], bad)


@pytest.mark.parametrize("n", range(1, 9))
def test_even_mask_is_perm_parity(n):
    perms = list(itertools.permutations(range(n)))
    assert oracle._even_mask(n) == [int(Perm(p).parity() == 0)
                                    for p in perms]


@pytest.mark.parametrize("spec", [GroupSpec("Alt", 6), GroupSpec("Sym", 5)],
                         ids=repr)
def test_perm_code_mul_applies_the_left_factor_first(spec):
    tbl = build_group(spec)
    code = tbl.code
    for x in tbl.elements[::7]:
        # mul(a, b) applies a first: the image of i is b[a[i]]
        for s in code.gens:
            assert code.mul(x, s) == tuple(s[i] for i in x)


@pytest.mark.parametrize("spec", [
    GroupSpec("Alt", 5), GroupSpec("Alt", 6), GroupSpec("Sym", 5),
    GroupSpec("SL", 2, 5), GroupSpec("SL", 2, 8), GroupSpec("PSL", 2, 9),
    GroupSpec("GL", 2, 3), GroupSpec("PGL", 2, 5), GroupSpec("SL", 3, 2)],
    ids=repr)
def test_conjugate_lists_index_each_generators_conjugates(spec, monkeypatch):
    # a fresh table: a matrix code hands out the conjugates its closure
    # kept once, and then holds them no longer
    monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
    tbl = build_group(spec)
    code, index, mul = tbl.code, tbl.index, tbl.code.mul
    lists = code.conjugate_lists(index)
    assert len(lists) == len(code.gens)
    for s, conj in zip(code.gens, lists):
        s_inv = code.inverse(s)
        assert conj == [index[mul(mul(s, x), s_inv)] for x in tbl.elements]
    if not spec.perm:
        assert code._kept is None


@pytest.mark.parametrize("spec", [GroupSpec("SL", 2, 5), GroupSpec("PSL", 2, 9),
                                  GroupSpec("GL", 2, 3), GroupSpec("SL", 3, 2)],
                         ids=repr)
def test_closure_returns_the_elements_and_stops_at_the_cap(spec, monkeypatch):
    monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
    tbl = build_group(spec)
    assert sorted(tbl.code.closure(tbl.order)) == tbl.elements
    with pytest.raises(GroupTooLarge, match="order cap"):
        tbl.code.closure(tbl.order - 1)


MATRIX_TABLE_SPECS = [
    *(GroupSpec("SL", 2, q) for q in (2, 3, 4, 5, 7, 8, 9)),
    GroupSpec("SL", 3, 2), GroupSpec("SL", 3, 3), GroupSpec("SL", 4, 2),
    GroupSpec("GL", 2, 3), GroupSpec("GL", 3, 2),
    *(GroupSpec("PSL", 2, q) for q in (2, 3, 4, 5, 7, 8, 9, 11)),
    GroupSpec("PGL", 2, 5),
]


def every_row_op(spec, ctx):
    """Every transvection I + lam E_ij as a row operation (i, j, lam), and
    for GL and PGL the oracle's dilation."""
    n = spec.n
    ops = [(i, j, lam) for i in range(n) for j in range(n) if i != j
           for lam in range(1, ctx.q)]
    if spec.family in ("GL", "PGL"):
        ops.append((0, 0, ctx.sub(ctx.generator(), 1)))
    return ops


def assert_generators_are_the_short_list(tbl):
    """Each of tbl.gens decodes to x_12(p**k), the signed shift w or the
    dilation, in the order of _ref_gens, and has determinant 1 in SL and
    PSL, which pins w's sign at even n and odd q."""
    spec, ctx = tbl.spec, tbl.ctx
    want = _ref_gens(spec, ctx, _ref_code(spec, ctx), False)
    assert [tbl.decode(s).rows for s in tbl.gens] == want
    if spec.special:
        assert all(tbl.decode(s).det() == 1 for s in tbl.gens)


@pytest.mark.parametrize("spec", MATRIX_TABLE_SPECS, ids=repr)
def test_closure_walk_matches_all_generators(spec):
    # the closure walks the oracle's short list; walking every
    # transvection finds the same elements, and each table inverse is the
    # matrix inverse.  The table's own code is not walked again, since it
    # would keep a second set of conjugates in the cached table
    tbl = build_group(spec)
    assert_generators_are_the_short_list(tbl)
    ops = every_row_op(spec, tbl.ctx)
    full = oracle._RowCode(tbl.ctx, spec.n, ops,
                           tbl.code.scalars).closure(oracle.ORDER_CAP)
    assert sorted(full) == tbl.elements
    for i in range(tbl.order):
        assert tbl.inv(i) == tbl.index_of(tbl.decode(i).inv()), i


def test_closure_walk_sizes():
    def sizes(spec):
        ctx = make_field(spec.q)
        return len(every_row_op(spec, ctx)), len(oracle._row_ops(spec, ctx))

    assert sizes(GroupSpec("SL", 3, 4)) == (18, 3)
    assert sizes(GroupSpec("PSL", 2, 11)) == (20, 2)
    assert sizes(GroupSpec("SL", 4, 2)) == (12, 2)
    assert sizes(GroupSpec("GL", 2, 3)) == (5, 3)


# every matrix table with n <= 4, q <= 32 and order at most this many
# elements: 135 tables, built in under 2 s on a 2-core Xeon
SMALL_TABLE_ORDER = 20000


def test_every_small_matrix_table_builds_from_the_short_list(monkeypatch):
    # build_group checks the enumerated order against the formula, so a
    # list that generated a proper subgroup raises
    monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
    built = 0
    for family in ("SL", "GL", "PSL", "PGL"):
        for n, q in itertools.product(range(1, 5), range(2, 33)):
            if not prime_power(q):
                continue
            spec = GroupSpec(family, n, q)
            if group_order(spec) > SMALL_TABLE_ORDER:
                continue
            tbl = build_group(spec)
            assert_generators_are_the_short_list(tbl)
            ctx = tbl.ctx
            assert len(tbl.gens) == (ctx.deg + 1 if n > 1 else 0) + \
                (not spec.special)
            oracle._TABLE_CACHE.clear()
            built += 1
    assert built == 135


@pytest.mark.parametrize("spec", [GroupSpec("PSL", 2, 9), GroupSpec("PGL", 2, 5),
                                  GroupSpec("PSL", 3, 4)], ids=repr)
def test_least_is_the_least_scalar_multiple(spec):
    # _least reads the scalar off row 0; check it against the minimum over
    # every scalar multiple, from each multiple of each element
    tbl = build_group(spec)
    code, ctx = tbl.code, tbl.ctx
    scalars = [1] + code.scalars

    def multiple(rows, c):
        x = 0
        for r in rows:
            for e in r:
                x = x * ctx.q + ctx.mul(c, e)
        return x

    for e in tbl.elements:
        rows = code.decode(e).rows
        codes = [multiple(rows, c) for c in scalars]
        assert min(codes) == e
        assert [code._least(x) for x in codes] == [e] * len(codes)


@pytest.mark.parametrize("spec", MATRIX_TABLE_SPECS + [GroupSpec("SL", 3, 4)],
                         ids=repr)
def test_every_transporter_conjugates_its_rep(spec):
    # conjugacy_classes samples three transporters; check them all
    tbl = build_group(spec)
    ct = conjugacy_classes(tbl)
    mul, inv = tbl.mul, tbl.inv
    for i in range(tbl.order):
        t = ct.transporter(i)
        assert mul(mul(t, ct.reps[ct.class_of[i]]), inv(t)) == i, i


def _ref_class_product_count(tbl, reps, ti):
    """class_product_count as it was before each factor class got one
    transition: the transition is recomputed for every factor."""
    ct = conjugacy_classes(tbl)
    counts = {k: 0 for k in range(ct.n_classes)}
    counts[ct.class_of[reps[0]]] = 1
    for r in reps[1:]:
        xs = ct.members(ct.class_of[r])
        times_inv = oracle._right_mul(tbl, [tbl.inv(x) for x in xs])
        new = {}
        for k in range(ct.n_classes):
            total = 0
            for y in times_inv(ct.reps[k]):
                total += counts[ct.class_of[y]]
            if total:
                new[k] = total
        counts = {k: new.get(k, 0) for k in range(ct.n_classes)}
    return counts[ct.class_of[ti]]


@pytest.mark.parametrize("spec", [GroupSpec("Alt", 5), GroupSpec("PSL", 2, 7),
                                  GroupSpec("SL", 2, 5)], ids=repr)
def test_class_product_count_matches_per_factor_loop(spec):
    tbl = build_group(spec)
    ct = conjugacy_classes(tbl)
    reps = [r for r in ct.reps if r != tbl.identity_index]
    a, b, c = reps[0], reps[1], reps[-1]
    lists = [[a] * m for m in range(1, 6)] + [[c] * 4, [a, b], [b, a, b],
                                               [a, b, a, c, b], [c, a, a, b]]
    for factors in lists:
        for t in ct.reps:
            assert class_product_count(tbl, factors, t) == \
                _ref_class_product_count(tbl, factors, t), (factors, t)


# -- class invariants computed once per class, and the Alt generators ------


@pytest.mark.parametrize("n, classes", zip(range(3, 10),
                                           (3, 4, 5, 7, 9, 14, 18)))
def test_alt_two_generators_give_every_class(n, classes):
    # a list that generated a proper subgroup would split classes while
    # their sizes still summed to the order (conjugacy_classes' own
    # check), so the count is the check
    tbl = build_group(GroupSpec("Alt", n))
    long_cycle = range(1, n + 1) if n % 2 else range(2, n + 1)
    want = [Perm.from_cycles("(1,2,3)", n),
            Perm.from_cycles("(%s)" % ",".join(map(str, long_cycle)), n)]
    assert [tbl.decode(s) for s in tbl.gens] == want[:1 if n == 3 else 2]
    ct = conjugacy_classes(tbl)
    assert ct.n_classes == classes


TARGET_SET_SPECS = [
    *(GroupSpec("Alt", n) for n in (5, 6, 7)), GroupSpec("Sym", 5),
    *(GroupSpec("PSL", 2, q) for q in (5, 7, 8, 9)),
    *(GroupSpec("SL", 2, q) for q in (5, 7, 9)),
    GroupSpec("SL", 3, 2), GroupSpec("SL", 3, 3), GroupSpec("GL", 2, 3),
]


def _ref_class_key(ct, targets):
    """_class_key as it was: a scan of the members of every class."""
    normal = all(
        len(targets.intersection(ct.members(k))) in (0, ct.sizes[k])
        for k in range(ct.n_classes))
    return ct.class_of if normal else None


@pytest.mark.parametrize("spec", TARGET_SET_SPECS, ids=repr)
def test_target_sets_match_the_element_definitions(spec):
    tbl = build_group(spec)
    ct = conjugacy_classes(tbl)
    e, mul = tbl.identity_index, tbl.mul
    inv = involution_indices(tbl)
    assert inv == frozenset(i for i in range(tbl.order)
                            if i != e and mul(i, i) == e)
    sets = [inv]
    if spec.family in ("GL", "SL"):
        proj = projective_involution_indices(tbl)
        assert proj == frozenset(filter(projective_involution_test(tbl),
                                        range(tbl.order)))
        sets.append(proj)
    # unions of classes, and sets that are none: a single non-central
    # element, and a union of classes one element short
    central = {r for k, r in enumerate(ct.reps) if ct.sizes[k] == 1}
    lone = next(i for i in range(tbl.order) if i not in central)
    sets += [frozenset(ct.members(ct.class_of[lone])),
             frozenset(ct.members(0) + ct.members(ct.n_classes - 1)),
             frozenset([lone])]
    sets += [s - {min(s)} for s in sets if len(s) > 1]
    for targets in sets:
        assert oracle._class_key(ct, targets) is \
            _ref_class_key(ct, targets), sorted(targets)[:5]
    assert oracle._class_key(ct, frozenset([lone])) is None
    assert oracle._class_key(ct, inv) is ct.class_of


@pytest.mark.parametrize("spec", [GroupSpec("SL", 2, 5), GroupSpec("SL", 2, 7),
                                  GroupSpec("Alt", 5)], ids=repr)
def test_held_transition_rows_match_a_fresh_table(spec, monkeypatch):
    monkeypatch.setattr(oracle, "_TABLE_CACHE", {})   # rows no test has held
    tbl = build_group(spec)
    ct = conjugacy_classes(tbl)
    reps = [r for r in ct.reps if r != tbl.identity_index]
    a, b, c = reps[0], reps[len(reps) // 2], reps[-1]
    lists = [[a] * 6, [b, c], [c, a, b, a], [a], [b] * 3 + [c] * 2]
    built = []
    search = oracle._right_mul

    def spy(tbl, gens):
        built.append(len(gens))
        return search(tbl, gens)

    monkeypatch.setattr(oracle, "_right_mul", spy)
    first = {(i, t): class_product_count(tbl, f, t, cross_check=True)
             for i, f in enumerate(lists) for t in ct.reps}
    # one transition per distinct factor class after the first factor
    assert len(built) == len(ct._transitions) == len(
        {ct.class_of[r] for f in lists for r in f[1:]})
    again = {(i, t): class_product_count(tbl, f, t)
             for i, f in enumerate(lists) for t in ct.reps}
    assert again == first
    assert len(built) == len(ct._transitions)   # every row was held
    for i, f in enumerate(lists):
        monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
        fresh = build_group(spec)
        assert fresh is not tbl and conjugacy_classes(fresh)._transitions == {}
        assert fresh.elements == tbl.elements
        for t in ct.reps:
            assert class_product_count(fresh, f, t) == first[i, t], (f, t)


# -- per-element data on first use: inverses, transporters, C^-1

LAZY_SPECS = [GroupSpec("Alt", n) for n in (5, 6, 7)] + [
    GroupSpec("Sym", 5), GroupSpec("PSL", 2, 7), GroupSpec("PGL", 2, 5),
    GroupSpec("GL", 2, 3)]


def _chain_length(ct, i):
    """The number of walk records between element i and its class rep."""
    n = 0
    while ct._src[i] >= 0:
        i, n = ct._src[i], n + 1
    return n


def _query_id(value):
    """A test id that names the queries, not their addresses in memory."""
    if isinstance(value, list):
        return "+".join(fn.__name__ for fn in value)
    return repr(value)


@pytest.mark.parametrize("spec, queries", [
    (GroupSpec("Alt", 7), [d_inv]),
    (GroupSpec("SL", 3, 3), [d_inv, d_proj_inv])], ids=_query_id)
def test_class_queries_read_no_per_element_inverse(spec, queries,
                                                   monkeypatch):
    monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
    inverses, lefts = [], []

    def counted(calls, fn):
        return lambda *args: (calls.append(args), fn(*args))[1]

    perm, row = oracle._PermCode, oracle._RowCode
    monkeypatch.setattr(perm, "inverse",
                        staticmethod(counted(inverses, perm.inverse)))
    monkeypatch.setattr(row, "inverse", counted(inverses, row.inverse))
    for cls in (perm, row):
        monkeypatch.setattr(cls, "left", counted(lefts, cls.left))
    tbl = build_group(spec)
    # each code inverts its generators once, and nothing else
    built = len(inverses)
    assert built <= len(tbl.gens) and not lefts
    ct = conjugacy_classes(tbl)
    samples = (0, tbl.order // 2, tbl.order - 1)
    chains = sum(_chain_length(ct, i) for i in samples)
    # the sampled transporter checks: one chain walk and one inverse each
    assert len(lefts) == chains
    assert len(inverses) <= built + len(samples)
    for query in queries:
        query(tbl)
    assert len(inverses) <= built + len(samples) + ct.n_classes
    assert len(lefts) == chains


@pytest.mark.parametrize("spec, rows", [
    (GroupSpec("SL", 3, 4), [[0, 1, 0], [0, 0, 1], [1, 2, 3]]),
    (GroupSpec("SL", 4, 2), [[1, 1, 0, 0], [0, 1, 0, 0],
                             [0, 0, 0, 1], [0, 0, 1, 1]])], ids=repr)
def test_brute_force_reads_only_the_transporters_on_its_path(spec, rows,
                                                             monkeypatch):
    # a witness of w.length steps reads the transporters of g and of one
    # class member per step: one chain walk each, on top of the sampled
    # checks of conjugacy_classes, and no transporter of any other element
    monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
    lefts = []
    left = oracle._RowCode.left
    monkeypatch.setattr(oracle._RowCode, "left",
                        lambda *args: (lefts.append(args), left(*args))[1])
    g = Mat(make_field(spec.q), rows)
    w = brute_force_witness(g, spec)
    tbl = build_group(spec)
    ct = conjugacy_classes(tbl)
    samples = (0, tbl.order // 2, tbl.order - 1)
    chains = sum(_chain_length(ct, i) for i in samples)
    longest = max(_chain_length(ct, i)
                  for i in ct.members(ct.class_of[tbl.index_of(g)]))
    assert chains < len(lefts) <= chains + (w.length + 1) * longest


def _eager_transporters(tbl):
    """The transporters as an eager walk computes them: classes in index
    order of their least element, each grown by conjugating with the
    generators, y = s x s^-1 getting s times the transporter of x."""
    code, index, elements = tbl.code, tbl.index, tbl.elements
    pairs = [(s, code.inverse(s)) for s in code.gens]
    seen = [False] * tbl.order
    t = [tbl.identity_index] * tbl.order
    for i in range(tbl.order):
        if seen[i]:
            continue
        seen[i] = True
        members = [i]
        for x in members:
            for s, (g, g_inv) in enumerate(pairs):
                y = index[code.mul(code.mul(g, elements[x]), g_inv)]
                if not seen[y]:
                    seen[y] = True
                    t[y] = index[code.left(s, elements[t[x]])]
                    members.append(y)
    return t


@pytest.mark.parametrize("spec", [GroupSpec("Alt", n) for n in (5, 6, 7)]
                         + [GroupSpec("Sym", 5)], ids=repr)
def test_transporters_on_first_use_match_an_eager_walk(spec, monkeypatch):
    # each transporter is read off its own chain of walk records, in any
    # order: here from the last element down
    monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
    tbl = build_group(spec)
    ct = conjugacy_classes(tbl)
    eager = _eager_transporters(tbl)
    mul, inv = tbl.mul, tbl.inv
    for i in reversed(range(tbl.order)):
        t = ct.transporter(i)
        assert t == eager[i], i
        assert mul(mul(t, ct.reps[ct.class_of[i]]), inv(t)) == i, i


@pytest.mark.parametrize("spec", LAZY_SPECS, ids=repr)
def test_inverse_on_first_use(spec, monkeypatch):
    monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
    tbl = build_group(spec)
    e = tbl.identity_index
    for i in range(tbl.order):
        j = tbl.inv(i)
        assert tbl.mul(i, j) == e and tbl.mul(j, i) == e, i
        assert tbl.inv(j) == i


@pytest.mark.parametrize("spec", LAZY_SPECS, ids=repr)
def test_class_level_inverses_match_the_elements(spec, monkeypatch):
    monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
    tbl = build_group(spec)
    ct = conjugacy_classes(tbl)
    code = tbl.code
    for k in range(ct.n_classes):
        members = ct.members(k)
        inverses = {tbl.index[code.inverse(tbl.elements[x])]
                    for x in members}
        assert ct.members(ct.inverse_class(k)) == sorted(inverses), k
        assert ct.with_inverses(k) == sorted(set(members) | inverses), k


def test_inputs_are_checked_before_the_group_is_built(monkeypatch):
    from invword import constructor
    built = []
    monkeypatch.setattr(constructor, "build_group",
                        lambda spec: built.append(spec))
    spec = GroupSpec("SL", 3, 5)
    for bad in (Mat(make_field(5), [[1, 1], [0, 1]]),
                Mat(make_field(7), [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                Perm.from_cycles("(1,2,3)", 3)):
        with pytest.raises(ValueError, match="outside the group"):
            brute_force_witness(bad, spec)
    with pytest.raises(ValueError, match="outside the group"):
        brute_force_witness(Perm.from_cycles("(1,2,3)", 6),
                            GroupSpec("Alt", 5))
    assert built == []
    # dist_to_set checks c and the targets before it builds the classes
    monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
    tbl = build_group(GroupSpec("Alt", 5))
    classes = []
    monkeypatch.setattr(oracle, "conjugacy_classes",
                        lambda tbl: classes.append(tbl))
    i3 = tbl.index_of(Perm.from_cycles("(1,2,3)", 5))
    for c, targets in ((-1, {0}), (tbl.order, {0}),
                       (Perm.from_cycles("(1,2,3)", 6), {0}),
                       (tbl.identity_index, {0}), (i3, {tbl.order})):
        with pytest.raises(ValueError):
            dist_to_set(tbl, c, targets)
    assert classes == []
