import random
import subprocess
import sys
from pathlib import Path

import pytest

import invword.canonical as canonical
import invword.gf as gf
from invword.gf import (
    make_field,
    monic_polys,
    poly_add,
    poly_deg,
    poly_divmod,
    poly_mul,
    poly_neg,
    poly_trim,
)
from invword.matrix import Mat, direct_sum, mat_over
from invword.canonical import (
    CanonicalForm,
    blocks_matrix,
    charpoly,
    class_transversal,
    companion,
    factor_charpoly,
    gen_jordan_block,
    generalized_jordan,
    mat_poly_eval,
    solve_similarity,
    split_decomposable,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def rand_invertible(ctx, n, rng):
    while True:
        m = Mat(ctx, [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(n)])
        if m.det():
            return m


def test_companion_convention():
    f3 = make_field(3)
    assert companion(f3, (1, 0, 1)) == mat_over(3, "0,2;1,0")
    f5 = make_field(5)
    c = companion(f5, (2, 3, 1, 1))
    assert c == mat_over(5, "0,0,3;1,0,2;0,1,4")


def test_charpoly_of_companion_is_the_polynomial():
    for q, f in [(3, (1, 0, 1)), (5, (2, 3, 1, 1)), (2, (1, 1, 0, 1)), (4, (2, 1, 1))]:
        ctx = make_field(q)
        assert charpoly(companion(ctx, f)) == f


def test_cayley_hamilton_randoms():
    rng = random.Random(11)
    for q, n in [(3, 3), (5, 2), (4, 3), (7, 2)]:
        ctx = make_field(q)
        g = rand_invertible(ctx, n, rng)
        assert mat_poly_eval(g, charpoly(g)) == Mat.zero(ctx, n)


# -- reference implementations: the subset-DP charpoly and trial-division
# factoring that factor_charpoly and charpoly replaced ---------------------


def _charpoly_subset_dp(g):
    """det(xI - g) by subset dynamic programming, O(2^n * n)."""
    ctx, n = g.ctx, g.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(poly_trim((ctx.neg(g.rows[i][j]), 1)))
            else:
                row.append(poly_trim((ctx.neg(g.rows[i][j]),)))
        rows.append(row)
    dp = {0: (1,)}
    for mask in range(1, 1 << n):
        k = bin(mask).count("1") - 1  # expand along row k
        acc = ()
        pos = 0
        for j in range(n):
            if not mask & (1 << j):
                continue
            term = poly_mul(ctx, rows[k][j], dp[mask ^ (1 << j)])
            if (k + pos) & 1:
                term = poly_neg(ctx, term)
            acc = poly_add(ctx, acc, term)
            pos += 1
        dp[mask] = acc
    return dp[(1 << n) - 1]


def _factor_by_trial_division(ctx, f):
    """Divide out every monic polynomial of degree d = 1, 2, ... in encoding
    order while 2d <= deg f.  The first divisor found in each degree is
    irreducible, because its own factors were divided out before it; what
    is left at the end has no factor of degree <= half its own, so it is
    irreducible too."""
    out = []
    d = 1
    while 2 * d <= poly_deg(f):
        for g in monic_polys(ctx, d):
            mult = 0
            while True:
                quo, r = poly_divmod(ctx, f, g)
                if r:
                    break
                f, mult = quo, mult + 1
            if mult:
                out.append((g, mult))
        d += 1
    if poly_deg(f) > 0:
        out.append((f, 1))
    return out


CROSS_CHECK_QS = [2, 3, 4, 5, 7, 8, 9]


@pytest.mark.parametrize("q", CROSS_CHECK_QS)
def test_charpoly_and_factors_match_reference(q):
    ctx = make_field(q)
    rng = random.Random(q)
    for n in range(1, 7):
        for trial in range(10):
            # every other matrix is mostly zeros, which makes repeated
            # factors and split charpolys common
            density = 0.3 if trial % 2 else 1.0
            g = Mat(ctx, [[rng.randrange(q) if rng.random() < density else 0
                           for _ in range(n)] for _ in range(n)])
            cp = charpoly(g)
            assert cp == _charpoly_subset_dp(g)
            assert factor_charpoly(g) == _factor_by_trial_division(ctx, cp)


def _aggregate(blocks):
    mults = {}
    for f, m in blocks:
        mults[f] = mults.get(f, 0) + m
    return sorted(mults.items(), key=lambda fm: (len(fm[0]), fm[0][::-1]))


# Several distinct irreducibles of one degree >= 2, some repeated, so that
# gcd(rem, x^(q^d) - x) holds more than one factor and Berlekamp splits it.
BERLEKAMP_BLOCKS = [
    (2, [((1, 1, 0, 1), 1), ((1, 0, 1, 1), 1)]),
    (2, [((1, 1, 0, 1), 2), ((1, 0, 1, 1), 1)]),
    (2, [((1, 1), 1), ((1, 1), 1), ((1, 1, 0, 1), 1), ((1, 0, 1, 1), 1)]),
    (4, [((2, 1, 1), 2), ((3, 1, 1), 1)]),
    (3, [((1, 0, 1), 2), ((2, 1, 1), 1), ((2, 2, 1), 1)]),
    (3, [((1, 0, 1), 1), ((1, 0, 1), 1), ((2, 1, 1), 1)]),
    (3, [((2, 0, 1, 0, 1), 1), ((2, 0, 2, 0, 1), 1)]),
    (5, [((1, 1), 2), ((2, 1), 1), ((3, 1), 1), ((2, 0, 1), 1)]),
]


@pytest.mark.parametrize("q,blocks", BERLEKAMP_BLOCKS)
def test_factor_blocks_with_shared_degrees(q, blocks, monkeypatch):
    splits = []
    split = canonical._split_equal_degree

    def spy(ctx, h, d):
        out = split(ctx, h, d)
        splits.append((poly_deg(h), d))
        return out

    monkeypatch.setattr(canonical, "_split_equal_degree", spy)
    ctx = make_field(q)
    j = blocks_matrix(ctx, blocks)
    c = rand_invertible(ctx, j.n, random.Random(len(blocks) * q))
    g = c * j * c.inv()
    cp = charpoly(g)
    assert cp == charpoly(j)
    assert factor_charpoly(g) == _aggregate(blocks)
    assert factor_charpoly(g) == _factor_by_trial_division(ctx, cp)
    assert any(h > d for h, d in splits)


def _reject_enumeration(*args):
    raise AssertionError("factor_charpoly must not enumerate polynomials")


def test_factor_charpoly_never_enumerates(monkeypatch):
    monkeypatch.setattr(gf, "monic_polys", _reject_enumeration)
    monkeypatch.setattr(gf, "irreducible_polys", _reject_enumeration)
    monkeypatch.setattr(canonical, "irreducible_polys", _reject_enumeration)
    monkeypatch.setattr(canonical, "_IRR_CACHE", {})
    f3 = make_field(3)
    f10 = (1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1)          # x^10 + 2x^2 + 1
    assert factor_charpoly(companion(f3, f10)) == [(f10, 1)]
    f7 = make_field(7)
    f12 = (2, 1, 1) + (0,) * 9 + (1,)               # x^12 + x^2 + x + 2
    assert factor_charpoly(companion(f7, f12)) == [(f12, 1)]
    quartics = [(2, 0, 1, 0, 1), (2, 0, 2, 0, 1), (1, 1, 1, 0, 1)]
    prod = (1,)
    for f in quartics:
        prod = poly_mul(f3, prod, f)
    assert factor_charpoly(companion(f3, prod)) == [
        ((2, 0, 1, 0, 1), 1), ((1, 1, 1, 0, 1), 1), ((2, 0, 2, 0, 1), 1)]


def test_factor_unipotent_2x2():
    g = mat_over(5, "1,1;0,1")
    assert factor_charpoly(g) == [((4, 1), 2)]


def test_factor_split_diagonal():
    g = mat_over(5, "1,0;0,2")
    # ordered by coefficient encoding: x-2 = (3,1) precedes x-1 = (4,1)
    assert factor_charpoly(g) == [((3, 1), 1), ((4, 1), 1)]


def test_factor_irreducible_quadratic():
    g = mat_over(3, "0,2;1,0")
    assert factor_charpoly(g) == [((1, 0, 1), 1)]


def test_factor_charpoly_memo_hands_out_fresh_lists():
    # one factorization per (field, polynomial): a matrix with the same
    # characteristic polynomial reads the held one, and no caller can
    # change what the next caller gets
    memo = canonical._factorization
    assert memo.cache_info().maxsize == canonical._FACTORIZATIONS_HELD
    assert memo.cache_info().currsize == 0   # the conftest fixture clears it
    g = mat_over(5, "1,1;0,1")
    first = factor_charpoly(g)
    first.append("junk")
    first[0] = None
    assert factor_charpoly(mat_over(5, "1,0;3,1")) == [((4, 1), 2)]
    assert factor_charpoly(g) == [((4, 1), 2)]
    info = memo.cache_info()
    assert (info.hits, info.misses) == (2, 1)
    # the same coefficients over another field are another key
    assert factor_charpoly(mat_over(7, "1,1;0,1")) == [((6, 1), 2)]
    assert memo.cache_info().misses == 2


def test_gen_jordan_blocks():
    f5 = make_field(5)
    assert gen_jordan_block(f5, (4, 1), 2) == mat_over(5, "1,1;0,1")
    assert gen_jordan_block(f5, (3, 1), 2) == mat_over(5, "2,2;0,2")
    f3 = make_field(3)
    b = gen_jordan_block(f3, (1, 0, 1), 2)
    assert b == mat_over(3, "0,2,0,2;1,0,1,0;0,0,0,2;0,0,1,0")


def test_jordan_shortcut_and_replay():
    f5 = make_field(5)
    cf = generalized_jordan(gen_jordan_block(f5, (3, 1), 3))
    assert cf.u == Mat.identity(f5, 3)
    rng = random.Random(23)
    for q, n in [(5, 2), (3, 4), (4, 3), (7, 3)]:
        ctx = make_field(q)
        g = rand_invertible(ctx, n, rng)
        cf = generalized_jordan(g)
        assert cf.u * g * cf.u.inv() == cf.canonical
        assert blocks_matrix(ctx, cf.blocks) == cf.canonical


def test_jordan_partition_via_conjugate():
    rng = random.Random(5)
    f5 = make_field(5)
    j = direct_sum(gen_jordan_block(f5, (4, 1), 2), gen_jordan_block(f5, (4, 1), 1))
    c = rand_invertible(f5, 3, rng)
    cf = generalized_jordan(c * j * c.inv())
    assert cf.blocks == [((4, 1), 2), ((4, 1), 1)]


def test_solve_similarity_negative():
    assert solve_similarity(mat_over(5, "1,1;0,1"), mat_over(5, "1,0;0,1")) is None


def test_split_two_eigenvalues():
    g = mat_over(7, "2,0;0,3")
    cf = generalized_jordan(g)
    # factor order puts x-3 = (4,1) before x-2 = (5,1)
    assert cf.canonical == mat_over(7, "3,0;0,2")
    g1, g2, (e1, e2) = split_decomposable(cf, g)
    assert g1.rows == ((3,),) and g2.rows == ((2,),)
    assert e1 == (0,) and e2 == (1,)


def test_split_rebalances_two_scalars():
    g = mat_over(5, "2,0,0,0;0,2,0,0;0,0,1,0;0,0,0,1")
    cf = generalized_jordan(g)
    g1, g2, (e1, e2) = split_decomposable(cf, g)
    assert not g1.is_scalar() and not g2.is_scalar()
    assert g1 == mat_over(5, "2,0;0,1") and g2 == mat_over(5, "2,0;0,1")
    assert e1 == (0, 2) and e2 == (1, 3)


def test_split_single_factor_two_blocks():
    f5 = make_field(5)
    j = direct_sum(gen_jordan_block(f5, (4, 1), 2), gen_jordan_block(f5, (4, 1), 2))
    cf = generalized_jordan(j)
    g1, g2, (e1, e2) = split_decomposable(cf, j)
    assert g1 == mat_over(5, "1,1;0,1") and g2 == g1
    assert e1 == (0, 1) and e2 == (2, 3)


def test_split_indecomposable_returns_none():
    g = companion(make_field(3), (1, 1, 2, 1))
    cf = generalized_jordan(g)
    assert cf.blocks == [((1, 1, 2, 1), 1)]
    assert split_decomposable(cf, g) is None


def test_transversal_sl2_3():
    f3 = make_field(3)
    reps = class_transversal(f3, 2)
    assert len(reps) == 6
    for rep, blocks in reps:
        assert rep.det() == 1
        assert not rep.is_scalar()


def test_transversal_det_filter_sl3():
    f2 = make_field(2)
    reps = class_transversal(f2, 3)
    # SL_3(2) = GL_3(2): all invertible forms, one twist each (q-1 = 1)
    for rep, blocks in reps:
        assert rep.det() == 1
    sizes = set()
    for rep, blocks in reps:
        sizes.add(tuple(sorted((tuple(f), m) for f, m in blocks)))
    assert len(reps) == len(sizes)  # no twist duplication over GF(2)


INPUT_GUARDS = """
from invword.bounds import o_even_dim, o_odd_dim, sp_even, sp_odd
from invword.canonical import companion
from invword.gf import make_extension, make_field
f5 = make_field(5)
cases = [
    ("companion of a non-monic", lambda: companion(f5, (1, 2, 3))),
    ("companion of a constant", lambda: companion(f5, (1,))),
    ("make_extension by a constant", lambda: make_extension(f5, (1,))),
    ("sp_odd at even q", lambda: sp_odd(2, 4)),
    ("sp_odd at m = 1", lambda: sp_odd(1, 3)),
    ("sp_even at odd q", lambda: sp_even(2, 3)),
    ("o_odd_dim at m = 2", lambda: o_odd_dim(2, 3)),
    ("o_odd_dim at even q", lambda: o_odd_dim(3, 4)),
    ("o_even_dim at (4, 2, +1)", lambda: o_even_dim(4, 2, 1)),
    ("o_even_dim at eps = 0", lambda: o_even_dim(4, 3, 0)),
]
for name, f in cases:
    try:
        f()
        print(name, "| returned")
    except Exception as e:
        print(name, "|", type(e).__name__)
"""


def test_gf_canonical_bounds_guards_hold_under_optimize():
    # the input guards of gf, canonical and bounds are raises, not
    # asserts: python -O keeps them.  A probe that returns prints only
    # that it returned, so a wrong value cannot pass for a refusal
    out = subprocess.run([sys.executable, "-O", "-c", INPUT_GUARDS],
                         env={"PYTHONPATH": SRC}, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    got = dict(line.split(" | ") for line in out.stdout.strip().splitlines())
    assert len(got) == 10
    assert got == {name: "ValueError" for name in got}


def test_square_and_invertible_inputs_only():
    f5 = make_field(5)
    wide = Mat(f5, [[1, 2, 3], [0, 1, 4]])
    with pytest.raises(ValueError, match="square"):
        charpoly(wide)
    with pytest.raises(ValueError, match="square"):
        factor_charpoly(wide)
    # J_2(0) is cyclic, but x^2 has no invertible companion block
    with pytest.raises(ValueError, match="invertible"):
        generalized_jordan(Mat(f5, [[0, 1], [0, 0]]))


def _spy_solve_similarity(monkeypatch):
    calls = []
    real = canonical.solve_similarity
    monkeypatch.setattr(canonical, "solve_similarity",
                        lambda g, j: calls.append(g) or real(g, j))
    return calls


def test_jordan_self_checks_raise(monkeypatch):
    # these checks must survive python -O, so they are no asserts
    f5 = make_field(5)
    # 1 + J_2(1) is derogatory and not its canonical form J_2(1) + 1, so it
    # takes the rank filtration and solve_similarity; split is cyclic and
    # takes the Krylov base change
    derogatory = Mat(f5, [[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    split = Mat(f5, [[2, 1], [0, 3]])
    with monkeypatch.context() as m:
        # f(g) = I: the rank filtration stops at once and finds no block
        m.setattr(canonical, "mat_poly_eval",
                  lambda g, f: Mat.identity(g.ctx, g.n))
        with pytest.raises(RuntimeError, match="rank filtration"):
            generalized_jordan(derogatory)
    with monkeypatch.context() as m:
        m.setattr(canonical, "solve_similarity", lambda g, j: None)
        with pytest.raises(RuntimeError, match="similar matrix"):
            generalized_jordan(derogatory)
    with monkeypatch.context() as m:
        m.setattr(canonical, "solve_similarity",
                  lambda g, j: Mat.identity(g.ctx, g.n))
        with pytest.raises(RuntimeError, match="does not conjugate"):
            generalized_jordan(derogatory)
    with monkeypatch.context() as m:
        calls = _spy_solve_similarity(m)
        # K_g = K_J = I makes u = I, which does not conjugate split
        m.setattr(canonical, "_krylov",
                  lambda g, v: Mat.identity(g.ctx, g.n))
        with pytest.raises(RuntimeError, match="does not conjugate"):
            generalized_jordan(split)
        assert calls == []
    with monkeypatch.context() as m:
        calls = _spy_solve_similarity(m)
        # a vector that is not cyclic for J makes K_J, and so u, singular
        m.setattr(canonical, "_layout_vector", lambda blocks, n: (0,) * n)
        with pytest.raises(RuntimeError, match="does not conjugate"):
            generalized_jordan(split)
        assert calls == []
    cf = generalized_jordan(derogatory)
    assert cf.blocks == [((4, 1), 2), ((4, 1), 1)]
    assert cf.canonical != derogatory
    assert generalized_jordan(split).canonical != split


def _blocks_by_ranks(g):
    """Reference block list from the whole rank filtration: a factor f^e
    has (rank f(g)^(j-1) - rank f(g)^j) / deg f blocks of size >= j."""
    out = []
    for f, e in factor_charpoly(g):
        fg = mat_poly_eval(g, f)
        ranks = [(fg ** j).rank() for j in range(e + 1)]
        at_least = [(ranks[j - 1] - ranks[j]) // poly_deg(f)
                    for j in range(1, e + 1)] + [0]
        for size in range(e, 0, -1):
            out += [(f, size)] * (at_least[size - 1] - at_least[size])
    return out


def _has_cyclic_unit_vector(g):
    """Reference: some e_i has g-translates e_i, g e_i, ..., g^(n-1) e_i
    that span the whole space."""
    for i in range(g.n):
        v = Mat(g.ctx, [[int(r == i)] for r in range(g.n)])
        cols = [v]
        for _ in range(g.n - 1):
            cols.append(g * cols[-1])
        if Mat(g.ctx, [[c.rows[r][0] for c in cols]
                       for r in range(g.n)]).rank() == g.n:
            return True
    return False


def test_krylov_base_change_over_class_transversals(monkeypatch):
    # one representative per canonical form of SL(n, q), n <= 4, q <= 9,
    # and of SL(5, 2), SL(6, 2) and SL(5, 3), where the solution spaces of
    # solve_similarity are largest, each conjugated by a seeded random
    # element of GL(n, q) (the twists of a form are GL-conjugate, so they
    # add no case here).  The blocks match the rank-filtration reference,
    # u conjugates g to its canonical form, and solve_similarity runs on
    # exactly the inputs that are not already canonical (those get u = I)
    # and are derogatory or have no cyclic unit vector; every other input
    # takes the Krylov base change
    calls = _spy_solve_similarity(monkeypatch)
    rng = random.Random(19)
    cases = [(q, n) for q in CROSS_CHECK_QS for n in (2, 3, 4)]
    cases += [(2, 5), (2, 6), (3, 5)]
    expected = []
    derogatory = no_unit = krylov = 0
    for q, n in cases:
        ctx = make_field(q)
        forms = {}
        for rep, blocks in class_transversal(ctx, n):
            forms.setdefault(repr(blocks), blocks_matrix(ctx, blocks))
        for j in forms.values():
            c = rand_invertible(ctx, n, rng)
            g = c * j * c.inv()
            ref = _blocks_by_ranks(g)
            cf = generalized_jordan(g)
            assert cf.blocks == ref
            assert cf.canonical == j
            assert cf.u * g * cf.u.inv() == j
            if g == j:
                continue
            if len(ref) > len(factor_charpoly(g)):
                derogatory += 1
            elif not _has_cyclic_unit_vector(g):
                no_unit += 1
            else:
                krylov += 1
                continue
            expected.append(g)
    assert calls == expected
    assert (krylov, derogatory, no_unit) == (2211, 405, 8)
