import pytest

from invword.gf import (
    MODULUS_TABLE,
    UnsupportedField,
    irreducible_polys,
    make_extension,
    make_field,
    monic_polys,
    poly_deg,
    poly_divmod,
    poly_gcd,
    poly_is_irreducible,
    poly_mod,
    poly_mul,
    poly_pow_mod,
    power,
)
from invword.matrix import Mat
from invword.perm import Perm

ALL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]


@pytest.mark.parametrize("q", ALL_ORDERS)
def test_field_axioms_exhaustive(q):
    F = make_field(q)
    els = list(F.elements())
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    # commutativity plus distributivity on a full sweep
    for a in els:
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in (0, 1, els[-1]):
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("q", ALL_ORDERS)
def test_associativity_spot(q):
    F = make_field(q)
    sample = [0, 1, q - 1, q // 2, 2 % q, 3 % q]
    for a in sample:
        for b in sample:
            for c in sample:
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))


def test_modulus_table_rows_irreducible():
    for q, f in MODULUS_TABLE.items():
        p = make_field(q).p
        assert poly_is_irreducible(make_field(p), f)
        assert len(f) - 1 == make_field(q).deg


def test_gf9_generator_squares_to_minus_one():
    F = make_field(9)
    w = 3  # the adjoined root xi, encoding p
    assert F.mul(w, w) == 2  # xi^2 = -1 under modulus x^2+1


def test_sqrt_frozen_values():
    F7 = make_field(7)
    assert F7.sqrt(2) == 3  # 3*3 = 2, and 3 < 4
    assert F7.sqrt(3) is None
    assert F7.sqrt(0) == 0
    F4 = make_field(4)
    a = 2
    assert F4.sqrt(a) == F4.mul(a, a)  # char 2: sqrt is the inverse Frobenius
    for x in F4.elements():
        s = F4.sqrt(x)
        assert s is not None and F4.mul(s, s) == x


def test_sqrt_consistency_all_fields():
    for q in ALL_ORDERS:
        F = make_field(q)
        squares = {F.mul(x, x) for x in F.elements()}
        for a in F.elements():
            s = F.sqrt(a)
            if a in squares:
                assert s is not None and F.mul(s, s) == a
            else:
                assert s is None
        if q % 2 == 1:
            assert len(squares) == (q + 1) // 2


def test_make_field_rejects_bad_orders():
    with pytest.raises(UnsupportedField):
        make_field(6)
    with pytest.raises(UnsupportedField):
        make_field(49)
    with pytest.raises(UnsupportedField):
        make_field(1)


def test_make_field_is_cached():
    assert make_field(5) is make_field(5)


def test_extension_tower_gf4():
    F2 = make_field(2)
    F4 = make_extension(F2, (1, 1, 1))
    assert F4.q == 4 and F4.base is F2 and F4.deg == 2
    xi = 2
    assert F4.mul(xi, xi) == F4.add(xi, 1)  # xi^2 = xi + 1
    assert F4.add(xi, 1) == 3  # digits (1, 1): 1 + 1 * xi encodes as 1 + 1 * 2
    # base elements embed as themselves
    for a in range(2):
        for b in range(2):
            assert F4.add(a, b) == F2.add(a, b)
            assert F4.mul(a, b) == F2.mul(a, b)


def test_extension_tower_gf9_matches_table_field():
    F3 = make_field(3)
    E = make_extension(F3, (1, 0, 1))
    T = make_field(9)
    assert E.add_rows == T.add_rows and E.mul_rows == T.mul_rows
    assert E.mul(3, 3) == 2   # xi^2 = -1, xi encoded as 3


def test_extension_over_nonprime_base():
    F4 = make_field(4)
    fs = irreducible_polys(F4, 2)
    E = make_extension(F4, fs[0])
    assert E.q == 16 and E.base is F4
    for a in E.elements():
        if a:
            assert E.mul(a, E.inv(a)) == 1
    assert E.pow(E.generator(), 15) == 1


def test_extension_rejects_reducible_and_oversized():
    F3 = make_field(3)
    with pytest.raises(ValueError):
        make_extension(F3, (2, 0, 1))  # x^2 + 2 = (x+1)(x+2) over GF(3)
    with pytest.raises(UnsupportedField):
        make_extension(make_field(9), (1, 0, 0, 1, 1))


def _mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def test_irreducible_poly_counts():
    # Gauss's count (1/d) sum_{k | d} mu(d/k) q^k; for d = 2, 3 these are
    # the necklace counts (q^2 - q)/2 and (q^3 - q)/3.
    for q, max_deg in ((2, 6), (3, 6), (4, 3), (5, 3)):
        F = make_field(q)
        for d in range(1, max_deg + 1):
            count = sum(_mobius(d // k) * q ** k for k in range(1, d + 1) if d % k == 0)
            assert len(irreducible_polys(F, d)) * d == count


def _irreducible_by_trial_division(ctx, f):
    """Reference test: f has no monic divisor of degree 1..deg f // 2."""
    d = poly_deg(f)
    if d <= 0:
        return False
    for k in range(1, d // 2 + 1):
        for g in monic_polys(ctx, k):
            if not poly_mod(ctx, f, g):
                return False
    return True


@pytest.mark.parametrize("q,max_deg", [(q, 4) for q in (2, 3, 4, 5, 7, 8, 9)]
                         + [(q, 3) for q in (16, 25, 27, 32)])
def test_rabin_matches_trial_division(q, max_deg):
    F = make_field(q)
    for d in range(1, max_deg + 1):
        for f in monic_polys(F, d):
            assert poly_is_irreducible(F, f) == _irreducible_by_trial_division(F, f), f


def test_poly_arithmetic_roundtrip():
    F = make_field(5)
    f = (1, 2, 0, 3)
    g = (4, 1)
    quo, rem = poly_divmod(F, poly_mul(F, f, g), g)
    assert quo == f and rem == ()
    assert poly_gcd(F, poly_mul(F, f, g), g) == g  # g = 4 + x is already monic


def test_poly_pow_mod_fermat():
    # x^q = x mod any irreducible of degree 2, composed with itself
    F = make_field(3)
    m = (1, 0, 1)
    assert poly_pow_mod(F, (0, 1), 9, m) == (0, 1)


def _products(x, k, one):
    out = one
    for _ in range(k):
        out = out * x
    return out


def test_power_agrees_with_repeated_products():
    F = make_field(9)
    a = 5
    for k in range(10):
        r = 1
        for _ in range(k):
            r = F.mul(r, a)
        assert power(a, k, 1, F.mul) == F.pow(a, k) == r
        assert F.pow(F.inv(a), k) == F.pow(a, -k)
    F3, m, f = make_field(3), (1, 2, 0, 1), (2, 1, 2, 1, 1)
    r = poly_mod(F3, (1,), m)
    for k in range(10):
        assert poly_pow_mod(F3, f, k, m) == r
        r = poly_mod(F3, poly_mul(F3, r, f), m)
    g = Mat(make_field(5), [[1, 2, 0], [3, 0, 1], [4, 4, 2]])
    gi, eye = g.inv(), Mat.identity(g.ctx, 3)
    p = Perm.from_cycles("(1,2,3)(4,5,6,7)", 8)
    for k in range(10):
        assert g ** k == _products(g, k, eye)
        assert g ** -k == _products(gi, k, eye)
        assert p ** k == _products(p, k, Perm.identity(8))
        assert p ** -k == _products(p.inv(), k, Perm.identity(8))
