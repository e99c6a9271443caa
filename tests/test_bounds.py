from fractions import Fraction

import pytest

import invword.bounds as bounds
from invword.bounds import (FAMILIES, GU_SKIP, O_EXCEPTION_ENVELOPE,
                            STATED_EXCEPTIONS, BoundCheck, gl_full_block,
                            gl_single_eigenvalue, gu_semisimple_g,
                            gu_semisimple_s, is_prime_power, o_even_dim,
                            o_odd_dim, prime_powers, scan,
                            scan_matches_statement, sp_even, sp_odd)


def test_prime_powers():
    assert prime_powers(16) == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]
    assert not is_prime_power(1)
    assert not is_prime_power(12)
    assert is_prime_power(27) and is_prime_power(13)


def test_point_values_exact():
    assert gl_full_block(4, 2) == Fraction(5, 16)
    assert gl_full_block(3, 2) == Fraction(5, 2)      # why n=3 is special
    assert gl_single_eigenvalue(4, 3) == Fraction(1, 9)
    assert sp_odd(2, 3) == (Fraction(729, 1024)
                            + Fraction(54, 5) * 9 * 18 ** 6) / 6 ** 10
    assert sp_odd(2, 3) > 1
    assert 7 < sp_even(3, 2) < 8
    assert sp_even(2, 4) < 1
    assert gu_semisimple_s(4, 4) > 1 > gu_semisimple_s(4, 7)
    assert gu_semisimple_g(4, 7) == gu_semisimple_s(4, 7) * 7
    assert o_odd_dim(3, 3) < 1 and o_odd_dim(3, 5) < 1
    assert o_even_dim(4, 2, -1) < 1 and o_even_dim(4, 3, 1) < 1


def test_values_are_fractions():
    for fam in FAMILIES:
        checks, _ = scan(fam, nmax=5, qmax=5)
        assert checks and all(isinstance(c.value, Fraction) for c in checks)


def test_gl_scans_clean():
    for fam in ("gl-mn", "gl-m1"):
        _, exc = scan(fam)
        assert exc == set()


def test_gu_i_exceptions_match_statement():
    checks, exc = scan("gu-i")
    assert exc == {(7, 2), (5, 3), (4, 5), (4, 4)}
    assert all(c.params not in GU_SKIP for c in checks)


def test_gu_ii_exceptions_frozen():
    # no printed list for the full-group variant; this is the recorded
    # scan result, one extra point than the index-q subgroup variant
    _, exc = scan("gu-ii")
    assert exc == {(7, 2), (5, 3), (4, 7), (4, 5), (4, 4)}
    with pytest.raises(ValueError):
        scan_matches_statement("gu-ii")


def test_sp_exceptions_match_statement():
    _, exc = scan("sp-odd")
    assert exc == {(2, 3)}
    _, exc = scan("sp-even")
    assert exc == {(2, 2), (3, 2)}


def test_o_scan_within_envelope():
    checks, exc = scan("o")
    assert exc <= O_EXCEPTION_ENVELOPE
    # both forms are scanned in even dimension, minus the excluded triple
    assert any(len(c.params) == 3 for c in checks)
    assert all(c.params != (8, 2, 1) for c in checks)


def test_all_statement_comparisons():
    for fam in ("gl-mn", "gl-m1", "gu-i", "sp-odd", "sp-even", "o"):
        assert scan_matches_statement(fam), fam


@pytest.mark.parametrize("family, nmax, qmax", [
    ("gu-i", 6, 16), ("sp-odd", 12, 2), ("sp-even", 2, 16)])
def test_statement_compared_over_the_rectangle(family, nmax, qmax):
    # each leaves a printed exception outside the rectangle, (7, 2), (2, 3)
    # and (3, 2): only the printed pairs inside it are asked for
    assert scan_matches_statement(family, nmax, qmax)


def test_printed_pair_inside_the_rectangle_still_counts(monkeypatch):
    stated = dict(STATED_EXCEPTIONS)
    stated["gu-i"] = STATED_EXCEPTIONS["gu-i"] | {(5, 4)}
    monkeypatch.setattr(bounds, "STATED_EXCEPTIONS", stated)
    assert not scan_matches_statement("gu-i", nmax=6)
    stated["gu-i"] = STATED_EXCEPTIONS["gu-i"] - {(4, 4)}
    assert not scan_matches_statement("gu-i", nmax=6)
    stated["gu-i"] = STATED_EXCEPTIONS["gu-i"]
    assert scan_matches_statement("gu-i", nmax=6)


def test_family_order():
    # the CLI's --family choices and the bound_scan demo list them in this
    # order
    assert FAMILIES == ("gl-mn", "gl-m1", "gu-i", "gu-ii", "sp-odd",
                        "sp-even", "o")


def test_scan_rejects_unknown_family():
    with pytest.raises(ValueError):
        scan("su-iv")


def test_boundcheck_repr_carries_verdict():
    c = BoundCheck("sp-odd", (2, 3), sp_odd(2, 3))
    assert "FAIL" in repr(c)
    c = BoundCheck("sp-odd", (2, 5), sp_odd(2, 5))
    assert "ok" in repr(c)
