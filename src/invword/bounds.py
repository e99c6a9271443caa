"""Exact evaluation of the character-sum estimates behind the distance
theorems for classical groups.

Each function transcribes one displayed inequality: a class-count cap
times a centralizer-order cap to the sixth power, over a tenth power of
the least non-linear character degree.  The verdict is whether the value
is below 1; scanning a parameter rectangle collects the exceptions.
Everything is a Fraction, so the verdicts carry no rounding risk.
"""

from fractions import Fraction

from .gf import prime_power

# printed exception lists, where the source states one; "o" is an upper
# envelope (the scan is allowed to come in under it)
STATED_EXCEPTIONS = {
    "gl-mn": frozenset(),
    "gl-m1": frozenset(),
    "gu-i": frozenset({(7, 2), (5, 3), (4, 5), (4, 4)}),
    "sp-odd": frozenset({(2, 3)}),
    "sp-even": frozenset({(2, 2), (3, 2)}),
}
O_EXCEPTION_ENVELOPE = frozenset({(7, 3), (8, 2), (8, 3)})

# parameter pairs excluded from the unitary scan before it starts (they
# are dealt with by other means, not by this sum)
GU_SKIP = frozenset({(4, 2), (4, 3), (5, 2), (6, 2)})


def is_prime_power(q):
    return prime_power(q) is not None


def prime_powers(limit):
    return [q for q in range(2, limit + 1) if is_prime_power(q)]


def gl_full_block(n, q):
    """Regular unipotent times a scalar: one Jordan block of size n."""
    return Fraction(5, 2) * Fraction(q) ** (9 - 3 * n)


def gl_single_eigenvalue(n, q):
    """Irreducible characteristic polynomial: centralizer a field torus."""
    return Fraction(q) ** (10 - 3 * n)


def gu_semisimple_s(n, q):
    num = Fraction(413, 50) * q ** (n - 1) * ((q + 1) * q ** (n - 1)) ** 6
    den = Fraction(q ** n - q, q + 1) ** 10
    return num / den


def gu_semisimple_g(n, q):
    # same estimate with the class count taken in the full unitary group,
    # one factor of q larger
    return gu_semisimple_s(n, q) * q


def _sp_gap_degree(m, q):
    return Fraction((q ** m - 1) * (q ** m - q), 2 * (q + 1))


def _require(ok, name, *params):
    """ValueError naming the bound and its parameters unless ok."""
    if not ok:
        raise ValueError("%s is not defined at %r" % (name, params))


def sp_odd(m, q):
    """Odd q: four Weil characters contribute a q^6/1024 numerator, the
    rest go through the class-count cap 10.8 q^m."""
    _require(q % 2 == 1 and m >= 2, "sp_odd", m, q)
    d = _sp_gap_degree(m, q)
    weil = Fraction(4) * (Fraction(q) ** 6 / 4096)
    rest = Fraction(54, 5) * q ** m * (2 * q ** m) ** 6
    return (weil + rest) / d ** 10


def sp_even(m, q):
    _require(q % 2 == 0 and m >= 2, "sp_even", m, q)
    d = _sp_gap_degree(m, q)
    return Fraction(76, 5) * q ** m * (2 * q ** m) ** 6 / d ** 10


def _o_degree_odd_dim(m, q):
    if q >= 5:
        return Fraction(q ** (2 * m) - 1, q ** 2 - 1)
    return Fraction((q ** m - 1) * (q ** m - q), 2 * (q + 1))


def _o_degree_even_dim(m, q, eps):
    if (q, eps) in ((2, 1), (3, 1)):
        return Fraction((q ** m - 1) * (q ** (m - 1) - 1), q ** 2 - 1)
    return Fraction((q ** m - eps) * (q ** (m - 1) + eps * q), q ** 2 - 1)


def o_odd_dim(m, q):
    """n = 2m+1, q odd, m >= 3."""
    _require(q % 2 == 1 and m >= 3, "o_odd_dim", m, q)
    d = _o_degree_odd_dim(m, q)
    return Fraction(15) * q ** m * (2 * q ** m) ** 6 / d ** 10


def o_even_dim(m, q, eps):
    """n = 2m, m >= 4, both forms; (m, q, eps) = (4, 2, +1) excluded."""
    _require(m >= 4 and eps in (1, -1) and (m, q, eps) != (4, 2, 1),
             "o_even_dim", m, q, eps)
    d = _o_degree_even_dim(m, q, eps)
    return Fraction(15) * q ** m * (2 * q ** m) ** 6 / d ** 10


# the linear scans: family -> (bound, least first parameter, parity of q
# or None for every q, pairs skipped before the scan starts); "o" scans
# two shapes of its own
_SCANS = {
    "gl-mn": (gl_full_block, 4, None, frozenset()),
    "gl-m1": (gl_single_eigenvalue, 4, None, frozenset()),
    "gu-i": (gu_semisimple_s, 4, None, GU_SKIP),
    "gu-ii": (gu_semisimple_g, 4, None, GU_SKIP),
    "sp-odd": (sp_odd, 2, 1, frozenset()),
    "sp-even": (sp_even, 2, 0, frozenset()),
}
FAMILIES = tuple(_SCANS) + ("o",)


class BoundCheck:
    """One evaluated inequality: params, exact value, verdict."""

    def __init__(self, family, params, value):
        self.family = family
        self.params = params
        self.value = value
        self.ok = value < 1

    def __repr__(self):
        return "BoundCheck(%s, %r, %s, %s)" % (
            self.family, self.params, self.value, "ok" if self.ok else "FAIL")


def scan(family, nmax=12, qmax=16):
    """Evaluate one family over its rectangle.

    Returns (checks, exceptions) where exceptions is the set of (n, q)
    or (m, q) pairs with value >= 1."""
    qs = prime_powers(qmax)
    if family in _SCANS:
        fn, least, parity, skip = _SCANS[family]
        checks = [BoundCheck(family, (n, q), fn(n, q))
                  for n in range(least, nmax + 1) for q in qs
                  if parity in (None, q % 2) and (n, q) not in skip]
    elif family == "o":
        checks = ([BoundCheck(family, (2 * m + 1, q), o_odd_dim(m, q))
                   for m in range(3, nmax + 1) for q in qs if q % 2 == 1]
                  + [BoundCheck(family, (2 * m, q, eps), o_even_dim(m, q, eps))
                     for m in range(4, nmax + 1) for q in qs for eps in (1, -1)
                     if (m, q, eps) != (4, 2, 1)])
    else:
        raise ValueError("unknown bound family %r" % family)
    exceptions = {c.params[:2] for c in checks if not c.ok}
    return checks, exceptions


def scan_matches_statement(family, nmax=12, qmax=16):
    """Whether the computed exception set agrees with the printed one
    (subset for the orthogonal envelope, equality elsewhere), over the
    rectangle: a printed pair outside it is not asked for."""
    _, exceptions = scan(family, nmax, qmax)
    if family == "o":
        return exceptions <= O_EXCEPTION_ENVELOPE
    if family == "gu-ii":
        raise ValueError("no printed list to compare for gu-ii")
    return exceptions == {(n, q) for n, q in STATED_EXCEPTIONS[family]
                          if n <= nmax and q <= qmax}
