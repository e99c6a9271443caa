"""Permutations with right-action composition, and commutator partners that
square products of conjugates to involutions in alternating groups.

Convention: points are 1-based in text form, images are stored 0-based, and
(g*h)(x) = h(g(x)).  Under this convention h^-1 g h relabels the cycles of g
by h.  The witness path treats a Perm as it does a Mat: matrix.commutator,
g ** 0, str(g) and inv_det(), whose sign is the permutation matrix's
determinant.
"""

from .matrix import commutator


class Perm:
    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("images are not a permutation of 0..%d"
                             % (len(images) - 1))
        self.images = images

    @classmethod
    def identity(cls, n):
        return cls(range(n))

    @classmethod
    def from_cycles(cls, text, n=None):
        """Parse cycle notation like "(1,2,3)(4,5)"; "()" is the identity."""
        text = text.replace(" ", "")
        cycles = []
        if text not in ("", "()"):
            if not (text.startswith("(") and text.endswith(")")):
                raise ValueError("bad cycle text: %r" % text)
            for part in text[1:-1].split(")("):
                pts = [int(tok) for tok in part.split(",") if tok]
                if len(pts) != len(set(pts)) or any(p < 1 for p in pts):
                    raise ValueError("bad cycle: (%s)" % part)
                cycles.append(pts)
        top = max((p for c in cycles for p in c), default=0)
        if n is None:
            n = top
        if top > n:
            raise ValueError("cycle point %d exceeds degree %d" % (top, n))
        seen = set()
        images = list(range(n))
        for c in cycles:
            for p in c:
                if p in seen:
                    raise ValueError("point %d repeated across cycles" % p)
                seen.add(p)
            for i, p in enumerate(c):
                images[p - 1] = c[(i + 1) % len(c)] - 1
        return cls(images)

    @property
    def n(self):
        return len(self.images)

    def __mul__(self, other):
        if self.n != other.n:
            raise ValueError("cannot multiply permutations of degrees %d and %d"
                             % (self.n, other.n))
        return Perm(other.images[self.images[i]] for i in range(self.n))

    def inv(self):
        out = [0] * self.n
        for i, j in enumerate(self.images):
            out[j] = i
        return Perm(out)

    def inv_det(self):
        """(inverse, sign): the sign, 1 or -1, is the determinant of the
        permutation matrix, so an even permutation is one of sign 1, as a
        matrix of SL is one of determinant 1."""
        return self.inv(), -1 if self.parity() else 1

    def __pow__(self, k):
        if k < 0:
            return self.inv() ** (-k)
        acc = Perm.identity(self.n)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __call__(self, point):
        return self.images[point - 1] + 1

    def is_identity(self):
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self):
        """Nontrivial cycles as 1-based point lists, smallest point first."""
        seen = [False] * self.n
        out = []
        for i in range(self.n):
            if seen[i] or self.images[i] == i:
                continue
            c = [i]
            seen[i] = True
            j = self.images[i]
            while j != i:
                c.append(j)
                seen[j] = True
                j = self.images[j]
            out.append([p + 1 for p in c])
        return out

    def fixed_points(self):
        return [i + 1 for i in range(self.n) if self.images[i] == i]

    def cycle_type(self):
        """Sorted descending cycle lengths including fixed points."""
        lens = sorted((len(c) for c in self.cycles()), reverse=True)
        return tuple(lens) + (1,) * (self.n - sum(lens))

    def parity(self):
        return sum(len(c) - 1 for c in self.cycles()) % 2

    def order(self):
        from math import lcm
        return lcm(*[len(c) for c in self.cycles()]) if self.cycles() else 1

    def __str__(self):
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(%s)" % ",".join(str(p) for p in c) for c in cyc)

    def __repr__(self):
        return "Perm[%d] %s" % (self.n, str(self))


def alt_partner(g):
    """An even permutation h with [g, h] = g^-1 h^-1 g h an involution.

    Matches g against a fixed table of cycle patterns, longest cycle first.
    Raises ValueError for the identity, for degree < 4 (A_2, A_3 contain no
    involutions, so no partner can exist), and for a single 5-cycle on 5
    points (see a5_witness for that case).
    """
    if g.is_identity():
        raise ValueError("identity has no partner")
    n = g.n
    cycles = sorted(g.cycles(), key=lambda c: (-len(c), c[0]))
    fixed = g.fixed_points()
    by_len = {}
    for c in cycles:
        by_len.setdefault(len(c), []).append(c)
    longs = [c for c in cycles if len(c) >= 6]
    if longs:
        a = longs[0]
        pts = [[a[1], a[4]], [a[2], a[5]]]
    elif by_len.get(4):
        a = by_len[4][0]
        pts = [[a[0], a[3]], [a[1], a[2]]]
    elif by_len.get(5):
        a = by_len[5][0]
        if fixed:
            pts = [[a[3], fixed[0], a[4]]]
        elif by_len.get(2):
            b = by_len[2][0]
            pts = [[a[4], b[1], b[0]]]
        elif by_len.get(3):
            b = by_len[3][0]
            pts = [[a[3], b[2]], [a[4], b[0]]]
        elif len(by_len[5]) >= 2:
            b = by_len[5][1]
            pts = [[a[3], b[4]], [a[4], b[0]]]
        else:
            raise ValueError(
                "single 5-cycle on 5 points: no commutator partner of this "
                "kind exists; use a5_witness")
    elif by_len.get(3):
        a = by_len[3][0]
        if fixed:
            pts = [[a[1], fixed[0], a[2]]]
        elif by_len.get(2):
            b = by_len[2][0]
            pts = [[a[0], a[2], a[1], b[1], b[0]]]
        elif len(by_len[3]) >= 2:
            b = by_len[3][1]
            pts = [[a[1], b[2]], [a[2], b[0]]]
        else:
            raise ValueError("no even partner exists for a single 3-cycle "
                             "on fewer than 4 points")
    else:
        twos = by_len.get(2, [])
        if len(twos) >= 2:
            a, b = twos[0], twos[1]
            pts = [[a[1], b[1], b[0]]]
        elif twos and len(fixed) >= 2:
            a = twos[0]
            pts = [[a[0], fixed[0]], [a[1], fixed[1]]]
        else:
            raise ValueError("no even partner exists for a transposition on "
                             "fewer than 4 points")
    text = "".join("(%s)" % ",".join(map(str, c)) for c in pts)
    h = Perm.from_cycles(text, n)
    x = commutator(g, h)
    if h.parity() != 0 or x.is_identity() or not (x * x).is_identity():
        raise RuntimeError("partner table produced an odd partner or a "
                           "commutator of order != 2")
    return h


def a5_witness(g):
    """For a 5-cycle g on 5 points: a product of three conjugates of g
    (within A_5) equal to an involution, plus a certificate that no product
    of at most two conjugates of g or g^-1 is an involution.

    Returns (steps, target, certificate) with steps a list of
    (conjugator, exponent) pairs.  The certificate is checked as it is
    built; a product that breaks it raises RuntimeError.
    """
    if g.n != 5 or g.cycle_type() != (5,):
        raise ValueError("a5_witness takes a 5-cycle on 5 points")
    import itertools
    alt5 = [Perm(p) for p in itertools.permutations(range(5))
            if Perm(p).parity() == 0]
    cls = sorted({(c.inv() * g * c).images for c in alt5})
    cls = [Perm(im) for im in cls]
    inv_closed = {p.images for p in cls} == {p.inv().images for p in cls}
    gens = cls if inv_closed else cls + [p.inv() for p in cls]
    involutions = {p.images for p in alt5
                   if not p.is_identity() and (p * p).is_identity()}
    checked = 0
    for x in gens:
        for p in [x] + [x * y for y in gens]:
            if p.images in involutions:
                raise RuntimeError("a product of at most two conjugates of "
                                   "the 5-cycle is an involution")
            checked += 1
    certificate = {"products_checked": checked, "no_witness_of_length": 2,
                   "class_inverse_closed": inv_closed}
    for x in gens:
        for y in gens:
            t = x * y * g
            if t.images in involutions:
                steps = [_transporter(alt5, g, x), _transporter(alt5, g, y),
                         (Perm.identity(5), 1)]
                return steps, t, certificate
    raise RuntimeError("no length-3 witness found in A_5")


def _transporter(group, g, x):
    """A (conjugator, exponent) pair realizing x as c g^e c^-1."""
    gi = g.inv()
    for c in group:
        if c * g * c.inv() == x:
            return (c, 1)
        if c * gi * c.inv() == x:
            return (c, -1)
    raise RuntimeError("element not conjugate to g or its inverse")
