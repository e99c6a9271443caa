"""Exact computations in small groups, used as ground truth.

Groups are enumerated element by element (never above a hard order cap),
conjugacy classes come with transporters, and distances are measured on
the conjugacy-class graph: for a normal generating set, the classes
reachable by k-fold products are exactly the level-k classes, so a
class-level search is exact while touching |classes| nodes instead of
|G|.
"""

import itertools
from math import factorial, gcd, prod

from .gf import make_field
from .matrix import GroupSpec, Mat, classify
from .perm import Perm

ORDER_CAP = 10 ** 6


class GroupTooLarge(Exception):
    """The requested group is above the enumeration cap."""


def group_order(spec):
    if spec.family == "Sym":
        return factorial(spec.n)
    if spec.family == "Alt":
        return factorial(spec.n) // 2 if spec.n >= 2 else 1
    n, q = spec.n, spec.q
    gl = q ** (n * (n - 1) // 2) * prod(q ** k - 1 for k in range(1, n + 1))
    if spec.family == "GL":
        return gl
    if spec.family in ("SL", "PGL"):
        return gl // (q - 1)
    if spec.family == "PSL":
        return gl // ((q - 1) * gcd(n, q - 1))
    raise ValueError("unknown family %r" % spec.family)


def is_simple(spec):
    """Simplicity of the abstract group described by spec."""
    n, q = spec.n, spec.q
    if spec.family == "Alt":
        return n >= 5
    if spec.family == "Sym":
        return False
    if spec.family == "PSL":
        return not (n == 2 and q in (2, 3))
    if spec.family == "SL":
        # coincides with its projective quotient only for trivial centers
        return gcd(n, q - 1) == 1 and not (n == 2 and q in (2, 3))
    return False


# -- element encodings ----------------------------------------------------


def _mat_mul_enc(ctx, n):
    """Row-tuple matrix product using the flat field tables."""
    q = ctx.q
    mt, at = ctx.mul_table, ctx.add_table

    def mul(a, b):
        bc = tuple(zip(*b))
        out = []
        for ra in a:
            row = []
            for cb in bc:
                acc = 0
                for x, y in zip(ra, cb):
                    if x and y:
                        acc = at[acc * q + mt[x * q + y]]
                row.append(acc)
            out.append(tuple(row))
        return tuple(out)

    return mul


def _perm_mul_enc(a, b):
    return tuple(b[x] for x in a)


class GroupTable:
    """A fully enumerated group: encodings, an index, and index-level ops."""

    def __init__(self, spec, ctx, elements, mul_enc, inv_enc, gens):
        self.spec = spec
        self.ctx = ctx
        self.elements = elements
        self.index = {e: i for i, e in enumerate(elements)}
        self._mul_enc = mul_enc
        self._inv_enc = inv_enc
        self.order = len(elements)
        self.identity_index = self.index[self._identity_enc()]
        self.gens = [self.index[e] for e in gens]
        self._inv_cache = None
        self._classes = None

    def _identity_enc(self):
        if self.spec.family in ("Sym", "Alt"):
            return tuple(range(self.spec.n))
        n = self.spec.n
        return tuple(tuple(1 if i == j else 0 for j in range(n))
                     for i in range(n))

    def mul(self, i, j):
        return self.index[self._mul_enc(self.elements[i], self.elements[j])]

    def inv(self, i):
        if self._inv_cache is None:
            self._inv_cache = [None] * self.order
        v = self._inv_cache[i]
        if v is None:
            v = self.index[self._inv_enc(self.elements[i])]
            self._inv_cache[i] = v
        return v

    def decode(self, i):
        e = self.elements[i]
        if self.spec.family in ("Sym", "Alt"):
            return Perm(e)
        return Mat(self.ctx, [list(r) for r in e])

    def index_of(self, el):
        if isinstance(el, Perm):
            key = el.images
        elif isinstance(el, Mat):
            key = tuple(tuple(r) for r in el.rows)
            if self.spec.family in ("PSL", "PGL"):
                key = self._normalize(key)
        else:
            key = el
        return self.index.get(key)

    def _normalize(self, key):
        raise NotImplementedError


def _closure(gens_enc, mul_enc, identity_enc):
    """Generator closure by breadth-first multiplication."""
    seen = {identity_enc}
    frontier = [identity_enc]
    while frontier:
        nxt = []
        for x in frontier:
            for s in gens_enc:
                y = mul_enc(x, s)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
        if len(seen) > ORDER_CAP:
            raise GroupTooLarge("closure passed the order cap")
    return seen


_TABLE_CACHE = {}


def build_group(spec, order_cap=ORDER_CAP):
    """Enumerate the group described by spec.

    Raises GroupTooLarge when the order formula exceeds the cap.  The
    computed order is asserted against the formula.  Tables are cached
    per spec; repeat callers share one enumeration."""
    expected = group_order(spec)
    if expected > order_cap:
        raise GroupTooLarge("|%r| = %d exceeds the cap %d"
                            % (spec, expected, order_cap))
    key = (spec.family, spec.n, spec.q)
    if key in _TABLE_CACHE:
        return _TABLE_CACHE[key]
    if spec.family in ("Sym", "Alt"):
        n = spec.n
        base = list(itertools.permutations(range(n)))
        if spec.family == "Alt":
            elems = [p for p in base if Perm(p).parity() == 0]
            gens = [Perm.from_cycles("(%d,%d,%d)" % (i, i + 1, i + 2), n).images
                    for i in range(1, n - 1)] if n >= 3 else []
        else:
            elems = base
            gens = [Perm.from_cycles("(1,2)", n).images,
                    Perm.from_cycles("(%s)" % ",".join(
                        str(i) for i in range(1, n + 1)), n).images] \
                if n >= 2 else []
        elems.sort()
        tbl = GroupTable(spec, None, elems, _perm_mul_enc,
                         lambda e: Perm(e).inv().images,
                         [g for g in gens if g in set(elems)] or [elems[0]])
        assert tbl.order == expected, (tbl.order, expected)
        _TABLE_CACHE[key] = tbl
        return tbl
    ctx = make_field(spec.q)
    n, q = spec.n, spec.q
    mul_enc = _mat_mul_enc(ctx, n)

    def inv_enc(e):
        return tuple(tuple(r) for r in Mat(ctx, [list(r) for r in e]).inv().rows)

    gens = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for lam in range(1, q):
                rows = [[1 if a == b else 0 for b in range(n)]
                        for a in range(n)]
                rows[i][j] = lam
                gens.append(tuple(tuple(r) for r in rows))
    if spec.family in ("GL", "PGL"):
        nu = ctx.generator()
        rows = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        rows[0][0] = nu
        gens.append(tuple(tuple(r) for r in rows))
    identity = tuple(tuple(1 if i == j else 0 for j in range(n))
                     for i in range(n))
    if spec.family in ("SL", "GL"):
        elems = sorted(_closure(gens, mul_enc, identity))
        tbl = GroupTable(spec, ctx, elems, mul_enc, inv_enc, gens)
        assert tbl.order == expected, (tbl.order, expected)
        _TABLE_CACHE[key] = tbl
        return tbl
    # projective families: quotient by scalars with lambda^n = 1 (PSL)
    # or all scalars (PGL); encodings are normalized to the lexicographic
    # minimum over the allowed scalar multiples
    if spec.family == "PSL":
        lams = [l for l in range(1, q) if ctx.pow(l, n) == 1]
    else:
        lams = list(range(1, q))
    mt = ctx.mul_table

    def normalize(e):
        best = e
        for lam in lams:
            if lam == 1:
                continue
            cand = tuple(tuple(mt[lam * q + x] for x in r) for r in e)
            if cand < best:
                best = cand
        return best

    def pmul(a, b):
        return normalize(mul_enc(a, b))

    def pinv(e):
        return normalize(inv_enc(e))

    raw = _closure([normalize(g) for g in gens], pmul, normalize(identity))
    elems = sorted(raw)
    tbl = GroupTable(spec, ctx, elems, pmul, pinv,
                     [normalize(g) for g in gens])
    tbl._normalize = normalize
    assert tbl.order == expected, (tbl.order, expected)
    _TABLE_CACHE[key] = tbl
    return tbl


# -- conjugacy classes ----------------------------------------------------


class ClassTable:
    """class_of[i] is the class index of element i; reps[k] an element
    index; transporter[i] satisfies x = t x_rep t^-1 at the index level."""

    def __init__(self, tbl, class_of, reps, sizes, transporter):
        self.tbl = tbl
        self.class_of = class_of
        self.reps = reps
        self.sizes = sizes
        self.transporter = transporter
        self._members = None

    @property
    def n_classes(self):
        return len(self.reps)

    def members(self, k):
        if self._members is None:
            self._members = [[] for _ in self.reps]
            for i, c in enumerate(self.class_of):
                self._members[c].append(i)
        return self._members[k]


def conjugacy_classes(tbl):
    if tbl._classes is not None:
        return tbl._classes
    order = tbl.order
    class_of = [-1] * order
    reps, sizes, transporter = [], [], [tbl.identity_index] * order
    gens = tbl.gens
    gen_inv = [tbl.inv(s) for s in gens]
    for i in range(order):
        if class_of[i] != -1:
            continue
        k = len(reps)
        reps.append(i)
        class_of[i] = k
        transporter[i] = tbl.identity_index
        frontier = [i]
        count = 1
        while frontier:
            nxt = []
            for x in frontier:
                tx = transporter[x]
                for s, si in zip(gens, gen_inv):
                    y = tbl.mul(tbl.mul(s, x), si)
                    if class_of[y] == -1:
                        class_of[y] = k
                        transporter[y] = tbl.mul(s, tx)
                        nxt.append(y)
                        count += 1
            frontier = nxt
        sizes.append(count)
    ct = ClassTable(tbl, class_of, reps, sizes, transporter)
    assert sum(sizes) == order
    # transporter invariant: x = t * rep * t^-1
    for i in (0, order // 2, order - 1):
        t = transporter[i]
        r = reps[class_of[i]]
        assert tbl.mul(tbl.mul(t, r), tbl.inv(t)) == i
    tbl._classes = ct
    return ct


# -- distances ------------------------------------------------------------


def involution_indices(tbl):
    e = tbl.identity_index
    return frozenset(i for i in range(tbl.order)
                     if i != e and tbl.mul(i, i) == e)


def projective_involution_indices(tbl):
    """Indices whose square is scalar while the element is not (matrix
    families only)."""
    assert tbl.spec.family in ("GL", "SL")
    spec = tbl.spec
    out = []
    for i in range(tbl.order):
        el = tbl.decode(i)
        if classify(el, spec).projective_involution:
            out.append(i)
    return frozenset(out)


def _bfs_layers(starts, neighbors, key=None, parents=None):
    """Breadth-first search from starts, yielding one layer at a time.

    Nodes are expanded in frontier order, then in the order neighbors(x)
    lists them.  Nodes are told apart by key[node] (such as a class index
    from ct.class_of), or by themselves when key is None; the first node
    met for each key stands for it and later ones are dropped.  When a
    dict is passed as parents it receives, per key, the node it was
    reached from (None for the starts), so a path can be read back."""
    seen = {} if parents is None else parents
    frontier = []
    for x in starts:
        k = x if key is None else key[x]
        if k not in seen:
            seen[k] = None
            frontier.append(x)
    while frontier:
        yield frontier
        nxt = []
        for x in frontier:
            for y in neighbors(x):
                k = y if key is None else key[y]
                if k not in seen:
                    seen[k] = x
                    nxt.append(y)
        frontier = nxt


def _right_mul(tbl, gens):
    """Neighbors in the right Cayley graph: x -> [x a for a in gens].

    Computes tbl.mul(x, a) with the operand lookups and the method call
    taken out of the per-edge loop, which is the hot spot of every
    search."""
    index, elements, mul_enc = tbl.index, tbl.elements, tbl._mul_enc
    gens_enc = [elements[a] for a in gens]

    def neighbors(x):
        ex = elements[x]
        return [index[mul_enc(ex, b)] for b in gens_enc]

    return neighbors


def dist_to_set(tbl, c, targets):
    """Least k with (C u C^-1)^k meeting the target set, where C is the
    conjugacy class of c; None if the closure never meets it.

    Searches the class graph when the target set is a union of classes
    (it always is for involution sets), otherwise the elements."""
    ct = conjugacy_classes(tbl)
    ci = c if isinstance(c, int) else tbl.index_of(c)
    if ci is None:
        raise ValueError("element outside the group")
    if ci == tbl.identity_index:
        raise ValueError("distance from the identity class is undefined")
    targets = frozenset(targets)
    normal = all(
        len(targets.intersection(ct.members(k))) in (0, ct.sizes[k])
        for k in range(ct.n_classes))
    gens = set()
    for x in ct.members(ct.class_of[ci]):
        gens.add(x)
        gens.add(tbl.inv(x))
    gens = sorted(gens)
    key = ct.class_of if normal else None
    layers = _bfs_layers(gens, _right_mul(tbl, gens), key)
    for level, layer in enumerate(layers, 1):
        if not targets.isdisjoint(layer):
            return level
    return None


class DistanceReport:
    """Per-class distances to a target set and their maximum."""

    def __init__(self, spec, rows, value, argmax):
        self.spec = spec
        self.rows = rows          # (class index, rep text, size, distance)
        self.value = value
        self.argmax = argmax

    def __repr__(self):
        return "DistanceReport(%r, value=%r)" % (self.spec, self.value)


def _rep_text(tbl, idx):
    el = tbl.decode(idx)
    return str(el) if isinstance(el, Perm) else el.to_text()


def d_inv(tbl):
    """max over nontrivial classes of the distance to the involution set.

    Defined for simple groups (the notion this measures assumes every
    class generates); asserts simplicity."""
    assert is_simple(tbl.spec), "%r is not simple" % tbl.spec
    ct = conjugacy_classes(tbl)
    targets = involution_indices(tbl)
    assert targets, "a nontrivial finite simple group has involutions only " \
                    "when |G| is even; none found"
    rows = []
    for k in range(ct.n_classes):
        if ct.reps[k] == tbl.identity_index:
            continue
        d = dist_to_set(tbl, ct.reps[k], targets)
        rows.append((k, _rep_text(tbl, ct.reps[k]), ct.sizes[k], d))
    value = max(r[3] for r in rows)
    argmax = [r[0] for r in rows if r[3] == value]
    return DistanceReport(tbl.spec, rows, value, argmax)


def d_proj_inv(tbl):
    """Per-class distance to the projective-involution set for a matrix
    group, skipping central classes (their closures never leave the
    center).  A None distance marks a class whose closure misses the
    set; value is then None as well."""
    assert tbl.spec.family in ("GL", "SL")
    ct = conjugacy_classes(tbl)
    targets = projective_involution_indices(tbl)
    rows = []
    for k in range(ct.n_classes):
        if tbl.decode(ct.reps[k]).is_scalar():
            continue
        d = dist_to_set(tbl, ct.reps[k], targets)
        rows.append((k, _rep_text(tbl, ct.reps[k]), ct.sizes[k], d))
    if any(r[3] is None for r in rows):
        value = None
        argmax = [r[0] for r in rows if r[3] is None]
    else:
        value = max(r[3] for r in rows)
        argmax = [r[0] for r in rows if r[3] == value]
    return DistanceReport(tbl.spec, rows, value, argmax)


# -- class product counts -------------------------------------------------


def class_product_count(tbl, class_reps, target, cross_check=False):
    """Exact number of tuples (x_1, ..., x_m), x_i in the class of
    class_reps[i], whose product equals the fixed element target.

    Counted by iterated class convolution: the count of products equal
    to a fixed element depends only on that element's class."""
    ct = conjugacy_classes(tbl)
    reps = [r if isinstance(r, int) else tbl.index_of(r) for r in class_reps]
    ti = target if isinstance(target, int) else tbl.index_of(target)
    if ti is None or any(r is None for r in reps):
        raise ValueError("element outside the group")
    counts = {k: 0 for k in range(ct.n_classes)}
    counts[ct.class_of[reps[0]]] = 1
    for r in reps[1:]:
        xs = ct.members(ct.class_of[r])
        xs_inv = [tbl.inv(x) for x in xs]
        new = {}
        for k in range(ct.n_classes):
            e_k = ct.reps[k]
            total = 0
            for xi in xs_inv:
                total += counts[ct.class_of[tbl.mul(e_k, xi)]]
            if total:
                new[k] = total
        counts = {k: new.get(k, 0) for k in range(ct.n_classes)}
    result = counts[ct.class_of[ti]]
    if cross_check:
        assert tbl.order <= 5000, "direct check is for small groups"
        acc = {x: 1 for x in ct.members(ct.class_of[reps[0]])}
        for r in reps[1:]:
            nxt = {}
            for x, cx in acc.items():
                for y in ct.members(ct.class_of[r]):
                    z = tbl.mul(x, y)
                    nxt[z] = nxt.get(z, 0) + cx
            acc = nxt
        assert acc.get(ti, 0) == result, (acc.get(ti, 0), result)
    return result


# -- orbital diameters ----------------------------------------------------


class OrbitalReport:
    def __init__(self, spec, orbital_diameters, class_diameters, matching,
                 orbdiam, d_t, lower_ok, upper_ok):
        self.spec = spec
        self.orbital_diameters = orbital_diameters
        self.class_diameters = class_diameters
        self.matching = matching
        self.orbdiam = orbdiam
        self.d_t = d_t
        self.lower_ok = lower_ok
        self.upper_ok = upper_ok
        self.ok = lower_ok and upper_ok

    def __repr__(self):
        return ("OrbitalReport(orbdiam=%d, d_t=%d, ok=%s)"
                % (self.orbdiam, self.d_t, self.ok))


def orbital_diameter_report(spec=None, bound_factor=72):
    """Orbital graphs of the square-with-swap action on T = Alt(5).

    The domain is identified with T: (u, v) acts by w -> u^-1 w v and the
    swap by w -> w^-1.  Point pairs split into orbitals; each nondiagonal
    orbital graph is checked to be the Cayley graph of a class closed
    under inversion, so the maximum orbital diameter sandwiches between
    half the class-graph diameter and bound_factor times it."""
    if spec is None:
        spec = GroupSpec("Alt", 5)
    tbl = build_group(spec)
    n = tbl.order
    e = tbl.identity_index
    inv_map = [tbl.inv(i) for i in range(n)]
    maps = [inv_map]
    for s in tbl.gens:
        si = tbl.inv(s)
        maps.append([tbl.mul(si, w) for w in range(n)])   # left by s^-1
        maps.append([tbl.mul(w, s) for w in range(n)])    # right by s
    # orbit partition of the n x n pairs
    orbital_of = [[-1] * n for _ in range(n)]
    orbitals = []
    for a in range(n):
        for b in range(n):
            if orbital_of[a][b] != -1:
                continue
            k = len(orbitals)
            pairs = [(a, b)]
            orbital_of[a][b] = k
            frontier = [(a, b)]
            while frontier:
                nxt = []
                for x, y in frontier:
                    for mp in maps:
                        p = (mp[x], mp[y])
                        if orbital_of[p[0]][p[1]] == -1:
                            orbital_of[p[0]][p[1]] = k
                            pairs.append(p)
                            nxt.append(p)
                frontier = nxt
            orbitals.append(pairs)
    ct = conjugacy_classes(tbl)
    # nondiagonal orbital edge sets, as undirected graphs
    orbital_diameters = {}
    orbital_edges = {}
    for k, pairs in enumerate(orbitals):
        if pairs[0][0] == pairs[0][1]:
            assert all(x == y for x, y in pairs)
            continue
        edges = {frozenset(p) for p in pairs}
        assert all(len(fs) == 2 for fs in edges)
        adj = [[] for _ in range(n)]
        for fs in edges:
            x, y = tuple(fs)
            adj[x].append(y)
            adj[y].append(x)
        layers = list(_bfs_layers([e], adj.__getitem__))
        assert sum(map(len, layers)) == n, "orbital graph must be connected"
        orbital_diameters[k] = len(layers) - 1
        orbital_edges[k] = edges
    # Cayley graphs of the nontrivial classes
    class_diameters = {}
    class_edges = {}
    for k in range(ct.n_classes):
        if ct.reps[k] == e:
            continue
        gens = set(ct.members(k)) | {tbl.inv(x) for x in ct.members(k)}
        layers = list(_bfs_layers([e], _right_mul(tbl, gens)))
        assert sum(map(len, layers)) == n
        class_diameters[k] = len(layers) - 1
        class_edges[k] = {frozenset((x, tbl.mul(x, a)))
                          for x in range(n) for a in gens}
    # each nondiagonal orbital graph must be one of the class graphs
    matching = {}
    for k, edges in orbital_edges.items():
        matches = [c for c, ce in class_edges.items() if ce == edges]
        assert len(matches) == 1, \
            "orbital %d matched classes %r" % (k, matches)
        matching[k] = matches[0]
    assert set(matching.values()) == set(class_edges), \
        "every nontrivial class graph should appear as an orbital graph"
    orbdiam = max(orbital_diameters.values())
    d_t = max(class_diameters.values())
    lower_ok = 2 * orbdiam >= d_t
    upper_ok = orbdiam <= bound_factor * d_t
    return OrbitalReport(spec, orbital_diameters, class_diameters, matching,
                         orbdiam, d_t, lower_ok, upper_ok)
