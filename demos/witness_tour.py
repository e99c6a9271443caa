"""Walk the 2x2 trace rule (the shortest word g (k g^e k^-1)^m, k a
transvection, of trace 0) and the commutator restart, which answers every
larger element, through the constructor and print each resulting word.
The restart takes one of two partners.  For even q the involution
partner's commutator is itself the target, so the witness has 2 steps.
Otherwise the plane partner's commutator moves only a plane: the trace-0
plane (odd q, g not quadratic) gives 4 steps, and a quadratic g scales its
partner to the best plane the field offers, at most 8 steps.  An input
that is already a projective involution is its own 1-step witness.

Every witness is a sequence of steps (c, e): the product of c g^e c^-1
over the steps equals the recorded target, a non-scalar matrix squaring
to plus or minus the identity."""

from invword.canonical import companion, gen_jordan_block
from invword.constructor import construct_involution, replay, witness_to_json
from invword.gf import irreducible_polys, make_field
from invword.matrix import GroupSpec, Mat


def tour(tag, g, spec):
    w = construct_involution(g, spec)
    rep = replay(w)
    routes = sorted({s.case for s in w.steps})
    print("=" * 64)
    print("%s  (%s)" % (tag, ", ".join(routes)))
    print("g =")
    print(g)
    print("length %d, net exponent %+d, replay %s"
          % (w.length, w.net_exponent, "ok" if rep.ok else rep.violation))
    print("target =")
    print(w.target)
    t2 = w.target * w.target
    print("target^2 is %sI" % ("-" if t2[0, 0] != 1 else ""))


ctx5 = make_field(5)
ctx7 = make_field(7)
ctx2 = make_field(2)

tour("2x2 of trace 0", Mat(ctx5, [[2, 0], [0, 3]]), GroupSpec("SL", 2, 5))
tour("2x2 unipotent", Mat(ctx5, [[1, 1], [0, 1]]), GroupSpec("SL", 2, 5))
tour("2x2 pulled back from a commutator", Mat(ctx7, [[2, 1], [0, 4]]),
     GroupSpec("SL", 2, 7))

f = next(f for f in irreducible_polys(ctx5, 3) if f[0] == ctx5.neg(1))
tour("irreducible companion 3x3 (trace-0 partner)", companion(ctx5, f), GroupSpec("SL", 3, 5))

tour("scaled regular unipotent (trace-0 partner)",
     Mat(ctx5, [[2, 2, 0, 0], [0, 2, 2, 0], [0, 0, 2, 2], [0, 0, 0, 2]]),
     GroupSpec("SL", 4, 5))

f = next(iter(irreducible_polys(ctx2, 2)))
tour("quadratic block over GF(2), multiplicity 3 (involution partner)",
     gen_jordan_block(ctx2, f, 3), GroupSpec("SL", 6, 2))

tour("quadratic J2(1) + J2(1) (scaled plane partner)",
     Mat(ctx5, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]),
     GroupSpec("SL", 4, 5))

tour("block diagonal, already a projective involution",
     Mat(ctx5, [[2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]]),
     GroupSpec("SL", 4, 5))

print("=" * 64)
print("witness JSON for the first example:")
print(witness_to_json(construct_involution(Mat(ctx5, [[2, 0], [0, 3]]),
                                           GroupSpec("SL", 2, 5))))
