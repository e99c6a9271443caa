import hashlib
import itertools
import random
import subprocess
import sys
from pathlib import Path

import pytest

from invword.constructor import (Unreachable, construct_involution,
                                 witness_to_json)
from invword.matrix import GroupSpec, commutator
from invword.perm import Perm, alt_partner, a5_witness


def test_parse_and_print_roundtrip():
    g = Perm.from_cycles("(1,2,3)(4,5)", 6)
    assert str(g) == "(1,2,3)(4,5)"
    assert g(1) == 2 and g(3) == 1 and g(4) == 5 and g(6) == 6
    assert Perm.from_cycles("()", 4) == Perm.identity(4)
    assert str(Perm.identity(3)) == "()"


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        Perm.from_cycles("(1,2)(2,3)", 4)
    with pytest.raises(ValueError):
        Perm.from_cycles("(1,5)", 3)
    with pytest.raises(ValueError):
        Perm.from_cycles("1,2", 3)


def test_right_action_composition():
    # (gh)(x) = h(g(x))
    g = Perm.from_cycles("(1,2)", 3)
    h = Perm.from_cycles("(2,3)", 3)
    assert str(g * h) == "(1,3,2)"
    assert str(h * g) == "(1,2,3)"


def test_inverse_and_power():
    g = Perm.from_cycles("(1,2,3,4,5)", 5)
    assert g * g.inv() == Perm.identity(5)
    assert g ** 5 == Perm.identity(5)
    assert g ** -1 == g.inv()
    assert g.order() == 5


def test_inv_det_gives_the_sign():
    # det() is the sign, the determinant of the permutation matrix, and
    # inv() the inverse, as for a Mat
    for text, sign in (("()", 1), ("(1,2)", -1), ("(1,2,3)", 1),
                       ("(1,2,3,4)(5,6)", 1), ("(1,2,3,4)", -1)):
        g = Perm.from_cycles(text, 6)
        assert g.det() == g.inv().det() == sign
        assert g * g.inv() == g.inv() * g == Perm.identity(6)


def test_parity_and_cycle_type():
    assert Perm.from_cycles("(1,2)", 4).parity() == 1
    assert Perm.from_cycles("(1,2,3)", 4).parity() == 0
    assert Perm.from_cycles("(1,2)(3,4)", 4).parity() == 0
    assert Perm.from_cycles("(1,2,3,4)(5,6)", 7).cycle_type() == (4, 2, 1)


def test_conjugation_relabels_cycles():
    g = Perm.from_cycles("(1,2,3)", 5)
    h = Perm.from_cycles("(1,4)(2,5)", 5)
    assert h.inv() * g * h == Perm.from_cycles("(4,5,3)", 5)


def test_partner_four_cycle_frozen():
    g = Perm.from_cycles("(1,2,3,4)", 4)
    h = alt_partner(g)
    assert str(h) == "(1,4)(2,3)"
    assert str(commutator(g, h)) == "(1,3)(2,4)"


def test_partner_double_transposition_frozen():
    g = Perm.from_cycles("(1,2)(3,4)", 4)
    assert str(alt_partner(g)) == "(2,4,3)"


def test_partner_seven_cycle_frozen():
    g = Perm.from_cycles("(1,2,3,4,5,6,7)", 7)
    assert str(alt_partner(g)) == "(2,5)(3,6)"


def _all_cycle_types(n):
    def parts(rest, mx):
        if rest == 0:
            yield ()
            return
        for k in range(min(rest, mx), 0, -1):
            for tail in parts(rest - k, k):
                yield (k,) + tail
    return list(parts(n, n))


def _perm_of_type(typ):
    pts = iter(range(1, sum(typ) + 1))
    cycles = []
    for k in typ:
        c = [next(pts) for _ in range(k)]
        if k > 1:
            cycles.append(c)
    text = "".join("(%s)" % ",".join(map(str, c)) for c in cycles) or "()"
    return Perm.from_cycles(text, sum(typ))


def test_partner_every_type_through_degree_12():
    skipped = []
    for n in range(4, 13):
        for typ in _all_cycle_types(n):
            g = _perm_of_type(typ)
            if g.is_identity():
                continue
            if n == 5 and typ == (5,):
                with pytest.raises(ValueError):
                    alt_partner(g)
                skipped.append(typ)
                continue
            h = alt_partner(g)
            assert h.parity() == 0
            x = commutator(g, h)
            assert x.order() == 2
    assert skipped == [(5,)]


# sha256 over alt_partner's answer (the partner's text, or the name of the
# exception raised) for every cycle type of degree 2..12 and one seeded
# conjugate of each: 540 inputs, the table's rows and every refusal
PINNED_PARTNER_SHA256 = ("f52e3bcb361204182677cf9c5168a670"
                         "e5902c6db59724d405d922f33b6dceae")


def alt_partner_digest():
    rng = random.Random(12)
    h = hashlib.sha256()
    for n in range(2, 13):
        for typ in _all_cycle_types(n):
            g = _perm_of_type(typ)
            images = list(range(n))
            rng.shuffle(images)
            c = Perm(images)
            for x in (g, c.inv() * g * c):
                try:
                    out = str(alt_partner(x))
                except (ValueError, RuntimeError) as e:
                    out = type(e).__name__
                h.update(("%r | %s\n" % (x, out)).encode())
    return h.hexdigest()


def test_pinned_alt_partner():
    assert alt_partner_digest() == PINNED_PARTNER_SHA256


# sha256 over the witness for each of g and g^3, g of each cycle type of
# degree 2..10 in Alt and in Sym, one line each: the record and the
# certificate, the ValueError for the identity and an odd g in Alt, or the
# Unreachable and its certificate for degrees below 4 (548 lines)
PINNED_ALT_SYM_SHA256 = ("983f88fe362f25f56410f5c43ed6b410"
                         "225a8056843f8098de922265ed189a15")


def test_pinned_alt_sym_witness_bytes():
    h = hashlib.sha256()
    count = 0
    for family in ("Alt", "Sym"):
        for n in range(2, 11):
            for typ in _all_cycle_types(n):
                g = _perm_of_type(typ)
                for x in (g, g ** 3):
                    try:
                        w = construct_involution(x, GroupSpec(family, n))
                        line = "%s %r" % (witness_to_json(w), w.certificate)
                    except ValueError as e:
                        line = "ValueError: %s" % e
                    except Unreachable as e:
                        line = "Unreachable: %s | %r" % (e, e.certificate)
                    h.update(line.encode() + b"\n")
                    count += 1
    assert count == 548
    assert h.hexdigest() == PINNED_ALT_SYM_SHA256


def test_no_witness_below_degree_four():
    # Alt(n) has odd order for n <= 3, so no product of conjugates reaches
    # an even involution: every element that is not the identity raises
    # Unreachable
    raised = 0
    for family, n, order in (("Sym", 2, 2), ("Alt", 3, 3), ("Sym", 3, 6)):
        for images in itertools.permutations(range(n)):
            g = Perm(images)
            if g.is_identity() or (family == "Alt" and g.parity()):
                continue
            with pytest.raises(Unreachable) as ei:
                construct_involution(g, GroupSpec(family, n))
            assert ei.value.certificate == {
                "group_order": order, "even_involution_classes_in_group": 0}
            raised += 1
    assert raised == 1 + 2 + 5


def test_no_partner_possible_below_degree_four():
    # A_2 and A_3 contain no involutions, so no commutator can be one.
    for n in (2, 3):
        for images in itertools.permutations(range(n)):
            g = Perm(images)
            if g.is_identity():
                continue
            for h_images in itertools.permutations(range(n)):
                h = Perm(h_images)
                if h.parity() != 0:
                    continue
                x = commutator(g, h)
                assert not (not x.is_identity() and (x * x).is_identity())
            with pytest.raises(ValueError):
                alt_partner(g)


def test_partner_respects_conjugacy():
    g = Perm.from_cycles("(2,7,3,9)(1,5)(4,8)", 9)
    h = alt_partner(g)
    x = commutator(g, h)
    assert x.order() == 2 and h.parity() == 0


def test_a5_witness_length_three():
    g = Perm.from_cycles("(1,2,3,4,5)", 5)
    steps, target, cert = a5_witness(g)
    assert len(steps) == 3
    acc = Perm.identity(5)
    for c, e in steps:
        assert c.parity() == 0
        acc = acc * (c * (g if e == 1 else g.inv()) * c.inv())
    assert acc == target
    assert target.order() == 2 and target.parity() == 0
    assert cert["no_witness_of_length"] == 2
    assert cert["class_inverse_closed"] is True
    assert cert["products_checked"] > 0


PERM_CHECKS = """
import invword.perm as P
from invword.perm import Perm, a5_witness, alt_partner

def odd_partner():
    # every permutation counted as odd: the partner of (1,2,3,4)(5,6) has
    # an involution as commutator, so only the parity check refuses it
    P.Perm.parity = lambda self: 1
    return alt_partner(Perm.from_cycles("(1,2,3,4)(5,6)", 6))

def even_everything():
    P.Perm.parity = lambda self: 0
    return a5_witness(Perm.from_cycles("(1,2,3,4,5)", 5))

cases = [
    ("repeated image", lambda: Perm([0, 0, 1])),
    ("missing image", lambda: Perm([0, 2])),
    ("degrees differ", lambda: Perm.identity(3) * Perm.identity(4)),
    ("a5 input", lambda: a5_witness(Perm.from_cycles("(1,2,3)", 5))),
    ("partner table", odd_partner),
    ("a5 certificate", even_everything),
]
for name, f in cases:
    try:
        f()
        print(name, "| returned")  # never format what came back
    except Exception as e:
        print(name, "|", type(e).__name__)
"""


def test_perm_checks_raise_under_optimize():
    # bad input raises ValueError and a broken self-check RuntimeError, also
    # under python -O.  With every permutation counted as odd the partner
    # table's parity check refuses its partner, and with every permutation
    # counted as even the class of a 5-cycle becomes all 24 5-cycles, two
    # of which multiply to an involution
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-O", "-c", PERM_CHECKS],
                         env={"PYTHONPATH": src}, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    got = dict(line.split(" | ") for line in out.stdout.strip().splitlines())
    assert got == {"repeated image": "ValueError", "missing image": "ValueError",
                   "degrees differ": "ValueError", "a5 input": "ValueError",
                   "partner table": "RuntimeError",
                   "a5 certificate": "RuntimeError"}
