"""Answer checks and the values the oracle queries must reproduce.

A witness is re-checked from its serialized form, never from the object
the constructor returned: ``witness_to_json`` -> ``witness_from_json`` ->
``replay(...).ok``, plus the length cap and the claim that it is a witness
for the element that was asked about.  The oracle values are those pinned
by the acceptance tests (criteria 2 and 4 to 8); where a criterion pins
only a cap, the exact value the program computes is pinned here as well.
"""

import invword
from invword.constructor import MAX_WITNESS_LEN

# criterion 2 (Alt), criterion 4 (PSL(2, q): at most 3 for odd q, at most 12)
D_INV = {"Alt5": 3, "Alt6": 2, "Alt7": 2, "Alt8": 2,
         "PSL5": 3, "PSL7": 2, "PSL8": 3, "PSL9": 2, "PSL11": 2}
# the per-class survey maxima behind the CLI survey defaults for sl2, sl3
D_PROJ_INV = {"2,5": 3, "2,7": 2, "3,2": 2, "3,3": 3}
# criterion 6; "o" is an envelope the scan may come in under
BOUNDS_EXCEPTIONS = {
    "gl-mn": frozenset(),
    "gl-m1": frozenset(),
    "gu-i": frozenset({(7, 2), (5, 3), (4, 5), (4, 4)}),
    "gu-ii": frozenset({(4, 4), (4, 5), (4, 7), (5, 3), (7, 2)}),
    "sp-odd": frozenset({(2, 3)}),
    "sp-even": frozenset({(2, 2), (3, 2)}),
    "o": frozenset({(7, 3), (8, 2), (8, 3)}),
}

ROUTES = ("sl2-unipotent", "sl2-square", "sl2-commutator", "sl2-twist",
          "sl2-antidiagonal", "sl2-char2", "m1-reduction", "mn-reduction",
          "m2-reduction", "descent", "reseed", "bfs", "sampled",
          "alt-partner", "a5-search")


def route_of(case):
    """Route of a step label; descended steps read "descent/<inner>"."""
    return case.split("/", 1)[0]


def witness_problem(w, g):
    """None if w is a valid witness for g, else what is wrong with it."""
    w2 = invword.witness_from_json(invword.witness_to_json(w))
    if w2.g != g or w2.spec != w.spec:
        return "witness is for another element"
    if w2.length > MAX_WITNESS_LEN:
        return "length %d exceeds %d" % (w2.length, MAX_WITNESS_LEN)
    rep = invword.replay(w2)
    if not rep.ok:
        return "replay: %s" % rep.violation
    return None
