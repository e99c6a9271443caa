"""Seeded inputs for the benchmark workloads.

Everything here runs in the orchestrating process, never in the process
that is measured: building the class transversal fills the program's
irreducible-polynomial cache, and the measured process must pay that fill
itself.  Inputs travel to the measured process as JSON text (matrices in
the row text form that ``parse_mat`` reads, permutations in cycle form).
"""

import hashlib
import json
import random

from invword import Mat, Perm, class_transversal, make_field
from invword.constructor import EXCLUDED_PAIRS

ACCEPTANCE_GRID = [(2, 4), (2, 5), (2, 7), (2, 8), (2, 9), (3, 3), (3, 5),
                   (4, 4)]
CLASSES_GRID = ACCEPTANCE_GRID + sorted(EXCLUDED_PAIRS)
RANDOM_GRID = ([(n, 3) for n in range(4, 10)] + [(n, 5) for n in range(4, 7)]
               + [(n, 7) for n in range(4, 6)])
# sl-random draws one element per grid cell per round, cells in seeded
# order within each round, so every run holds the same mix of (n, q)
RANDOM_ROUNDS = 40

SURVEY_ALT = (5, 6, 7, 8)
SURVEY_PSL2 = (5, 7, 8, 9, 11)
SURVEY_PROJ = ((2, 5), (2, 7), (3, 2), (3, 3))
SURVEY_CHARSUM = (5, 7, 9, 11)
SURVEY_BOUNDS = ("gl-mn", "gl-m1", "gu-i", "gu-ii", "sp-odd", "sp-even", "o")
SURVEY_WITNESS_SL2 = (5, 7)


def random_sl(ctx, n, rng):
    """Uniform element of SL(n, q): a uniform invertible matrix with its
    first row scaled by det^-1 (each SL element has q - 1 preimages)."""
    while True:
        rows = [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(n)]
        d = Mat(ctx, rows).det()
        if d:
            break
    inv_d = ctx.inv(d)
    rows[0] = [ctx.mul(inv_d, x) for x in rows[0]]
    return Mat(ctx, rows)


def _conjugate(g, c):
    return c * g * c.inv()


def _sl_classes(rng):
    """Cells in grid order (as in the acceptance sweep), elements of a
    cell in seeded order, each conjugated by a uniform random element."""
    items = []
    for n, q in CLASSES_GRID:
        ctx = make_field(q)
        cell = [{"kind": "sl", "n": n, "q": q,
                 "g": _conjugate(g, random_sl(ctx, n, rng)).to_text()}
                for g, _ in class_transversal(ctx, n)]
        rng.shuffle(cell)
        items += cell
    return items


def _sl_random(rng):
    items = []
    cells = list(RANDOM_GRID)
    for _ in range(RANDOM_ROUNDS):
        rng.shuffle(cells)
        for n, q in cells:
            ctx = make_field(q)
            g = random_sl(ctx, n, rng)
            while g.is_scalar():
                g = random_sl(ctx, n, rng)
            items.append({"kind": "sl", "n": n, "q": q, "g": g.to_text()})
    return items


def _even_cycle_types(n):
    def parts(rest, mx):
        if rest == 0:
            yield []
            return
        for p in range(min(rest, mx), 0, -1):
            for tail in parts(rest - p, p):
                yield [p] + tail
    for typ in parts(n, n):
        if typ[0] > 1 and sum(c - 1 for c in typ) % 2 == 0:
            yield typ


def _perm_of_type(typ, n):
    text, start = "", 1
    for length in typ:
        if length > 1:
            text += "(%s)" % ",".join(str(p) for p in
                                      range(start, start + length))
        start += length
    return Perm.from_cycles(text, n)


def _survey(rng):
    """The 31 oracle queries in a fixed order that deals the seven kinds out
    in turn, so that cheap and costly queries are spread over the pass.
    The queries are fixed: the seed does not change them, so the spread
    between runs is the machine's alone (with seeded conjugates, which
    queries sit next to the median moved from seed to seed)."""
    groups = [
        [{"kind": "d_inv", "family": "Alt", "n": n} for n in SURVEY_ALT],
        [{"kind": "d_inv", "family": "PSL", "n": 2, "q": q}
         for q in SURVEY_PSL2],
        [{"kind": "d_proj_inv", "n": n, "q": q} for n, q in SURVEY_PROJ],
        [{"kind": "charsum", "q": q} for q in SURVEY_CHARSUM],
        [{"kind": "orbdiam"}],
        [{"kind": "bounds", "family": f} for f in SURVEY_BOUNDS],
        [{"kind": "witness_dist", "family": "SL", "n": 2, "q": q,
          "reps": [g.to_text() for g, _ in class_transversal(make_field(q), 2)]}
         for q in SURVEY_WITNESS_SL2]
        + [{"kind": "witness_dist", "family": "Alt", "n": n,
            "reps": [str(_perm_of_type(t, n)) for t in _even_cycle_types(n)]}
           for n in SURVEY_ALT],
    ]
    items = []
    for i in range(max(len(g) for g in groups)):
        items += [g[i] for g in groups if i < len(g)]
    return items


GENERATORS = {"sl-classes": _sl_classes, "sl-random": _sl_random,
              "oracle-survey": _survey}


def make_inputs(workload, seed):
    """(items, digest): the workload's operations for this seed, each with
    an id, and a digest that shows two runs measured the same inputs."""
    items = GENERATORS[workload](random.Random("%s/%d" % (workload, seed)))
    for i, item in enumerate(items):
        item["id"] = i
    text = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return items, hashlib.sha256(text.encode()).hexdigest()[:16]


def fields_of(items):
    """Field orders the workload's inputs live over (for set-up timing)."""
    return sorted({it["q"] for it in items if "q" in it})
