"""Acceptance gate: one test per stated criterion, one printed verdict
line each (run with -s to see them inline).

Known honest negative, documented rather than papered over: the order-3
class of SL(2,2) has no witness at all; its class closure is the cyclic
subgroup of order 3, which contains no involution.  The constructor
certifies this by exhaustive enumeration of the 6-element group, and
criterion 1 accepts exactly that one Unreachable with its certificate.
"""

import time

from invword.bounds import scan, scan_matches_statement
from invword.canonical import _partitions, class_transversal
from invword.constructor import (MAX_WITNESS_LEN, Unreachable,
                                 construct_involution, find_partner, replay)
from invword.gf import make_field
from invword.matrix import GroupSpec, Mat, commutator
from invword.oracle import (build_group, class_product_count,
                            conjugacy_classes, d_inv, dist_to_set,
                            orbital_diameter_report,
                            projective_involution_indices)
from invword.perm import Perm, alt_partner

GRID = [(2, 4), (2, 5), (2, 7), (2, 8), (2, 9), (3, 3), (3, 5), (4, 4)]
EXCLUDED = [(2, 2), (2, 3), (3, 2), (3, 4), (4, 2), (4, 3)]


def _report(num, name, ok, detail):
    line = "criterion %d (%s): %s [%s]" % (
        num, name, "PASS" if ok else "FAIL", detail)
    print(line, flush=True)
    assert ok, line


def test_criterion_1_constructor_soundness_sweep():
    t0 = time.time()
    reps = 0
    worst = 0
    unreachable = []
    for n, q in GRID + EXCLUDED:
        spec = GroupSpec("SL", n, q)
        ctx = make_field(q)
        for g, struct in class_transversal(ctx, n):
            reps += 1
            try:
                w = construct_involution(g, spec)
            except Unreachable as u:
                unreachable.append(((n, q), struct, u.certificate))
                continue
            rep = replay(w)
            assert rep.ok, ((n, q), struct, rep.violation)
            assert w.length <= MAX_WITNESS_LEN, ((n, q), struct, w.length)
            worst = max(worst, w.length)
    elapsed = time.time() - t0
    # the lone certified impossibility: SL(2,2), order-3 class
    ok = (len(unreachable) == 1 and unreachable[0][0] == (2, 2)
          and unreachable[0][2]["involution_classes_in_group"] == 1
          and worst <= MAX_WITNESS_LEN and elapsed < 300)
    _report(1, "constructor soundness sweep", ok,
            "%d pairs, %d reps, %d certified unreachable, worst len %d, "
            "%.1fs < 300s" % (len(GRID + EXCLUDED), reps, len(unreachable),
                              worst, elapsed))


def test_criterion_2_alternating_distance_values():
    t0 = time.time()
    values = {n: d_inv(build_group(GroupSpec("Alt", n))).value
              for n in (5, 6, 7, 8)}
    elapsed = time.time() - t0
    ok = values == {5: 3, 6: 2, 7: 2, 8: 2} and elapsed < 600
    _report(2, "alternating involution distances", ok,
            "d=%s, %.1fs < 600s" % (values, elapsed))


def _perm_of_type(typ, n):
    cycles = []
    next_pt = 1
    for length in typ:
        cycles.append(tuple(range(next_pt, next_pt + length)))
        next_pt += length
    text = "".join("(%s)" % ",".join(str(p) for p in c)
                   for c in cycles if len(c) > 1)
    return Perm.from_cycles(text or "()", n)


def test_criterion_3_partner_table_totality():
    t0 = time.time()
    checked = 0
    for n in range(2, 13):
        for typ in _partitions(n):
            typ = tuple(sorted(typ, reverse=True))
            if all(c == 1 for c in typ):
                continue
            g = _perm_of_type(typ, n)
            if n < 4 or (n == 5 and typ == (5,)):
                continue
            h = alt_partner(g)
            x = commutator(g, h)
            assert h.parity() == 0 and x.order() == 2, (n, typ)
            checked += 1
    # the A5 5-cycle, handled by search with a no-shorter-word certificate
    w = construct_involution(Perm.from_cycles("(1,2,3,4,5)", 5),
                             GroupSpec("Alt", 5))
    cert_ok = (w.length == 3
               and w.certificate["no_witness_of_length"] == 2)
    elapsed = time.time() - t0
    ok = checked > 0 and cert_ok and elapsed < 60
    _report(3, "partner table totality through degree 12", ok,
            "%d cycle types, a5 length-3 with minimality certificate, "
            "%.1fs < 60s" % (checked, elapsed))


def test_criterion_4_psl2_distance_caps():
    t0 = time.time()
    values = {}
    for q in (5, 7, 8, 9, 11):
        values[q] = d_inv(build_group(GroupSpec("PSL", 2, q))).value
    elapsed = time.time() - t0
    ok = (all(v <= 12 for v in values.values())
          and all(values[q] <= 3 for q in (5, 7, 9, 11))
          and elapsed < 120)
    _report(4, "psl2 involution distance caps", ok,
            "d=%s, %.1fs < 120s" % (values, elapsed))


def test_criterion_5_sixfold_product_positivity():
    t0 = time.time()
    least = None
    for q in (5, 7, 9, 11):
        tbl = build_group(GroupSpec("SL", 2, q))
        ctx = tbl.ctx
        minus = tbl.index_of(Mat.scalar(ctx, 2, ctx.neg(1)))
        for g, _ in class_transversal(ctx, 2):
            x = commutator(g, find_partner(g))
            cnt = class_product_count(tbl, [tbl.index_of(x)] * 6, minus)
            least = cnt if least is None else min(least, cnt)
    elapsed = time.time() - t0
    ok = least is not None and least > 0 and elapsed < 120
    _report(5, "six-fold class product positivity", ok,
            "least count %d > 0, %.1fs < 120s" % (least, elapsed))


def test_criterion_6_bound_exception_sets():
    t0 = time.time()
    verdicts = {fam: scan_matches_statement(fam)
                for fam in ("gl-mn", "gl-m1", "gu-i", "sp-odd", "sp-even",
                            "o")}
    _, gu_i_exc = scan("gu-i")
    elapsed = time.time() - t0
    ok = all(verdicts.values()) and elapsed < 60
    _report(6, "bound exception sets", ok,
            "families ok=%s, gu-i exceptions %s, %.1fs < 60s"
            % (sorted(verdicts), sorted(gu_i_exc), elapsed))


def test_criterion_7_orbital_diameter_sandwich():
    t0 = time.time()
    rep = orbital_diameter_report()
    elapsed = time.time() - t0
    ok = rep.ok and rep.d_t == 3 and elapsed < 120
    _report(7, "orbital diameter sandwich at k=2", ok,
            "orbdiam=%d, d_t=%d, half lower and 72x upper hold, %.1fs < 120s"
            % (rep.orbdiam, rep.d_t, elapsed))


def test_criterion_8_witness_length_vs_bfs_distance():
    t0 = time.time()
    pairs = 0
    for q in (5, 7):
        tbl = build_group(GroupSpec("SL", 2, q))
        targets = projective_involution_indices(tbl)
        for g, _ in class_transversal(make_field(q), 2):
            w = construct_involution(g, GroupSpec("SL", 2, q))
            d = dist_to_set(tbl, tbl.index_of(g), targets)
            assert w.length >= d, (q, g.to_text(), w.length, d)
            pairs += 1
    elapsed = time.time() - t0
    ok = pairs > 0 and elapsed < 300
    _report(8, "witness length bounded below by search distance", ok,
            "%d class reps compared, %.1fs < 300s" % (pairs, elapsed))
