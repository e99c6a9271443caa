"""Command-line frontend.

Subcommands: construct (witness JSON for one element), verify (replay a
witness file), survey (per-class distance tables), charsum (six-fold
class-product positivity), bounds (inequality scans as CSV), orbdiam
(pair-action diameter sandwich).  Exit codes: 0 all checks passed, 1 a
mathematical check failed, 2 usage or input error.
"""

import argparse
import sys

from .bounds import FAMILIES as BOUND_FAMILIES
from .bounds import STATED_EXCEPTIONS, scan, scan_matches_statement
from .constructor import (Unreachable, construct_involution, find_partner,
                          replay, witness_from_json, witness_to_json)
from .gf import UnsupportedField, make_field
from .matrix import GroupSpec, Mat, commutator, parse_mat
from .oracle import (GroupTooLarge, build_group, class_product_count,
                     conjugacy_classes, d_inv, d_proj_inv,
                     orbital_diameter_report)
from .perm import Perm


def _int_list(text):
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers")


def _int_range(text):
    try:
        if ".." in text:
            a, b = text.split("..")
            lo, hi = int(a), int(b)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected N or A..B")
    if hi < lo:
        raise argparse.ArgumentTypeError("empty range")
    return list(range(lo, hi + 1))


def _cmd_construct(args):
    matrix = args.group in ("sl", "gl")
    if matrix and (args.q is None or args.matrix is None):
        print("construct: matrix groups need --q and --matrix",
              file=sys.stderr)
        return 2
    if not matrix and args.perm is None:
        print("construct: permutation groups need --perm", file=sys.stderr)
        return 2
    try:
        if matrix:
            g = parse_mat(make_field(args.q), args.matrix)
            spec = GroupSpec(args.group.upper(), args.n, args.q)
            if g.n != args.n:
                raise ValueError("matrix size does not match --n")
        else:
            g = Perm.from_cycles(args.perm, args.n)
            spec = GroupSpec(args.group.capitalize(), args.n)
        w = construct_involution(g, spec)
    except Unreachable as u:
        print('{"unreachable":true}')
        print("no witness exists: %s" % u, file=sys.stderr)
        return 1
    except ValueError as e:
        print("construct: %s" % e, file=sys.stderr)
        return 2
    print(witness_to_json(w))
    return 0


def _cmd_verify(args):
    try:
        with open(args.witness) as fh:
            text = fh.read()
        w = witness_from_json(text)
    except (OSError, ValueError) as e:
        print("verify: %s" % e, file=sys.stderr)
        return 2
    rep = replay(w)
    if rep.ok:
        print("ok length=%d net=%+d" % (rep.length, rep.net_exponent))
        return 0
    print("violation %s" % rep.violation)
    return 1


# survey family -> (GroupSpec family, fixed n or None, default list): the
# list runs over n when n is not fixed (Alt), else over q
_SURVEYS = {"alt": ("Alt", None, range(5, 9)),
            "psl2": ("PSL", 2, [5, 7, 8, 9, 11]),
            "sl2": ("SL", 2, [5, 7]), "sl3": ("SL", 3, [2, 3])}


def _survey_rows(args):
    family, n, default = _SURVEYS[args.family]
    given = args.n if n is None else args.q
    for k in default if given is None else given:
        spec = GroupSpec(family, k) if n is None else GroupSpec(family, n, k)
        tbl = build_group(spec)
        rep = d_proj_inv(tbl) if family == "SL" else d_inv(tbl)
        for _, text, size, dist in rep.rows:
            yield (args.family, spec.n, "-" if spec.q is None else spec.q,
                   text, size, dist, rep.value)


def _cmd_survey(args):
    print("family\tn\tq\trep\tsize\tdist\td_max")
    try:
        for row in _survey_rows(args):
            print("\t".join(str(x) for x in row))
    except (GroupTooLarge, ValueError) as e:
        print("survey: %s" % e, file=sys.stderr)
        return 2
    return 0


def _cmd_charsum(args):
    code = 0
    print("q\trep\tcount")
    for q in args.q:
        if q % 2 == 0:
            print("charsum: q must be odd (got %d)" % q, file=sys.stderr)
            return 2
        try:
            tbl = build_group(GroupSpec("SL", 2, q))
        except (GroupTooLarge, UnsupportedField) as e:
            print("charsum: %s" % e, file=sys.stderr)
            return 2
        ct = conjugacy_classes(tbl)
        ctx = tbl.ctx
        minus = tbl.index_of(Mat.scalar(ctx, 2, ctx.neg(1)))
        for k in range(ct.n_classes):
            g = tbl.decode(ct.reps[k])
            if g.is_scalar():
                continue
            x = commutator(g, find_partner(g))
            xi = tbl.index_of(x)
            cnt = class_product_count(tbl, [xi] * 6, minus)
            print("%d\t%s\t%d" % (q, g.to_text(), cnt))
            if cnt == 0:
                code = 1
    return code


def _cmd_bounds(args):
    checks, exceptions = scan(args.family, args.nmax, args.qmax)
    print("family,params,numerator,denominator,verdict")
    for c in checks:
        params = ":".join(str(p) for p in c.params)
        print("%s,%s,%d,%d,%s" % (c.family, params, c.value.numerator,
                                  c.value.denominator,
                                  "ok" if c.ok else "FAIL"))
    if args.family == "gu-ii":
        return 0   # no printed list to hold it to
    return 0 if scan_matches_statement(args.family, args.nmax, args.qmax) \
        else 1


def _cmd_orbdiam(_args):
    rep = orbital_diameter_report()
    print("orbdiam=%d d_t=%d half_lower=%s upper_72x=%s"
          % (rep.orbdiam, rep.d_t, rep.lower_ok, rep.upper_ok))
    return 0 if rep.ok else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="invword",
        description="involution witness words and class-graph distance "
                    "checks in small classical and alternating groups")
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("construct", help="witness for one group element")
    c.add_argument("--group", required=True,
                   choices=["sl", "gl", "sym", "alt"])
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--q", type=int)
    c.add_argument("--matrix", help='rows "a,b;c,d" over GF(q)')
    c.add_argument("--perm", help='cycles "(1,2,3)(4,5)"')
    c.set_defaults(fn=_cmd_construct)

    v = sub.add_parser("verify", help="replay a witness JSON file")
    v.add_argument("--witness", required=True)
    v.set_defaults(fn=_cmd_verify)

    s = sub.add_parser("survey", help="per-class distance table (TSV)")
    s.add_argument("--family", required=True, choices=list(_SURVEYS))
    s.add_argument("--n", type=_int_range, help="A..B (alt only)")
    s.add_argument("--q", type=_int_list, help="comma list of field sizes")
    s.set_defaults(fn=_cmd_survey)

    h = sub.add_parser("charsum",
                       help="six-fold class product counts hitting -I")
    h.add_argument("--q", type=_int_list, default=[5, 7, 9, 11])
    h.set_defaults(fn=_cmd_charsum)

    b = sub.add_parser("bounds", help="inequality scan (CSV)")
    b.add_argument("--family", required=True, choices=list(BOUND_FAMILIES))
    b.add_argument("--nmax", type=int, default=12)
    b.add_argument("--qmax", type=int, default=16)
    b.set_defaults(fn=_cmd_bounds)

    o = sub.add_parser("orbdiam", help="pair-action diameter sandwich")
    o.set_defaults(fn=_cmd_orbdiam)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
