"""Spans around the program's public functions, installed from outside.

``Tracer.install()`` replaces every binding of each traced function in the
loaded ``invword`` modules (``from ... import`` copies included) with a
wrapper, and patches ``Mat.__mul__``, ``Mat.inv`` and ``Mat.det`` on the
class.  Each call records a span (name, start, end, parent span, operation
id) in compact in-memory arrays; per-name call counts, self time (duration
minus the time covered by child spans) and raised-exception counts are
kept as the spans close.  ``write_spans`` dumps the spans when the run ends.
"""

import importlib
import sys
import time
from array import array

# layer -> [(metric name, module, attribute)]; an attribute "Mat.x" is a
# method patched on the class
TRACED = {
    "gf": [("make_field", "gf", "make_field"),
           ("make_extension", "gf", "make_extension"),
           ("irreducible_polys", "gf", "irreducible_polys"),
           ("poly_is_irreducible", "gf", "poly_is_irreducible")],
    "matrix": [("mat_mul", "matrix", "Mat.__mul__"),
               ("mat_inv", "matrix", "Mat.inv"),
               ("mat_det", "matrix", "Mat.det"),
               ("classify", "matrix", "classify"),
               ("nullspace", "matrix", "nullspace")],
    "canonical": [(f, "canonical", f) for f in (
        "charpoly", "factor_charpoly", "generalized_jordan",
        "solve_similarity", "split_decomposable", "class_transversal")],
    "perm": [("alt_partner", "perm", "alt_partner"),
             ("a5_witness", "perm", "a5_witness")],
    "constructor": [(f, "constructor", f) for f in (
        "construct_involution", "replay", "brute_force_witness",
        "find_partner", "witness_to_json", "witness_from_json")],
    "oracle": [(f, "oracle", f) for f in (
        "build_group", "conjugacy_classes", "dist_to_set",
        "class_product_count", "d_inv", "d_proj_inv",
        "orbital_diameter_report", "involution_indices",
        "projective_involution_indices")],
    "bounds": [("scan", "bounds", "scan")],
}
LAYERS = list(TRACED)
SPAN_NAMES = ["%s.%s" % (layer, name)
              for layer, fns in TRACED.items() for name, _, _ in fns]


class Tracer:
    def __init__(self):
        self.calls = [0] * len(SPAN_NAMES)
        self.self_s = [0.0] * len(SPAN_NAMES)
        self.raised = [0] * len(SPAN_NAMES)
        self.op = -1                 # id of the operation being run
        self._stack = []             # [span index, name id, start, child s]
        self._name = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._op = array("i")

    def _wrap(self, nid, fn):
        clock = time.perf_counter
        stack = self._stack
        names, starts, ends = self._name, self._start, self._end
        parents, ops = self._parent, self._op
        calls, self_s, raised = self.calls, self.self_s, self.raised

        def traced(*args, **kwargs):
            idx = len(starts)
            parents.append(stack[-1][0] if stack else -1)
            names.append(nid)
            ops.append(self.op)
            ends.append(0.0)
            frame = [idx, nid, 0.0, 0.0]
            stack.append(frame)
            frame[2] = start = clock()
            starts.append(start)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[nid] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                ends[idx] = end
                dur = end - start
                calls[nid] += 1
                self_s[nid] += dur - frame[3]
                if stack:
                    stack[-1][3] += dur

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "invword" or name.startswith("invword.")]
        nid = 0
        for fns in TRACED.values():
            for _, modname, attr in fns:
                mod = importlib.import_module("invword." + modname)
                if attr.startswith("Mat."):
                    meth = attr[4:]
                    setattr(mod.Mat, meth, self._wrap(nid, vars(mod.Mat)[meth]))
                else:
                    orig = getattr(mod, attr)
                    wrapper = self._wrap(nid, orig)
                    for m in modules:
                        for key, val in list(vars(m).items()):
                            if val is orig:
                                setattr(m, key, wrapper)
                nid += 1

    def in_package_s(self):
        """Total time spent inside traced top-level spans."""
        return sum(e - s for s, e, p in zip(self._start, self._end,
                                            self._parent) if p == -1)

    def n_spans(self):
        return len(self._start)

    def write_spans(self, path):
        """Tab-separated: span index, name, start, end, parent, op id."""
        with open(path, "w") as fh:
            fh.write("span\tname\tstart\tend\tparent\top\n")
            for i in range(len(self._start)):
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n" % (
                    i, SPAN_NAMES[self._name[i]], self._start[i],
                    self._end[i], self._parent[i], self._op[i]))

    def summary(self):
        """Per-name calls, self time and raised counts, keyed by span name."""
        return {name: {"calls": self.calls[i], "self_s": self.self_s[i],
                       "raised": self.raised[i]}
                for i, name in enumerate(SPAN_NAMES)}
