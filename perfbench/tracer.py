"""Traced CLI runner: ``python tracer.py TRACE_OUT <sginv arguments...>``.

Behaves like ``python -m sginv.cli <arguments>`` (same stdout, stderr and
exit code) but wraps the layer functions of the ``sginv`` modules from the
outside before calling ``sginv.cli.run``.  Spans are kept in memory as
per-function totals and written to TRACE_OUT as JSON when the process ends:

    {"import_s": s, "stats": {"<module>.<function>": [calls, self_s]},
     "cert_distinct": n, "bareiss_zero": n, "extract_nonempty": n}

A function's self time is its span minus the spans of the wrapped functions
it calls.  A name bound by ``from .x import f`` is rebound in every module
that holds it, so calls through any binding are timed.  The hot methods
(``LaurentPoly.__mul__``, ``Wiring.find_end``, ``FiniteQuandle.apply``) are
leaves: they are timed in aggregate without a stack frame of their own.
"""

import json
import sys
import time

# (module, attribute path, kind); kind "span" pushes a frame, "leaf" does not
TARGETS = (
    ("cli", "run", "span"),
    ("diagram", "parse_document", "span"),
    ("diagram", "validate", "span"),
    ("diagram", "derive_edges", "span"),
    ("diagram", "derive_arcs", "span"),
    ("diagram", "resolve_crossing", "span"),
    ("diagram", "Wiring.find_end", "leaf"),
    ("graphs", "canonical_certificate", "span"),
    ("graphs", "delete_edge", "span"),
    ("graphs", "contract_edge", "span"),
    ("graphs", "connected_components", "span"),
    ("yamada", "yamada_raw", "span"),
    ("yamada", "eval_crossing_free", "span"),
    ("laurent", "LaurentPoly.__mul__", "leaf"),
    ("laurent", "bareiss_det", "span"),
    ("laurent", "laurent_gcd", "span"),
    ("laurent", "minors_gcd", "span"),
    ("alexander", "build_alexander_matrix", "span"),
    ("alexander", "_int_det", "span"),
    ("alexander", "graph_determinant", "span"),
    ("quandle", "count_colorings", "span"),
    ("quandle", "verify_quandle", "span"),
    ("quandle", "FiniteQuandle.apply", "leaf"),
    ("constituents", "_extract", "span"),
    ("constituents", "enumerate_constituents", "span"),
    ("constituents", "hamiltonian_constituents", "span"),
)


class Tracer:
    def __init__(self):
        self.stats = {}        # name -> [calls, self_s]
        self.stack = [[0.0]]   # per open span: [time covered by child spans]
        self.cert_seen = set()
        self.bareiss_zero = 0
        self.extract_nonempty = 0

    def span(self, name, fn, observe=None):
        stats = self.stats.setdefault(name, [0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                stats[0] += 1
                stats[1] += dt - frame[0]
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def leaf(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args):
            t0 = clock()
            result = fn(*args)
            dt = clock() - t0
            stack[-1][0] += dt
            stats[0] += 1
            stats[1] += dt
            return result

        return wrapper

    def observers(self):
        def cert(result):
            self.cert_seen.add(result)

        def bareiss(result):
            if result.is_zero():
                self.bareiss_zero += 1

        def extract(result):
            if not result.is_empty:
                self.extract_nonempty += 1

        return {"graphs.canonical_certificate": cert,
                "laurent.bareiss_det": bareiss,
                "constituents._extract": extract}

    def install(self):
        modules = {name[len("sginv."):]: mod
                   for name, mod in sys.modules.items()
                   if name.split(".")[0] == "sginv" and mod is not None}
        observers = self.observers()
        for modname, path, kind in TARGETS:
            name = f"{modname}.{path}"
            owner = modules[modname]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            if kind == "leaf":
                wrapped = self.leaf(name, original)
            else:
                wrapped = self.span(name, original, observers.get(name))
            if cls_path:
                # rebind every class attribute holding the function
                # (LaurentPoly.__rmul__ is LaurentPoly.__mul__)
                for key, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, key, wrapped)
                continue
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def dump(self, path, import_s):
        doc = {"import_s": import_s, "stats": self.stats,
               "cert_distinct": len(self.cert_seen),
               "bareiss_zero": self.bareiss_zero,
               "extract_nonempty": self.extract_nonempty}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import sginv.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        code = sginv.cli.run(argv)
        sys.stdout.flush()
    finally:
        tracer.dump(out_path, import_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
