"""The package loads its engine modules on first use: each CLI subcommand
executes only the modules it needs, the public names resolve to the
submodules' own objects, the engine modules that `perfbench/tracer.py`
looks up in `sys.modules` after `import sginv.cli` execute when it reads
their namespaces, no CLI run imports `typing` or `__future__`, and the
records keep their fields, defaults and reprs."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import sginv
from sginv import catalog
from sginv.alexander import AlexanderMatrix, Presentation
from sginv.constituents import ConstituentLink
from sginv.diagram import (Crossing, Diagram, Partition, VertexNode,
                           derive_arcs)
from sginv.graphs import AbstractGraph
from sginv.laurent import LaurentPoly
from sginv.quandle import FiniteQuandle
from sginv.yamada import YamadaResult

from helpers import fixture_path

ENGINE = ("diagram", "graphs", "laurent", "moves", "yamada", "alexander",
          "quandle", "constituents")

# the public names of the package
PUBLIC = {
    "Crossing", "Diagram", "DiagramError", "VertexNode", "derive_arcs",
    "derive_edges", "parse_diagram", "parse_document", "resolve_crossing",
    "serialize", "validate", "AbstractGraph", "canonical_certificate",
    "contract_edge", "delete_edge", "LaurentPoly",
    "bareiss_det", "laurent_gcd", "apply_r1", "apply_r1_traced", "apply_r2",
    "apply_r2_traced", "disjoint_union", "mirror", "transport_weights",
    "YamadaResult", "eval_crossing_free", "sigma", "yamada_normalized",
    "yamada_raw", "alexander_polynomial", "build_alexander_matrix",
    "check_balanced", "gcd_of_minors", "graph_determinant", "uniform_weights",
    "wirtinger_presentation", "FiniteQuandle", "affine_quandle",
    "count_affine_colorings", "count_colorings", "is_p_colorable",
    "verify_quandle",
    "conway_gordon_sum", "constituent_fingerprint", "enumerate_constituents",
    "hamiltonian_constituents",
}

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "tracer.py")

# Runs `python -m sginv.cli <argv>` in this process, then prints the exit
# code, the executed engine modules and which of `typing` and `__future__`
# were imported.  A lazily loaded module's type is not ModuleType until it
# runs, and `type()` reads no attribute, so the check itself loads nothing.
LOAD_SET = """
import json, runpy, sys, types
import os; os._exit = sys.exit
code = None
try:
    runpy.run_module("sginv.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(
    name[len("sginv."):] for name, module in sys.modules.items()
    if name.startswith("sginv.") and type(module) is types.ModuleType),
    sorted({"typing", "__future__"} & set(sys.modules))]))
"""


def run_child(*args):
    """A fresh interpreter without site hooks, which import modules of
    their own."""
    return subprocess.run([sys.executable, "-S", *args], capture_output=True,
                          timeout=60)


@pytest.mark.parametrize("argv, code, loaded", [
    (["validate", "trefoil.json"], 0, {"diagram"}),
    (["yamada", "trefoil.json"], 0, {"diagram", "laurent", "yamada"}),
    (["yamada", "k7.json"], 1, {"diagram", "laurent", "yamada"}),
    (["alexander", "trefoil.json"], 0, {"diagram", "laurent", "alexander"}),
    (["determinant", "trefoil.json"], 0, {"diagram", "laurent", "alexander"}),
    (["group", "trefoil.json"], 0, {"diagram", "laurent", "alexander"}),
    (["colorings", "trefoil.json", "--dihedral", "3"], 0,
     {"diagram", "laurent", "quandle"}),
    (["colorings", "trefoil.json", "--trivial", "3"], 0,
     {"diagram", "laurent", "quandle"}),
    (["pcolor", "trefoil.json", "--p", "3"], 0,
     {"diagram", "laurent", "quandle"}),
    (["cg", "k5.json"], 0, {"diagram", "laurent", "constituents"}),
    (["constituents", "theta_5_4.json", "--invariant", "yamada"], 0,
     {"diagram", "laurent", "constituents", "yamada"}),
    (["constituents", "theta_5_4.json", "--invariant", "determinant"], 0,
     {"diagram", "laurent", "constituents", "alexander"}),
    (["frobnicate", "trefoil.json"], 2, set()),
    (["yamada"], 2, set()),
    (["validate", "trefoil.json", "--bogus"], 2, set()),
    # a table that is not affine, so the search counts
    (["colorings", "trefoil.json", "--quandle", "s4_4cycles.json"], 0,
     {"diagram", "laurent", "quandle"}),
])
def test_subcommand_load_sets(argv, code, loaded):
    argv = [fixture_path(a) if a.endswith(".json") else a for a in argv]
    r = run_child("-c", f"import sys; sys.argv[1:] = {argv!r}\n" + LOAD_SET)
    assert r.returncode == 0, r.stderr
    got_code, modules, imported = json.loads(r.stdout.splitlines()[-1])
    assert got_code == code, r.stderr
    assert set(modules) & set(ENGINE) == loaded
    assert imported == []


ARCS = Partition(((0, 1),), (True,), {0: 0, 1: 0})
ARCS_TEXT = "Partition(classes=((0, 1),), is_closed=(True,), class_of={0: 0, 1: 0})"


@pytest.mark.parametrize("record, fields, defaults, text", [
    (Crossing(1, 2, 3, 4, 1), "over_in over_out under_in under_out sign", {},
     "Crossing(over_in=1, over_out=2, under_in=3, under_out=4, sign=1)"),
    (VertexNode(0, ((1, "in"), (2, "out"))), "id incident", {},
     "VertexNode(id=0, incident=((1, 'in'), (2, 'out')))"),
    (Diagram(), "vertices crossings free_loops",
     {"vertices": (), "crossings": (), "free_loops": 0},
     "Diagram(vertices=(), crossings=(), free_loops=0)"),
    (ARCS, "classes is_closed class_of", {}, ARCS_TEXT),
    (AbstractGraph(2, ((0, 1),)), "vertex_count edges free_loops",
     {"free_loops": 0},
     "AbstractGraph(vertex_count=2, edges=((0, 1),), free_loops=0)"),
    (AlexanderMatrix(((LaurentPoly.zero(),),), ARCS, ("crossing 0",)),
     "rows arcs row_labels", {},
     "AlexanderMatrix(rows=((LaurentPoly(0, var='t'),),), arcs="
     + ARCS_TEXT + ", row_labels=('crossing 0',))"),
    (Presentation(("a1",), ((),)), "generators relators", {},
     "Presentation(generators=('a1',), relators=((),))"),
    (FiniteQuandle(2, ((0, 0), (1, 1)), ((0, 0), (1, 1))), "n op inv", {},
     "FiniteQuandle(n=2, op=((0, 0), (1, 1)), inv=((0, 0), (1, 1)))"),
    (ConstituentLink(Diagram(), ((0, (0, 1)), (1, (0, 1))), 0, ()),
     "diagram choice components component_vertices", {},
     "ConstituentLink(diagram=Diagram(vertices=(), crossings=(), "
     "free_loops=0), choice=((0, (0, 1)), (1, (0, 1))), components=0, "
     "component_vertices=())"),
    (YamadaResult(LaurentPoly({1: 1, 2: 1, 3: 1}, "A"),
                  LaurentPoly({0: -1, 1: -1, 2: -1}, "A"), 1),
     "raw normalized min_power", {},
     "YamadaResult(raw=LaurentPoly(A + A^2 + A^3, var='A'), "
     "normalized=LaurentPoly(-1 - A - A^2, var='A'), min_power=1)"),
], ids=["Crossing", "VertexNode", "Diagram", "Partition", "AbstractGraph",
        "AlexanderMatrix", "Presentation", "FiniteQuandle", "ConstituentLink",
        "YamadaResult"])
def test_record_fields_defaults_and_reprs(record, fields, defaults, text):
    """Each record's fields, defaults and repr, as the parent recorded them;
    a record equals and hashes as the plain tuple of its fields."""
    assert record._fields == tuple(fields.split())
    assert record._field_defaults == defaults
    assert repr(record) == text
    assert record == tuple(record)
    if record is not ARCS and ARCS not in record:   # class_of is a dict
        assert hash(record) == hash(tuple(record))


def test_record_replace():
    """`_replace` keeps the class, so the methods stay reachable."""
    c = Crossing(1, 2, 3, 4, 1)._replace(sign=-1)
    assert type(c) is Crossing and c == (1, 2, 3, 4, -1)
    assert c.ccw_slots() == ("over_in", "under_in", "over_out", "under_out")
    d = Diagram(crossings=(c,))._replace(free_loops=2)
    assert type(d) is Diagram and d == ((), (c,), 2) and not d.is_empty()
    X = FiniteQuandle(3, ((0, 2, 1), (2, 1, 0), (1, 0, 2)), None)
    X = X._replace(inv=X.op)
    assert type(X) is FiniteQuandle and X.apply(0, 1, -1) == 2
    # a partition of 4 classes: len() is the field count, not the classes
    p = derive_arcs(catalog.figure_eight())
    q = p._replace(is_closed=(False,) * 4)
    assert type(q) is Partition and len(q.classes) == 4 == len(p.classes)
    assert q == (p.classes, (False,) * 4, p.class_of)


def test_public_names():
    assert set(sginv.__all__) == PUBLIC | set(ENGINE)
    assert set(sginv.__all__) <= set(dir(sginv))
    for module, names in sginv._EXPORTS.items():
        sub = importlib.import_module(f"sginv.{module}")
        assert getattr(sginv, module) is sub
        for name in names:
            assert getattr(sginv, name) is getattr(sub, name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        sginv.no_such_name
    from sginv import catalog
    assert catalog.__name__ == "sginv.catalog"


def test_engine_modules_registered_unexecuted():
    """After `import sginv.cli` every engine module is in sys.modules but
    none has run; `vars()` runs it and returns its namespace.  A fresh
    `from sginv import catalog` imports the submodule."""
    r = run_child("-c", f"""
import json, sys, types
import sginv, sginv.cli
names = {ENGINE!r}
modules = [sys.modules.get("sginv." + n) for n in names]
before = [type(m) is types.ModuleType for m in modules if m is not None]
spaces = [vars(m) for m in modules]
after = [type(m) is types.ModuleType for m in modules]
exported = all(set(sginv._EXPORTS[n]) <= set(ns) and ns["__name__"] == "sginv." + n
               for n, ns in zip(names, spaces))
from sginv import catalog
print(json.dumps([len(before), any(before), all(after), exported,
                  catalog.__name__]))
""")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == [len(ENGINE), False, True, True,
                                    "sginv.catalog"]


def test_tracer_times_calls_through_module_attributes(tmp_path):
    """The tracer wraps the functions in the loaded modules' namespaces,
    so calls that reach a sibling as `module.function` are counted."""
    trace = tmp_path / "trace.json"
    args = ["constituents", fixture_path("theta_5_4.json"),
            "--invariant", "yamada"]
    r = run_child(TRACER, str(trace), *args)
    plain = run_child("-m", "sginv.cli", *args)
    assert r.returncode == plain.returncode == 0
    assert r.stdout == plain.stdout
    stats = json.loads(trace.read_text())["stats"]
    assert stats["cli.run"][0] == stats["diagram.parse_document"][0] == 1
    # one extraction and one Yamada evaluation per cycle family: the nine
    # choices of theta_5_4 close four
    assert stats["yamada.yamada_raw"][0] == stats["constituents._extract"][0] == 4
