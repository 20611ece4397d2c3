"""The package loads its engine modules on first use: each CLI subcommand
executes only the modules it needs, the public names resolve to the
submodules' own objects, and the engine modules that `perfbench/tracer.py`
looks up in `sys.modules` after `import sginv.cli` execute when it reads
their namespaces."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import sginv

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
# code and the executed engine modules.  A lazily loaded module's type is
# not ModuleType until it runs, and `type()` reads no attribute, so the
# check itself loads nothing.
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
    if name.startswith("sginv.") and type(module) is types.ModuleType)]))
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
])
def test_subcommand_load_sets(argv, code, loaded):
    argv = [fixture_path(a) if a.endswith(".json") else a for a in argv]
    r = run_child("-c", f"import sys; sys.argv[1:] = {argv!r}\n" + LOAD_SET)
    assert r.returncode == 0, r.stderr
    got_code, modules = json.loads(r.stdout.splitlines()[-1])
    assert got_code == code, r.stderr
    assert set(modules) & set(ENGINE) == loaded


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
