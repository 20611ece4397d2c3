"""Spatial graph invariants: Yamada and Alexander polynomials, quandle
colorings, Wirtinger presentations, and constituent-link data.

Importing the package runs none of its engine modules.  Each one is put in
`sys.modules` through `importlib.util.LazyLoader` and executes the first
time one of its attributes is read, so a CLI run compiles only the modules
its subcommand uses.  The public names below resolve on first use (PEP 562
`__getattr__`).  Since a module loads outside its import statement,
`python -X importtime` no longer lists the engine modules.
"""

import importlib.util
import sys

# engine module -> the names the package exports from it
_EXPORTS = {
    "diagram": ("Crossing", "Diagram", "DiagramError", "VertexNode",
                "derive_arcs", "derive_edges", "parse_diagram",
                "parse_document", "resolve_crossing", "serialize", "validate"),
    "graphs": ("AbstractGraph", "canonical_certificate", "contract_edge",
               "delete_edge"),
    "laurent": ("LaurentPoly", "bareiss_det", "laurent_gcd"),
    "moves": ("apply_r1", "apply_r1_traced", "apply_r2", "apply_r2_traced",
              "disjoint_union", "mirror", "transport_weights"),
    "yamada": ("YamadaResult", "eval_crossing_free", "sigma",
               "yamada_normalized", "yamada_raw"),
    "alexander": ("alexander_polynomial", "build_alexander_matrix",
                  "check_balanced", "gcd_of_minors", "graph_determinant",
                  "uniform_weights", "wirtinger_presentation"),
    "quandle": ("FiniteQuandle", "affine_quandle", "count_affine_colorings",
                "count_colorings", "is_p_colorable", "verify_quandle"),
    "constituents": ("conway_gordon_sum", "constituent_fingerprint",
                     "enumerate_constituents", "hamiltonian_constituents"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = [*_EXPORTS, *_OWNER]

for _name in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)
del _name, _spec, _module


def __getattr__(name):
    if name in _OWNER:
        return getattr(globals()[_OWNER[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_OWNER})
