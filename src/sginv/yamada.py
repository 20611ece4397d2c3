"""The Yamada polynomial of a spatial graph diagram.

The skein relation R(D) = A R(D_A) + A^-1 R(D_B) + R(D_V) is local, so R is
a state sum: each of the 3^c crossing states (each crossing A- or B-smoothed
or made a rigid vertex) adds A^(#A - #B) times the value of its crossing-free
residue graph.  Each distinct residue is evaluated once by delete/contract
down to bouquets, R(B_n) = -(-sigma)^n with sigma = A + 1 + A^-1, memoized
per connected component as `connected_components` labels it.  The raw
polynomial is a regular rigid-vertex isotopy invariant; (-A)^-m R with m the
least exponent is invariant under kinks as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .diagram import Diagram, require_valid
from .graphs import (AbstractGraph, connected_components, contract_edge,
                     delete_edge, to_abstract_graph)
from .laurent import LaurentPoly

VAR = "A"


def sigma() -> LaurentPoly:
    """A + 1 + A^-1, the value of a single circle."""
    return LaurentPoly({-1: 1, 0: 1, 1: 1}, VAR)


def eval_crossing_free(g: AbstractGraph, memo=None) -> LaurentPoly:
    """Evaluate an abstract multigraph by the delete/contract axioms.

    Connected components multiply; a component with a nonloop edge e splits
    as eval(G - e) + eval(G / e); what remains is a bouquet B_k worth
    -(-sigma)^k.  Free loops are B_1 factors (sigma each).  Component values
    are memoized on the labelled component itself.
    """
    if memo is None:
        memo = {}
    s = sigma()
    comps, loops = connected_components(g)
    out = s ** loops if loops else LaurentPoly.constant(1, VAR)
    for comp in comps:
        val = memo.get(comp)
        if val is None:
            nonloop = next((e for e in comp.edges if e[0] != e[1]), None)
            if nonloop is None:
                # a connected loops-only graph is one vertex with k loops: B_k
                val = -((-s) ** len(comp.edges))
            else:
                val = (eval_crossing_free(delete_edge(comp, nonloop), memo)
                       + eval_crossing_free(contract_edge(comp, nonloop), memo))
            memo[comp] = val
        out = out * val
    return out


def yamada_raw(d: Diagram) -> LaurentPoly:
    """R(G) as a state sum over the A/B/V resolutions of every crossing."""
    require_valid(d)
    exponents = {}  # residue graph -> {A-exponent: number of states}
    for state in product("ABV", repeat=len(d.crossings)):
        counts = exponents.setdefault(to_abstract_graph(d, state), {})
        e = state.count("A") - state.count("B")
        counts[e] = counts.get(e, 0) + 1
    memo = {}
    total = LaurentPoly.zero(VAR)
    for g, counts in exponents.items():
        total = total + LaurentPoly(counts, VAR) * eval_crossing_free(g, memo)
    return total


@dataclass(frozen=True)
class YamadaResult:
    raw: LaurentPoly
    normalized: LaurentPoly
    min_power: int | None  # None when raw = 0


def yamada_normalized(d: Diagram) -> YamadaResult:
    """R normalized by (-A)^-m, m the least exponent of the raw polynomial."""
    raw = yamada_raw(d)
    if raw.is_zero():
        return YamadaResult(raw, raw, None)
    m = raw.min_degree
    unit = LaurentPoly.monomial(-1 if m % 2 else 1, -m, VAR)
    return YamadaResult(raw, unit * raw, m)
