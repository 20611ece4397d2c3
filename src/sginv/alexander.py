"""Alexander-type invariants of balanced oriented spatial graph diagrams.

Each edge carries an integer weight; the weighting is balanced when the
signed weight sum eps_1 w_1 + eps_2 w_2 + ... at every vertex vanishes.  The
Alexander matrix has one row per relation of `diagram.wirtinger_relations`,
in its arcs and signs: per crossing (a, b, c), with w_o the weight of the
over arc b and w_u that of the under strand,
    (1 - t^w_u) b + t^w_o c - a = 0,
and per vertex ((a_1, eps_1), (a_2, eps_2), ...),
    sum_i eps_i t^(m_i) a_i = 0,
    m_i = eps_1 w_1 + ... + eps_(i-1) w_(i-1) + min(eps_i, 0) w_i.
A free loop counts as one more arc with a trivial relation (a zero row and a
zero column), as the kink diagram it is isotopic to has.  The Alexander
polynomial is the gcd of the (r-1) x (r-1) minors, r the number of
relations; the graph determinant is the integer analogue at t = -1.
"""

from __future__ import annotations

from typing import NamedTuple

from .diagram import (Diagram, DiagramError, Partition, derive_edges,
                      require_valid, seg_to_edge_id, wirtinger_relations)
from .laurent import (LaurentPoly, integer_minors_gcd, minors_gcd,
                      reduce_unit_pivots)
# perfbench/tracer.py times the integer Bareiss under bareiss_det by this name
from .laurent import integer_det as _int_det

VAR = "t"

# Refusal bound for gcd_of_minors: the exponent span of the reduced matrix
# times the minor size, about the number of base-2^bits digits in the
# packed integers of bareiss_det and the length of the gcd's dense lists.
MAX_DENSE_TERMS = 10 ** 5


class WeightError(ValueError):
    """Missing or unbalanced edge weights."""


def uniform_weights(d: Diagram, w: int = 1):
    return {eid: w for eid in set(seg_to_edge_id(derive_edges(d)).values())}


def _weighted_relations(d: Diagram, weights):
    """The relation table of a valid diagram, each arc's weight (that of
    the edge containing it; 1 on every edge when weights is None) and the
    residual sum eps_i w_i at each vertex."""
    require_valid(d)
    relations = arcs, _, vertex_rows = wirtinger_relations(d)
    if weights is None:
        arc_w = [1] * len(arcs)
    else:
        edge_of = seg_to_edge_id(derive_edges(d))
        for eid in edge_of.values():
            if eid not in weights:
                raise WeightError(f"missing weight for edge {eid}")
        arc_w = [weights[edge_of[cls[0]]] for cls in arcs.classes]
    residuals = {v.id: sum(eps * arc_w[arc] for arc, eps in row)
                 for v, row in zip(d.vertices, vertex_rows)}
    return relations, arc_w, residuals


def check_balanced(d: Diagram, weights):
    """(balanced?, per-vertex residuals).  Residual at v is sum eps_i w_i."""
    residuals = _weighted_relations(d, weights)[2]
    return all(r == 0 for r in residuals.values()), residuals


class AlexanderMatrix(NamedTuple):
    rows: tuple           # tuple of tuples of LaurentPoly in t
    arcs: Partition       # column order; the free loops' columns follow
    row_labels: tuple     # "crossing i" / "vertex v" / "free loop i"

    @property
    def row_count(self):
        return len(self.rows)

    @property
    def col_count(self):
        return len(self.rows[0]) if self.rows else 0


def _relation_rows(d: Diagram, weights, monomial, zero):
    """The relation rows of a balanced weighting, each entry a sum of
    monomial(coefficient, exponent) terms, and the arc partition."""
    (arcs, crossing_rows, vertex_rows), arc_w, residuals = \
        _weighted_relations(d, weights)
    if any(residuals.values()):
        raise WeightError(f"unbalanced weighting, residuals {residuals}")
    ncols = len(arcs) + d.free_loops
    rows = []
    for a, b, c, _ in crossing_rows:
        row = [zero] * ncols
        for arc, coeff, exp in ((a, -1, 0), (b, 1, 0), (b, -1, arc_w[a]),
                                (c, 1, arc_w[b])):
            row[arc] = row[arc] + monomial(coeff, exp)
        rows.append(row)
    for v_row in vertex_rows:
        row = [zero] * ncols
        prefix = 0
        for arc, eps in v_row:
            w = arc_w[arc]
            row[arc] = row[arc] + monomial(eps, prefix + min(eps, 0) * w)
            prefix += eps * w
        rows.append(row)
    return rows + [[zero] * ncols for _ in range(d.free_loops)], arcs


def build_alexander_matrix(d: Diagram, weights) -> AlexanderMatrix:
    rows, arcs = _relation_rows(
        d, weights, lambda coeff, exp: LaurentPoly.monomial(coeff, exp, VAR),
        LaurentPoly.zero(VAR))
    labels = ([f"crossing {i}" for i in range(len(d.crossings))]
              + [f"vertex v{v.id}" for v in d.vertices]
              + [f"free loop {i + 1}" for i in range(d.free_loops)])
    return AlexanderMatrix(tuple(map(tuple, rows)), arcs, tuple(labels))


def gcd_of_minors(rows, k) -> LaurentPoly:
    """GCD over all k x k minors; k = 0 gives 1, all-zero gives 0.

    Unit pivots shrink the problem first; only the leftover core is
    enumerated exhaustively, and it is refused (WeightError) when its dense
    form would exceed MAX_DENSE_TERMS."""
    core, k = reduce_unit_pivots(rows, k)
    exps = [e for row in core for p in row if not p.is_zero()
            for e in (p.min_degree, p.max_degree)]
    span = max(exps) - min(min(exps), 0) if exps else 0
    if span * k > MAX_DENSE_TERMS:
        raise WeightError(f"weights too large: exponent span {span} times "
                          f"minor size {k} is about {span * k} dense "
                          f"coefficients, above the limit of {MAX_DENSE_TERMS}")
    return minors_gcd(core, k)


def _minor_size(r, s):
    """The minor size r - 1 of both invariants for r relations in s arcs (0
    when there are no relations)."""
    if r - 1 > s:
        raise DiagramError(f"degenerate input: {r} relations but only {s} arcs")
    return max(r - 1, 0)


def alexander_polynomial(d: Diagram, weights) -> LaurentPoly:
    """GCD of the (r-1) x (r-1) minors, canonicalized so the lowest term is
    a positive constant.  weights=None puts weight 1 on every edge."""
    m = build_alexander_matrix(d, weights)
    g = gcd_of_minors(m.rows, _minor_size(m.row_count, m.col_count))
    return g if g.is_zero() else g.normalize_units()


def graph_determinant(d: Diagram, weights) -> int:
    """GCD of the absolute (r-1)-minors of the matrix at t = -1, built over
    Z: t^m is -1 or 1 by the parity of m.  weights=None puts weight 1 on
    every edge."""
    rows, arcs = _relation_rows(
        d, weights, lambda coeff, exp: -coeff if exp % 2 else coeff, 0)
    return integer_minors_gcd(
        rows, _minor_size(len(rows), len(arcs) + d.free_loops))


# ---------------------------------------------------------------------------
# Wirtinger presentation
# ---------------------------------------------------------------------------

class Presentation(NamedTuple):
    generators: tuple  # "a1", "a2", ...
    relators: tuple    # each a tuple of (generator, exponent) letters

    def render(self):
        def word(rel):
            if not rel:
                return "1"
            return " ".join(g if e == 1 else f"{g}^{e}" for g, e in rel)
        gens = ", ".join(self.generators)
        rels = ", ".join(word(r) for r in self.relators)
        return f"< {gens} | {rels} >"


def _reduce_word(letters):
    out = []
    for g, e in letters:
        if out and out[-1][0] == g:
            s = out[-1][1] + e
            out.pop()
            if s:
                out.append((g, s))
        else:
            out.append((g, e))
    return tuple(out)


def wirtinger_presentation(d: Diagram) -> Presentation:
    """One generator per arc; relator b^-s a b^s c^-1 per crossing (s the
    crossing sign) and the signed cyclic product per vertex.  Each free loop
    adds one generator with the trivial relator, as a kink would."""
    require_valid(d)
    arcs, crossing_rows, vertex_rows = wirtinger_relations(d)
    gens = tuple(f"a{i + 1}" for i in range(len(arcs) + d.free_loops))
    relators = [_reduce_word([(gens[b], -s), (gens[a], 1), (gens[b], s),
                              (gens[c], -1)])
                for a, b, c, s in crossing_rows]
    relators += [_reduce_word([(gens[arc], eps) for arc, eps in row])
                 for row in vertex_rows]
    return Presentation(gens, tuple(relators) + ((),) * d.free_loops)
