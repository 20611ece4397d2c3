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
from .laurent import LaurentPoly, minors_gcd, reduce_unit_pivots

VAR = "t"

# Refusal bound for gcd_of_minors: the exponent span of the reduced matrix
# times the minor size, about the length of the dense coefficient lists
# that Bareiss elimination and the gcd build.
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


def build_alexander_matrix(d: Diagram, weights) -> AlexanderMatrix:
    (arcs, crossing_rows, vertex_rows), arc_w, residuals = \
        _weighted_relations(d, weights)
    if any(residuals.values()):
        raise WeightError(f"unbalanced weighting, residuals {residuals}")
    ncols = len(arcs) + d.free_loops

    rows = []
    labels = []
    for i, (a, b, c, _) in enumerate(crossing_rows):
        coeffs = [LaurentPoly.zero(VAR) for _ in range(ncols)]
        coeffs[a] = coeffs[a] - 1
        coeffs[b] = coeffs[b] + (LaurentPoly.constant(1, VAR)
                                 - LaurentPoly.monomial(1, arc_w[a], VAR))
        coeffs[c] = coeffs[c] + LaurentPoly.monomial(1, arc_w[b], VAR)
        rows.append(tuple(coeffs))
        labels.append(f"crossing {i}")
    for v, row in zip(d.vertices, vertex_rows):
        coeffs = [LaurentPoly.zero(VAR) for _ in range(ncols)]
        prefix = 0
        for arc, eps in row:
            w = arc_w[arc]
            coeffs[arc] = coeffs[arc] + LaurentPoly.monomial(
                eps, prefix + min(eps, 0) * w, VAR)
            prefix += eps * w
        rows.append(tuple(coeffs))
        labels.append(f"vertex v{v.id}")
    rows += [(LaurentPoly.zero(VAR),) * ncols] * d.free_loops
    labels += [f"free loop {i + 1}" for i in range(d.free_loops)]
    return AlexanderMatrix(tuple(rows), arcs, tuple(labels))


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


def _relation_minors(d: Diagram, weights):
    """The Alexander matrix rows and the minor size r - 1 of both invariants
    (no rows and size 0 when there are no relations)."""
    m = build_alexander_matrix(d, weights)
    r, s = m.row_count, m.col_count
    if r == 0:
        return (), 0
    if r - 1 > s:
        raise DiagramError(f"degenerate input: {r} relations but only {s} arcs")
    return m.rows, r - 1


def alexander_polynomial(d: Diagram, weights) -> LaurentPoly:
    """GCD of the (r-1) x (r-1) minors, canonicalized so the lowest term is
    a positive constant.  weights=None puts weight 1 on every edge."""
    g = gcd_of_minors(*_relation_minors(d, weights))
    return g if g.is_zero() else g.normalize_units()


def _int_det(m):
    """Bareiss determinant of an integer matrix (exact).

    On no CLI path: kept as the exhaustive integer oracle of
    tests/test_minors.py, and because perfbench/tracer.py looks it up by
    name."""
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for r in range(n - 1):
        if m[r][r] == 0:
            piv = next((i for i in range(r + 1, n) if m[i][r]), None)
            if piv is None:
                return 0
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        for i in range(r + 1, n):
            for j in range(r + 1, n):
                m[i][j] = (m[r][r] * m[i][j] - m[i][r] * m[r][j]) // prev
            m[i][r] = 0
        prev = m[r][r]
    return sign * m[n - 1][n - 1]


def graph_determinant(d: Diagram, weights) -> int:
    """GCD of the absolute (r-1)-minors of the matrix at t = -1: integer
    unit pivots first, then the core's minors through minors_gcd.
    weights=None puts weight 1 on every edge."""
    rows, k = _relation_minors(d, weights)
    core, k = reduce_unit_pivots([[e.subs_int(-1) for e in row]
                                  for row in rows], k)
    return minors_gcd([[LaurentPoly.constant(e, VAR) for e in row]
                       for row in core], k).coeff(0)


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
        if e == 0:
            continue
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
