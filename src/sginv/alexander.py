"""Alexander-type invariants of balanced oriented spatial graph diagrams.

Each edge carries an integer weight; the weighting is balanced when the
signed weight sum at every vertex vanishes (sign +1 for an edge directed in,
-1 for out).  The Alexander matrix collects one linear relation per crossing,
    (1 - t^w2) b + t^w1 c - a = 0,
and one per vertex,
    sum_i eps_i t^(m_i) a_i = 0,
    m_i = eps_1 w_1 + ... + eps_(i-1) w_(i-1) + min(eps_i, 0) w_i,
over the arcs of the diagram.  A free loop counts as one more arc with a
trivial relation (a zero row and a zero column), as the kink diagram it is
isotopic to has.  The Alexander polynomial is the gcd of the (r-1) x (r-1)
minors, r the number of relations; the graph determinant is the integer
analogue at t = -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd as int_gcd

from .diagram import (Diagram, DiagramError, Partition, derive_arcs,
                      derive_edges, require_valid, seg_to_edge_id)
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


def _weight_by_segment(d: Diagram, weights):
    by_edge = seg_to_edge_id(derive_edges(d))
    out = {}
    for seg, eid in by_edge.items():
        if eid not in weights:
            raise WeightError(f"missing weight for edge {eid}")
        out[seg] = weights[eid]
    return out


def check_balanced(d: Diagram, weights):
    """(balanced?, per-vertex residuals).  Residual at v is sum eps_i w_i."""
    require_valid(d)
    wseg = _weight_by_segment(d, weights)
    residuals = {}
    for v in d.vertices:
        r = 0
        for seg, direction in v.incident:
            eps = 1 if direction == "in" else -1
            r += eps * wseg[seg]
        residuals[v.id] = r
    return all(r == 0 for r in residuals.values()), residuals


@dataclass(frozen=True)
class AlexanderMatrix:
    rows: tuple           # tuple of tuples of LaurentPoly in t
    arcs: Partition       # column order; the free loops' columns follow
    row_labels: tuple     # "crossing i" / "vertex v" / "free loop i"

    @property
    def row_count(self):
        return len(self.rows)

    @property
    def col_count(self):
        return len(self.rows[0]) if self.rows else 0


def crossing_arc_roles(d: Diagram, idx: int, arcs: Partition):
    """Arc indices (a, b, c) at a crossing: b is the over arc; at sign +1
    a contains under_in and c under_out, at sign -1 the two swap."""
    c = d.crossings[idx]
    b = arcs.index_of(c.over_in)
    if c.sign == 1:
        a, cc = arcs.index_of(c.under_in), arcs.index_of(c.under_out)
    else:
        a, cc = arcs.index_of(c.under_out), arcs.index_of(c.under_in)
    return a, b, cc


def build_alexander_matrix(d: Diagram, weights) -> AlexanderMatrix:
    require_valid(d)
    balanced, residuals = check_balanced(d, weights)
    if not balanced:
        raise WeightError(f"unbalanced weighting, residuals {residuals}")
    wseg = _weight_by_segment(d, weights)
    arcs = derive_arcs(d)
    ncols = len(arcs) + d.free_loops

    rows = []
    labels = []
    for i, c in enumerate(d.crossings):
        coeffs = [LaurentPoly.zero(VAR) for _ in range(ncols)]
        a, b, cc = crossing_arc_roles(d, i, arcs)
        w1 = wseg[c.over_in]
        w2 = wseg[c.under_in]
        coeffs[a] = coeffs[a] - 1
        coeffs[b] = coeffs[b] + (LaurentPoly.constant(1, VAR)
                                 - LaurentPoly.monomial(1, w2, VAR))
        coeffs[cc] = coeffs[cc] + LaurentPoly.monomial(1, w1, VAR)
        rows.append(tuple(coeffs))
        labels.append(f"crossing {i}")
    for v in d.vertices:
        coeffs = [LaurentPoly.zero(VAR) for _ in range(ncols)]
        prefix = 0
        for seg, direction in v.incident:
            eps = 1 if direction == "in" else -1
            w = wseg[seg]
            m = prefix + min(eps, 0) * w
            arc = arcs.index_of(seg)
            coeffs[arc] = coeffs[arc] + LaurentPoly.monomial(eps, m, VAR)
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
    a positive constant."""
    g = gcd_of_minors(*_relation_minors(d, weights))
    return g if g.is_zero() else g.normalize_units()


def _int_det(m):
    """Bareiss determinant of an integer matrix (exact)."""
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
    """GCD of the absolute (r-1)-minors of the matrix at t = -1."""
    rows, k = _relation_minors(d, weights)
    core, k = reduce_unit_pivots([[e.subs_int(-1) for e in row]
                                  for row in rows], k)
    if k == 0:
        return 1
    g = 0
    for rset in combinations(range(len(core)), k):
        for cset in combinations(range(len(core[0])), k):
            sub = [[core[i][j] for j in cset] for i in rset]
            g = int_gcd(g, abs(_int_det(sub)))
            if g == 1:
                return 1
    return g


# ---------------------------------------------------------------------------
# Wirtinger presentation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Presentation:
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
    arcs = derive_arcs(d)
    gens = tuple(f"a{i + 1}" for i in range(len(arcs) + d.free_loops))
    relators = []
    for i, c in enumerate(d.crossings):
        a, b, cc = crossing_arc_roles(d, i, arcs)
        s = c.sign
        relators.append(_reduce_word([(gens[b], -s), (gens[a], 1),
                                      (gens[b], s), (gens[cc], -1)]))
    for v in d.vertices:
        letters = []
        for seg, direction in v.incident:
            eps = 1 if direction == "in" else -1
            letters.append((gens[arcs.index_of(seg)], eps))
        relators.append(_reduce_word(letters))
    return Presentation(gens, tuple(relators) + ((),) * d.free_loops)
