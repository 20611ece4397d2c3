"""Built-in diagrams: standard knots from PD codes, braid closures,
theta-curves, and a straight-line complete-graph embedding on the moment
curve, read off its closed forms in exact arithmetic.

PD convention: a crossing X(a, b, c, d) lists the four strand labels
counterclockwise starting at the incoming under strand, so under_in = a and
under_out = c; the over strand runs b -> d or d -> b, whichever is the
successor step in the (cyclic) strand numbering 1..2n.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, combinations

from .diagram import Crossing, Diagram, DiagramError, VertexNode


def from_pd(codes) -> Diagram:
    """Build a knot diagram from a PD code (single component, labels 1..2n).

    The crossing sign falls out of the counterclockwise slot order: with
    over strand b -> d the cyclic order (a, b, c, d) reads (under_in,
    over_in, under_out, over_out), the positive pattern; over strand d -> b
    gives the negative pattern.
    """
    m = 2 * len(codes)
    crossings = []
    for a, b, c, d in codes:
        if c != a % m + 1:
            raise DiagramError(f"under strand of X{(a, b, c, d)} breaks numbering")
        if d == b % m + 1:
            crossings.append(Crossing(over_in=b, over_out=d,
                                      under_in=a, under_out=c, sign=1))
        elif b == d % m + 1:
            crossings.append(Crossing(over_in=d, over_out=b,
                                      under_in=a, under_out=c, sign=-1))
        else:
            raise DiagramError(f"cannot orient over strand of X{(a, b, c, d)}")
    return Diagram((), tuple(crossings), 0)


def braid_closure(strands: int, word) -> Diagram:
    """Close a braid (generators +-1..+-(strands-1), positive = left strand
    over right) into a link diagram.  With the braid flowing downward the
    positive generator comes out as a sign +1 crossing under the derived
    cyclic-order convention.  The closure joins each bottom segment to the
    top segment at its position.  Segments are numbered top ones first,
    left to right, then the two each generator makes, in word order; a
    position no generator touches is a free loop and gets no number."""
    cur = list(range(strands))
    next_id = strands
    raw = []
    for g in word:
        i = abs(g) - 1
        if not 0 <= i < strands - 1:
            raise DiagramError(f"generator {g} out of range")
        a, b = cur[i], cur[i + 1]
        left_new, right_new = next_id, next_id + 1
        next_id += 2
        if g > 0:
            raw.append(Crossing(a, right_new, b, left_new, 1))
        else:
            raw.append(Crossing(b, left_new, a, right_new, -1))
        cur[i], cur[i + 1] = left_new, right_new

    top = {s: j for j, s in enumerate(cur)}
    index = {s: i for i, s in enumerate(sorted({top.get(s, s) for c in raw
                                                for s in c[:4]}))}
    crossings = tuple(Crossing(*[index[top.get(s, s)] for s in c[:4]], c.sign)
                      for c in raw)
    return Diagram((), crossings, sum(j not in index for j in range(strands)))


# -- knots ------------------------------------------------------------------

def unknot() -> Diagram:
    return Diagram(free_loops=1)


def kinked_unknot(chirality: int = 1) -> Diagram:
    """Unknot with a single kink: one crossing, two segments."""
    return Diagram((), (Crossing(over_in=0, over_out=1,
                                 under_in=1, under_out=0, sign=chirality),), 0)


def trefoil() -> Diagram:
    """Right-handed trefoil (all crossings positive)."""
    return from_pd([(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)])


def figure_eight() -> Diagram:
    return braid_closure(3, [1, -2, 1, -2])


def torus_2_5() -> Diagram:
    """(2,5) torus knot, closure of a 5-crossing positive 2-braid."""
    return from_pd([(1, 6, 2, 7), (3, 8, 4, 9), (5, 10, 6, 1),
                    (7, 2, 8, 3), (9, 4, 10, 5)])


def knot_5_2() -> Diagram:
    return braid_closure(3, [1, 1, 1, 2, -1, 2])


# -- theta curves -----------------------------------------------------------

def _knot_to_theta(d: Diagram, x: int, y: int) -> Diagram:
    """Insert trivalent vertices u on segment x and v on segment y != x of a
    knot diagram and join them by a crossing-free edge.

    The caller is responsible for picking x and y on a common face of the
    drawn diagram so the new edge really is crossing-free in the plane.
    """
    nxt = max(d.segment_ids()) + 1
    x1, x2, y1, y2, t = nxt, nxt + 1, nxt + 2, nxt + 3, nxt + 4
    tail_ren, head_ren = {x: x1, y: y1}, {x: x2, y: y2}
    u = VertexNode(100, ((x1, "in"), (x2, "out"), (t, "out")))
    v = VertexNode(101, ((y1, "in"), (y2, "out"), (t, "in")))
    crossings = tuple(Crossing(
        over_in=head_ren.get(c.over_in, c.over_in),
        over_out=tail_ren.get(c.over_out, c.over_out),
        under_in=head_ren.get(c.under_in, c.under_in),
        under_out=tail_ren.get(c.under_out, c.under_out),
        sign=c.sign) for c in d.crossings)
    return Diagram(d.vertices + (u, v), crossings, d.free_loops)


def theta_5_3() -> Diagram:
    """Theta-curve 5_3 of the standard prime theta-curve table.

    Built from the left-handed (2,5) torus knot as a closed 2-braid, with
    the two vertices on consecutive left-column segments and the third edge
    a chord through the outer left face.  Constituent knots: the (2,5)
    torus knot and two unknots.
    """
    return _knot_to_theta(braid_closure(2, [-1] * 5), 0, 2)


def theta_5_4() -> Diagram:
    """Theta-curve 5_4 of the standard prime theta-curve table.

    Same construction as theta_5_3 but with the chord skipping two crossings
    of the braid column, so the constituent knots become the (2,5) torus
    knot, a trefoil, and an unknot.
    """
    return _knot_to_theta(braid_closure(2, [-1] * 5), 0, 4)


def theta_trivial() -> Diagram:
    """Trivially embedded theta-graph: two vertices, three parallel edges,
    no crossings.  All edges oriented u -> v."""
    u = VertexNode(0, ((0, "out"), (1, "out"), (2, "out")))
    v = VertexNode(1, ((0, "in"), (2, "in"), (1, "in")))
    return Diagram((u, v), (), 0)


# -- complete graphs on the moment curve ------------------------------------

def complete_graph_moment_curve(n: int = 7) -> Diagram:
    """Straight-line embedding of K_n with vertex i at (i, i^2, i^3), every
    edge oriented from its lower to its higher end.

    Everything is read off closed forms, in exact integer and rational
    arithmetic.  Chord (a, b) projects onto the line y = (a + b) x - ab, so
    chords (a, b) and (c, d) cross exactly when their ends interleave,
    a < c < b < d, at x = (ab - cd) / (a + b - c - d); the crossings along
    a chord are ordered by that x.  There chord (a, b) stands at height
    x (a^2 + ab + b^2) - ab (a + b), and chord (c, d) stands higher by
    (b - c)(d - a)(c - a)(d - b) / (c + d - a - b) > 0, so (c, d) is over.
    The sign is +1 when the under chord's slope a + b is the smaller, which
    it always is: every crossing is positive.  Around vertex i the
    direction to j is (j - i)(1, i + j), so counterclockwise from the
    negative x-axis the neighbours come in index order, the order in which
    `combinations` lists the edges.
    """
    edges = list(combinations(range(1, n + 1), 2))
    # the chords crossing each chord, ordered along it
    hits = {(a, b): sorted(((c, d) for c, d in edges
                            if a < c < b < d or c < a < d < b),
                           key=lambda f: Fraction(a * b - f[0] * f[1],
                                                  a + b - f[0] - f[1]))
            for a, b in edges}
    # chord e owns the segments first[e], first[e] + 1, ... in order along
    # it; into[e, f] is the one that runs into e's crossing with chord f
    first = dict(zip(edges, accumulate((len(hits[e]) + 1 for e in edges),
                                       initial=0)))
    into = {(e, f): first[e] + i for e in edges for i, f in enumerate(hits[e])}
    crossings = tuple(
        Crossing(over_in=into[f, e], over_out=into[f, e] + 1,
                 under_in=into[e, f], under_out=into[e, f] + 1, sign=1)
        for e in edges for f in hits[e] if e < f)
    vertices = tuple(
        VertexNode(v, tuple((first[e], "out") if e[0] == v
                            else (first[e] + len(hits[e]), "in")
                            for e in edges if v in e))
        for v in range(1, n + 1))
    return Diagram(vertices, crossings, 0)
