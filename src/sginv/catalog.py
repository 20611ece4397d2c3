"""Built-in diagrams: standard knots from PD codes, theta-curves, and a
straight-line complete-graph embedding on the moment curve.

PD convention: a crossing X(a, b, c, d) lists the four strand labels
counterclockwise starting at the incoming under strand, so under_in = a and
under_out = c; the over strand runs b -> d or d -> b, whichever is the
successor step in the (cyclic) strand numbering 1..2n.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import atan2

from .diagram import Crossing, Diagram, DiagramError, UnionFind, VertexNode


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
    cyclic-order convention."""
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
            raw.append(("x", a, right_new, b, left_new, 1))
        else:
            raw.append(("x", b, left_new, a, right_new, -1))
        cur[i], cur[i + 1] = left_new, right_new

    # the closure identifies the bottom segment at each position with the
    # top segment that started there
    uf = UnionFind(range(next_id))
    find = uf.find
    for j in range(strands):
        uf.union(cur[j], j)

    used = set()
    crossings = []
    for _, oi, oo, ui, uo, sign in raw:
        oi, oo, ui, uo = find(oi), find(oo), find(ui), find(uo)
        used.update((oi, oo, ui, uo))
        crossings.append(Crossing(over_in=oi, over_out=oo,
                                  under_in=ui, under_out=uo, sign=sign))
    free = len({find(j) for j in range(strands)} - used)
    relabel = {s: i for i, s in enumerate(sorted(used))}
    crossings = tuple(Crossing(relabel[c.over_in], relabel[c.over_out],
                               relabel[c.under_in], relabel[c.under_out], c.sign)
                      for c in crossings)
    return Diagram((), crossings, free)


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
    """Insert trivalent vertices u on segment x and v on segment y of a knot
    diagram (u before v when x == y) and join them by a crossing-free edge.

    The caller is responsible for picking x and y on a common face of the
    drawn diagram so the new edge really is crossing-free in the plane.
    """
    nxt = max(d.segment_ids()) + 1
    if x == y:
        x1, x2, x3, t = nxt, nxt + 1, nxt + 2, nxt + 3
        tail_ren, head_ren = {x: x1}, {x: x3}
        u = VertexNode(100, ((x1, "in"), (x2, "out"), (t, "out")))
        v = VertexNode(101, ((x2, "in"), (x3, "out"), (t, "in")))
    else:
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
    """Straight-line embedding of K_n with vertex i at (i, i^2, i^3).

    Projecting out the third coordinate puts the vertices in convex
    position; chords cross exactly when their endpoint pairs interleave,
    and over/under comes from exact comparison of the third coordinate at
    each crossing point.  Everything is computed in rational arithmetic.
    """
    pts = {i: (Fraction(i), Fraction(i * i), Fraction(i ** 3))
           for i in range(1, n + 1)}
    edges = list(combinations(range(1, n + 1), 2))  # oriented low -> high

    def interleave(e, f):
        (a, b), (c, d) = e, f
        return a < c < b < d or c < a < d < b

    def cross_data(e, f):
        """(parameter along e, parameter along f, z of e, z of f) at the
        2D intersection of chords e and f."""
        p1, p2 = pts[e[0]], pts[e[1]]
        q1, q2 = pts[f[0]], pts[f[1]]
        d1 = (p2[0] - p1[0], p2[1] - p1[1])
        d2 = (q2[0] - q1[0], q2[1] - q1[1])
        denom = d1[0] * d2[1] - d1[1] * d2[0]
        rx, ry = q1[0] - p1[0], q1[1] - p1[1]
        s = (rx * d2[1] - ry * d2[0]) / denom
        t = (rx * d1[1] - ry * d1[0]) / denom
        z_e = p1[2] + s * (p2[2] - p1[2])
        z_f = q1[2] + t * (q2[2] - q1[2])
        return s, t, z_e, z_f

    # crossings per edge, ordered along the edge
    hits = {e: [] for e in edges}  # (param, other edge, z_self, z_other)
    for e, f in combinations(edges, 2):
        if interleave(e, f):
            s, t, z_e, z_f = cross_data(e, f)
            hits[e].append((s, f, z_e, z_f))
            hits[f].append((t, e, z_f, z_e))
    for e in edges:
        hits[e].sort(key=lambda h: h[0])

    # allocate segments along each edge
    next_seg = 0
    seg_chain = {}   # edge -> list of segment ids, one more than crossings
    for e in edges:
        k = len(hits[e]) + 1
        seg_chain[e] = list(range(next_seg, next_seg + k))
        next_seg += k

    # crossings: keyed by unordered edge pair
    crossings = []
    seen = set()
    for e in edges:
        for pos, (s, f, z_e, z_f) in enumerate(hits[e]):
            key = frozenset((e, f))
            if key in seen:
                continue
            seen.add(key)
            pos_f = next(i for i, h in enumerate(hits[f]) if h[1] == e)
            e_in, e_out = seg_chain[e][pos], seg_chain[e][pos + 1]
            f_in, f_out = seg_chain[f][pos_f], seg_chain[f][pos_f + 1]
            assert z_e != z_f, "tangent chords on the moment curve"
            if z_e > z_f:
                over, under = (e_in, e_out), (f_in, f_out)
                over_dir = _dir2(pts, e)
                under_dir = _dir2(pts, f)
            else:
                over, under = (f_in, f_out), (e_in, e_out)
                over_dir = _dir2(pts, f)
                under_dir = _dir2(pts, e)
            cz = over_dir[0] * under_dir[1] - over_dir[1] * under_dir[0]
            sign = 1 if cz < 0 else -1
            crossings.append(Crossing(over_in=over[0], over_out=over[1],
                                      under_in=under[0], under_out=under[1],
                                      sign=sign))

    vertices = []
    for i in range(1, n + 1):
        inc = []
        for e in edges:
            if e[0] == i:
                inc.append((seg_chain[e][0], "out", _angle(pts, i, e[1])))
            elif e[1] == i:
                inc.append((seg_chain[e][-1], "in", _angle(pts, i, e[0])))
        inc.sort(key=lambda x: x[2])  # counterclockwise around the vertex
        vertices.append(VertexNode(i, tuple((s, d) for s, d, _ in inc)))
    return Diagram(tuple(vertices), tuple(crossings), 0)


def _dir2(pts, e):
    p, q = pts[e[0]], pts[e[1]]
    return (q[0] - p[0], q[1] - p[1])


def _angle(pts, at, other):
    p, q = pts[at], pts[other]
    return atan2(float(q[1] - p[1]), float(q[0] - p[0]))
