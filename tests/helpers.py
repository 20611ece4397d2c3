"""Shared helpers for the test suite: fixture paths, a small diagram corpus,
diagram canonicalization and edge labels, balanced theta weights, the
explicit 9x10 relation matrix, random polynomial generation (seeded; every
test run is deterministic), and the Laurent divisibility, cofactor
determinant (over Z and Z[t^+-1]), Laurent-route graph determinant,
constant-coloring, flat Yamada state-sum, two-pass Yamada transfer matrix
and trial-division primality oracles, and the crossing-free grid diagram.
"""

import json
import os
import random
from itertools import product

from sginv import catalog
from sginv.alexander import build_alexander_matrix, check_balanced
from sginv.diagram import (Diagram, DiagramError, Partition, parse_diagram,
                           require_valid, serialize, wirtinger_relations)
from sginv.graphs import to_abstract_graph
from sginv.laurent import (LaurentPoly, from_packed, minors_gcd,
                           reduce_unit_pivots)
from sginv.yamada import (VAR, _canon, _tile_order, _tiles, eval_crossing_free,
                          sigma)

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name):
    return os.path.join(FIXTURE_DIR, name)


def read_fixture(name):
    with open(fixture_path(name), "r", encoding="utf-8") as fh:
        return fh.read()


def canonicalize(d: Diagram) -> Diagram:
    """The diagram with vertices and crossings in canonical array order."""
    return parse_diagram(serialize(d))


def edge_ids(edges: Partition):
    """Edge labels 'e1', 'e2', ... in least-contained-segment order."""
    return [f"e{i + 1}" for i in range(len(edges))]


def balanced_theta_weights(th):
    """Integer weights making the two trivalent vertices of a theta-curve
    balanced."""
    for w3 in (1, -1, 2, -2):
        for w2 in (1, -1, 2, -2):
            for w1 in (1, -1, 2, -2):
                w = {"e1": w1, "e2": w2, "e3": w3}
                ok, _ = check_balanced(th, w)
                if ok:
                    return w
    raise AssertionError("no balanced weighting found")


def small_corpus():
    """Diagrams small enough for repeated whole-diagram skein evaluation."""
    return {
        "unknot": catalog.unknot(),
        "kink_pos": catalog.kinked_unknot(1),
        "kink_neg": catalog.kinked_unknot(-1),
        "trefoil": catalog.trefoil(),
        "figure_eight": catalog.figure_eight(),
        "theta_trivial": catalog.theta_trivial(),
    }


def knot_corpus():
    return {
        "kink_pos": catalog.kinked_unknot(1),
        "trefoil": catalog.trefoil(),
        "figure_eight": catalog.figure_eight(),
        "torus_2_5": catalog.torus_2_5(),
        "knot_5_2": catalog.knot_5_2(),
    }


def random_laurent(rng: random.Random, var="t", max_terms=5, span=6, cmax=9):
    pairs = {}
    for _ in range(rng.randrange(max_terms + 1)):
        pairs[rng.randrange(-span, span + 1)] = rng.randrange(-cmax, cmax + 1)
    return LaurentPoly(pairs, var)


def random_unit(rng: random.Random, var="t", span=4):
    return LaurentPoly.monomial(rng.choice((1, -1)),
                                rng.randrange(-span, span + 1), var)


def nine_by_ten_matrix():
    """Relation matrix of a 10-arc bouquet diagram at unit weights; the gcd
    of its 8x8 minors normalizes to t^2 - 2t + 2."""
    t = LaurentPoly({1: 1}, "t")
    one = LaurentPoly({0: 1}, "t")
    it = one - t          # 1 - t
    ti = LaurentPoly({-1: 1}, "t")
    ti2 = LaurentPoly({-2: 1}, "t")
    z = LaurentPoly.zero("t")
    return [
        [-one, it, t, z, z, z, z, z, z, z],
        [z, -one, it, t, z, z, z, z, z, z],
        [z, z, t, z, it, -one, z, z, z, z],
        [z, t, z, it, -one, z, z, z, z, z],
        [z, z, z, z, z, -one, it, z, t, z],
        [z, z, z, it, z, z, -one, t, z, z],
        [z, z, z, t, z, z, z, -one, it, z],
        [z, z, z, z, z, z, z, it, t, -one],
        [-ti, z, z, z, -ti2, z, ti2, z, z, ti],
    ]


def divides(p, q):
    """True if p divides q exactly in the Laurent ring, by long division
    from the top terms: q = p f needs span(q) >= span(p) and lead(p) to
    divide lead(q), and then p must divide q minus p times f's top term."""
    if p.is_zero():
        return q.is_zero()
    top, low = p.max_degree, p.min_degree
    lead = p.coeff(top)
    while not q.is_zero():
        f, rem = divmod(q.coeff(q.max_degree), lead)
        if rem or q.max_degree - q.min_degree < top - low:
            return False
        q = q - p.shift(q.max_degree - top, f)
    return True


def cofactor_det(matrix):
    """Determinant by cofactor expansion along the first row, of integer or
    LaurentPoly entries; the independent cross-check for integer_det and
    bareiss_det.  Exponential, keep inputs small."""
    if not matrix:
        return 1
    total = 0 * matrix[0][0]
    for j, entry in enumerate(matrix[0]):
        if entry != 0:
            term = entry * cofactor_det([row[:j] + row[j + 1:]
                                         for row in matrix[1:]])
            total = total + (-term if j % 2 else term)
    return total


def laurent_determinant(d: Diagram, weights):
    """The graph determinant through the Alexander matrix: every Laurent
    entry evaluated at t = -1 and lifted back to a constant, then unit
    pivots and the core's minors through minors_gcd."""
    m = build_alexander_matrix(d, weights)
    r, s = m.row_count, m.col_count
    if r == 0:
        return 1
    if r - 1 > s:
        raise DiagramError(f"degenerate input: {r} relations but only {s} arcs")
    core, k = reduce_unit_pivots([[LaurentPoly.constant(e.subs_int(-1))
                                   for e in row] for row in m.rows], r - 1)
    return minors_gcd(core, k).coeff(0)


def count_constant_colorings(d: Diagram, X):
    """How many single-color assignments satisfy all relations (crossing
    relations hold by idempotence; only the vertex condition can fail)."""
    require_valid(d)
    arcs, _, vertex_rows = wirtinger_relations(d)
    if len(arcs) == 0:
        return X.n if d.free_loops else 1
    count = 0
    for col in range(X.n):
        ok = True
        for row in vertex_rows:
            x = col
            for _, eps in row:
                x = X.apply(x, col, eps)
            if x != col:
                ok = False
                break
        if ok:
            count += 1
    return count


def flat_yamada(d: Diagram):
    """R(G) as the flat state sum over the 3^c A/B/V crossing states: each
    distinct crossing-free residue graph is evaluated once by
    delete/contract.  Exponential in the crossings; keep inputs small."""
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


def _close_all(states, i, j, y_shift):
    """One close of `yamada._close`, applied to a whole dict of states."""
    out = {}
    get = out.get
    for labels, v in states.items():
        a, b = labels[i], labels[j]
        rest = labels[:i] + labels[i + 1:j] + labels[j + 1:]
        if a == b:
            v += v << y_shift
            key = _canon(rest)
            out[key] = get(key, 0) + (v if a in rest else -v)
        elif a in rest and b in rest:
            key = _canon(rest)
            out[key] = get(key, 0) + v
            key = _canon([a if x == b else x for x in rest])
            out[key] = get(key, 0) + v
    return out


def _unpack_a_y(packed, c, bits):
    """The polynomial in A of a sum packed in A and y: its balanced base
    2^bits digits, 2c + 1 A-exponents per power of y, expanded by Horner in
    y = -A - 2 - A^-1."""
    rows = {}
    for index, coeff in from_packed(packed, bits, 0, VAR).terms():
        k, a = divmod(index, 2 * c + 1)
        rows.setdefault(k, {})[a - c] = coeff
    y = LaurentPoly({-1: -1, 0: -2, 1: -1}, VAR)
    total = LaurentPoly.zero(VAR)
    for k in range(max(rows, default=0), -1, -1):
        total = total * y + LaurentPoly(rows.get(k), VAR)
    return total


def two_pass_yamada(d: Diagram):
    """R(G) by the same frontier transfer matrix as `yamada_raw`, but with
    each tile taken in two passes: every state is opened with every option
    into one dict, which is then rebuilt once per segment the tile closes.
    Same tiles and order, but the states are packed in A and y: the
    coefficient of A^a y^k is digit (a + c) + (2c + 1) k, so a cycle step
    is a factor 1 + y, one shifted add.  No cost estimate."""
    require_valid(d)
    c = len(d.crossings)
    tiles = _tiles(d)
    bits = (3 ** c << len(d.segment_ids())).bit_length() + 1
    _, order = _tile_order(tiles)
    states = {(): 1}
    frontier = []
    for t in order:
        ends, options = tiles[t]
        opened = {}
        get = opened.get
        for labels, v in states.items():
            m = len(set(labels))
            for shift, nodes in options:
                key = labels + tuple([m + k for k in nodes])
                opened[key] = get(key, 0) + (v << bits * shift)
        states = opened
        frontier += ends
        for e in ends:
            if e in frontier and e ^ 1 in frontier:
                i, j = sorted((frontier.index(e), frontier.index(e ^ 1)))
                states = _close_all(states, i, j, bits * (2 * c + 1))
                del frontier[j], frontier[i]
    return _unpack_a_y(states.get((), 0), c, bits) * sigma() ** d.free_loops


def grid_text(n):
    """The crossing-free n x n grid graph as diagram JSON: vertex k = n i + j
    sends segment 2k to its right neighbor and segment 2k + 1 to the one
    below."""
    vertices = []
    for i in range(n):
        for j in range(n):
            k = n * i + j
            slots = (([[2 * k, "out"]] if j + 1 < n else [])
                     + ([[2 * (k - n) + 1, "in"]] if i else [])
                     + ([[2 * (k - 1), "in"]] if j else [])
                     + ([[2 * k + 1, "out"]] if i + 1 < n else []))
            vertices.append({"id": k, "incident": slots})
    return json.dumps({"vertices": vertices})


def trial_division_is_prime(p):
    """True when p is prime, by trial division up to sqrt(p)."""
    if p < 2:
        return False
    i = 2
    while i * i <= p:
        if p % i == 0:
            return False
        i += 1
    return True
