"""Shared helpers for the test suite: fixture paths, a small diagram corpus,
diagram canonicalization and edge labels, balanced theta weights, the
explicit 9x10 relation matrix, random polynomial generation (seeded; every
test run is deterministic), and the Laurent divisibility and cofactor
determinant oracles.
"""

import os
import random

from sginv import catalog
from sginv.alexander import check_balanced
from sginv.diagram import Diagram, Partition, parse_diagram, serialize
from sginv.laurent import LaurentPoly, _poly_div_exact, _to_dense

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
    """True if p divides q exactly in the Laurent ring (p nonzero)."""
    if p.is_zero():
        return q.is_zero()
    if q.is_zero():
        return True
    try:
        _poly_div_exact(_to_dense(q), _to_dense(p))
        return True
    except ArithmeticError:
        return False


def cofactor_det(matrix):
    """Determinant by cofactor expansion; the independent cross-check for
    bareiss_det.  Exponential, keep inputs small."""
    n = len(matrix)
    var = matrix[0][0].var if n else "t"
    if n == 0:
        return LaurentPoly.constant(1, var)
    if n == 1:
        return matrix[0][0]
    total = LaurentPoly.zero(var)
    rest = matrix[1:]
    for j in range(n):
        if matrix[0][j].is_zero():
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rest]
        term = matrix[0][j] * cofactor_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total
