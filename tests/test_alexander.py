"""Weighted Alexander polynomial: explicit matrix oracle, classical knot
values, balance checking, invariance properties, the integer determinant
rows against the Laurent route, and Wirtinger output."""

import random
import time
from fractions import Fraction

import pytest

from sginv import catalog
from sginv.alexander import (WeightError, alexander_polynomial,
                             build_alexander_matrix, check_balanced,
                             gcd_of_minors, graph_determinant,
                             uniform_weights, wirtinger_presentation)
from sginv.diagram import (Diagram, DiagramError, VertexNode, derive_arcs,
                           parse_document)
from sginv.laurent import LaurentPoly
from sginv.moves import (R2_VARIANTS, apply_r1_traced, apply_r2_traced,
                         transport_weights)

from helpers import (balanced_theta_weights, knot_corpus, laurent_determinant,
                     nine_by_ten_matrix, read_fixture, small_corpus)


def L(pairs):
    return LaurentPoly(dict(pairs), "t")


def test_explicit_nine_by_ten_matrix_oracle():
    """A 10-arc bouquet diagram's relation matrix at unit weights: the gcd of
    its 8x8 minors normalizes to t^2 - 2t + 2."""
    assert gcd_of_minors(nine_by_ten_matrix(), 8) == L({0: 2, 1: -2, 2: 1})


def test_classical_knot_values():
    expected = {
        "kink_pos": "1",
        "trefoil": "1 - t + t^2",
        "figure_eight": "1 - 3t + t^2",
        "torus_2_5": "1 - t + t^2 - t^3 + t^4",
        "knot_5_2": "2 - 3t + 2t^2",
    }
    for name, d in knot_corpus().items():
        poly = alexander_polynomial(d, uniform_weights(d))
        assert str(poly) == expected[name], name
        assert alexander_polynomial(d, None) == poly, name  # weight 1


def test_unknot_and_empty():
    for d in (catalog.unknot(), Diagram()):
        assert alexander_polynomial(d, {}) == L({0: 1})


def test_two_hundred_free_loops_give_zero_at_once():
    """Each free loop adds an all-zero row and column, and a minor through
    one vanishes, so they are not enumerated."""
    d = Diagram((), catalog.trefoil().crossings, 200)
    start = time.perf_counter()
    assert alexander_polynomial(d, None).is_zero()
    assert time.perf_counter() - start < 1


def test_determinants():
    expected = {"kink_pos": 1, "trefoil": 3, "figure_eight": 5,
                "torus_2_5": 5, "knot_5_2": 7}
    for name, d in knot_corpus().items():
        assert graph_determinant(d, uniform_weights(d)) == expected[name]
        assert graph_determinant(d, None) == expected[name]


def determinant_outcome(determinant, d, weights):
    try:
        return determinant(d, weights)
    except (WeightError, DiagramError) as exc:
        return type(exc).__name__, str(exc)


def assert_integer_rows_match_laurent_route(d, weights, label):
    assert determinant_outcome(graph_determinant, d, weights) == \
        determinant_outcome(laurent_determinant, d, weights), label


@pytest.mark.parametrize("name", (
    "closure3x18", "figure_eight", "k7", "kink_neg", "kink_pos", "knot_5_2",
    "theta_5_3", "theta_5_4", "theta_trivial", "theta_weighted", "torus_2_5",
    "trefoil", "unknot"))
def test_integer_rows_match_laurent_route_on_fixtures(name):
    """With the file's weights, weight 1 everywhere (unbalanced at most
    vertices: both refuse alike) and, on the thetas, a balanced weighting."""
    d, weights = parse_document(read_fixture(f"{name}.json"))
    candidates = [weights, None]
    if len(d.vertices) == 2:
        candidates.append(balanced_theta_weights(d))
    for w in candidates:
        assert_integer_rows_match_laurent_route(d, w, (name, w))


def test_integer_rows_match_laurent_route_after_r2_moves():
    """The weighted theta (e3 = -2) with 0-7 seeded R2 moves, its weights
    carried along."""
    rng = random.Random(808)
    d, weights = parse_document(read_fixture("theta_weighted.json"))
    for moves in range(8):
        assert_integer_rows_match_laurent_route(d, weights, moves)
        s1, s2 = rng.sample(sorted(d.segment_ids()), 2)
        d2, prov = apply_r2_traced(d, s1, s2, rng.choice(R2_VARIANTS))
        d, weights = d2, transport_weights(d, weights, d2, prov)


def test_integer_rows_match_laurent_route_on_closures():
    rng = random.Random(404)
    for strands, length in ((2, 9), (3, 14), (3, 40), (4, 18), (4, 60)):
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(length)]
        d = catalog.braid_closure(strands, word)
        for w in (None, uniform_weights(d, 2), uniform_weights(d, 3)):
            assert_integer_rows_match_laurent_route(d, w, (strands, word, w))


def test_theta_balance():
    th = catalog.theta_trivial()
    ok, residuals = check_balanced(th, uniform_weights(th))
    assert not ok
    assert sorted(residuals.values()) == [-3, 3]
    assert check_balanced(th, None) == (ok, residuals)
    ok, residuals = check_balanced(th, {"e1": 1, "e2": 1, "e3": -2})
    assert ok and set(residuals.values()) == {0}
    with pytest.raises(WeightError):
        alexander_polynomial(th, uniform_weights(th))
    with pytest.raises(WeightError):
        alexander_polynomial(th, {"e1": 1})  # missing weights


def test_theta_trivial_polynomial_is_one():
    th = catalog.theta_trivial()
    assert alexander_polynomial(th, {"e1": 1, "e2": 1, "e3": -2}) == L({0: 1})


def test_matrix_shape():
    tre = catalog.trefoil()
    m = build_alexander_matrix(tre, uniform_weights(tre))
    assert m.row_count == 3 and m.col_count == 3
    th = catalog.theta_trivial()
    m = build_alexander_matrix(th, {"e1": 1, "e2": 1, "e3": -2})
    assert m.row_count == 2 and m.col_count == 3
    assert list(m.row_labels) == ["vertex v0", "vertex v1"]


def test_crossing_rows_take_under_and_over_weights():
    """Hopf link with components weighted 1 and 2: at each crossing the over
    arc gets 1 - t^(under weight) and the under arc -1 + t^(over weight)."""
    hopf = catalog.braid_closure(2, [1, 1])
    m = build_alexander_matrix(hopf, {"e1": 1, "e2": 2})
    assert m.rows == ((L({0: 1, 2: -1}), L({0: -1, 1: 1})),
                      (L({0: -1, 2: 1}), L({0: 1, 1: -1})))


def test_vertex_rows_take_prefix_exponents():
    """The weighted theta (e1 = e2 = 1, e3 = -2): the vertex entry of arc i
    is eps_i t^(m_i), m_i the signed weight sum of the arcs before it plus
    min(eps_i, 0) w_i; at t = -1 both determinant routes read the same
    rows."""
    th = catalog.theta_trivial()
    weights = {"e1": 1, "e2": 1, "e3": -2}
    m = build_alexander_matrix(th, weights)
    assert m.rows == ((L({-1: -1}), L({-2: -1}), L({0: -1})),
                      (L({0: 1}), L({-1: 1}), L({1: 1})))
    assert graph_determinant(th, weights) == laurent_determinant(th, weights)


def rotate_vertex(d, vid, k):
    vertices = tuple(
        VertexNode(v.id, v.incident[k:] + v.incident[:k]) if v.id == vid
        else v for v in d.vertices)
    return Diagram(vertices, d.crossings, d.free_loops)


def test_cyclic_start_independence():
    th = catalog.theta_5_4()
    w = balanced_theta_weights(th)
    base = alexander_polynomial(th, w)
    for vid in (100, 101):
        for k in (1, 2):
            assert alexander_polynomial(rotate_vertex(th, vid, k), w) == base


def test_weight_scaling_substitutes_exponents():
    tre = catalog.trefoil()
    base = alexander_polynomial(tre, uniform_weights(tre, 1))
    scaled = alexander_polynomial(tre, uniform_weights(tre, 2))
    stretched = LaurentPoly({2 * e: c for e, c in base.terms()}, "t")
    assert scaled == stretched.normalize_units()


def test_r1_invariance_with_transported_weights():
    for name, d in small_corpus().items():
        if name == "theta_trivial":
            weights = {"e1": 1, "e2": 1, "e3": -2}
        else:
            weights = uniform_weights(d)
        base = alexander_polynomial(d, weights)
        for seg in sorted(d.segment_ids()):
            d2, prov = apply_r1_traced(d, seg, 1)
            w2 = transport_weights(d, weights, d2, prov)
            assert alexander_polynomial(d2, w2) == base, (name, seg)


def test_r2_invariance_with_transported_weights():
    import random
    rng = random.Random(63)
    for name, d in small_corpus().items():
        segs = sorted(d.segment_ids())
        if len(segs) < 2:
            continue
        if name == "theta_trivial":
            weights = {"e1": 1, "e2": 1, "e3": -2}
        else:
            weights = uniform_weights(d)
        base = alexander_polynomial(d, weights)
        for _ in range(4):
            s1, s2 = rng.sample(segs, 2)
            d2, prov = apply_r2_traced(d, s1, s2, rng.choice(R2_VARIANTS))
            w2 = transport_weights(d, weights, d2, prov)
            assert alexander_polynomial(d2, w2) == base, (name, s1, s2)


def test_alexander_at_minus_one_divides_determinant():
    for name, d in knot_corpus().items():
        w = uniform_weights(d)
        value = abs(alexander_polynomial(d, w).subs_int(-1))
        det = graph_determinant(d, w)
        assert det % value == 0 if value else det == 0, name


# -- Wirtinger presentations ------------------------------------------------

def _rank(rows):
    """Rank over the rationals by Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def _abelianized_rank_deficiency(pres):
    index = {g: i for i, g in enumerate(pres.generators)}
    rows = []
    for rel in pres.relators:
        row = [0] * len(pres.generators)
        for g, e in rel:
            row[index[g]] += e
        rows.append(row)
    if not rows:
        return len(pres.generators)
    return len(pres.generators) - _rank(rows)


def test_wirtinger_counts_and_abelianization():
    tre = catalog.trefoil()
    pres = wirtinger_presentation(tre)
    assert len(pres.generators) == 3
    assert len(pres.relators) == 3
    assert _abelianized_rank_deficiency(pres) == 1  # H1 of a knot complement

    th = catalog.theta_trivial()
    pres = wirtinger_presentation(th)
    assert len(pres.generators) == 3
    assert len(pres.relators) == 2
    assert _abelianized_rank_deficiency(pres) == 2  # two independent cycles

    th = catalog.theta_5_4()
    assert _abelianized_rank_deficiency(wirtinger_presentation(th)) == 2


def test_wirtinger_render_reduces():
    pres = wirtinger_presentation(catalog.kinked_unknot(1))
    assert pres.render() == "< a1 | 1 >"
    arcs = derive_arcs(catalog.trefoil())
    assert len(arcs) == len(wirtinger_presentation(catalog.trefoil()).generators)
