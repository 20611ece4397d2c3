"""Yamada polynomial: axioms on base cases, an independent non-memoized
oracle, multiplicativity, move behavior, and tabulated theta-curve values."""

import random
from itertools import combinations, permutations

from sginv import catalog
from sginv.diagram import (Crossing, Diagram, UnionFind, VertexNode,
                           resolve_crossing)
from sginv.graphs import (AbstractGraph, connected_components, contract_edge,
                          delete_edge, to_abstract_graph)
from sginv.laurent import LaurentPoly
from sginv.moves import apply_r1, apply_r2, disjoint_union, mirror
from sginv.yamada import (eval_crossing_free, sigma, yamada_normalized,
                          yamada_raw)

from helpers import small_corpus

A = LaurentPoly.monomial(1, 1, "A")
A_inv = LaurentPoly.monomial(1, -1, "A")
ONE = LaurentPoly.constant(1, "A")


def bouquet_diagram(k):
    """Single vertex with k loop edges."""
    incident = []
    for s in range(k):
        incident += [(s, "out"), (s, "in")]
    return Diagram((VertexNode(0, tuple(incident)),), (), 0)


def slow_yamada(d):
    """Independent evaluator: same skein, but resolving the *last* crossing
    and evaluating residues by brute delete/contract without memoization."""
    if d.crossings:
        idx = len(d.crossings) - 1
        return (A * slow_yamada(resolve_crossing(d, idx, "A"))
                + A_inv * slow_yamada(resolve_crossing(d, idx, "B"))
                + slow_yamada(resolve_crossing(d, idx, "V")))
    return slow_eval(to_abstract_graph(d))


def slow_eval(g):
    comps, loops = connected_components(g)
    out = sigma() ** loops if loops else ONE
    for comp in comps:
        nonloop = next((e for e in comp.edges if e[0] != e[1]), None)
        if nonloop is None:
            out = out * -((-sigma()) ** len(comp.edges))
        else:
            out = out * (slow_eval(delete_edge(comp, nonloop))
                         + slow_eval(contract_edge(comp, nonloop)))
    return out


def subset_expansion(g):
    """sigma^(free loops) * sum over kept edge sets K of
    (-1)^mu(K) y^beta(K), y = -A - 2 - A^-1, with mu the number of
    components of (V, K) and beta = |K| - |V| + mu its cycle rank."""
    y = -A - 2 * ONE - A_inv
    out = LaurentPoly.zero("A")
    for k in range(len(g.edges) + 1):
        for kept in combinations(g.edges, k):
            uf = UnionFind(range(g.vertex_count))
            for u, v in kept:
                uf.union(u, v)
            mu = len({uf.find(v) for v in range(g.vertex_count)})
            out = out + (-1) ** mu * y ** (k - g.vertex_count + mu)
    return out * sigma() ** g.free_loops


def test_crossing_free_matches_subset_expansion():
    rng = random.Random(2010)
    for _ in range(300):
        n = rng.randint(1, 5)
        edges = [(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(0, 7))]
        g = AbstractGraph.make(n, edges, rng.randint(0, 2))
        assert eval_crossing_free(g) == subset_expansion(g), g


def test_base_cases():
    assert yamada_raw(Diagram()) == ONE                      # empty diagram
    assert yamada_raw(catalog.unknot()) == sigma()           # single circle
    # lone vertex and bouquets B_0..B_4: -(-sigma)^n
    assert eval_crossing_free(AbstractGraph.make(1, [])) == -ONE
    for n in range(5):
        expected = -((-sigma()) ** n)
        assert eval_crossing_free(AbstractGraph.make(1, [(0, 0)] * n)) == \
            expected
        if n >= 1:
            assert yamada_raw(bouquet_diagram(n)) == expected


def test_theta_value():
    s = sigma()
    assert yamada_raw(catalog.theta_trivial()) == s - s * s


def test_kink_calibration():
    s = sigma()
    assert yamada_raw(catalog.kinked_unknot(1)) == A * A * s
    assert yamada_raw(catalog.kinked_unknot(-1)) == A_inv * A_inv * s


def test_matches_independent_oracle():
    for name, d in small_corpus().items():
        assert yamada_raw(d) == slow_yamada(d), name


def test_crossing_order_independence():
    tre = catalog.trefoil()
    base = yamada_raw(tre)
    for perm in permutations(tre.crossings):
        assert yamada_raw(Diagram((), perm, 0)) == base


def test_disjoint_union_multiplies():
    corpus = small_corpus()
    names = sorted(corpus)
    rng = random.Random(8)
    for _ in range(10):
        n1, n2 = rng.choice(names), rng.choice(names)
        u = disjoint_union(corpus[n1], corpus[n2])
        assert yamada_raw(u) == yamada_raw(corpus[n1]) * yamada_raw(corpus[n2])


def test_r1_scales_by_a_squared():
    for name, d in small_corpus().items():
        base = yamada_raw(d)
        for seg in sorted(d.segment_ids()):
            assert yamada_raw(apply_r1(d, seg, 1)) == A * A * base
            assert yamada_raw(apply_r1(d, seg, -1)) == A_inv * A_inv * base


def test_r2_preserves_raw():
    rng = random.Random(77)
    for name, d in small_corpus().items():
        segs = sorted(d.segment_ids())
        if len(segs) < 2:
            continue
        base = yamada_raw(d)
        for _ in range(4):
            s1, s2 = rng.sample(segs, 2)
            variant = rng.choice(("over+", "over-", "under+", "under-"))
            assert yamada_raw(apply_r2(d, s1, s2, variant)) == base


def test_normalized_invariant_under_r1():
    for name, d in small_corpus().items():
        base = yamada_normalized(d).normalized
        for seg in sorted(d.segment_ids()):
            for ch in (1, -1):
                got = yamada_normalized(apply_r1(d, seg, ch)).normalized
                assert got == base, (name, seg, ch)


def test_mirror_swaps_a_and_a_inverse():
    for name, d in small_corpus().items():
        m = yamada_raw(mirror(d))
        flipped = LaurentPoly({-e: c for e, c in yamada_raw(d).terms()}, "A")
        assert m == flipped, name


def test_normalized_zero_handling():
    res = yamada_normalized(Diagram())
    assert res.raw == ONE and res.min_power == 0


def test_theta_table_values():
    got = str(yamada_normalized(catalog.theta_5_3()).normalized)
    assert got == "-1 - A - A^2 - A^3 - A^4 - A^10 - A^12 - A^14 + A^16 + A^18"
    got = str(yamada_normalized(catalog.theta_5_4()).normalized)
    assert got == ("-1 - A - A^2 - A^3 - 2A^4 - A^5 - A^6 - A^7 + A^9 "
                   "+ A^11 + A^13 + A^16 - A^17")
