"""Abstract multigraphs: deletion/contraction, components, the
isomorphism certificate under random relabelings and against brute-force
isomorphism, and the state residues against crossing-by-crossing
resolution."""

import random
from itertools import permutations, product

import pytest

from sginv import catalog
from sginv.diagram import DiagramError, resolve_crossing
from sginv.graphs import (AbstractGraph, canonical_certificate,
                          connected_components, contract_edge, delete_edge)

from helpers import small_corpus, to_abstract_graph


def theta_graph():
    return AbstractGraph.make(2, [(0, 1), (0, 1), (0, 1)])


def test_make_normalizes_edges():
    g = AbstractGraph.make(3, [(2, 0), (1, 2), (0, 2)])
    assert g.edges == ((0, 2), (0, 2), (1, 2))
    with pytest.raises(ValueError):
        AbstractGraph.make(2, [(0, 2)])


def test_to_abstract_graph():
    g = to_abstract_graph(catalog.theta_trivial())
    assert g == theta_graph()
    assert to_abstract_graph(catalog.unknot()) == AbstractGraph.make(0, [], 1)
    with pytest.raises(DiagramError):
        to_abstract_graph(catalog.trefoil())  # still has crossings


def test_state_residue_matches_resolution():
    """The one-pass residue of every crossing state is isomorphic to the
    residue left by resolving the crossings one at a time, highest index
    first, with `resolve_crossing`."""
    for name, d in small_corpus().items():
        n = len(d.crossings)
        for state in product("ABV", repeat=n):
            resolved = d
            for idx in reversed(range(n)):
                resolved = resolve_crossing(resolved, idx, state[idx])
            assert (canonical_certificate(to_abstract_graph(d, state))
                    == canonical_certificate(to_abstract_graph(resolved))), \
                (name, state)
    tre = catalog.trefoil()
    for state in ("AB", "ABVA", "ABQ", ""):
        with pytest.raises(DiagramError):
            to_abstract_graph(tre, tuple(state))


def test_delete_and_contract_on_theta():
    g = theta_graph()
    d = delete_edge(g, (0, 1))
    assert d.edges == ((0, 1), (0, 1))
    c = contract_edge(g, (0, 1))
    # contracting one edge of a theta-graph leaves a bouquet of two loops
    assert c == AbstractGraph.make(1, [(0, 0), (0, 0)])
    with pytest.raises(ValueError):
        contract_edge(c, (0, 0))  # loop contraction undefined
    with pytest.raises(ValueError):
        delete_edge(g, (1, 1))


def test_connected_components():
    g = AbstractGraph.make(4, [(0, 1), (0, 1), (2, 2)], free_loops=2)
    comps, loops = connected_components(g)
    assert loops == 2
    shapes = sorted((c.vertex_count, c.edges) for c in comps)
    assert shapes == [(1, ()), (1, ((0, 0),)), (2, ((0, 1), (0, 1)))]


def random_relabel(rng, g):
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    return AbstractGraph.make(g.vertex_count,
                              [(perm[u], perm[v]) for u, v in g.edges],
                              g.free_loops)


def test_certificate_relabel_invariance():
    rng = random.Random(314159)
    pool = [
        theta_graph(),
        AbstractGraph.make(1, [(0, 0), (0, 0)], 1),
        AbstractGraph.make(4, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]),
        AbstractGraph.make(5, [(0, 1), (0, 1), (2, 3), (3, 4), (2, 4),
                               (1, 1)]),
        AbstractGraph.make(6, [(i, j) for i in range(4)
                               for j in range(i + 1, 4)]),
    ]
    for g in pool:
        cert = canonical_certificate(g)
        for _ in range(100):
            assert canonical_certificate(random_relabel(rng, g)) == cert


def test_certificate_distinguishes():
    a = theta_graph()
    b = AbstractGraph.make(2, [(0, 1), (0, 1), (0, 0)])
    c = AbstractGraph.make(2, [(0, 1), (0, 1), (0, 1)], free_loops=1)
    certs = {canonical_certificate(g) for g in (a, b, c)}
    assert len(certs) == 3
    # a path and a disjoint edge+vertex have the same degree multiset
    p = AbstractGraph.make(3, [(0, 1), (1, 2)])
    q = AbstractGraph.make(4, [(0, 1), (2, 3)])
    assert canonical_certificate(p) != canonical_certificate(q)


def _isomorphic(g, h):
    """Brute force: one of the n! relabelings of g is h."""
    return (g.vertex_count == h.vertex_count and g.free_loops == h.free_loops
            and any(AbstractGraph.make(g.vertex_count,
                                       [(p[u], p[v]) for u, v in g.edges],
                                       g.free_loops) == h
                    for p in permutations(range(g.vertex_count))))


def test_certificate_matches_brute_force_isomorphism():
    """Certificates agree exactly when some relabeling maps one multigraph
    onto the other.  h is a relabeled copy of g, with its free loop count
    changed one time in five and one degree-preserving swap of two edge ends
    four times in five, so most pairs share their degree/loop invariants
    whether or not they are isomorphic."""
    rng = random.Random(271828)
    seen = {True: 0, False: 0}
    for _ in range(1000):
        n = rng.randint(1, 6)
        edges = [(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(0, 8))]
        g = AbstractGraph.make(n, edges, rng.randint(0, 1))
        h = random_relabel(rng, g)
        if rng.random() < 0.2:
            h = h._replace(free_loops=1 - h.free_loops)
        if len(h.edges) >= 2 and rng.random() < 0.8:
            (a, b), (c, d) = pair = rng.sample(h.edges, 2)
            rest = list(h.edges)
            for e in pair:
                rest.remove(e)
            h = AbstractGraph.make(n, rest + [(a, d), (c, b)], h.free_loops)
        same = _isomorphic(g, h)
        assert (canonical_certificate(g) == canonical_certificate(h)) == same, \
            (g, h)
        seen[same] += 1
    assert min(seen.values()) > 150, seen


def test_certificate_past_the_recursion_limit():
    """A hub joined to 1,100 vertices that each have their own count of hub
    edges and loops: 1,101 invariant classes, more than the default recursion
    limit of 1,000, each of one vertex, so there is one candidate ordering."""
    edges = []
    for i in range(1100):
        edges += [(0, i + 1)] * (1 + i // 33) + [(i + 1, i + 1)] * (i % 33)
    g = AbstractGraph.make(1101, edges)
    assert len(edges) > 35_000
    cert = canonical_certificate(g)
    assert cert.startswith("G[n=1101;fl=0;((0, 1100), (1, 1), (1, 1100),")
    assert canonical_certificate(random_relabel(random.Random(5), g)) == cert
