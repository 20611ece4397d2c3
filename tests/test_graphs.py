"""Abstract multigraphs: deletion/contraction, components, the
isomorphism certificate under random relabelings, and the state residues
against crossing-by-crossing resolution."""

import random
from itertools import product

import pytest

from sginv import catalog
from sginv.diagram import DiagramError, resolve_crossing
from sginv.graphs import (AbstractGraph, canonical_certificate,
                          connected_components, contract_edge, delete_edge,
                          to_abstract_graph)

from helpers import small_corpus


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
