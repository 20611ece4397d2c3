"""Abstract multigraphs: the crossing-free residue of a diagram.

Vertices are 0..n-1, edges an unordered multiset of pairs (loops allowed),
plus a count of free loops (circles not attached to any vertex).  These are
the objects the Yamada delete/contract axioms evaluate.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, groupby, permutations, product
from typing import NamedTuple

from .diagram import UnionFind


class AbstractGraph(NamedTuple):
    vertex_count: int
    edges: tuple  # sorted tuple of (u, v) with u <= v
    free_loops: int = 0

    @staticmethod
    def make(vertex_count, edges, free_loops=0):
        norm = tuple(sorted(tuple(sorted(e)) for e in edges))
        for u, v in norm:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u},{v}) out of range")
        return AbstractGraph(vertex_count, norm, free_loops)


def delete_edge(g: AbstractGraph, e) -> AbstractGraph:
    e = tuple(sorted(e))
    edges = list(g.edges)
    try:
        edges.remove(e)
    except ValueError:
        raise ValueError(f"edge {e} not in graph") from None
    return AbstractGraph.make(g.vertex_count, edges, g.free_loops)


def contract_edge(g: AbstractGraph, e) -> AbstractGraph:
    """Merge the endpoints of a nonloop edge; parallel copies become loops."""
    u, v = sorted(e)
    if u == v:
        raise ValueError("cannot contract a loop")
    edges = list(g.edges)
    try:
        edges.remove((u, v))
    except ValueError:
        raise ValueError(f"edge {(u, v)} not in graph") from None

    def relabel(w):
        if w == v:
            w = u
        return w if w < v else w - 1

    return AbstractGraph.make(g.vertex_count - 1,
                              [(relabel(a), relabel(b)) for a, b in edges],
                              g.free_loops)


def connected_components(g: AbstractGraph):
    """Split into connected AbstractGraphs (isolated vertices included);
    free loops are returned separately as a count."""
    uf = UnionFind(range(g.vertex_count))
    find = uf.find
    for u, v in g.edges:
        uf.union(u, v)
    comps = {}
    for v in range(g.vertex_count):
        comps.setdefault(find(v), []).append(v)
    out = []
    for root, verts in comps.items():
        index = {v: i for i, v in enumerate(sorted(verts))}
        edges = [(index[u], index[v]) for u, v in g.edges if find(u) == root]
        out.append(AbstractGraph.make(len(verts), edges, 0))
    return out, g.free_loops


def canonical_certificate(g: AbstractGraph) -> str:
    """A string equal exactly for isomorphic multigraphs.

    Exhaustive search over vertex relabelings, pruned by a degree/loop
    invariant: candidate orderings must list vertices in nondecreasing
    invariant order, and the lexicographically least relabeled edge multiset
    wins.  Inputs here are desk-scale (delete/contract residues), so the
    pruned search is plenty.
    """
    n = g.vertex_count
    if n == 0:
        return f"G[n=0;fl={g.free_loops};]"
    loops = Counter(u for u, v in g.edges if u == v)
    deg = Counter(w for e in g.edges if e[0] != e[1] for w in e)
    key = [(deg[v], loops[v]) for v in range(n)]
    groups = [tuple(vs) for _, vs in
              groupby(sorted(range(n), key=key.__getitem__), key.__getitem__)]
    best = None
    for parts in product(*map(permutations, groups)):
        labeling = {v: pos for pos, v in enumerate(chain.from_iterable(parts))}
        relabeled = tuple(sorted(tuple(sorted((labeling[u], labeling[v])))
                                 for u, v in g.edges))
        if best is None or relabeled < best:
            best = relabeled
    return f"G[n={n};fl={g.free_loops};{best}]"
