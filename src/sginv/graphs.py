"""Abstract multigraphs: the crossing-free residue of a diagram.

Vertices are 0..n-1, edges an unordered multiset of pairs (loops allowed),
plus a count of free loops (circles not attached to any vertex).  These are
the objects the Yamada delete/contract axioms evaluate.
"""

from __future__ import annotations

from itertools import permutations
from typing import NamedTuple

from .diagram import Diagram, DiagramError, UnionFind, smoothing_pairs


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


def to_abstract_graph(d: Diagram, state=()) -> AbstractGraph:
    """The crossing-free residue of `d` in one crossing state (the default
    fits crossing-free diagrams): "A"/"B" at state[i] joins the slots of
    crossing i as `smoothing_pairs` says, "V" makes it a 4-valent vertex
    after the diagram's own (in id order).  A class of the union-find over
    segments is an edge if it has two vertex ends, else a free loop."""
    if len(state) != len(d.crossings) or not set(state) <= {"A", "B", "V"}:
        raise DiagramError(f"state {state!r:.40} does not resolve the "
                           f"{len(d.crossings)} crossings")
    segs = d.segment_ids()
    uf = UnionFind(segs)
    ends = [[s for s, _ in v.incident]
            for v in sorted(d.vertices, key=lambda v: v.id)]
    for c, mode in zip(d.crossings, state):
        if mode == "V":
            ends.append([c.over_in, c.over_out, c.under_in, c.under_out])
        else:
            for a, b in smoothing_pairs(c.sign, mode):
                uf.union(getattr(c, a), getattr(c, b))
    attached = {}
    for i, vertex_segs in enumerate(ends):
        for s in vertex_segs:
            attached.setdefault(uf.find(s), []).append(i)
    closed = len({uf.find(s) for s in segs}) - len(attached)
    return AbstractGraph.make(len(ends), attached.values(),
                              d.free_loops + closed)


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

    Exhaustive backtracking over vertex relabelings, pruned by a degree/loop
    invariant: candidate orderings must list vertices in nondecreasing
    invariant order, and the lexicographically least relabeled edge multiset
    wins.  Inputs here are desk-scale (delete/contract residues), so the
    pruned search is plenty.
    """
    n = g.vertex_count
    if n == 0:
        return f"G[n=0;fl={g.free_loops};]"
    loops = [0] * n
    deg = [0] * n
    neigh = [[] for _ in range(n)]
    for u, v in g.edges:
        if u == v:
            loops[u] += 1
        else:
            deg[u] += 1
            deg[v] += 1
            neigh[u].append(v)
            neigh[v].append(u)
    key = [(deg[v], loops[v]) for v in range(n)]
    order = sorted(range(n), key=lambda v: key[v])
    groups = []
    for v in order:
        if groups and key[groups[-1][-1]] == key[v]:
            groups[-1].append(v)
        else:
            groups.append([v])

    best = None
    for perm_parts in _group_perms(groups):
        labeling = {}
        for pos, v in enumerate(perm_parts):
            labeling[v] = pos
        relabeled = tuple(sorted(tuple(sorted((labeling[u], labeling[v])))
                                 for u, v in g.edges))
        if best is None or relabeled < best:
            best = relabeled
    return f"G[n={n};fl={g.free_loops};{best}]"


def _group_perms(groups):
    """All orderings permuting only within invariant groups."""
    if not groups:
        yield []
        return
    head, rest = groups[0], groups[1:]
    for p in permutations(head):
        for tail in _group_perms(rest):
            yield list(p) + tail
